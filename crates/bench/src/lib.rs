//! The experiment harness: one executable, `beldi-bench <subcommand>`,
//! plus the library code its subcommands share and the HTTP front door
//! ([`front`]).
//!
//! | Subcommand | Reproduces / does |
//! |------------|-------------------|
//! | `fig13`   | Median/p99 per-operation latency, baseline vs Beldi vs cross-table (20-row DAAL; `--rows 5` gives Fig. 25) |
//! | `fig14`   | Latency vs throughput, movie review service |
//! | `fig15`   | Latency vs throughput, travel reservation (with the cross-SSF transaction) |
//! | `fig16`   | Median write latency over time under GC configurations |
//! | `fig26`   | Latency vs throughput, social media site |
//! | `costs`   | §7.3's storage / network overhead accounting |
//! | `drive`   | Closed-loop concurrent workload driver (`BENCH_results.json`) |
//! | `gate`    | CI gates over `drive` reports: equality with the baseline, storage growth, chaos recovery |
//! | `explore` | Systematic crash-schedule exploration |
//! | `front`   | The HTTP front door: serve an app, or run its smoke gate |
//!
//! [`cli::SUBCOMMANDS`] is the table the executable dispatches on; each
//! subcommand's flags come from `beldi-bench <subcommand> --help`
//! (`DESIGN.md` §4).
//!
//! All latencies are **virtual-time** milliseconds on a
//! [`SimClock`](beldi::simclock::SimClock): sums of modelled waits, the
//! same on every host. Absolute values depend on the latency model; the
//! comparative *shapes* are the reproduction targets (baseline ≪ Beldi ≈
//! cross-table latency; `invoke` is the heaviest operation).

#![warn(clippy::let_underscore_must_use)]

pub mod cli;
mod cmd;
pub mod front;

use std::sync::Arc;
use std::time::Duration;

use beldi::value::Value;
use beldi::{BeldiConfig, BeldiEnv, Mode};
use beldi_apps::WorkflowApp;
use beldi_simfaas::{PlatformConfig, SaturationPolicy};
use beldi_workload::driver::{driver_platform, lambda_like_platform};
use beldi_workload::{Histogram, RunReport};

/// The three measured systems, in the paper's presentation order.
pub const SYSTEMS: [Mode; 3] = [Mode::Baseline, Mode::Beldi, Mode::CrossTable];

/// Beldi configuration for a mode with experiment-friendly knobs.
pub fn config_for(mode: Mode, row_capacity: usize) -> BeldiConfig {
    BeldiConfig::for_mode(mode).with_row_capacity(row_capacity)
}

/// A low-overhead platform for micro-benchmarks (per-operation costs,
/// where platform dispatch would mask database round trips).
pub fn microbench_platform() -> PlatformConfig {
    PlatformConfig {
        concurrency_limit: 10_000,
        invoke_timeout: Duration::from_secs(24 * 3600),
        cold_start: Duration::from_millis(5),
        warm_start: Duration::from_millis(1),
        invoke_overhead: Duration::from_millis(1),
        warm_pool_per_fn: 10_000,
        saturation: SaturationPolicy::Queue,
    }
}

/// The seed of every harness environment and its clock's schedule.
const HARNESS_SEED: u64 = 42;

/// The builder every harness environment here starts from: DynamoDB-shaped
/// latencies, seed 42 (the substrate's and, on the default clock, the
/// schedule's), and the given configuration and platform.
fn harness(cfg: BeldiConfig, platform: PlatformConfig) -> beldi::EnvBuilder {
    BeldiEnv::builder(cfg)
        .latency(beldi_simdb::LatencyModel::dynamo())
        .platform(platform)
        .seed(HARNESS_SEED)
}

/// Builds an environment with the DynamoDB-shaped latency model and the
/// low-overhead platform (per-operation experiments).
///
/// `tail_cache` is the DAAL tail-row cache flag. The per-operation
/// tables (`fig13`, `costs`) pass `false` unless given `--tail-cache`:
/// they reproduce the *paper's* read protocol — one traversal scan plus
/// one point get — and §7.3's "one extra scan per read" would vanish
/// with the cache warm. The app-level harnesses and the workload driver
/// keep the runtime default (cache on).
///
/// Like every environment here, it runs on the builder's default clock,
/// a fresh
/// [`SimClock`](beldi::simclock::SimClock): the calling thread is the
/// clock's first participant, and any other thread that touches the
/// environment must be started with `env.clock().spawn`.
pub fn experiment_env(mode: Mode, row_capacity: usize, tail_cache: bool) -> BeldiEnv {
    let cfg = config_for(mode, row_capacity).with_tail_cache(tail_cache);
    harness(cfg, microbench_platform()).build()
}

/// The HTTP front door's environment — like [`app_env`] but on the
/// workload driver's platform (an effectively unbounded invocation
/// timeout). The door reaches it only through its admission
/// participant, a thread of this clock (`front`'s module docs).
pub fn front_env(mode: Mode) -> BeldiEnv {
    let cfg = config_for(mode, 100);
    harness(cfg, driver_platform(None)).build()
}

/// Builds an environment for the app-level load experiments (Figs.
/// 14/15/26): DynamoDB latencies plus the Lambda-like platform.
pub fn app_env(mode: Mode) -> BeldiEnv {
    let cfg = config_for(mode, 100);
    harness(cfg, lambda_like_platform()).build()
}

/// Registers the micro-op SSFs used by Fig. 13/25: a single `micro` SSF
/// whose input selects the operation (`read`/`write`/`condwrite`), so all
/// three storage ops target the *same* key — whose DAAL
/// [`prepopulate_daal`] deepens — plus an `op-invoke` SSF calling a
/// `noop` SSF (§7.3: 1-byte keys, 16-byte values).
pub fn register_micro_ops(env: &BeldiEnv) {
    env.register_ssf("noop", &[], Arc::new(|_, input| Ok(input)));
    env.register_ssf(
        "micro",
        &["t"],
        Arc::new(|ctx, input| {
            // `count` repetitions per invocation let harnesses amortize
            // per-invocation bookkeeping out of per-operation costs.
            let count = input.get_int("count").unwrap_or(1).max(1);
            let mut last = Value::Null;
            for _ in 0..count {
                last = match input.get_str("op") {
                    Some("read") => ctx.read("t", "k")?,
                    Some("write") => {
                        ctx.write("t", "k", Value::from(VALUE_16B))?;
                        Value::Null
                    }
                    Some("condwrite") => {
                        // A condition that holds (absent value, or any
                        // string value), so the success path — the common
                        // case — is measured.
                        let ok = ctx.cond_write(
                            "t",
                            "k",
                            Value::from(VALUE_16B),
                            beldi::value::Cond::not_exists(beldi::A_VALUE)
                                .or(beldi::value::Cond::le(beldi::A_VALUE, "~")),
                        )?;
                        Value::Bool(ok)
                    }
                    other => {
                        return Err(beldi::BeldiError::Protocol(format!(
                            "unknown micro op {other:?}"
                        )))
                    }
                };
            }
            Ok(last)
        }),
    );
    env.register_ssf(
        "op-invoke",
        &[],
        Arc::new(|ctx, input| ctx.sync_invoke("noop", input)),
    );
}

/// Builds the payload selecting a micro op.
pub fn micro_payload(op: &str) -> Value {
    beldi::value::vmap! { "op" => op }
}

/// Builds a micro-op payload performing the op `count` times.
pub fn micro_payload_n(op: &str, count: i64) -> Value {
    beldi::value::vmap! { "op" => op, "count" => count }
}

/// The paper's 16-byte value.
pub const VALUE_16B: &str = "0123456789abcdef";

/// Grows the DAAL of the micro-op key to roughly `rows` rows by issuing
/// `rows × capacity` writes (Fig. 13 pre-populates 20 rows, the length of
/// a 30-minute run without GC; Fig. 25 uses 5).
pub fn prepopulate_daal(env: &BeldiEnv, rows: usize, capacity: usize) {
    for _ in 0..rows * capacity {
        env.invoke("micro", micro_payload("write"))
            .expect("prepopulate write");
    }
}

/// Measures `iters` invocations of `ssf` with `payload`, returning the
/// virtual-latency histogram. When one invocation performs `ops`
/// operations ([`micro_payload_n`]) each sample is divided by `ops` —
/// isolating the per-*operation* cost from per-invocation bookkeeping,
/// which is how the paper's Fig. 13 frames its bars.
pub fn measure_op(env: &BeldiEnv, ssf: &str, payload: &Value, iters: usize, ops: u32) -> Histogram {
    let mut hist = Histogram::new();
    let clock = env.clock();
    for _ in 0..iters {
        let t0 = clock.now();
        env.invoke(ssf, payload.clone()).expect("op invocation");
        hist.record(clock.now().since(t0) / ops);
    }
    hist
}

/// Runs a latency-vs-throughput sweep of an application (the Figs.
/// 14/15/26 methodology): for each offered rate, a fresh environment is
/// built by `make_env` (mode, latency model, platform cap), `app` is set
/// up in it, and an open-loop run executed, request `i` drawn from
/// `request_rng(seed + i)`; each point reports achieved rate, p50, and
/// p99.
pub fn sweep_app(
    make_env: &dyn Fn() -> BeldiEnv,
    app: &Arc<dyn WorkflowApp>,
    seed: u64,
    rates: &[f64],
    duration: Duration,
    issuers: usize,
) -> Vec<RunReport> {
    rates
        .iter()
        .map(|&rate| {
            let env = Arc::new(make_env());
            app.setup(&env);
            let runner =
                beldi_workload::RateRunner::new(env.clock().clone(), rate, duration, issuers);
            let app = Arc::clone(app);
            runner.run(Arc::new(move |i| {
                let mut rng = beldi_apps::rng::request_rng(seed + i);
                let payload = app.gen_load_request(&mut rng);
                env.invoke(app.entry_point(), payload).is_ok()
            }))
        })
        .collect()
}

/// Formats sweep points as table rows for [`print_table`].
pub fn sweep_rows(system: &str, points: &[RunReport]) -> Vec<Vec<String>> {
    points
        .iter()
        .map(|p| {
            vec![
                system.to_owned(),
                format!("{:.0}", p.offered_rate),
                format!("{:.0}", p.achieved_rate),
                ms(p.latency.p50),
                ms(p.latency.p99),
                p.errors.to_string(),
            ]
        })
        .collect()
}

/// Column headers matching [`sweep_rows`].
pub const SWEEP_HEADERS: [&str; 6] = [
    "system",
    "offered_rps",
    "achieved_rps",
    "p50_ms",
    "p99_ms",
    "errors",
];

/// Renders a row-oriented table to stdout (the harnesses' output format:
/// greppable columns, one row per series point).
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n# {title}");
    println!("{}", headers.join("\t"));
    for row in rows {
        println!("{}", row.join("\t"));
    }
}

/// Formats a duration as fractional milliseconds.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_env_runs_every_op() {
        let env = experiment_env(Mode::Beldi, 5, false);
        register_micro_ops(&env);
        for op in ["read", "write", "condwrite"] {
            let h = measure_op(&env, "micro", &micro_payload(op), 3, 1);
            assert_eq!(h.len(), 3, "{op}");
            assert!(h.max() > Duration::ZERO, "{op} should cost time");
        }
        let h = measure_op(&env, "op-invoke", &Value::Null, 3, 1);
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn prepopulate_grows_the_chain() {
        let env = experiment_env(Mode::Beldi, 5, false);
        register_micro_ops(&env);
        prepopulate_daal(&env, 4, 5);
        let len = env.daal_chain_len("micro", "t", "k").unwrap();
        assert!(len >= 4, "expected >= 4 rows, got {len}");
    }

    #[test]
    fn all_three_systems_run_the_micro_ops() {
        for mode in SYSTEMS {
            let env = experiment_env(mode, 5, false);
            register_micro_ops(&env);
            let h = measure_op(&env, "micro", &micro_payload("write"), 2, 1);
            assert_eq!(h.len(), 2, "{}", mode.name());
        }
    }
}
