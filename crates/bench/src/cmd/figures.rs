//! The paper's evaluation as one table, [`FIGURES`]: a row per
//! experiment, run by the subcommand of its name (DESIGN.md §4). A row
//! holds its tables' titles and headers, a measure function whose
//! arguments are the row's series and points, and the claim its printed
//! cells must bear out: `claim: … holds`, or `claim failed: …` and exit 1.
//!
//! A claim checks one of the paper's *shapes* — an ordering, a ratio, a
//! plateau — never an absolute number: latencies are virtual-time
//! milliseconds under this repository's latency model.

use std::error::Error;
use std::sync::Arc;
use std::time::Duration;

use beldi::value::{vmap, Cond, Value};
use beldi::{BeldiConfig, BeldiEnv, BeldiError, Mode, SsfBody};
use beldi_apps::rng::request_rng;
use beldi_apps::{MediaApp, SocialApp, TravelApp, WorkflowApp};
use beldi_simfaas::{PlatformConfig, SaturationPolicy};
use beldi_workload::driver::lambda_like_platform;
use beldi_workload::{Histogram, RateRunner};

use crate::cli::run_error;
use crate::{harness, print_table, print_verdict};

/// One experiment: a row of [`FIGURES`].
pub(crate) struct Figure {
    /// The subcommand that runs it.
    pub(crate) name: &'static str,
    /// Each printed table's title and headers, in print order; the first
    /// title is the subcommand's line in the listing.
    pub(crate) tables: &'static [(&'static str, &'static [&'static str])],
    /// Measures the row: each table's rows of cells.
    measure: fn() -> Measured,
    /// The claim in words, and its check over the printed tables.
    claim: (&'static str, Claim),
}

type Measured = Result<Vec<Vec<Vec<String>>>, Box<dyn Error>>;
type Claim = fn(&[Table]) -> Result<(), String>;

const LATENCY: &[&str] = &["op", "system", "p50_ms", "p99_ms"];
const SWEEP: &[&str] = &[
    "system",
    "offered_rps",
    "achieved_rps",
    "p50_ms",
    "p99_ms",
    "errors",
];
const LATENCY_CLAIM: &str = "baseline p50 below Beldi's and cross-table's for every op; \
    cross-table reads below Beldi's, its writes and condwrites above; invoke within 5 % in \
    both; beldi+cache reads and writes no dearer than Beldi's";
const SWEEP_CLAIM: &str = "every series achieves >= 0.75x the lowest offered rate; baseline \
    p50 below Beldi's at every rate; Beldi's top-rate p50 >= 2x its lowest (the knee); \
    baseline's top achieved rate >= Beldi's";

/// The experiment table, in the paper's order.
#[rustfmt::skip]
pub(crate) static FIGURES: [Figure; 7] = [
    Figure {
        name: "fig13",
        tables: &[("Figure 13: per-operation latency, 20-row DAAL (ms, virtual)", LATENCY)],
        measure: || per_op(20, 300, false),
        claim: (LATENCY_CLAIM, latency_claim),
    },
    Figure {
        name: "fig25",
        tables: &[("Figure 25-style: per-operation latency, 5-row DAAL (ms, virtual)", LATENCY)],
        measure: || per_op(5, 300, false),
        claim: (LATENCY_CLAIM, latency_claim),
    },
    Figure {
        name: "costs",
        tables: &[
            ("Per-operation database costs (averages per op)",
                &["op", "system", "db_ops", "rows_scanned", "bytes_read", "bytes_written"]),
            ("Beldi storage footprint of the hot key", &["system", "daal_rows", "total_bytes_written"]),
        ],
        measure: || per_op(20, 100, true),
        claim: ("only Beldi's uncached read scans rows, at >= 1 db op more than baseline's; \
            invoke costs the same db ops and bytes written in Beldi and cross-table", costs_claim),
    },
    Figure {
        name: "fig14",
        tables: &[("Figure 14: movie review service, latency vs throughput (ms, virtual)", SWEEP)],
        measure: || sweep(|_| Arc::new(MediaApp::default()), 0x14D1A, &BELDI_SERIES),
        claim: (SWEEP_CLAIM, sweep_claim),
    },
    Figure {
        name: "fig15",
        tables: &[
            ("Figure 15: travel reservation, latency vs throughput (ms, virtual)", SWEEP),
            ("Figure 15 companion: inventory consistency after contended reservations",
                &["system", "rooms_left", "seats_left", "leg_drift"]),
        ],
        measure: travel,
        claim: ("every series achieves >= 0.75x the lowest offered rate; baseline p50 below \
            Beldi's at every rate; Beldi's top-rate p50 >= 2x its lowest (the knee); baseline's \
            top achieved rate >= Beldi's; beldi-notxn p50 <= Beldi's at every rate; after \
            contended reservations Beldi's legs agree and baseline's drift", travel_claim),
    },
    Figure {
        name: "fig16",
        tables: &[("Figure 16: single-write SSF latency over time under GC configurations (ms, \
            virtual)", &["config", "minute", "p50_ms", "p99_ms", "daal_rows"])],
        measure: || gc_minutes(15, 2.0),
        claim: ("no-gc's last-minute p50 >= 1.5x its minute 0 and above gc-T=1min's; from \
            minute 3 on, gc-T=1min's p50 stays within 10 % and its chain within 1.5x of minute \
            3's; cross-table's p50 stays within 10 % of its median", gc_claim),
    },
    Figure {
        name: "fig26",
        tables: &[("Figure 26: social media site, latency vs throughput (ms, virtual)", SWEEP)],
        measure: || sweep(|_| Arc::new(SocialApp::default()), 0x50C1A1, &BELDI_SERIES),
        claim: (SWEEP_CLAIM, sweep_claim),
    },
];

impl Figure {
    /// Measures, prints the tables and the claim's verdict, and returns
    /// the exit status: 1 when the claim fails. A failed measurement
    /// exits 1.
    pub(crate) fn run(&self) -> i32 {
        let tables = self.measure();
        let tables = tables.unwrap_or_else(|e| run_error(format!("{}: {e}", self.name)));
        for t in &tables {
            print_table(t.title, t.head, &t.rows);
        }
        let (claim, check) = self.claim;
        let failure = check(&tables).err();
        i32::from(print_verdict("claim", claim, failure.as_slice()))
    }

    fn measure(&self) -> Result<Vec<Table>, Box<dyn Error>> {
        let mut tables = Vec::new();
        for (&(title, head), rows) in self.tables.iter().zip((self.measure)()?) {
            tables.push(Table { title, head, rows });
        }
        Ok(tables)
    }
}

/// A printed table, as a claim reads it.
#[derive(Clone)]
pub(crate) struct Table {
    title: &'static str,
    head: &'static [&'static str],
    rows: Vec<Vec<String>>,
}

impl Table {
    /// The `col` cells, as numbers, of the rows whose leading cells are
    /// `key`, in print order; an error when there are none.
    fn column(&self, key: &[&str], col: &str) -> Result<Vec<f64>, String> {
        let at = self.head.iter().position(|h| *h == col);
        let at = at.ok_or_else(|| format!("no column {col}"))?;
        let keyed = |row: &&Vec<String>| key.iter().zip(row.iter()).all(|(k, cell)| cell == k);
        let cells = self.rows.iter().filter(keyed).map(|row| row[at].parse());
        let cells = cells.collect::<Result<Vec<f64>, _>>();
        let cells = cells.map_err(|e| format!("{key:?} {col}: {e}"))?;
        match cells.is_empty() {
            true => Err(format!("no row {key:?}")),
            false => Ok(cells),
        }
    }

    /// The `col` cell of the first row whose leading cells are `key`.
    fn cell(&self, key: &[&str], col: &str) -> Result<f64, String> {
        Ok(self.column(key, col)?[0])
    }
}

/// The last of `cells`, which [`Table::column`] never leaves empty.
fn last(cells: &[f64]) -> f64 {
    cells[cells.len() - 1]
}

/// Returns the claim's failure unless `a op b` (`op` is `<`, `<=` or
/// `==`), naming what was compared (format arguments) and both sides.
macro_rules! check {
    ($a:expr, $op:tt, $b:expr, $($what:tt)+) => {{
        let (a, b): (f64, f64) = ($a, $b);
        let holds = a $op b;
        if !holds {
            let what = format!($($what)+);
            return Err(format!("{what}: {a} {} {b} is false", stringify!($op)));
        }
    }};
}

/// Figs. 13 and 25: see [`LATENCY_CLAIM`].
fn latency_claim(t: &[Table]) -> Result<(), String> {
    let p50 = |op: &str, system: &str| t[0].cell(&[op, system], "p50_ms");
    for op in OPS {
        let base = p50(op, "baseline")?;
        check!(base, <, p50(op, "beldi")?, "{op} p50, baseline vs Beldi");
        check!(base, <, p50(op, "cross-table")?, "{op} p50, baseline vs cross-table");
    }
    check!(p50("read", "cross-table")?, <, p50("read", "beldi")?, "read p50, cross-table vs Beldi");
    for op in ["write", "condwrite"] {
        check!(p50(op, "beldi")?, <, p50(op, "cross-table")?, "{op} p50, Beldi vs cross-table");
    }
    let (beldi, cross) = (p50("invoke", "beldi")?, p50("invoke", "cross-table")?);
    let apart = (beldi - cross).abs();
    check!(apart, <=, 0.05 * beldi.min(cross), "invoke p50, Beldi - cross-table vs 5 %");
    for op in ["read", "write"] {
        check!(p50(op, "beldi+cache")?, <=, p50(op, "beldi")?, "{op} p50, beldi+cache vs Beldi");
    }
    Ok(())
}

/// §7.3's costs: Beldi's read scans its chain and pays an extra op; an
/// invoke is logged alike in both logged modes.
fn costs_claim(t: &[Table]) -> Result<(), String> {
    let cost = |op: &str, system: &str, col: &str| t[0].cell(&[op, system], col);
    check!(0.0, <, cost("read", "beldi", "rows_scanned")?, "Beldi's read, rows scanned");
    for system in ["baseline", "cross-table", "beldi+cache"] {
        check!(cost("read", system, "rows_scanned")?, ==, 0.0, "{system}'s read, rows scanned");
    }
    let base = cost("read", "baseline", "db_ops")?;
    check!(base + 1.0, <=, cost("read", "beldi", "db_ops")?, "read db_ops, baseline + 1 vs Beldi");
    for col in ["db_ops", "bytes_written"] {
        let beldi = cost("invoke", "beldi", col)?;
        check!(beldi, ==, cost("invoke", "cross-table", col)?, "invoke {col}, Beldi vs cross-table");
    }
    Ok(())
}

/// Fig. 16: with GC the chain and the write latency plateau; without it
/// both grow. No claim reads `gc-T=10min` or `gc-T=30min`: their p50
/// rises until about `2·T`, after a 15-minute run ends.
fn gc_claim(t: &[Table]) -> Result<(), String> {
    let col = |config: &str, col: &str| t[0].column(&[config], col);
    let (no_gc, gc) = (col("no-gc", "p50_ms")?, col("gc-T=1min", "p50_ms")?);
    check!(1.5 * no_gc[0], <=, last(&no_gc), "no-gc p50, 1.5x minute 0 vs the last minute");
    check!(last(&gc), <, last(&no_gc), "last-minute p50, gc-T=1min vs no-gc");
    let chain = col("gc-T=1min", "daal_rows")?;
    let (Some(&p50_3), Some(&chain_3)) = (gc.get(3), chain.get(3)) else {
        return Err("gc-T=1min: fewer than 4 minutes".into());
    };
    for (m, (&p50, &rows)) in gc.iter().zip(&chain).enumerate().skip(3) {
        check!((p50 - p50_3).abs(), <=, 0.1 * p50_3, "gc-T=1min p50, minute {m} - 3 vs 10 %");
        check!(rows, <=, 1.5 * chain_3, "gc-T=1min daal_rows, minute {m} vs 1.5x minute 3");
    }
    let cross = col("cross-table", "p50_ms")?;
    let mut sorted = cross.clone();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];
    for (m, p50) in cross.into_iter().enumerate() {
        check!((p50 - median).abs(), <=, 0.1 * median, "cross-table p50, minute {m} - median");
    }
    Ok(())
}

/// Figs. 14, 15 and 26: see [`SWEEP_CLAIM`]. Rates ascend in print order.
fn sweep_claim(t: &[Table]) -> Result<(), String> {
    let col = |system: &str, col: &str| t[0].column(&[system], col);
    let mut systems: Vec<&str> = t[0].rows.iter().map(|row| row[0].as_str()).collect();
    systems.dedup();
    for s in systems {
        let (offered, achieved) = (col(s, "offered_rps")?[0], col(s, "achieved_rps")?[0]);
        check!(0.75 * offered, <=, achieved, "{s} at the lowest rate, 0.75x offered vs achieved");
    }
    let (base, beldi) = (col("baseline", "p50_ms")?, col("beldi", "p50_ms")?);
    for ((rate, &b), &l) in col("beldi", "offered_rps")?.iter().zip(&base).zip(&beldi) {
        check!(b, <, l, "p50 at {rate} rps, baseline vs Beldi");
    }
    check!(2.0 * beldi[0], <=, last(&beldi), "Beldi p50, 2x the lowest rate's vs the top rate's");
    let top = |system| col(system, "achieved_rps").map(|a| last(&a));
    check!(top("beldi")?, <=, top("baseline")?, "top achieved rate, Beldi vs baseline");
    Ok(())
}

/// Fig. 15: the sweep's claim, and a transaction's cost and guarantee.
fn travel_claim(t: &[Table]) -> Result<(), String> {
    sweep_claim(t)?;
    let col = |system: &str, col: &str| t[0].column(&[system], col);
    let (txn, notxn) = (col("beldi", "p50_ms")?, col("beldi-notxn", "p50_ms")?);
    for ((rate, &txn), &notxn) in col("beldi", "offered_rps")?.iter().zip(&txn).zip(&notxn) {
        check!(notxn, <=, txn, "p50 at {rate} rps, beldi-notxn vs Beldi");
    }
    let drift = |system: &str| t[1].cell(&[system], "leg_drift");
    check!(drift("beldi")?, ==, 0.0, "Beldi's leg drift");
    check!(0.0, <, drift("baseline")?, "baseline's leg drift");
    Ok(())
}

/// The ops §7.3 measures, in print order.
const OPS: [&str; 4] = ["read", "write", "condwrite", "invoke"];

/// §7.3's series: the three systems with the DAAL tail cache off, so
/// Beldi runs the paper's protocols (DESIGN.md §9), then Beldi with the
/// cache on, as the workload driver and the benchmark run it.
const PER_OP_SERIES: [(&str, Mode, bool); 4] = [
    ("baseline", Mode::Baseline, false),
    ("beldi", Mode::Beldi, false),
    ("cross-table", Mode::CrossTable, false),
    ("beldi+cache", Mode::Beldi, true),
];

/// Log entries per DAAL row: a real 400 KB row holds hundreds, and at 100
/// the measured writes barely deepen the pre-populated chain.
const CAPACITY: usize = 100;

/// The paper's 16-byte value.
const VALUE_16B: &str = "0123456789abcdef";

/// §7.3's micro-benchmark, sequential requests: [`OPS`] on one hot key
/// whose DAAL is pre-populated to `rows` rows (the paper's 20 is its
/// length after 30 minutes without GC), `iters` invocations per op and
/// series. Latency percentiles, or with `costs` db costs and storage.
fn per_op(rows: usize, iters: usize, costs: bool) -> Measured {
    let (mut table, mut storage) = (Vec::new(), Vec::new());
    for (system, mode, tail_cache) in PER_OP_SERIES {
        let env = experiment_env(mode, CAPACITY, tail_cache);
        register_micro_ops(&env);
        if costs {
            env.seed("micro", "t", "k", Value::from(VALUE_16B))?;
        }
        if mode == Mode::Beldi {
            prepopulate_daal(&env, rows - 1, CAPACITY)?;
            if !costs {
                let len = env.daal_chain_len("micro", "t", "k")?;
                eprintln!("({system}: hot-key DAAL depth before measurement: {len} rows)");
            }
        }
        for op in OPS {
            // 8 ops per invocation amortize the intent bookkeeping out of
            // a per-op number, the paper's framing.
            let (ssf, payload, ops) = match op {
                "invoke" => ("op-invoke", Value::Null, 1),
                _ => ("micro", vmap! { "op" => op, "count" => 8 }, 8),
            };
            let mut cells = vec![op.to_owned(), system.to_owned()];
            if costs {
                let before = env.db_metrics();
                for _ in 0..iters {
                    env.invoke(ssf, payload.clone())?;
                }
                let d = env.db_metrics().delta(&before);
                let per = |v: u64| format!("{:.1}", v as f64 / (iters * ops as usize) as f64);
                let counts = [d.total_ops(), d.rows_scanned, d.bytes_read, d.bytes_written];
                cells.extend(counts.map(per));
            } else {
                let p = measure_op(&env, ssf, &payload, iters, ops)?.percentiles();
                cells.extend([ms(p.p50), ms(p.p99)]);
            }
            table.push(cells);
        }
        if costs && mode == Mode::Beldi {
            let depth = env.daal_chain_len("micro", "t", "k")?.to_string();
            let written = env.db_metrics().bytes_written.to_string();
            storage.push(vec![system.to_owned(), depth, written]);
        }
    }
    Ok(vec![table, storage]) // the latency rows print the first only
}

/// A low-overhead platform for the per-op and GC rows, where platform
/// dispatch would mask database round trips.
const MICROBENCH_PLATFORM: PlatformConfig = PlatformConfig {
    concurrency_limit: 10_000,
    invoke_timeout: Duration::from_secs(24 * 3600),
    cold_start: Duration::from_millis(5),
    warm_start: Duration::from_millis(1),
    invoke_overhead: Duration::from_millis(1),
    warm_pool_per_fn: 10_000,
    saturation: SaturationPolicy::Queue,
};

/// A per-op environment: the low-overhead platform, `row_capacity`-entry
/// DAAL rows, and the tail cache on or off.
pub(crate) fn experiment_env(mode: Mode, row_capacity: usize, tail_cache: bool) -> BeldiEnv {
    let cfg = BeldiConfig::for_mode(mode).with_row_capacity(row_capacity);
    harness(cfg.with_tail_cache(tail_cache), MICROBENCH_PLATFORM).build()
}

/// Registers `micro`, whose input selects the op (`read`, `write` or
/// `condwrite`, `count` times) on one key, and `op-invoke`, which calls
/// a `noop` SSF (§7.3: 1-byte keys, 16-byte values).
pub(crate) fn register_micro_ops(env: &BeldiEnv) {
    env.register_ssf("noop", &[], Arc::new(|_, input| Ok(input)));
    env.register_ssf(
        "micro",
        &["t"],
        Arc::new(|ctx, input| {
            let mut last = Value::Null;
            for _ in 0..input.get_int("count").unwrap_or(1).max(1) {
                last = match input.get_str("op") {
                    Some("read") => ctx.read("t", "k")?,
                    Some("write") => {
                        ctx.write("t", "k", Value::from(VALUE_16B))?;
                        Value::Null
                    }
                    // A condition that holds (absent value, or any string
                    // value), so the common success path is measured.
                    Some("condwrite") => {
                        let cond =
                            Cond::not_exists(beldi::A_VALUE).or(Cond::le(beldi::A_VALUE, "~"));
                        Value::Bool(ctx.cond_write("t", "k", Value::from(VALUE_16B), cond)?)
                    }
                    other => {
                        return Err(BeldiError::Protocol(format!("unknown micro op {other:?}")))
                    }
                };
            }
            Ok(last)
        }),
    );
    let invoke: SsfBody = Arc::new(|ctx, input| ctx.sync_invoke("noop", input));
    env.register_ssf("op-invoke", &[], invoke);
}

/// The payload selecting a micro op.
pub(crate) fn micro_payload(op: &str) -> Value {
    vmap! { "op" => op }
}

/// Grows the micro-op key's DAAL to about `rows` rows of `cap` entries:
/// `rows × cap` writes.
pub(crate) fn prepopulate_daal(env: &BeldiEnv, rows: usize, cap: usize) -> Result<(), BeldiError> {
    for _ in 0..rows * cap {
        env.invoke("micro", micro_payload("write"))?;
    }
    Ok(())
}

/// The virtual latency of `iters` invocations of `ssf` with `payload`,
/// each divided by the `ops` operations one performs: the
/// per-*operation* cost, as Fig. 13 frames its bars.
pub(crate) fn measure_op(
    env: &BeldiEnv,
    ssf: &str,
    payload: &Value,
    iters: usize,
    ops: u32,
) -> Result<Histogram, BeldiError> {
    let (mut hist, clock) = (Histogram::new(), env.clock());
    for _ in 0..iters {
        let t0 = clock.now();
        env.invoke(ssf, payload.clone())?;
        hist.record(clock.now().since(t0) / ops);
    }
    Ok(hist)
}

/// Formats a duration as fractional milliseconds.
fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Fig. 16's configurations: name, system, and the `T` in seconds GC runs
/// with (`None`: no GC). `cross-table` has no DAAL to grow.
const GC_SERIES: [(&str, Mode, Option<u64>); 5] = [
    ("no-gc", Mode::Beldi, None),
    ("gc-T=1min", Mode::Beldi, Some(60)),
    ("gc-T=10min", Mode::Beldi, Some(600)),
    ("gc-T=30min", Mode::Beldi, Some(1800)),
    ("cross-table", Mode::CrossTable, Some(60)),
];

/// §7.5: a one-write SSF on one key, `rate` requests per virtual second
/// for `minutes` minutes; per configuration and minute, the write's p50
/// and p99 and the key's DAAL depth (`-` outside Beldi mode).
fn gc_minutes(minutes: usize, rate: f64) -> Measured {
    let mut rows = Vec::new();
    for (name, mode, t_max) in GC_SERIES {
        // 10-entry rows show the chain's growth in a short run; a collector
        // runs every minute (§7.2); a cached write would skip the traversal.
        let mut config = BeldiConfig::for_mode(mode)
            .with_row_capacity(10)
            .with_collector_period(Duration::from_secs(60))
            .with_tail_cache(false);
        if let Some(t) = t_max {
            config = config.with_t_max(Duration::from_secs(t));
        }
        let env = Arc::new(harness(config, MICROBENCH_PLATFORM).seed(7).build());
        let body: SsfBody = Arc::new(|ctx, v| ctx.write("t", "k", v).map(|()| Value::Null));
        env.register_ssf("hot-writer", &["t"], body);
        if t_max.is_some() {
            env.start_collectors();
        }
        for minute in 0..minutes {
            let runner = RateRunner::new(env.clock().clone(), rate, Duration::from_secs(60), 4);
            let env2 = Arc::clone(&env);
            let report = runner.run(Arc::new(move |i| {
                env2.invoke("hot-writer", Value::Int(i as i64)).is_ok()
            }));
            let depth = (mode == Mode::Beldi).then(|| env.daal_chain_len("hot-writer", "t", "k"));
            let depth = depth.map_or("-".to_owned(), |len| len.unwrap_or(0).to_string());
            let (p50, p99) = (ms(report.latency.p50), ms(report.latency.p99));
            rows.push(vec![name.to_owned(), minute.to_string(), p50, p99, depth]);
        }
        env.stop_collectors();
    }
    Ok(vec![rows])
}

/// A sweep's series: its label, the system, and whether travel runs its transaction.
type Series = (&'static str, Mode, bool);

const BELDI_SERIES: [Series; 2] = [
    ("baseline", Mode::Baseline, true),
    ("beldi", Mode::Beldi, true),
];
const TRAVEL_SERIES: [Series; 3] = [
    ("baseline", Mode::Baseline, true),
    ("beldi", Mode::Beldi, true),
    ("beldi-notxn", Mode::Beldi, false),
];

/// The sweeps' points: offered rates in requests per virtual second,
/// the virtual time each is driven, and the open-loop issuer threads.
const SWEEP_RATES: [f64; 8] = [100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0, 800.0];
const SWEEP_DURATION: Duration = Duration::from_millis(3000);
const SWEEP_ISSUERS: usize = 192;

/// §7.4 and App. C.1: `app`'s DeathStarBench-derived mix, open-loop
/// (wrk2's method) at each of [`SWEEP_RATES`] on a fresh environment,
/// whose instance cap saturates; request `i` from `request_rng(seed + i)`.
fn sweep(app: fn(bool) -> Arc<dyn WorkflowApp>, seed: u64, series: &[Series]) -> Measured {
    let mut rows = Vec::new();
    for &(system, mode, transactional) in series {
        let app = app(transactional);
        for rate in SWEEP_RATES {
            let env = Arc::new(app_env(mode));
            app.setup(&env);
            let runner = RateRunner::new(env.clock().clone(), rate, SWEEP_DURATION, SWEEP_ISSUERS);
            let app = Arc::clone(&app);
            let p = runner.run(Arc::new(move |i| {
                let payload = app.gen_load_request(&mut request_rng(seed + i));
                env.invoke(app.entry_point(), payload).is_ok()
            }));
            let mut row = vec![system.to_owned(), format!("{:.0}", p.offered_rate)];
            row.extend([
                format!("{:.0}", p.achieved_rate),
                ms(p.latency.p50),
                ms(p.latency.p99),
            ]);
            row.push(p.errors.to_string());
            rows.push(row);
        }
    }
    Ok(vec![rows])
}

/// A sweep's environment: 100-entry DAAL rows on the Lambda-like platform.
fn app_env(mode: Mode) -> BeldiEnv {
    let cfg = BeldiConfig::for_mode(mode).with_row_capacity(100);
    harness(cfg, lambda_like_platform()).build()
}

/// Fig. 15: the travel sweep, then a burst of contended reservations per
/// series and its legs' drift, zero exactly when a reservation is a
/// transaction. No-txn Beldi's p50 at 800 rps is 4.7 % below Beldi's
/// (999.42 vs 1048.58 ms), so the claim checks the ordering only.
fn travel() -> Measured {
    let app = |transactional| -> Arc<dyn WorkflowApp> {
        let (rooms_per_hotel, seats_per_flight) = (100_000, 100_000);
        Arc::new(TravelApp {
            rooms_per_hotel,
            seats_per_flight,
            transactional,
            ..TravelApp::default()
        })
    };
    let mut tables = sweep(app, 0x7EA731, &TRAVEL_SERIES)?;
    let mut consistency = Vec::new();
    for (system, mode, transactional) in TRAVEL_SERIES {
        let env = Arc::new(app_env(mode));
        let app = TravelApp {
            rooms_per_hotel: 2,
            seats_per_flight: 2,
            hotels: 10,
            flights: 10,
            transactional,
            ..TravelApp::default()
        };
        let app = Arc::new(app);
        app.install(&env);
        app.seed(&env);
        let clock = env.clock().clone();
        let clients: Vec<_> = (0..8)
            .map(|t| {
                let (env, app) = (Arc::clone(&env), Arc::clone(&app));
                let client = move || {
                    let mut rng = request_rng(0xC0 + t);
                    for _ in 0..12 {
                        env.invoke(app.entry(), app.reserve_request(&mut rng)).ok();
                    }
                };
                clock.spawn(format!("client-{t}"), Box::new(client))
            })
            .collect();
        for client in clients {
            client.join().map_err(|_| "a reservation client panicked")?;
        }
        let (rooms, seats) = app.remaining_inventory(&env);
        let cells = [rooms, seats, (rooms - seats).abs()].map(|n| n.to_string());
        consistency.push([vec![system.to_owned()], cells.to_vec()].concat());
    }
    tables.push(consistency);
    Ok(tables)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str) -> &'static Figure {
        FIGURES.iter().find(|f| f.name == name).unwrap()
    }

    /// One doctoring of a table: the `col` cell of every row keyed by
    /// `key` set to a number, and a piece of the failure it must cause.
    type Doctoring<'a> = (&'a [&'a str], &'a str, f64, &'a str);

    fn doctored(tables: &[Table], &(key, col, value, _): &Doctoring) -> Vec<Table> {
        let mut tables = tables.to_vec();
        for t in &mut tables {
            let Some(at) = t.head.iter().position(|h| *h == col) else {
                continue;
            };
            for row in &mut t.rows {
                if key.iter().zip(row.iter()).all(|(k, cell)| cell == k) {
                    row[at] = value.to_string();
                }
            }
        }
        tables
    }

    /// `name`'s claim holds on `tables`, and each doctoring breaks it
    /// with the failure it names.
    fn holds_and_can_fail(name: &str, tables: &[Table], doctorings: &[Doctoring]) {
        let check = row(name).claim.1;
        check(tables).unwrap();
        for doctoring in doctorings {
            let why = check(&doctored(tables, doctoring)).unwrap_err();
            assert!(why.contains(doctoring.3), "{name} {doctoring:?}: {why}");
        }
    }

    /// Figs. 13 and 25 at their constants: each shape the claim reads,
    /// broken in turn (baseline above Beldi, cross-table's read above
    /// Beldi's, its write not above, invoke 10 % apart, the cache dearer).
    #[test]
    fn per_op_latency_claims_hold_and_each_can_fail() {
        for name in ["fig13", "fig25"] {
            let t = row(name).measure().unwrap();
            let p50 = |op: &str, system: &str| t[0].cell(&[op, system], "p50_ms").unwrap();
            let doctorings: [Doctoring; 5] = [
                (
                    &["read", "baseline"],
                    "p50_ms",
                    1e3,
                    "read p50, baseline vs Beldi",
                ),
                (
                    &["read", "cross-table"],
                    "p50_ms",
                    1e3,
                    "cross-table vs Beldi",
                ),
                (
                    &["write", "cross-table"],
                    "p50_ms",
                    p50("write", "beldi"),
                    "write p50",
                ),
                (
                    &["invoke", "cross-table"],
                    "p50_ms",
                    1.1 * p50("invoke", "beldi"),
                    "5 %",
                ),
                (
                    &["read", "beldi+cache"],
                    "p50_ms",
                    1e3,
                    "beldi+cache vs Beldi",
                ),
            ];
            holds_and_can_fail(name, &t, &doctorings);
        }
    }

    /// §7.3's costs at their constants, each shape broken in turn.
    #[test]
    fn costs_claim_holds_and_each_can_fail() {
        let t = row("costs").measure().unwrap();
        let base_ops = t[0].cell(&["read", "baseline"], "db_ops").unwrap();
        let doctorings: [Doctoring; 5] = [
            (&["read", "beldi"], "rows_scanned", 0.0, "Beldi's read"),
            (
                &["read", "baseline"],
                "rows_scanned",
                1.0,
                "baseline's read",
            ),
            (
                &["read", "beldi+cache"],
                "rows_scanned",
                1.0,
                "beldi+cache's read",
            ),
            (&["read", "beldi"], "db_ops", base_ops + 0.5, "read db_ops"),
            (
                &["invoke", "cross-table"],
                "bytes_written",
                1.0,
                "invoke bytes_written",
            ),
        ];
        holds_and_can_fail("costs", &t, &doctorings);
    }

    /// §7.5's shape over 8 virtual minutes: without GC the hot key's chain
    /// grows and so does the write latency; with GC every minute the
    /// chain plateaus. The claim holds on the shorter run, and fails when
    /// `no-gc`'s last-minute p50 is under 1.5x its minute 0, when it is
    /// not above `gc-T=1min`'s last minute, when `gc-T=1min`'s chain grows
    /// past 1.5x its minute-3 length (a chain that leaks rows on every
    /// pass goes 36 -> 60 rows), and when either plateau moves 20 %.
    #[test]
    fn an_uncollected_chain_slows_writes() {
        let fig16 = Figure {
            measure: || gc_minutes(8, 2.0),
            ..*row("fig16")
        };
        let t = fig16.measure().unwrap();
        let cell =
            |config: &str, minute: &str, col: &str| t[0].cell(&[config, minute], col).unwrap();
        let doctorings: [Doctoring; 5] = [
            (
                &["no-gc", "7"],
                "p50_ms",
                cell("no-gc", "0", "p50_ms"),
                "1.5x minute 0",
            ),
            (
                &["gc-T=1min", "7"],
                "p50_ms",
                cell("no-gc", "7", "p50_ms"),
                "gc-T=1min vs no-gc",
            ),
            (
                &["gc-T=1min", "7"],
                "daal_rows",
                2.0 * cell("gc-T=1min", "3", "daal_rows"),
                "1.5x minute 3",
            ),
            (
                &["gc-T=1min", "5"],
                "p50_ms",
                1.2 * cell("gc-T=1min", "3", "p50_ms"),
                "minute 5 - 3",
            ),
            (
                &["cross-table", "4"],
                "p50_ms",
                1.2 * cell("cross-table", "4", "p50_ms"),
                "minute 4 - median",
            ),
        ];
        holds_and_can_fail("fig16", &t, &doctorings);
    }

    /// A sweep with the paper's shape, for the claims of the sweeps, which
    /// take too long to run unoptimized: baseline's p50 flat and its rate
    /// tracking the offered one, Beldi's p50 rising 8x to a knee at 400
    /// rps, no-txn Beldi 10 ms faster, and the companion's drift.
    fn sweep_tables() -> Vec<Table> {
        let mut rows = Vec::new();
        for (system, capacity) in [
            ("baseline", 800.0),
            ("beldi", 400.0),
            ("beldi-notxn", 400.0),
        ] {
            for i in 1..=8 {
                let offered = 100.0 * f64::from(i);
                let p50 = match system {
                    "baseline" => 100.0 + f64::from(i),
                    "beldi" => 300.0 * f64::from(i),
                    _ => 300.0 * f64::from(i) - 10.0,
                };
                let cells = [offered, (0.9 * offered).min(capacity), p50, 2.0 * p50, 0.0];
                rows.push(
                    [
                        vec![system.to_owned()],
                        cells.map(|c| c.to_string()).to_vec(),
                    ]
                    .concat(),
                );
            }
        }
        let drift = [
            ("baseline", "4", "11", "7"),
            ("beldi", "7", "7", "0"),
            ("beldi-notxn", "4", "3", "1"),
        ];
        let drift = drift
            .map(|(s, r, f, d)| [s, r, f, d].map(String::from).to_vec())
            .to_vec();
        let (sweep, consistency) = (row("fig15").tables[0], row("fig15").tables[1]);
        vec![
            Table {
                title: sweep.0,
                head: sweep.1,
                rows,
            },
            Table {
                title: consistency.0,
                head: consistency.1,
                rows: drift,
            },
        ]
    }

    const SWEEP_DOCTORINGS: [Doctoring<'static>; 4] = [
        (
            &["beldi", "100"],
            "achieved_rps",
            50.0,
            "beldi at the lowest rate",
        ),
        (
            &["baseline", "400"],
            "p50_ms",
            5e3,
            "p50 at 400 rps, baseline vs Beldi",
        ),
        (&["beldi", "800"], "p50_ms", 500.0, "2x the lowest rate's"),
        (
            &["baseline", "800"],
            "achieved_rps",
            100.0,
            "top achieved rate",
        ),
    ];

    #[test]
    fn sweep_claims_hold_and_each_can_fail() {
        let t = sweep_tables();
        holds_and_can_fail("fig14", &t, &SWEEP_DOCTORINGS);
        holds_and_can_fail("fig26", &t, &SWEEP_DOCTORINGS);
        let travel: [Doctoring; 3] = [
            (
                &["beldi-notxn", "500"],
                "p50_ms",
                5e3,
                "beldi-notxn vs Beldi",
            ),
            (&["beldi"], "leg_drift", 1.0, "Beldi's leg drift"),
            (&["baseline"], "leg_drift", 0.0, "baseline's leg drift"),
        ];
        holds_and_can_fail("fig15", &t, &[&SWEEP_DOCTORINGS[..], &travel].concat());
    }

    /// A claim over a table it cannot read fails; it does not pass.
    #[test]
    fn a_missing_row_or_column_fails_the_claim() {
        let mut t = sweep_tables();
        t[0].rows.retain(|row| row[0] != "beldi");
        assert!((row("fig14").claim.1)(&t).unwrap_err().contains("no row"));
        t[0].head = LATENCY;
        assert!((row("fig14").claim.1)(&t)
            .unwrap_err()
            .contains("no column"));
    }
}
