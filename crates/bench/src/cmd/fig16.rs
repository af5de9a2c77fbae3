//! Figure 16: median response time over time for an SSF that performs one
//! write, under different garbage-collection configurations (§7.5).
//!
//! All instances write the same key (the paper's pessimistic setting), so
//! without GC the key's linked DAAL grows without bound and the
//! scan-based traversal slows down. The configurations are:
//!
//! - `no-gc` — the DAAL grows for the whole run;
//! - `gc-T=1min` / `gc-T=10min` / `gc-T=30min` — GC triggered every
//!   virtual minute with the given `T` (the assumed max SSF lifetime,
//!   which gates when rows may be disconnected and deleted);
//! - `cross-table` — the comparator that logs to a separate table and has
//!   no DAAL to grow.
//!
//! Output: one row per (config, minute) with the median write latency in
//! that minute and the hot key's DAAL depth at the end of it.

use std::sync::Arc;
use std::time::Duration;

use beldi::value::Value;
use beldi::{BeldiConfig, BeldiEnv, Mode};
use beldi_workload::RateRunner;

use crate::cli::{Args, Cli};
use crate::{ms, print_table};

/// One measured configuration: its name, the system it runs as, and
/// the `T` (in seconds) GC runs with — `None` for no GC at all.
type GcConfig = (&'static str, Mode, Option<u64>);

/// One minute of one configuration: the write latency's median and 99th
/// percentile, and the hot key's DAAL depth at the minute's end (`None`
/// outside Beldi mode).
struct Minute {
    p50: Duration,
    p99: Duration,
    daal_rows: Option<usize>,
}

/// Builds a configuration's environment. The tail cache is off: a cached
/// write skips the traversal whose cost grows with the chain, and the
/// figure shows the paper's write protocol, which scans it.
fn build_env(mode: Mode, t_max: Option<u64>) -> BeldiEnv {
    let mut config = BeldiConfig::for_mode(mode)
        // Small rows so DAAL growth is visible within a short run.
        .with_row_capacity(10)
        // The paper's 1-minute collector trigger (§7.2).
        .with_collector_period(Duration::from_secs(60))
        .with_tail_cache(false);
    if let Some(t) = t_max {
        config = config.with_t_max(Duration::from_secs(t));
    }
    BeldiEnv::builder(config)
        .latency(beldi_simdb::LatencyModel::dynamo())
        .platform(crate::microbench_platform())
        .seed(7)
        .build()
}

/// Drives one configuration for `minutes` virtual minutes at `rate`
/// requests per second.
fn run(mode: Mode, t_max: Option<u64>, minutes: usize, rate: f64) -> Vec<Minute> {
    let env = Arc::new(build_env(mode, t_max));
    env.register_ssf(
        "hot-writer",
        &["t"],
        Arc::new(|ctx, input| {
            ctx.write("t", "k", input)?;
            Ok(Value::Null)
        }),
    );
    if t_max.is_some() {
        env.start_collectors();
    }
    let mut out = Vec::with_capacity(minutes);
    for _ in 0..minutes {
        let runner = RateRunner::new(env.clock().clone(), rate, Duration::from_secs(60), 4);
        let env2 = Arc::clone(&env);
        let report = runner.run(Arc::new(move |i| {
            env2.invoke("hot-writer", Value::Int(i as i64)).is_ok()
        }));
        let daal_rows =
            (mode == Mode::Beldi).then(|| env.daal_chain_len("hot-writer", "t", "k").unwrap_or(0));
        out.push(Minute {
            p50: report.latency.p50,
            p99: report.latency.p99,
            daal_rows,
        });
    }
    env.stop_collectors();
    out
}

pub(crate) fn flags(cli: Cli) -> Cli {
    cli.flag(
        "--minutes",
        "N",
        "15",
        "virtual minutes driven per configuration",
    )
    .flag("--rate", "RPS", "2", "constant offered request rate")
}

pub(crate) fn main(args: &Args) {
    let minutes = args.usize("--minutes");
    let rate = args.f64("--rate");

    let configs: [GcConfig; 5] = [
        ("no-gc", Mode::Beldi, None),
        ("gc-T=1min", Mode::Beldi, Some(60)),
        ("gc-T=10min", Mode::Beldi, Some(600)),
        ("gc-T=30min", Mode::Beldi, Some(1800)),
        (Mode::CrossTable.name(), Mode::CrossTable, Some(60)),
    ];

    let mut rows = Vec::new();
    for (name, mode, t_max) in configs {
        for (minute, m) in run(mode, t_max, minutes, rate).into_iter().enumerate() {
            rows.push(vec![
                name.to_owned(),
                minute.to_string(),
                ms(m.p50),
                ms(m.p99),
                m.daal_rows
                    .map_or_else(|| "-".to_owned(), |d| d.to_string()),
            ]);
        }
    }
    print_table(
        "Figure 16: single-write SSF latency over time under GC configurations (ms, virtual)",
        &["config", "minute", "p50_ms", "p99_ms", "daal_rows"],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// §7.5's shape: without GC the hot key's chain grows and so does the
    /// write latency; with GC every minute the chain plateaus. Thresholds,
    /// set before running: over 8 virtual minutes, `no-gc`'s last-minute
    /// p50 is at least 1.5× its minute-0 p50, and above `gc-T=1min`'s
    /// last-minute p50; and `gc-T=1min`'s last-minute chain is at most
    /// 1.5× its minute-3 chain (a chain that leaks rows on every pass
    /// keeps growing: 36 → 60 rows).
    #[test]
    fn an_uncollected_chain_slows_writes() {
        let (minutes, rate) = (8, 2.0);
        let no_gc = run(Mode::Beldi, None, minutes, rate);
        let gc = run(Mode::Beldi, Some(60), minutes, rate);
        let (first, last) = (no_gc[0].p50, no_gc[minutes - 1].p50);
        assert!(
            last.as_secs_f64() >= 1.5 * first.as_secs_f64(),
            "no-gc p50 went {first:?} -> {last:?}: less than 1.5x"
        );
        let gc_last = gc[minutes - 1].p50;
        assert!(
            last > gc_last,
            "no-gc's last-minute p50 {last:?} is not above gc-T=1min's {gc_last:?}"
        );
        let (settled, end) = (gc[3].daal_rows.unwrap(), gc[minutes - 1].daal_rows.unwrap());
        assert!(
            end as f64 <= 1.5 * settled as f64,
            "gc-T=1min's chain went {settled} -> {end} rows from minute 3: no plateau"
        );
    }
}
