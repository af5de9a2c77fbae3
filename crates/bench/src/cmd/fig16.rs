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

fn build_env(mode: Mode, t_max: Option<u64>, partitions: usize) -> BeldiEnv {
    let mut config = BeldiConfig::for_mode(mode)
        // Small rows so DAAL growth is visible within a short run.
        .with_row_capacity(10)
        // The paper's 1-minute collector trigger (§7.2).
        .with_collector_period(Duration::from_secs(60))
        .with_partitions(partitions);
    if let Some(t) = t_max {
        config = config.with_t_max(Duration::from_secs(t));
    }
    BeldiEnv::builder(config)
        .latency(beldi_simdb::LatencyModel::dynamo())
        .platform(crate::microbench_platform())
        .seed(7)
        .build()
}

pub(crate) fn flags(cli: Cli) -> Cli {
    cli.flag(
        "--minutes",
        "N",
        "15",
        "virtual minutes driven per configuration",
    )
    .flag("--rate", "RPS", "2", "constant offered request rate")
    .partitions_flag()
}

pub(crate) fn main(args: &Args) {
    let minutes = args.usize("--minutes");
    let rate = args.f64("--rate");
    let partitions = args.usize("--partitions");

    let configs: [GcConfig; 5] = [
        ("no-gc", Mode::Beldi, None),
        ("gc-T=1min", Mode::Beldi, Some(60)),
        ("gc-T=10min", Mode::Beldi, Some(600)),
        ("gc-T=30min", Mode::Beldi, Some(1800)),
        (Mode::CrossTable.name(), Mode::CrossTable, Some(60)),
    ];

    let mut rows = Vec::new();
    for (name, mode, t_max) in configs {
        let env = Arc::new(build_env(mode, t_max, partitions));
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
        for minute in 0..minutes {
            let runner = RateRunner::new(env.clock().clone(), rate, Duration::from_secs(60), 4);
            let env2 = Arc::clone(&env);
            let report = runner.run(Arc::new(move |i| {
                env2.invoke("hot-writer", Value::Int(i as i64)).is_ok()
            }));
            let depth = if mode == Mode::Beldi {
                env.daal_chain_len("hot-writer", "t", "k")
                    .unwrap_or(0)
                    .to_string()
            } else {
                "-".to_owned()
            };
            rows.push(vec![
                name.to_owned(),
                minute.to_string(),
                ms(report.latency.p50),
                ms(report.latency.p99),
                depth,
            ]);
        }
        env.stop_collectors();
    }
    print_table(
        "Figure 16: single-write SSF latency over time under GC configurations (ms, virtual)",
        &["config", "minute", "p50_ms", "p99_ms", "daal_rows"],
        &rows,
    );
}
