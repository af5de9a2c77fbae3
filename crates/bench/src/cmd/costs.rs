//! §7.3's "other costs": storage and network overhead accounting.
//!
//! The paper reports, for the 20-row-DAAL micro-benchmark setting:
//!
//! - each operation stores an extra ~20–36 bytes of log/metadata beyond
//!   the value;
//! - a 20-row DAAL scan fetches ~2 KB more than a single-row read;
//! - per-op extra database operations: one extra scan and write per read,
//!   at least one scan per write, one read and two writes per invocation.
//!
//! This harness measures the same quantities from the simulated
//! database's byte/op accounting: per-operation deltas of rows scanned,
//! bytes read, bytes written, and write amplification, for baseline vs
//! Beldi vs cross-table.
//!
//! By default the DAAL tail-row cache is disabled so the per-op numbers
//! reproduce the paper's read protocol (§7.3 counts one extra scan per
//! read); `--tail-cache` measures the optimized read path instead.

use beldi::value::Value;
use beldi::Mode;

use crate::cli::{Args, Cli};
use crate::{
    experiment_env, micro_payload_n, prepopulate_daal, print_table, register_micro_ops, SYSTEMS,
    VALUE_16B,
};

pub(crate) fn flags(cli: Cli) -> Cli {
    cli.flag(
        "--rows",
        "N",
        "20",
        "pre-populated DAAL depth of the hot key",
    )
    .flag("--iters", "N", "100", "invocations per measured operation")
    .switch("--tail-cache", "measure the cached read path instead")
}

pub(crate) fn main(args: &Args) {
    let rows = args.usize("--rows");
    let iters = args.usize("--iters");
    let tail_cache = args.flag("--tail-cache");

    let mut table = Vec::new();
    let mut storage = Vec::new();
    for mode in SYSTEMS {
        let system = mode.name();
        let env = experiment_env(mode, 100, tail_cache);
        register_micro_ops(&env);
        env.seed("micro", "t", "k", Value::from(VALUE_16B))
            .expect("seed");
        if mode == Mode::Beldi {
            prepopulate_daal(&env, rows.saturating_sub(1), 100);
        }
        // 8 ops per invocation amortize intent bookkeeping out of the
        // per-operation numbers (the paper's §7.3 framing); `divide`
        // converts invocation totals back to per-op averages.
        let measure =
            |label: &str, ssf: &str, payload: &Value, divide: usize, out: &mut Vec<Vec<String>>| {
                let before = env.db_metrics();
                for _ in 0..iters {
                    env.invoke(ssf, payload.clone()).expect("op");
                }
                let delta = env.db_metrics().delta(&before);
                let per = |v: u64| format!("{:.1}", v as f64 / (iters * divide) as f64);
                out.push(vec![
                    label.to_owned(),
                    system.to_owned(),
                    per(delta.total_ops()),
                    per(delta.rows_scanned),
                    per(delta.bytes_read),
                    per(delta.bytes_written),
                ]);
            };
        for op in ["read", "write", "condwrite"] {
            measure(op, "micro", &micro_payload_n(op, 8), 8, &mut table);
        }
        measure("invoke", "op-invoke", &Value::Null, 1, &mut table);
        // Storage footprint of the hot key after the run.
        if mode == Mode::Beldi {
            let depth = env.daal_chain_len("micro", "t", "k").unwrap();
            storage.push(vec![
                system.to_owned(),
                depth.to_string(),
                env.db_metrics().bytes_written.to_string(),
            ]);
        }
    }
    print_table(
        "Per-operation database costs (averages per op)",
        &[
            "op",
            "system",
            "db_ops",
            "rows_scanned",
            "bytes_read",
            "bytes_written",
        ],
        &table,
    );
    print_table(
        "Beldi storage footprint of the hot key",
        &["system", "daal_rows", "total_bytes_written"],
        &storage,
    );
}
