//! Figure 13 (and, with `--rows 5`, Figure 25): median and 99th-percentile
//! latency of Beldi's primitive operations — `read`, `write`, `condWrite`,
//! `invoke` — for the baseline, Beldi (linked DAAL), and Beldi with
//! cross-table transactions.
//!
//! Setup mirrors §7.3: 1-byte keys, 16-byte values, low load (sequential
//! requests), and the target key's linked DAAL pre-populated to `--rows`
//! rows (paper: 20, "the length of the linked DAAL after 30 minutes
//! without garbage collection").
//!
//! By default the DAAL tail-row cache is disabled so read latency pays
//! the paper's traversal scan over all `--rows` rows; `--tail-cache`
//! measures the optimized read path instead.

use beldi::value::Value;
use beldi::Mode;

use crate::cli::{Args, Cli};
use crate::{
    experiment_env, measure_op, micro_payload_n, ms, prepopulate_daal, print_table,
    register_micro_ops, SYSTEMS,
};

/// Micro-op row capacity (log entries per row). A real 400 KB DynamoDB
/// row holds hundreds of entries; 100 keeps pre-population affordable
/// while ensuring the measurement's own writes barely deepen the chain.
const CAPACITY: usize = 100;

pub(crate) fn flags(cli: Cli) -> Cli {
    cli.flag(
        "--rows",
        "N",
        "20",
        "pre-populated DAAL depth of the hot key",
    )
    .flag("--iters", "N", "300", "invocations per measured operation")
    .switch("--tail-cache", "measure the cached read path instead")
}

pub(crate) fn main(args: &Args) {
    let rows = args.usize("--rows");
    let iters = args.usize("--iters");
    let tail_cache = args.flag("--tail-cache");

    let mut table = Vec::new();
    for mode in SYSTEMS {
        let system = mode.name();
        let env = experiment_env(mode, CAPACITY, tail_cache);
        register_micro_ops(&env);
        if mode == Mode::Beldi {
            // Pre-populate the hot key's DAAL to the target depth; reads,
            // writes, and conditional writes below all traverse it.
            prepopulate_daal(&env, rows.saturating_sub(1), CAPACITY);
            let len = env.daal_chain_len("micro", "t", "k").expect("chain length");
            eprintln!("({system}: hot-key DAAL depth before measurement: {len} rows)");
        }
        // Per-operation costs: 8 ops per invocation amortize the
        // intent-table bookkeeping, matching the paper's per-op framing.
        for op in ["read", "write", "condwrite"] {
            let hist = measure_op(&env, "micro", &micro_payload_n(op, 8), iters, 8);
            let p = hist.percentiles();
            table.push(vec![op.to_owned(), system.to_owned(), ms(p.p50), ms(p.p99)]);
        }
        let hist = measure_op(&env, "op-invoke", &Value::Null, iters, 1);
        let p = hist.percentiles();
        table.push(vec![
            "invoke".to_owned(),
            system.to_owned(),
            ms(p.p50),
            ms(p.p99),
        ]);
    }

    let title = if rows == 20 {
        "Figure 13: per-operation latency, 20-row DAAL (ms, virtual)".to_owned()
    } else {
        format!("Figure 25-style: per-operation latency, {rows}-row DAAL (ms, virtual)")
    };
    print_table(&title, &["op", "system", "p50_ms", "p99_ms"], &table);
}
