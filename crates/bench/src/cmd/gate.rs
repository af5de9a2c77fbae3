//! CI baseline-equality, storage-growth and chaos-recovery gates over
//! `drive` reports.
//!
//! - `--baseline B --results R`: a fresh `drive --smoke` against the
//!   checked-in baseline — every baseline run must reappear equal in
//!   every field but `wall_ms`, and the front door's row equal in every
//!   field (DESIGN.md §9 says how to re-baseline).
//! - `--gc-results R [--max-growth 0.25]`: a `drive --smoke --gc` report
//!   must show bounded steady-state DAAL/log growth under online GC.
//! - `--chaos-results R [--max-recovery-p99 2000] [--max-duplicate-effects 0]`:
//!   a `drive --chaos` report must show every crash-storm casualty
//!   recovered — conservation digest equal to the crash-free oracle's,
//!   no duplicate effects, recovery p99 within SLO.
//!
//! The modes compose: pass several report paths to run the matching
//! gates in one invocation. Exit status: 0 when every requested check
//! passes (and the report files are sound), 1 with per-run explanations
//! otherwise. The comparison semantics live in `beldi_workload::gate`
//! (unit-tested); this is the thin CLI.

use beldi_workload::driver::BenchReport;
use beldi_workload::gate::{gate, growth_gate, recovery_gate};

use crate::cli::{usage_error, Args, Cli};

fn load(args: &Args, flag: &str) -> BenchReport {
    let path = args
        .value(flag)
        .unwrap_or_else(|| usage_error(format!("missing required {flag} <path>")));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| usage_error(format!("reading {path}: {e}")));
    BenchReport::from_json(&text).unwrap_or_else(|e| usage_error(format!("parsing {path}: {e}")))
}

/// Prints a gate's verdict — `passed` when nothing failed, else the
/// failures under a heading — and returns whether it failed.
fn verdict(name: &str, failures: &[String], passed: String) -> bool {
    if failures.is_empty() {
        println!("\n{} gate passed: {passed}", name.to_lowercase());
    } else {
        println!("\n# {name}-gate failures");
        for f in failures {
            println!("{f}");
        }
    }
    !failures.is_empty()
}

pub(crate) fn flags(cli: Cli) -> Cli {
    cli.flag("--baseline", "PATH", "", "checked-in baseline report")
        .flag(
            "--results",
            "PATH",
            "",
            "fresh drive report to gate vs the baseline",
        )
        .flag(
            "--gc-results",
            "PATH",
            "",
            "drive --gc report for the growth gate",
        )
        .flag(
            "--max-growth",
            "FRAC",
            "0.25",
            "allowed meta-row growth past mid-run",
        )
        .flag(
            "--chaos-results",
            "PATH",
            "",
            "drive --chaos report for the recovery gate",
        )
        .flag(
            "--max-recovery-p99",
            "MS",
            "2000",
            "recovery-latency p99 SLO",
        )
        .flag(
            "--max-duplicate-effects",
            "N",
            "0",
            "allowed duplicate effects vs the oracle",
        )
}

pub(crate) fn main(args: &Args) {
    let throughput_mode = args.present("--results") || args.present("--baseline");
    let growth_mode = args.present("--gc-results");
    let chaos_mode = args.present("--chaos-results");
    if !throughput_mode && !growth_mode && !chaos_mode {
        usage_error("nothing to gate: pass --baseline/--results, --gc-results, or --chaos-results");
    }
    let mut failed = false;

    if throughput_mode {
        let baseline = load(args, "--baseline");
        let results = load(args, "--results");
        let failures = gate(&baseline, &results);
        let passed = format!(
            "{} run(s) equal the baseline in every modelled field",
            baseline.runs.len()
        );
        failed |= verdict("Baseline", &failures, passed);
    }

    if growth_mode {
        let gc_results = load(args, "--gc-results");
        let failures = growth_gate(&gc_results, args.get("--max-growth"));
        let gc_runs = gc_results.runs.iter().filter(|r| r.gc).count();
        let passed = format!("{gc_runs} run(s) hold a bounded storage plateau under online GC");
        failed |= verdict("Growth", &failures, passed);
    }

    if chaos_mode {
        let chaos_results = load(args, "--chaos-results");
        let max_p99: u64 = args.get("--max-recovery-p99");
        let max_dup = args.get::<usize>("--max-duplicate-effects") as i64;
        let failures = recovery_gate(&chaos_results, max_p99, max_dup);
        let chaos_runs = chaos_results.runs.iter().filter(|r| r.recovery.is_some());
        let passed = format!(
            "{} chaos run(s) recovered every casualty \
             (digest == oracle, dup effects <= {max_dup}, p99 <= {max_p99} ms)",
            chaos_runs.count()
        );
        failed |= verdict("Recovery", &failures, passed);
    }

    if failed {
        std::process::exit(1);
    }
}
