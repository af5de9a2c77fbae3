//! The CI baseline-equality gate: a fresh `drive --smoke` report
//! (`--results`) against the checked-in golden (`--baseline`). Every
//! baseline run must reappear equal in every field but `wall_ms`, and the
//! front door's row equal in every field (DESIGN.md §9 says how to
//! re-baseline). Exit status: 0 when the reports are equal, 1 with
//! per-run explanations otherwise. The comparison lives in
//! `beldi_workload::gate` (unit-tested); this is the thin CLI.

use beldi_workload::driver::BenchReport;
use beldi_workload::gate::gate;

use crate::cli::{usage_error, Args, Cli};

fn load(args: &Args, flag: &str) -> BenchReport {
    let path = args
        .value(flag)
        .unwrap_or_else(|| usage_error(format!("missing required {flag} <path>")));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| usage_error(format!("reading {path}: {e}")));
    BenchReport::from_json(&text).unwrap_or_else(|e| usage_error(format!("parsing {path}: {e}")))
}

pub(crate) fn flags(cli: Cli) -> Cli {
    cli.flag("--baseline", "PATH", "", "checked-in baseline report")
        .flag(
            "--results",
            "PATH",
            "",
            "fresh drive report to gate vs the baseline",
        )
}

pub(crate) fn main(args: &Args) {
    let baseline = load(args, "--baseline");
    let results = load(args, "--results");
    let failures = gate(&baseline, &results);
    if failures.is_empty() {
        println!(
            "\nbaseline gate passed: {} run(s) equal the baseline in every modelled field",
            baseline.runs.len()
        );
        return;
    }
    println!("\n# Baseline-gate failures");
    for f in &failures {
        println!("{f}");
    }
    std::process::exit(1);
}
