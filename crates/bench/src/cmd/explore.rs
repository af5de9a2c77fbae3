//! Systematic crash-schedule exploration over the paper's applications:
//! sweep every labelled crash point (depth 1) plus sampled multi-crash
//! schedules (depth 2), recover via the intent collector, and diff the
//! final state against a crash-free oracle (see `DESIGN.md` §8).
//!
//! `--gc-interleave` runs one garbage-collector pass per SSF after every
//! frontend request (the online-GC regime): the collectors' own crash
//! points join the sweep, so schedules also kill GC passes between any
//! two of a pass's steps while SSF traffic is live.
//!
//! `--smoke` is the CI configuration (`ExploreOptions::smoke`): fewer
//! requests and a strided sweep so all apps finish in seconds, with
//! enough requests that the travel sweep commits a reservation and so
//! crashes commits. `--canary` sweeps the sabotaged
//! `pipeline` workload (`PipelineApp::sabotaged`: its root re-reads
//! fresh state on re-execution, a deliberate exactly-once bug) and
//! *expects* the sweep to report violations (exit 0 when it does — the
//! self-test).
//!
//! Exit status: 0 when every sweep is clean (or, under `--canary`, when
//! the bug was caught); 1 otherwise. Every violation line carries the
//! seed and schedule needed to replay it.

use beldi_apps::{small_app, WorkflowApp};
use beldi_workload::{explore, ExploreOptions, PipelineApp};

use crate::cli::{usage_error, Args, Cli};

pub(crate) fn flags(cli: Cli) -> Cli {
    cli.app_flag("all")
        .mode_flag("all")
        .flag(
            "--requests",
            "N",
            "4",
            "frontend requests per sweep (3 under --smoke)",
        )
        .seed_flag()
        .flag(
            "--stride",
            "N",
            "1",
            "sweep every Nth crash point (5 under --smoke)",
        )
        .flag(
            "--depth2-samples",
            "N",
            "0",
            "sampled two-crash schedules (2 under --smoke)",
        )
        .switch("--gc-check", "GC pass + leak check after each recovery")
        .switch(
            "--gc-interleave",
            "interleave collector passes with requests",
        )
        .switch("--smoke", "CI preset: fewer requests, strided sweep")
        .switch("--canary", "plant the read-replay bug; expect detection")
}

pub(crate) fn main(args: &Args) {
    beldi::silence_crash_backtraces();
    let canary = args.flag("--canary");

    let smoke = ExploreOptions::smoke();
    let opts = ExploreOptions {
        requests: args.or_smoke("--requests", smoke.requests),
        seed: args.get("--seed"),
        stride: args.or_smoke("--stride", smoke.stride),
        max_depth1: None,
        depth2_samples: args.or_smoke("--depth2-samples", smoke.depth2_samples),
        gc_check: args.flag("--gc-check"),
        gc_interleave: args.flag("--gc-interleave"),
    };

    let apps = if canary {
        vec!["pipeline".to_owned()]
    } else {
        args.apps()
    };
    let modes = args.modes();

    let mut rows = Vec::new();
    let mut all_violations = Vec::new();
    for kind in &apps {
        for &mode in &modes {
            let app: Box<dyn WorkflowApp> = match kind.as_str() {
                "pipeline" if canary => PipelineApp::sabotaged(),
                "pipeline" => Box::new(PipelineApp::default()),
                _ => small_app(kind, mode)
                    .unwrap_or_else(|| usage_error(format!("unknown --app {kind}"))),
            };
            let report = explore(app.as_ref(), mode, &opts);
            rows.push(vec![
                report.app.clone(),
                report.mode.name().to_owned(),
                report.crash_points.to_string(),
                report.schedules.to_string(),
                report.crashes_injected.to_string(),
                report.oracle_effects.to_string(),
                report.violations.len().to_string(),
            ]);
            for v in &report.violations {
                all_violations.push(format!(
                    "{} {} {} — replay: explore --app {} --mode {} --seed {} --requests {}",
                    report.app,
                    report.mode.name(),
                    v,
                    report.app,
                    report.mode.name(),
                    report.seed,
                    report.requests,
                ));
            }
        }
    }

    crate::print_table(
        "Crash-schedule exploration (depth-1 sweep + sampled depth-2)",
        &[
            "app",
            "mode",
            "crash_points",
            "schedules",
            "crashes",
            "effects",
            "violations",
        ],
        &rows,
    );

    if !all_violations.is_empty() {
        println!("\n# Violations");
        for v in &all_violations {
            println!("{v}");
        }
    }

    if canary {
        if all_violations.is_empty() {
            eprintln!("canary mode: the planted bug was NOT detected — the checker is broken");
            std::process::exit(1);
        }
        println!("\ncanary mode: planted bug detected as expected");
        return;
    }
    if !all_violations.is_empty() {
        std::process::exit(1);
    }
}
