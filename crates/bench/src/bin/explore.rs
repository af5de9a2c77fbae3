//! Systematic crash-schedule exploration over the paper's applications:
//! sweep every labelled crash point (depth 1) plus sampled multi-crash
//! schedules (depth 2), recover via the intent collector, and diff the
//! final state against a crash-free oracle (see `DESIGN.md` §8).
//!
//! ```text
//! cargo run -p beldi-bench --release --bin explore -- \
//!     [--app media|social|travel|all] [--mode beldi|cross-table|baseline|all] \
//!     [--requests 4] [--seed 42] [--stride 1] [--depth2-samples 0] \
//!     [--max-schedules N] [--gc-check] [--gc-interleave] [--smoke] \
//!     [--canary]
//! ```
//!
//! `--gc-interleave` runs one garbage-collector pass per SSF after every
//! frontend request (the online-GC regime): the collectors' own crash
//! points join the sweep, so schedules also kill GC passes between the
//! paper's six steps while SSF traffic is live.
//!
//! `--smoke` is the CI configuration: fewer requests and a strided sweep
//! so all apps finish in seconds. `--canary` plants a deliberate
//! exactly-once bug and *expects* the sweep to report violations (exit 0
//! when it does — the self-test). The canary runs on the synthetic
//! `pipeline` workload, whose gate write recomputes from an earlier read
//! — the dependency shape a read-replay bug needs to become visible
//! (pass `--app` explicitly to canary a different workload).
//!
//! Exit status: 0 when every sweep is clean (or, under `--canary`, when
//! the bug was caught); 1 otherwise. Every violation line carries the
//! seed and schedule needed to replay it.

use beldi::Mode;
use beldi_apps::small_app;
use beldi_bench::cli::Cli;
use beldi_workload::{explore, mode_name, ExploreOptions};

fn main() {
    beldi::silence_crash_backtraces();

    let args = Cli::new("explore", "systematic crash-schedule exploration")
        .app_flag("all")
        .mode_flag("all", "system: beldi | cross-table | baseline | all")
        .flag(
            "--requests",
            "N",
            "4",
            "frontend requests per sweep (2 under --smoke)",
        )
        .seed_flag()
        .flag(
            "--stride",
            "N",
            "1",
            "sweep every Nth crash point (7 under --smoke)",
        )
        .flag("--max-schedules", "N", "", "cap on depth-1 schedules")
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
        .parse();

    let app_arg = args.str("--app");
    let mode_arg = args.str("--mode");
    let smoke = args.flag("--smoke");
    let canary = args.flag("--canary");

    let opts = ExploreOptions {
        requests: if args.present("--requests") {
            args.usize("--requests")
        } else if smoke {
            2
        } else {
            4
        },
        seed: args.u64("--seed"),
        stride: if args.present("--stride") {
            args.usize("--stride")
        } else if smoke {
            7
        } else {
            1
        },
        max_depth1: args.value("--max-schedules").and_then(|v| v.parse().ok()),
        depth2_samples: if args.present("--depth2-samples") {
            args.usize("--depth2-samples")
        } else if smoke {
            2
        } else {
            0
        },
        gc_check: args.flag("--gc-check"),
        gc_interleave: args.flag("--gc-interleave"),
        canary,
    };

    let apps: Vec<&str> = match app_arg.as_str() {
        "all" if canary => vec!["pipeline"],
        "all" => vec!["media", "social", "travel"],
        one => vec![one],
    };
    let modes: Vec<Mode> = match mode_arg.as_str() {
        "all" => vec![Mode::Beldi, Mode::CrossTable, Mode::Baseline],
        "beldi" => vec![Mode::Beldi],
        "cross-table" | "cross" => vec![Mode::CrossTable],
        "baseline" => vec![Mode::Baseline],
        other => {
            eprintln!("unknown --mode {other}");
            std::process::exit(2);
        }
    };

    let mut rows = Vec::new();
    let mut all_violations = Vec::new();
    for kind in &apps {
        for &mode in &modes {
            let app: Box<dyn beldi_apps::WorkflowApp> = if *kind == "pipeline" {
                Box::new(beldi_workload::PipelineApp)
            } else {
                match small_app(kind, mode) {
                    Some(app) => app,
                    None => {
                        eprintln!("unknown --app {kind}");
                        std::process::exit(2);
                    }
                }
            };
            let report = explore(app.as_ref(), mode, &opts);
            rows.push(vec![
                report.app.clone(),
                mode_name(report.mode).to_owned(),
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
                    mode_name(report.mode),
                    v,
                    report.app,
                    mode_name(report.mode),
                    report.seed,
                    report.requests,
                ));
            }
        }
    }

    beldi_bench::print_table(
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
