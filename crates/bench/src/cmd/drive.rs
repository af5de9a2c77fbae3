//! Closed-loop concurrent workload driver: the macro benchmark behind
//! `BENCH_results.json` and the CI perf gate (`DESIGN.md` §9).
//!
//! `--smoke` is the CI preset: all three apps × {beldi, cross-table},
//! workers {1, 4}, 120 requests per run, plus the contended travel shape
//! (`travel-contended`: `beldi_apps::contended_travel`, in the logged
//! modes, storm-free) and the front door's row —
//! the media/beldi stream of 64 requests over 4 connections through real
//! sockets, checked against its in-process replay. Every number in the
//! report but `wall_ms` repeats exactly for the same flags.
//! `--gc` runs the per-SSF collectors beside the client workers and
//! checks every run's storage growth (§10); `--chaos` adds a seeded
//! crash storm (`ChaosOptions::smoke` under `--smoke`) and checks that
//! every run recovered, baseline's being its negative control (§13).
//! Workers are tasks on one executor (§14): `--workers N --duration-ops
//! N` puts every request in flight at once.
//!
//! Each check prints `check: … holds` or `check failed: …: why` after
//! the tables. Exit status: 0 when every run completed without request
//! errors and every check held, 1 otherwise.

use std::time::Duration;

use beldi::simclock::Metric;
use beldi::Mode;
use beldi_apps::{bench_app, contended_travel, MixProfile, WorkflowApp};
use beldi_workload::driver::{drive, BenchReport, ChaosOptions, DriveOptions, GC_T_MAX};
use beldi_workload::gate::{
    front_gate, growth_gate, max_recovery_p99_ms, recovery_gate, GROWTH_SLACK_ROWS, MAX_GROWTH,
};

use crate::cli::{run_error, usage_error, Args, Cli};
use crate::front::front_smoke;
use crate::{print_table, print_verdict};

pub(crate) fn flags(cli: Cli) -> Cli {
    cli.app_flag("all")
        .mode_flag("both")
        .flag(
            "--workers",
            "LIST",
            "1,2,4,8",
            "comma-separated worker counts (1,4 under --smoke)",
        )
        .flag(
            "--mix",
            "PROFILE",
            "default",
            "request mix: default | write-heavy",
        )
        .flag(
            "--duration-ops",
            "N",
            "5000",
            "requests per run (120 under --smoke)",
        )
        .seed_flag()
        .switch("--smoke", "CI preset: tiny runs")
        .switch(
            "--gc",
            "run online collectors concurrently with traffic; check storage growth",
        )
        .switch(
            "--chaos",
            "seeded crash storm on top of live traffic; check recovery",
        )
        .flag(
            "--chaos-tmax-ms",
            "MS",
            "60000",
            "storm lease T_max (recovery p99 must be <= T/3)",
        )
        .flag(
            "--json",
            "PATH",
            "",
            "also write the report as JSON to PATH",
        )
}

pub(crate) fn main(args: &Args) {
    let workers_arg: String = args.or_smoke("--workers", "1,4".into());
    let Some(mix) = MixProfile::parse(&args.str("--mix")) else {
        usage_error("unknown --mix (use default | write-heavy)");
    };
    let workers = parse_workers(&workers_arg).unwrap_or_else(|e| usage_error(e));

    let opts_template = DriveOptions {
        total_ops: args.or_smoke("--duration-ops", 120),
        seed: args.get("--seed"),
        gc: args.flag("--gc"),
        chaos: args.flag("--chaos").then(|| ChaosOptions {
            t_max: Duration::from_millis(args.get("--chaos-tmax-ms")),
            ..match args.flag("--smoke") {
                true => ChaosOptions::smoke(),
                false => ChaosOptions::default(),
            }
        }),
        ..DriveOptions::default()
    };

    let apps = args.apps();
    let modes = args.modes();

    let mut report = BenchReport {
        seed: opts_template.seed,
        total_ops: opts_template.total_ops,
        mix: mix.name().to_owned(),
        tail_cache: opts_template.tail_cache,
        runs: Vec::new(),
        front: None,
    };
    let mut rows = Vec::new();
    let mut drive_row = |app: &dyn WorkflowApp, mode: Mode, w: usize, name: &str| {
        let opts = DriveOptions {
            workers: w,
            ..opts_template.clone()
        };
        let mut run = drive(app, mode, &opts);
        run.app = name.to_owned();
        rows.push(vec![
            run.app.clone(),
            run.mode.clone(),
            w.to_string(),
            run.ops.to_string(),
            run.errors.to_string(),
            format!("{:.1}", run.throughput_rps),
            format!("{:.2}", run.latency.p50_us as f64 / 1e3),
            format!("{:.2}", run.latency.p99_us as f64 / 1e3),
            format!(
                "{:.1}",
                run.counters.db_ops() as f64 / run.ops.max(1) as f64
            ),
            run.counters.get(Metric::DbLockWaits).to_string(),
            run.counters.get(Metric::WaitDieRetry).to_string(),
            run.high_water.to_string(),
            run.wall_ms.to_string(),
        ]);
        report.runs.push(run);
    };
    for kind in &apps {
        for &mode in &modes {
            for &w in &workers {
                let Some(app) = bench_app(kind, mode, mix) else {
                    usage_error(format!("unknown --app {kind}"));
                };
                drive_row(app.as_ref(), mode, w, kind);
            }
        }
    }
    // The contended shape joins the smoke matrix but not a storm's: its
    // cross-table recovery under a storm is not yet within T/3.
    if args.flag("--smoke") && !args.flag("--chaos") && apps.iter().any(|kind| kind == "travel") {
        let contended = contended_travel();
        for &mode in modes.iter().filter(|&&mode| mode != Mode::Baseline) {
            for &w in &workers {
                drive_row(&contended, mode, w, "travel-contended");
            }
        }
    }

    print_table(
        "Closed-loop drive (virtual-time throughput and latency)",
        &[
            "app",
            "mode",
            "workers",
            "ops",
            "errors",
            "rps",
            "p50_ms",
            "p99_ms",
            "db_ops/req",
            "lock_waits",
            "wd_retries",
            "in_flight",
            "wall_ms",
        ],
        &rows,
    );

    if opts_template.gc {
        let gc_rows: Vec<Vec<String>> = report
            .runs
            .iter()
            .filter_map(|run| {
                // Every run takes a final sample, so none is skipped.
                let samples = &run.samples;
                let last = samples.last()?;
                let mid = &samples[samples.len() / 2];
                let count = |m| run.counters.get(m).to_string();
                Some(vec![
                    run.key(),
                    mid.meta_rows.to_string(),
                    last.meta_rows.to_string(),
                    last.data_rows.to_string(),
                    run.max_chain_len.to_string(),
                    count(Metric::GcPasses),
                    count(Metric::GcRecycledIntents),
                    count(Metric::GcDeletedLogEntries),
                    count(Metric::GcDeletedRows),
                ])
            })
            .collect();
        print_table(
            "Online GC steady state (metadata rows mid-run vs end; cumulative GC work)",
            &[
                "run",
                "meta@mid",
                "meta@end",
                "data@end",
                "max_chain",
                "gc_passes",
                "recycled",
                "log_dels",
                "row_dels",
            ],
            &gc_rows,
        );
    }

    if opts_template.chaos.is_some() {
        let chaos_rows: Vec<Vec<String>> = report
            .runs
            .iter()
            .filter_map(|run| {
                let rec = run.recovery.as_ref()?;
                let count = |m| run.counters.get(m);
                Some(vec![
                    run.key(),
                    count(Metric::FaultsInjected).to_string(),
                    count(Metric::FaultsRestarts).to_string(),
                    format!("{}/{}", count(Metric::IcCrashes), count(Metric::GcCrashes)),
                    rec.recovered_intents.to_string(),
                    rec.recovery_p50_ms.to_string(),
                    rec.recovery_p99_ms.to_string(),
                    rec.history_findings.to_string(),
                    if rec.digest_match { "ok" } else { "MISMATCH" }.to_owned(),
                ])
            })
            .collect();
        print_table(
            "Crash storm recovery (virtual-time latency; history checker findings; conservation vs crash-free oracle)",
            &[
                "run",
                "crashes",
                "restarts",
                "ic/gc_kills",
                "recovered",
                "rec_p50_ms",
                "rec_p99_ms",
                "history",
                "digest",
            ],
            &chaos_rows,
        );
    }

    if args.flag("--smoke") {
        // The front door's row: the media/beldi stream over 4 connections.
        let front = front_smoke("media", Mode::Beldi, 64, 4, opts_template.seed)
            .unwrap_or_else(|e| run_error(format!("the front door's row: {e}")));
        println!();
        front.print_summary();
        report.front = Some(front.run);
    }

    if let Some(path) = args.value("--json") {
        let written = std::fs::write(&path, report.to_json());
        written.unwrap_or_else(|e| run_error(format!("writing {path}: {e}")));
        println!("\nwrote {path} ({} runs)", report.runs.len());
    }

    let failed = print_checks(&report, &opts_template);
    let front_errors = report.front.as_ref().map_or(0, |f| f.errors);
    let errors: u64 = report.runs.iter().map(|r| r.errors).sum::<u64>() + front_errors;
    if errors > 0 {
        run_error(format!("{errors} request error(s) across runs"));
    }
    if failed {
        std::process::exit(1);
    }
}

/// Prints the verdict of each check the drive's settings call for — the
/// growth check under `--gc`, the recovery check under `--chaos`, the
/// front door's under `--smoke` — and returns whether any failed.
fn print_checks(report: &BenchReport, opts: &DriveOptions) -> bool {
    let mut failed = false;
    // The collectors' lease: the storm's under `--chaos`.
    let t_max = opts.chaos.as_ref().map_or(GC_T_MAX, |c| c.t_max);
    if opts.gc {
        let what = format!(
            "every GC run ends with at most {}x its mid-run metadata and data rows + {GROWTH_SLACK_ROWS}",
            1.0 + MAX_GROWTH
        );
        failed |= print_verdict("check", &what, &growth_gate(report, t_max));
    }
    if opts.chaos.is_some() {
        let what = format!(
            "every chaos run counts no corruption after a storm that crashed, recovers at p99 <= \
             T/3 = {} ms, and ends in its crash-free oracle's state with a clean run record \
             (beldi, cross-table), or applies a step twice in some run of each app (baseline)",
            max_recovery_p99_ms(t_max)
        );
        failed |= print_verdict("check", &what, &recovery_gate(report, t_max));
    }
    if let Some(front) = &report.front {
        let what = "the front door's state equals its in-process replay's, with 0 errors";
        failed |= print_verdict("check", what, &front_gate(front));
    }
    failed
}

/// Parses `--workers`: a comma-separated list of positive counts.
///
/// # Errors
///
/// A usage message naming the first entry that is not one.
fn parse_workers(list: &str) -> Result<Vec<usize>, String> {
    list.split(',')
        .map(|entry| match entry.trim().parse() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!(
                "--workers {list}: {entry:?} is not a positive count \
                 (use a comma-separated list, e.g. 1,4)"
            )),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::parse_workers;

    #[test]
    fn workers_list_rejects_what_it_cannot_run() {
        assert_eq!(parse_workers("1,4"), Ok(vec![1, 4]));
        assert_eq!(parse_workers(" 8 , 16 "), Ok(vec![8, 16]));
        // A malformed or zero entry is an error that names it, never a
        // silently shorter list.
        for (list, culprit) in [
            ("1,x,4", "\"x\""),
            ("0,4", "\"0\""),
            ("4,", "\"\""),
            ("", "\"\""),
        ] {
            let err = parse_workers(list).unwrap_err();
            assert!(err.contains(culprit), "{list:?}: {err}");
        }
    }
}
