//! Closed-loop concurrent workload driver: the macro benchmark behind
//! `BENCH_results.json` and the CI perf gate (`DESIGN.md` §9).
//!
//! `--smoke` is the CI preset: all three apps × {beldi, cross-table},
//! workers {1, 4}, 120 requests per run, plus the front door's row —
//! the media/beldi stream of 64 requests over 4 connections through real
//! sockets, checked against its in-process replay. Every number in the
//! report but `wall_ms` repeats exactly for the same flags.
//! `--gc` runs the per-SSF collectors beside the client workers and
//! checks every run's storage growth (§10); `--chaos` adds a seeded
//! crash storm over traffic and collectors and checks that every run
//! recovered (§13). Workers are tasks on one executor (§14): `--workers
//! N --duration-ops N` puts every request in flight at once.
//!
//! Each check prints `check: … holds` or `check failed: …: why` after
//! the tables. Exit status: 0 when every run completed without request
//! errors and every check held, 1 otherwise.

use std::time::Duration;

use beldi::Mode;
use beldi_apps::{bench_app, MixProfile};
use beldi_workload::driver::{drive, BenchReport, ChaosOptions, DriveOptions};
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
            ..ChaosOptions::default()
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
    for kind in &apps {
        for &mode in &modes {
            for &w in &workers {
                let Some(app) = bench_app(kind, mode, mix) else {
                    usage_error(format!("unknown --app {kind}"));
                };
                let opts = DriveOptions {
                    workers: w,
                    ..opts_template.clone()
                };
                let run = drive(app.as_ref(), mode, &opts);
                rows.push(vec![
                    run.app.clone(),
                    run.mode.clone(),
                    w.to_string(),
                    run.ops.to_string(),
                    run.errors.to_string(),
                    format!("{:.1}", run.throughput_rps),
                    format!("{:.2}", run.latency.p50_us as f64 / 1e3),
                    format!("{:.2}", run.latency.p99_us as f64 / 1e3),
                    format!("{:.1}", run.db.total_ops() as f64 / run.ops.max(1) as f64),
                    run.db.lock_waits.to_string(),
                    run.in_flight.high_water.to_string(),
                    run.wall_ms.to_string(),
                ]);
                report.runs.push(run);
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
                let samples = &run.storage.samples;
                let last = samples.last()?;
                let mid = &samples[samples.len() / 2];
                Some(vec![
                    run.key(),
                    mid.meta_rows.to_string(),
                    last.meta_rows.to_string(),
                    last.data_rows.to_string(),
                    run.storage.max_chain_len.to_string(),
                    last.gc_passes.to_string(),
                    last.gc_recycled.to_string(),
                    last.gc_deleted_log_entries.to_string(),
                    last.gc_deleted_rows.to_string(),
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
                Some(vec![
                    run.key(),
                    rec.injected_crashes.to_string(),
                    rec.restarts.to_string(),
                    format!("{}/{}", rec.ic_crashes, rec.gc_crashes),
                    rec.recovered_intents.to_string(),
                    rec.recovery_p50_ms.to_string(),
                    rec.recovery_p99_ms.to_string(),
                    rec.duplicate_effects.to_string(),
                    if rec.digest_match { "ok" } else { "MISMATCH" }.to_owned(),
                ])
            })
            .collect();
        print_table(
            "Crash storm recovery (virtual-time latency; conservation vs crash-free oracle)",
            &[
                "run",
                "crashes",
                "restarts",
                "ic/gc_kills",
                "recovered",
                "rec_p50_ms",
                "rec_p99_ms",
                "dup_fx",
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
    if opts.gc {
        let what = format!(
            "every GC run ends with at most {}x its mid-run metadata and data rows + {GROWTH_SLACK_ROWS}",
            1.0 + MAX_GROWTH
        );
        failed |= print_verdict("check", &what, &growth_gate(report));
    }
    if let Some(chaos) = &opts.chaos {
        let what = format!(
            "every chaos run ends in its crash-free oracle's state with 0 duplicate effects and \
             no counted corruption, after a storm that crashed, at recovery p99 <= T/3 = {} ms",
            max_recovery_p99_ms(chaos.t_max)
        );
        failed |= print_verdict("check", &what, &recovery_gate(report, chaos.t_max));
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
