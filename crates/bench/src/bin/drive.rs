//! Closed-loop concurrent workload driver: the macro benchmark behind
//! `BENCH_results.json` and the CI perf gate (see `DESIGN.md` §9).
//!
//! Run `drive --help` for the full flag table (it is generated from the
//! same declarations the parser uses, so it cannot drift).
//!
//! `--smoke` is the CI preset: all three apps × {beldi, cross-table},
//! workers {1, 4}, 120 requests per run, a low clock rate for stability.
//! `--no-tail-cache` disables the DAAL tail-row cache for A/B measurement
//! of the hot-path fix. `--gc` turns on *online garbage collection*:
//! per-SSF collector functions run on virtual-time timers concurrently
//! with the client workers, and every run records a storage-growth
//! series (sampled per-table row counts, DAAL depths, cumulative GC
//! reports) which `bench_gate --gc-results` checks for a steady-state
//! plateau. `--chaos` unleashes a seeded crash storm on top of live
//! traffic *and* the online collectors: SSF instances and IC/GC passes
//! are killed mid-flight at registry-labelled crash points while the
//! intent collector relaunches the casualties; each chaos run records a
//! `recovery` section (crash counts by site, intent-creation→Done
//! recovery-latency percentiles on virtual time, and a conservation
//! check against a crash-free oracle run of the same request stream)
//! which `bench_gate --chaos-results` turns into CI gates.
//! `--runtime async` swaps the thread-per-worker closed loop for the
//! cooperative executor (one spawned task per request, `workers` only
//! seeding the request streams); async runs are keyed `…@async` in the
//! report and carry an `in_flight` live-task series. Exit status: 0
//! when every run completed without request errors, 1 otherwise.

use std::time::Duration;

use beldi::Mode;
use beldi_apps::{bench_app, MixProfile};
use beldi_bench::cli::Cli;
use beldi_workload::driver::{drive_on, BenchReport, ChaosOptions, DriveOptions, RuntimeKind};

fn main() {
    let args = Cli::new("drive", "closed-loop concurrent workload driver")
        .app_flag("all")
        .mode_flag(
            "both",
            "system: beldi | cross-table | baseline | both | all",
        )
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
            "--runtime",
            "ENGINE",
            "thread",
            "execution engine: thread | async | both",
        )
        .flag(
            "--duration-ops",
            "N",
            "5000",
            "requests per run (120 under --smoke)",
        )
        .seed_flag()
        .partitions_flag()
        .clock_rate_flag("120")
        .switch("--smoke", "CI preset: tiny runs at a stable clock rate")
        .switch("--no-tail-cache", "disable the DAAL tail-row cache (A/B)")
        .flag(
            "--tail-cache-capacity",
            "N",
            "",
            "tail-cache rows per table",
        )
        .switch("--gc", "run online collectors concurrently with traffic")
        .flag("--gc-period-ms", "MS", "500", "collector pass period")
        .flag("--gc-tmax-ms", "MS", "2000", "collector lease T_max")
        .switch("--chaos", "seeded crash storm on top of live traffic")
        .flag(
            "--chaos-ssf-prob",
            "P",
            "0.0005",
            "per-crash-point SSF kill probability",
        )
        .flag(
            "--chaos-collector-prob",
            "P",
            "0.004",
            "per-crash-point collector kill probability",
        )
        .flag("--chaos-max-crashes", "N", "10000", "storm crash budget")
        .flag(
            "--chaos-ic-restart-ms",
            "MS",
            "100",
            "IC relaunch delay after a kill",
        )
        .flag("--chaos-tmax-ms", "MS", "60000", "storm lease T_max")
        .flag("--json", "PATH", "", "write the report as JSON to PATH")
        .parse();
    let smoke = args.flag("--smoke");

    let workers_arg = if args.present("--workers") {
        args.str("--workers")
    } else if smoke {
        "1,4".into()
    } else {
        "1,2,4,8".into()
    };
    let Some(mix) = MixProfile::parse(&args.str("--mix")) else {
        eprintln!("unknown --mix (use default | write-heavy)");
        std::process::exit(2);
    };
    let runtimes: Vec<RuntimeKind> = match args.str("--runtime").as_str() {
        "thread" => vec![RuntimeKind::Thread],
        "async" => vec![RuntimeKind::Async],
        "both" => vec![RuntimeKind::Thread, RuntimeKind::Async],
        other => {
            eprintln!("unknown --runtime {other} (use thread | async | both)");
            std::process::exit(2);
        }
    };

    let opts_template = DriveOptions {
        total_ops: if args.present("--duration-ops") {
            args.u64("--duration-ops")
        } else if smoke {
            120
        } else {
            5_000
        },
        seed: args.u64("--seed"),
        partitions: args.usize("--partitions"),
        clock_rate: if args.present("--clock-rate") {
            args.f64("--clock-rate")
        } else if smoke {
            40.0
        } else {
            120.0
        },
        model_latency: true,
        tail_cache: !args.flag("--no-tail-cache"),
        tail_cache_capacity: args
            .value("--tail-cache-capacity")
            .and_then(|v| v.parse().ok()),
        gc: args.flag("--gc"),
        gc_period: Duration::from_millis(args.u64("--gc-period-ms")),
        gc_t_max: Duration::from_millis(args.u64("--gc-tmax-ms")),
        chaos: args.flag("--chaos").then(|| ChaosOptions {
            ssf_kill_prob: args.f64("--chaos-ssf-prob"),
            collector_kill_prob: args.f64("--chaos-collector-prob"),
            max_crashes: args.u64("--chaos-max-crashes"),
            ic_restart_delay: Duration::from_millis(args.u64("--chaos-ic-restart-ms")),
            t_max: Duration::from_millis(args.u64("--chaos-tmax-ms")),
            ..ChaosOptions::default()
        }),
        ..DriveOptions::default()
    };

    let app_arg = args.str("--app");
    let apps: Vec<&str> = match app_arg.as_str() {
        "all" => vec!["media", "social", "travel"],
        one => vec![one],
    };
    let modes: Vec<Mode> = match args.str("--mode").as_str() {
        // The two fault-tolerant designs — the comparison that matters.
        "both" => vec![Mode::Beldi, Mode::CrossTable],
        "all" => vec![Mode::Beldi, Mode::CrossTable, Mode::Baseline],
        "beldi" => vec![Mode::Beldi],
        "cross-table" | "cross" => vec![Mode::CrossTable],
        "baseline" => vec![Mode::Baseline],
        other => {
            eprintln!("unknown --mode {other}");
            std::process::exit(2);
        }
    };
    let workers: Vec<usize> = workers_arg
        .split(',')
        .filter_map(|w| w.trim().parse().ok())
        .filter(|&w| w > 0)
        .collect();
    if workers.is_empty() {
        eprintln!("--workers needs a comma-separated list of positive counts");
        std::process::exit(2);
    }

    let mut report = BenchReport {
        seed: opts_template.seed,
        total_ops: opts_template.total_ops,
        mix: mix.name().to_owned(),
        clock_rate: opts_template.clock_rate,
        tail_cache: opts_template.tail_cache,
        runs: Vec::new(),
    };
    let mut rows = Vec::new();
    for kind in &apps {
        for &mode in &modes {
            for &w in &workers {
                for &rt in &runtimes {
                    let Some(app) = bench_app(kind, mode, mix) else {
                        eprintln!("unknown --app {kind}");
                        std::process::exit(2);
                    };
                    let opts = DriveOptions {
                        workers: w,
                        ..opts_template.clone()
                    };
                    let run = drive_on(rt, app.as_ref(), mode, &opts);
                    let mode_cell = match rt {
                        RuntimeKind::Thread => run.mode.clone(),
                        RuntimeKind::Async => format!("{}@async", run.mode),
                    };
                    rows.push(vec![
                        run.app.clone(),
                        mode_cell,
                        w.to_string(),
                        run.ops.to_string(),
                        run.errors.to_string(),
                        format!("{:.1}", run.throughput_rps),
                        format!("{:.2}", run.latency.p50_us as f64 / 1e3),
                        format!("{:.2}", run.latency.p99_us as f64 / 1e3),
                        format!("{:.1}", run.db.total_ops() as f64 / run.ops.max(1) as f64),
                        run.db.lock_waits.to_string(),
                        run.wall_ms.to_string(),
                    ]);
                    report.runs.push(run);
                }
            }
        }
    }

    beldi_bench::print_table(
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
            "wall_ms",
        ],
        &rows,
    );

    let in_flight_rows: Vec<Vec<String>> = report
        .runs
        .iter()
        .filter_map(|run| {
            let series = run.in_flight.as_ref()?;
            Some(vec![
                run.key(),
                series.high_water.to_string(),
                series.samples.len().to_string(),
            ])
        })
        .collect();
    if !in_flight_rows.is_empty() {
        beldi_bench::print_table(
            "Async engine in-flight workflows (live executor tasks)",
            &["run", "high_water", "samples"],
            &in_flight_rows,
        );
    }

    if opts_template.gc {
        let gc_rows: Vec<Vec<String>> = report
            .runs
            .iter()
            .map(|run| {
                let samples = &run.storage.samples;
                let mid = &samples[samples.len() / 2];
                let last = samples.last().expect("every run takes a final sample");
                vec![
                    run.key(),
                    mid.meta_rows.to_string(),
                    last.meta_rows.to_string(),
                    last.data_rows.to_string(),
                    run.storage.max_chain_len.to_string(),
                    last.gc_passes.to_string(),
                    last.gc_recycled.to_string(),
                    last.gc_deleted_log_entries.to_string(),
                    last.gc_deleted_rows.to_string(),
                ]
            })
            .collect();
        beldi_bench::print_table(
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
        beldi_bench::print_table(
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

    if let Some(path) = args.value("--json") {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("writing {path}: {e}");
            std::process::exit(1);
        }
        println!("\nwrote {path} ({} runs)", report.runs.len());
    }

    let errors: u64 = report.runs.iter().map(|r| r.errors).sum();
    if errors > 0 {
        eprintln!("{errors} request error(s) across runs");
        std::process::exit(1);
    }
}
