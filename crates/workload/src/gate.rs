//! The performance-regression gate over driver reports.
//!
//! CI runs `drive --smoke`, uploads `BENCH_results.json`, and feeds it —
//! together with the checked-in `BENCH_baseline.json` — through this
//! comparator (the `gate` subcommand is the thin CLI). The gate fails
//! when any `app × mode × workers` point regresses in throughput by more
//! than the allowed fraction, when a baseline point is missing from the
//! results, or when a result run is itself unsound (zero ops, request
//! errors).
//!
//! Throughput is *virtual-time* throughput: it is dominated by the
//! modelled storage/invocation latencies and the number of operations
//! each design issues, not by the CI machine's speed (DESIGN.md §9), so
//! a generous margin (default 25%) absorbs host-noise leakage while
//! still catching real regressions — an accidental extra round trip per
//! read costs well over 25%.

use crate::driver::{runs_by_key, BenchReport, BenchRun};

/// One baseline-vs-current comparison row of either column gate.
#[derive(Debug, Clone, PartialEq)]
pub struct GateRow {
    /// The run identity (`app/mode/wN`).
    pub key: String,
    /// The gated column of the baseline run: throughput in requests per
    /// virtual second ([`gate`]) or p99 service latency in virtual
    /// microseconds ([`latency_gate`]).
    pub baseline: f64,
    /// The same column of the current run.
    pub current: f64,
    /// `current / baseline`.
    pub ratio: f64,
    /// Whether this row passes the gate.
    pub ok: bool,
}

/// A column gate's verdict across all runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GateReport {
    /// Per-run comparisons (baseline order).
    pub rows: Vec<GateRow>,
    /// Human-readable failures; empty means the gate passes.
    pub failures: Vec<String>,
}

impl GateReport {
    /// True when every check passed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Absolute slack on the p99 ceiling: tail percentiles of smoke-scale
/// runs sit on a handful of samples, so a sub-millisecond wobble must
/// never trip the fractional bound.
const P99_SLACK_US: u64 = 500;

/// Which column of a run a gate compares, with its allowed regression
/// (a fraction, e.g. `0.25`).
#[derive(Clone, Copy)]
enum Column {
    Throughput(f64),
    P99(f64),
}

impl Column {
    fn of(self, run: &BenchRun) -> f64 {
        match self {
            Column::Throughput(_) => run.throughput_rps,
            Column::P99(_) => run.latency.p99_us as f64,
        }
    }

    /// Why `base` cannot be gated against, if it cannot. A broken
    /// baseline must never gate vacuously: comparing against a run that
    /// recorded no throughput, request errors, or no latency data (a
    /// drive without the latency model) would let any regression through.
    fn unsound_baseline(self, base: &BenchRun) -> Option<String> {
        match self {
            Column::Throughput(_) if base.throughput_rps <= 0.0 || base.errors > 0 => {
                Some(format!(
                    "baseline run is unsound ({} rps, {} error(s)) — regenerate BENCH_baseline.json",
                    base.throughput_rps, base.errors
                ))
            }
            Column::P99(_) if base.latency.p99_us == 0 => Some(
                "baseline run has no latency data (p99 = 0) — \
                 regenerate BENCH_baseline.json with the latency model on"
                    .to_owned(),
            ),
            _ => None,
        }
    }

    /// How `current` breaks the bound `baseline` sets, if it does.
    fn regression(self, baseline: f64, current: f64) -> Option<String> {
        let ratio = current / baseline;
        match self {
            Column::Throughput(max_regress) => {
                let floor = 1.0 - max_regress;
                (ratio < floor).then(|| {
                    format!(
                        "throughput regressed {:.1}% (baseline {baseline:.1} rps, \
                         current {current:.1} rps, floor {:.0}%)",
                        (1.0 - ratio) * 100.0,
                        floor * 100.0
                    )
                })
            }
            Column::P99(max_regress) => {
                let ceiling = (baseline * (1.0 + max_regress)) as u64 + P99_SLACK_US;
                (current as u64 > ceiling).then(|| {
                    format!(
                        "p99 regressed {:.1}% (baseline {baseline} µs, current {current} µs, \
                         ceiling {ceiling} µs)",
                        (ratio - 1.0) * 100.0
                    )
                })
            }
        }
    }
}

/// The one comparison loop behind [`gate`] and [`latency_gate`]: every
/// baseline run must be sound, present in `current`, and within the
/// column's bound. Extra runs in `current` (new apps/worker counts) are
/// never compared; missing runs fail.
fn compare(baseline: &BenchReport, current: &BenchReport, column: Column) -> GateReport {
    let mut report = GateReport::default();
    let current_by_key = runs_by_key(current);
    for base in &baseline.runs {
        let key = base.key();
        if let Some(why) = column.unsound_baseline(base) {
            report.failures.push(format!("{key}: {why}"));
            continue;
        }
        let Some(cur) = current_by_key.get(&key) else {
            report.failures.push(format!(
                "{key}: present in baseline but missing from results"
            ));
            continue;
        };
        if let Column::Throughput(_) = column {
            // Zero-op or erroring current runs fail regardless of ratio —
            // they indicate a broken driver, not a slow one.
            if cur.ops == 0 {
                report.failures.push(format!("{key}: zero ops in results"));
                continue;
            }
            if cur.errors > 0 {
                report
                    .failures
                    .push(format!("{key}: {} request error(s) in results", cur.errors));
            }
        }
        let (baseline, current) = (column.of(base), column.of(cur));
        let regression = column.regression(baseline, current);
        report.rows.push(GateRow {
            key: key.clone(),
            baseline,
            current,
            ratio: current / baseline,
            ok: regression.is_none(),
        });
        report
            .failures
            .extend(regression.map(|why| format!("{key}: {why}")));
    }
    report
}

/// The throughput gate: every baseline run's throughput may drop by at
/// most `max_regress` (a fraction, e.g. `0.25`).
pub fn gate(baseline: &BenchReport, current: &BenchReport, max_regress: f64) -> GateReport {
    compare(baseline, current, Column::Throughput(max_regress))
}

/// The tail-latency gate: every baseline run's p99 may grow by at most
/// `max_regress` (a fraction, e.g. `0.5`), plus a small absolute slack
/// ([`P99_SLACK_US`]) for smoke-scale tails.
pub fn latency_gate(baseline: &BenchReport, current: &BenchReport, max_regress: f64) -> GateReport {
    compare(baseline, current, Column::P99(max_regress))
}

/// Slack added to the plateau bound so tiny absolute counts (a handful
/// of intents in flight at sample time) never trip the ratio check.
const GROWTH_SLACK_ROWS: u64 = 64;

/// Checks one GC-enabled run's storage series for *bounded* steady-state
/// growth, appending human-readable failures.
///
/// The property gated: once online GC reaches steady state, Beldi's
/// metadata tables (intents, logs, shadows, disconnected DAAL rows) stop
/// growing — the row count at the end of the run must not materially
/// exceed the count at the midpoint. Without GC both grow linearly with
/// requests, so a broken (or never-firing) collector fails loudly. Also
/// rejected: zero completed GC passes, too few samples to judge, and any
/// corrupt-chain report.
fn check_growth(run: &BenchRun, max_growth: f64, failures: &mut Vec<String>) {
    let key = run.key();
    let samples = &run.storage.samples;
    if samples.len() < 4 {
        failures.push(format!(
            "{key}: only {} storage sample(s) — run too short to judge steady state",
            samples.len()
        ));
        return;
    }
    let last = &samples[samples.len() - 1];
    if last.gc_passes == 0 {
        failures.push(format!("{key}: online GC never completed a pass"));
    }
    if last.gc_corrupt_chains > 0 {
        failures.push(format!(
            "{key}: GC reported {} corrupt DAAL chain(s)",
            last.gc_corrupt_chains
        ));
    }
    let mid = &samples[samples.len() / 2];
    for (label, mid_rows, end_rows) in [
        ("metadata", mid.meta_rows, last.meta_rows),
        ("data", mid.data_rows, last.data_rows),
    ] {
        let bound = (mid_rows as f64 * (1.0 + max_growth)) as u64 + GROWTH_SLACK_ROWS;
        if end_rows > bound {
            failures.push(format!(
                "{key}: {label} rows grew {mid_rows} → {end_rows} between the run midpoint \
                 and the end (bound {bound}) — storage is not reaching a steady state"
            ));
        }
    }
}

/// The storage-growth gate over a GC-enabled driver report: every
/// GC-enabled run must show bounded steady-state metadata/data growth
/// (see [`check_growth`]). `max_growth` is the allowed fractional
/// increase between the run midpoint and the end (e.g. `0.25`).
///
/// Runs recorded with `gc: false` are skipped — Baseline mode has no
/// collectors, so a `drive --gc --mode all` report legitimately mixes
/// both — but a report with *no* GC-enabled run at all fails rather
/// than passing vacuously (it means the gate was pointed at the wrong
/// file or the drive was misconfigured).
pub fn growth_gate(report: &BenchReport, max_growth: f64) -> Vec<String> {
    let mut failures = Vec::new();
    let gc_runs: Vec<&BenchRun> = report.runs.iter().filter(|r| r.gc).collect();
    if gc_runs.is_empty() {
        failures.push("growth gate: report contains no GC-enabled runs".to_owned());
    }
    for run in gc_runs {
        check_growth(run, max_growth, &mut failures);
    }
    failures
}

/// The chaos-recovery gate over a chaos driver report.
///
/// Every chaos run (one carrying a [`crate::driver::RecoverySection`])
/// must have survived its crash storm with exactly-once semantics
/// intact:
///
/// - the conservation digest equals the crash-free oracle's;
/// - duplicate effects beyond the oracle are within
///   `max_duplicate_effects` (CI pins this to zero);
/// - the IC quarantined no corrupt intents;
/// - recovery p99 (virtual ms) is within the `max_recovery_p99_ms` SLO.
///
/// Vacuous passes are rejected: a report with no chaos run at all fails,
/// as does a chaos run whose storm never actually injected a crash or
/// whose recovery series is empty despite injected *workflow* crashes —
/// both mean the gate is checking nothing. Crashes that landed only on
/// collector passes (`ic.*`/`gc.*` sites) are exempt from the
/// recovery-series requirement: a killed collector pass has no intent to
/// recover, so such a storm is still a meaningful digest check.
pub fn recovery_gate(
    report: &BenchReport,
    max_recovery_p99_ms: u64,
    max_duplicate_effects: i64,
) -> Vec<String> {
    let mut failures = Vec::new();
    let chaos_runs: Vec<&BenchRun> = report
        .runs
        .iter()
        .filter(|r| r.recovery.is_some())
        .collect();
    if chaos_runs.is_empty() {
        failures.push("recovery gate: report contains no chaos runs".to_owned());
    }
    for run in chaos_runs {
        let key = run.key();
        let rec = run.recovery.as_ref().expect("filtered on recovery");
        if rec.injected_crashes == 0 {
            failures.push(format!(
                "{key}: the storm injected no crashes — the chaos gate is vacuous \
                 (raise the kill rates or the op count)"
            ));
        } else {
            // Only workflow kills can produce recovery samples: a killed
            // IC/GC pass has no intent of its own to recover (its crash
            // shows up in `ic_crashes`/`gc_crashes` and is covered by the
            // digest check). A storm whose whole crash budget landed on
            // collectors legitimately has an empty recovery series.
            let workflow_crashes: u64 = rec
                .crash_sites
                .iter()
                .filter(|(label, _)| !label.starts_with("ic.") && !label.starts_with("gc."))
                .map(|(_, n)| *n)
                .sum();
            if workflow_crashes > 0 && rec.recovered_intents == 0 {
                failures.push(format!(
                    "{key}: {workflow_crashes} workflow crash(es) injected but no killed \
                     instance was observed recovering — the recovery series is empty",
                ));
            }
        }
        if !rec.digest_match {
            failures.push(format!(
                "{key}: conservation digest mismatch (chaos {}, oracle {}) — \
                 the storm lost or corrupted state",
                run.state_digest, rec.oracle_digest
            ));
        }
        if rec.duplicate_effects > max_duplicate_effects {
            failures.push(format!(
                "{key}: {} duplicate effect(s) beyond the crash-free oracle (max {}) — \
                 exactly-once is violated",
                rec.duplicate_effects, max_duplicate_effects
            ));
        }
        if rec.ic_corrupt > 0 {
            failures.push(format!(
                "{key}: IC quarantined {} corrupt intent(s)",
                rec.ic_corrupt
            ));
        }
        if rec.recovery_p99_ms > max_recovery_p99_ms {
            failures.push(format!(
                "{key}: recovery p99 {} ms exceeds the SLO ceiling {} ms",
                rec.recovery_p99_ms, max_recovery_p99_ms
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{BenchRun, LatencySummary, RecoverySection, StorageSample, StorageSeries};
    use beldi_simdb::MetricsSnapshot;

    fn run(app: &str, workers: usize, rps: f64, errors: u64) -> BenchRun {
        BenchRun {
            app: app.into(),
            mode: "beldi".into(),
            workers,
            partitions: 8,
            ops: 100,
            errors,
            elapsed_virtual_us: 1,
            wall_ms: 1,
            throughput_rps: rps,
            latency: LatencySummary::default(),
            db: MetricsSnapshot::default(),
            state_digest: String::new(),
            effects: 0,
            gc: false,
            storage: StorageSeries::default(),
            runtime: crate::driver::RuntimeKind::Thread,
            in_flight: None,
            recovery: None,
        }
    }

    /// A chaos run with a healthy recovery section on top of the
    /// sound-run defaults; tests break individual fields.
    fn chaos_run(app: &str) -> BenchRun {
        BenchRun {
            state_digest: "abcd".into(),
            recovery: Some(RecoverySection {
                injected_crashes: 20,
                restarts: 25,
                crash_sites: [("wrapper.enter".to_owned(), 20u64)].into_iter().collect(),
                ic_passes: 6,
                ic_restarted: 4,
                ic_crashes: 1,
                gc_crashes: 1,
                ic_corrupt: 0,
                recovered_intents: 15,
                recovery_p50_ms: 100,
                recovery_p90_ms: 300,
                recovery_p99_ms: 800,
                duplicate_effects: 0,
                oracle_digest: "abcd".into(),
                digest_match: true,
            }),
            ..run(app, 4, 10.0, 0)
        }
    }

    /// A GC-enabled run whose meta-row series is given explicitly.
    fn gc_run(meta_series: &[u64], gc_passes: u64) -> BenchRun {
        let samples = meta_series
            .iter()
            .enumerate()
            .map(|(i, &meta_rows)| StorageSample {
                t_us: (i as u64 + 1) * 1_000_000,
                meta_rows,
                data_rows: 100,
                gc_passes,
                ..StorageSample::default()
            })
            .collect();
        BenchRun {
            gc: true,
            storage: StorageSeries {
                samples,
                max_chain_len: 2,
            },
            ..run("media", 4, 10.0, 0)
        }
    }

    fn report(runs: Vec<BenchRun>) -> BenchReport {
        BenchReport {
            seed: 42,
            total_ops: 100,
            mix: "default".into(),
            clock_rate: 40.0,
            tail_cache: true,
            runs,
        }
    }

    #[test]
    fn equal_reports_pass() {
        let base = report(vec![run("media", 1, 100.0, 0), run("media", 4, 300.0, 0)]);
        let g = gate(&base, &base, 0.25);
        assert!(g.ok(), "{:?}", g.failures);
        assert_eq!(g.rows.len(), 2);
        assert!(g.rows.iter().all(|r| (r.ratio - 1.0).abs() < 1e-9));
    }

    #[test]
    fn committed_baseline_gates_against_itself() {
        let text = include_str!("../../../BENCH_baseline.json");
        let base = BenchReport::from_json(text).unwrap();
        for g in [gate(&base, &base, 0.25), latency_gate(&base, &base, 3.0)] {
            assert!(g.ok(), "{:?}", g.failures);
            assert_eq!(g.rows.len(), base.runs.len());
            assert!(g.rows.iter().all(|r| r.ok && r.ratio == 1.0));
        }
    }

    #[test]
    fn small_regression_passes_big_regression_fails() {
        let base = report(vec![run("media", 1, 100.0, 0)]);
        let slightly_slow = report(vec![run("media", 1, 80.0, 0)]);
        assert!(gate(&base, &slightly_slow, 0.25).ok());
        let much_slower = report(vec![run("media", 1, 70.0, 0)]);
        let g = gate(&base, &much_slower, 0.25);
        assert!(!g.ok());
        assert!(g.failures[0].contains("regressed"), "{:?}", g.failures);
    }

    #[test]
    fn improvements_always_pass() {
        let base = report(vec![run("media", 1, 100.0, 0)]);
        let faster = report(vec![run("media", 1, 250.0, 0)]);
        assert!(gate(&base, &faster, 0.25).ok());
    }

    #[test]
    fn missing_and_erroring_runs_fail() {
        let base = report(vec![run("media", 1, 100.0, 0), run("travel", 1, 50.0, 0)]);
        let missing = report(vec![run("media", 1, 100.0, 0)]);
        let g = gate(&base, &missing, 0.25);
        assert!(!g.ok());
        assert!(g.failures[0].contains("missing"));

        let erroring = report(vec![run("media", 1, 100.0, 3), run("travel", 1, 50.0, 0)]);
        let g = gate(&base, &erroring, 0.25);
        assert!(!g.ok());
        assert!(g.failures[0].contains("error"));
    }

    #[test]
    fn unsound_baseline_runs_fail_instead_of_gating_vacuously() {
        let zero_rps = report(vec![run("media", 1, 0.0, 0)]);
        let current = report(vec![run("media", 1, 0.0, 0)]);
        let g = gate(&zero_rps, &current, 0.25);
        assert!(!g.ok());
        assert!(g.failures[0].contains("baseline run is unsound"));

        let erroring_base = report(vec![run("media", 1, 100.0, 2)]);
        let g = gate(
            &erroring_base,
            &report(vec![run("media", 1, 100.0, 0)]),
            0.25,
        );
        assert!(!g.ok());
        assert!(g.failures[0].contains("baseline run is unsound"));
    }

    #[test]
    fn extra_current_runs_are_ignored() {
        let base = report(vec![run("media", 1, 100.0, 0)]);
        let extra = report(vec![run("media", 1, 100.0, 0), run("social", 8, 10.0, 0)]);
        assert!(gate(&base, &extra, 0.25).ok());
    }

    /// A run with the given p99 (µs) on top of the sound-run defaults.
    fn run_p99(app: &str, workers: usize, p99_us: u64) -> BenchRun {
        BenchRun {
            latency: LatencySummary {
                p99_us,
                ..LatencySummary::default()
            },
            ..run(app, workers, 100.0, 0)
        }
    }

    #[test]
    fn latency_gate_passes_equal_and_improved_tails() {
        let base = report(vec![
            run_p99("media", 1, 40_000),
            run_p99("media", 4, 90_000),
        ]);
        let GateReport { rows, failures } = latency_gate(&base, &base, 0.5);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.ok));

        let faster = report(vec![
            run_p99("media", 1, 10_000),
            run_p99("media", 4, 20_000),
        ]);
        let GateReport { failures, .. } = latency_gate(&base, &faster, 0.5);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn latency_gate_fails_a_large_p99_regression() {
        let base = report(vec![run_p99("media", 1, 40_000)]);
        // 50% growth + slack is in budget at 0.5; double is not.
        let slower = report(vec![run_p99("media", 1, 59_000)]);
        let GateReport { failures, .. } = latency_gate(&base, &slower, 0.5);
        assert!(failures.is_empty(), "{failures:?}");
        let much_slower = report(vec![run_p99("media", 1, 80_000)]);
        let GateReport { rows, failures } = latency_gate(&base, &much_slower, 0.5);
        assert!(!failures.is_empty());
        assert!(failures[0].contains("p99 regressed"), "{failures:?}");
        assert!(!rows[0].ok);
    }

    #[test]
    fn latency_gate_slack_forgives_tiny_absolute_tails() {
        // 3× the baseline ratio-wise, but within the absolute slack —
        // sub-millisecond smoke tails must not gate.
        let base = report(vec![run_p99("media", 1, 200)]);
        let wobbled = report(vec![run_p99("media", 1, 600)]);
        let GateReport { failures, .. } = latency_gate(&base, &wobbled, 0.5);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn latency_gate_rejects_unsound_baselines_and_missing_runs() {
        // p99 = 0 in the baseline: a latency-model-free drive, unsound.
        let no_latency = report(vec![run("media", 1, 100.0, 0)]);
        let GateReport { failures, .. } = latency_gate(&no_latency, &no_latency, 0.5);
        assert!(
            failures.iter().any(|f| f.contains("no latency data")),
            "{failures:?}"
        );

        let base = report(vec![
            run_p99("media", 1, 40_000),
            run_p99("travel", 1, 40_000),
        ]);
        let missing = report(vec![run_p99("media", 1, 40_000)]);
        let GateReport { failures, .. } = latency_gate(&base, &missing, 0.5);
        assert!(
            failures.iter().any(|f| f.contains("missing")),
            "{failures:?}"
        );

        // Extra current runs are ignored, as in the throughput gate.
        let extra = report(vec![
            run_p99("media", 1, 40_000),
            run_p99("social", 8, 1_000),
        ]);
        let GateReport { rows, failures } =
            latency_gate(&report(vec![run_p99("media", 1, 40_000)]), &extra, 0.5);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn growth_gate_accepts_a_plateau() {
        // Metadata grows during warm-up, then plateaus: bounded.
        let r = gc_run(&[400, 700, 820, 800, 790, 810], 30);
        let failures = growth_gate(&report(vec![r]), 0.25);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn growth_gate_rejects_linear_growth() {
        // Metadata keeps climbing past the midpoint: GC is not keeping up.
        let r = gc_run(&[500, 1000, 1500, 2000, 2500, 3000], 30);
        let failures = growth_gate(&report(vec![r]), 0.25);
        assert!(
            failures.iter().any(|f| f.contains("not reaching")),
            "{failures:?}"
        );
    }

    #[test]
    fn growth_gate_rejects_degenerate_runs() {
        // GC never fired.
        let r = gc_run(&[100, 100, 100, 100], 0);
        let failures = growth_gate(&report(vec![r]), 0.25);
        assert!(
            failures.iter().any(|f| f.contains("never completed")),
            "{failures:?}"
        );

        // No GC-enabled run in the whole report: never pass vacuously.
        let failures = growth_gate(&report(vec![run("media", 1, 10.0, 0)]), 0.25);
        assert!(
            failures.iter().any(|f| f.contains("no GC-enabled runs")),
            "{failures:?}"
        );
        // But a GC-free (e.g. baseline-mode) run riding along with a
        // sound GC run is simply skipped.
        let mixed = report(vec![
            gc_run(&[400, 700, 800, 790], 10),
            run("media", 1, 10.0, 0),
        ]);
        assert!(growth_gate(&mixed, 0.25).is_empty());

        // Too few samples to judge.
        let r = gc_run(&[100, 100], 5);
        let failures = growth_gate(&report(vec![r]), 0.25);
        assert!(
            failures.iter().any(|f| f.contains("too short")),
            "{failures:?}"
        );

        // Corruption is always fatal.
        let mut r = gc_run(&[100, 100, 100, 100], 5);
        r.storage.samples.last_mut().unwrap().gc_corrupt_chains = 1;
        let failures = growth_gate(&report(vec![r]), 0.25);
        assert!(
            failures.iter().any(|f| f.contains("corrupt")),
            "{failures:?}"
        );

        // An empty report never passes vacuously.
        let failures = growth_gate(&report(vec![]), 0.25);
        assert!(!failures.is_empty());
    }

    #[test]
    fn recovery_gate_passes_healthy_chaos_run() {
        let failures = recovery_gate(&report(vec![chaos_run("travel")]), 2_000, 0);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn recovery_gate_rejects_digest_mismatch() {
        let mut r = chaos_run("travel");
        r.recovery.as_mut().unwrap().digest_match = false;
        r.recovery.as_mut().unwrap().oracle_digest = "ffff".into();
        let failures = recovery_gate(&report(vec![r]), 2_000, 0);
        assert!(
            failures.iter().any(|f| f.contains("digest mismatch")),
            "{failures:?}"
        );
    }

    #[test]
    fn recovery_gate_rejects_duplicate_effects() {
        let mut r = chaos_run("travel");
        r.recovery.as_mut().unwrap().duplicate_effects = 2;
        let failures = recovery_gate(&report(vec![r]), 2_000, 0);
        assert!(
            failures.iter().any(|f| f.contains("duplicate effect")),
            "{failures:?}"
        );
        // A looser ceiling admits the same run.
        let mut r = chaos_run("travel");
        r.recovery.as_mut().unwrap().duplicate_effects = 2;
        assert!(recovery_gate(&report(vec![r]), 2_000, 2).is_empty());
    }

    #[test]
    fn recovery_gate_rejects_slow_recovery() {
        let mut r = chaos_run("travel");
        r.recovery.as_mut().unwrap().recovery_p99_ms = 5_000;
        let failures = recovery_gate(&report(vec![r]), 2_000, 0);
        assert!(
            failures.iter().any(|f| f.contains("SLO ceiling")),
            "{failures:?}"
        );
    }

    #[test]
    fn recovery_gate_rejects_corrupt_intents() {
        let mut r = chaos_run("travel");
        r.recovery.as_mut().unwrap().ic_corrupt = 1;
        let failures = recovery_gate(&report(vec![r]), 2_000, 0);
        assert!(
            failures.iter().any(|f| f.contains("corrupt intent")),
            "{failures:?}"
        );
    }

    #[test]
    fn recovery_gate_rejects_vacuous_storms() {
        // A storm that never fired proves nothing.
        let mut r = chaos_run("travel");
        r.recovery.as_mut().unwrap().injected_crashes = 0;
        let failures = recovery_gate(&report(vec![r]), 2_000, 0);
        assert!(
            failures.iter().any(|f| f.contains("vacuous")),
            "{failures:?}"
        );

        // Crashes without a single observed recovery are just as vacuous.
        let mut r = chaos_run("travel");
        r.recovery.as_mut().unwrap().recovered_intents = 0;
        let failures = recovery_gate(&report(vec![r]), 2_000, 0);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("recovery series is empty")),
            "{failures:?}"
        );

        // A report with no chaos run at all fails too.
        let failures = recovery_gate(&report(vec![run("travel", 4, 10.0, 0)]), 2_000, 0);
        assert!(
            failures.iter().any(|f| f.contains("no chaos runs")),
            "{failures:?}"
        );
    }

    #[test]
    fn recovery_gate_exempts_collector_only_storms() {
        // A storm whose whole crash budget landed on IC/GC passes has no
        // workflow intent to recover, so its empty recovery series is
        // legitimate — the digest check still has teeth.
        let mut r = chaos_run("travel");
        let rec = r.recovery.as_mut().unwrap();
        rec.crash_sites = [
            ("ic.post_scan".to_owned(), 12u64),
            ("gc.enter".to_owned(), 8),
        ]
        .into_iter()
        .collect();
        rec.recovered_intents = 0;
        let failures = recovery_gate(&report(vec![r]), 2_000, 0);
        assert!(failures.is_empty(), "{failures:?}");

        // One workflow kill among the collector kills re-arms the
        // requirement.
        let mut r = chaos_run("travel");
        let rec = r.recovery.as_mut().unwrap();
        rec.crash_sites = [
            ("ic.post_scan".to_owned(), 12u64),
            ("wrapper.pre_done".to_owned(), 1),
        ]
        .into_iter()
        .collect();
        rec.recovered_intents = 0;
        let failures = recovery_gate(&report(vec![r]), 2_000, 0);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("recovery series is empty")),
            "{failures:?}"
        );
    }
}
