//! The gates over driver reports.
//!
//! CI runs `drive --smoke`, uploads `BENCH_results.json`, and feeds it —
//! together with the checked-in `BENCH_baseline.json` — through [`gate`]
//! (the `gate` subcommand is the thin CLI). A drive's modelled numbers
//! are a pure function of `(seed, options)` (DESIGN.md §9), so the gate
//! is equality: it fails when any baseline run is missing from the
//! results, is itself unsound (zero ops, request errors), or differs
//! from the baseline in any field but `wall_ms`. A change that moves a
//! number on purpose commits the regenerated baseline beside it.
//!
//! [`growth_gate`], [`recovery_gate`] and [`front_gate`] are the checks
//! `drive --gc`, `drive --chaos` and `drive --smoke` run over the report
//! they make: properties of one report, not diffs, each with a bound
//! that is a constant or comes from the run's own settings.

use std::collections::BTreeMap;
use std::time::Duration;

use beldi::value::{json, Value};
use beldi::Mode;

use crate::driver::{
    runs_by_key, BenchReport, BenchRun, FrontRun, RecoverySection, MAX_CRASHES, REBASELINE,
};
use crate::explore::ViolationKind::{EffectDivergence, StateDivergence};
use crate::explore::{ExploreReport, Violation};

/// Most differing fields listed per run before the rest are counted.
const MAX_LISTED_DIFFS: usize = 8;

/// Appends `path: baseline X, current Y` for every leaf at which `base`
/// and `cur` differ.
fn diff(path: &str, base: &Value, cur: &Value, out: &mut Vec<String>) {
    let absent = Value::from("<absent>");
    match (base, cur) {
        (Value::Map(b), Value::Map(c)) => {
            let keys: std::collections::BTreeSet<&str> =
                b.keys().chain(c.keys()).map(|k| k.as_str()).collect();
            for k in keys {
                let (bv, cv) = (b.get(k).unwrap_or(&absent), c.get(k).unwrap_or(&absent));
                diff(&format!("{path}.{k}"), bv, cv, out);
            }
        }
        (Value::List(b), Value::List(c)) if b.len() == c.len() => {
            for (i, (bv, cv)) in b.iter().zip(c).enumerate() {
                diff(&format!("{path}[{i}]"), bv, cv, out);
            }
        }
        (Value::List(b), Value::List(c)) => out.push(format!(
            "{path}: baseline has {} entries, current {}",
            b.len(),
            c.len()
        )),
        _ if base != cur => out.push(format!(
            "{path}: baseline {}, current {}",
            json::to_json(base),
            json::to_json(cur)
        )),
        _ => {}
    }
}

/// `v` (a report or run document) without its key `k`.
fn without(mut v: Value, k: &str) -> Value {
    if let Some(map) = v.as_map_mut() {
        map.remove(k);
    }
    v
}

/// The exact gate: the two reports must have been driven with the same
/// seed, op count, mix and cache setting and carry the same front-door
/// row (`report.front`, every field), and every baseline run must be
/// present in `current`, sound, and equal to it in every field but
/// `wall_ms`. Extra runs in `current` (new apps/worker counts) are never
/// compared. Returns human-readable failures, each naming the run and
/// the field; empty means the gate passes.
pub fn gate(baseline: &BenchReport, current: &BenchReport) -> Vec<String> {
    let mut failures = Vec::new();
    diff(
        "report",
        &without(baseline.to_value(), "runs"),
        &without(current.to_value(), "runs"),
        &mut failures,
    );
    let current_by_key = runs_by_key(current);
    for base in &baseline.runs {
        let key = base.key();
        let Some(cur) = current_by_key.get(&key) else {
            failures.push(format!(
                "{key}: present in baseline but missing from results"
            ));
            continue;
        };
        // Zero-op or erroring runs fail even when the baseline has the
        // same: they indicate a broken driver, and a baseline holding one
        // must not gate vacuously.
        if cur.ops == 0 {
            failures.push(format!("{key}: zero ops in results"));
            continue;
        }
        if cur.errors > 0 {
            failures.push(format!("{key}: {} request error(s) in results", cur.errors));
        }
        let mut diffs = Vec::new();
        diff(
            &key,
            &without(base.to_value(), "wall_ms"),
            &without(cur.to_value(), "wall_ms"),
            &mut diffs,
        );
        let unlisted = diffs.len().saturating_sub(MAX_LISTED_DIFFS);
        failures.extend(diffs.into_iter().take(MAX_LISTED_DIFFS));
        if unlisted > 0 {
            failures.push(format!("{key}: … and {unlisted} more differing field(s)"));
        }
    }
    if !failures.is_empty() {
        failures.push(format!(
            "if the change is meant to move these numbers, commit the new golden: `{REBASELINE}`"
        ));
    }
    failures
}

/// The allowed growth of a GC run's metadata and data rows from its
/// midpoint to its end, as a fraction of the midpoint count.
pub const MAX_GROWTH: f64 = 0.25;

/// Slack added to the plateau bound so tiny absolute counts (a handful
/// of intents in flight at sample time) never trip the ratio check.
pub const GROWTH_SLACK_ROWS: u64 = 64;

/// Checks one GC-enabled run's storage series for *bounded* steady-state
/// growth, appending human-readable failures.
///
/// The property checked: once online GC reaches steady state, Beldi's
/// metadata tables (intents, logs, shadows, disconnected DAAL rows) stop
/// growing — the row count at the end of the run must not exceed the
/// count at the midpoint by more than [`MAX_GROWTH`] plus
/// [`GROWTH_SLACK_ROWS`]. Without GC both grow linearly with requests,
/// so a broken (or never-firing) collector fails loudly. Also rejected:
/// zero completed GC passes, too few samples to judge, and any
/// corrupt-chain report.
fn check_growth(run: &BenchRun, failures: &mut Vec<String>) {
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
        let bound = (mid_rows as f64 * (1.0 + MAX_GROWTH)) as u64 + GROWTH_SLACK_ROWS;
        if end_rows > bound {
            failures.push(format!(
                "{key}: {label} rows grew {mid_rows} → {end_rows} between the run midpoint \
                 and the end (bound {bound}) — storage is not reaching a steady state"
            ));
        }
    }
}

/// The storage-growth check of a `drive --gc` report: every GC-enabled
/// run must show bounded steady-state metadata/data growth (see
/// `check_growth`).
///
/// Runs recorded with `gc: false` are skipped — Baseline mode has no
/// collectors, so a `drive --gc --mode all` report legitimately mixes
/// both — but a report with *no* GC-enabled run at all fails rather
/// than passing vacuously.
pub fn growth_gate(report: &BenchReport) -> Vec<String> {
    let mut failures = Vec::new();
    let gc_runs: Vec<&BenchRun> = report.runs.iter().filter(|r| r.gc).collect();
    if gc_runs.is_empty() {
        failures.push("growth gate: report contains no GC-enabled runs".to_owned());
    }
    for run in gc_runs {
        check_growth(run, &mut failures);
    }
    failures
}

/// The recovery-latency ceiling of a chaos run whose lease is `t_max`:
/// `T/3`, in virtual milliseconds. A casualty comes back after one IC
/// restart delay plus its re-execution, far inside the lease; a third of
/// the lease leaves room for a long run's queueing and, at the smoke
/// lease of 60 s, still catches a relaunch stuck behind the production
/// 30 s back-off.
pub fn max_recovery_p99_ms(t_max: Duration) -> u64 {
    (t_max.as_millis() / 3) as u64
}

/// What one crash check — an explorer sweep or a chaos run — of an app
/// in a mode found, in runs, as [`crash_verdict`] weighs it.
pub struct CrashCheck<'a> {
    /// The app checked.
    pub app: &'a str,
    /// The mode it ran in.
    pub mode: Mode,
    /// Divergences from the crash-free oracle's state or effect count.
    pub diverged: usize,
    /// Runs with more effects than the oracle: a retry re-applied one.
    pub duplicated: usize,
    /// Every other violation: a failed oracle run, a crash that never
    /// fired, an error, unfinished recovery, GC residue, corruption.
    pub broken: usize,
}

impl<'a> CrashCheck<'a> {
    /// What an explorer sweep found.
    pub fn of_sweep(report: &'a ExploreReport) -> Self {
        let divergence = |v: &&Violation| matches!(v.kind, StateDivergence | EffectDivergence);
        let diverged = report.violations.iter().filter(divergence).count();
        CrashCheck {
            app: &report.app,
            mode: report.mode,
            diverged,
            duplicated: report.duplicating,
            broken: report.violations.len() - diverged,
        }
    }
}

/// The verdict of `explore` and `drive --chaos`: a logged mode's check
/// fails on any violation, any on a broken one. Baseline, whose retries
/// re-apply effects (§2.1), is the negative control: each app it checked
/// must have a run with more effects than the oracle.
pub fn crash_verdict<'a>(checks: impl IntoIterator<Item = CrashCheck<'a>>) -> Vec<String> {
    let mut failures = Vec::new();
    let mut controls: BTreeMap<&str, usize> = BTreeMap::new();
    for c in checks {
        let at = format!("{}/{}", c.app, c.mode.name());
        if c.broken > 0 {
            failures.push(format!("{at}: {} violation(s) no mode may show", c.broken));
        }
        if c.mode == Mode::Baseline {
            *controls.entry(c.app).or_default() += c.duplicated;
        } else if c.diverged > 0 {
            failures.push(format!(
                "{at}: exactly-once is violated — {} divergence(s) from the crash-free \
                 oracle's state (digest mismatch) or effect count, {} run(s) with duplicate \
                 effects",
                c.diverged, c.duplicated
            ));
        }
    }
    for (app, _) in controls.into_iter().filter(|&(_, n)| n == 0) {
        failures.push(format!(
            "{app}/baseline: no run made more effects than its crash-free oracle — \
             the negative control did not bite"
        ));
    }
    failures
}

/// The recovery check of a `drive --chaos` report whose storm ran under
/// the lease `t_max`.
///
/// Every chaos run (one carrying a [`crate::driver::RecoverySection`])
/// must have survived its crash storm:
///
/// - the collectors counted no corruption: the IC quarantined no
///   intent, and the GC skipped no corrupt chain or intent;
/// - recovery p99 (virtual ms) is at most [`max_recovery_p99_ms`];
/// - by [`crash_verdict`], a logged run matches its crash-free oracle,
///   and some baseline run of each app makes a duplicate effect.
///
/// Vacuous passes are rejected: a report with no chaos run at all fails,
/// as does a chaos run whose storm never actually injected a crash or
/// whose recovery series is empty despite injected *workflow* crashes —
/// both mean the check is checking nothing. So does a run whose storm
/// reached the drive's crash cap: the cap, not the storm, shaped its schedule.
/// Crashes that landed only on collector passes (`ic.*`/`gc.*` sites) are
/// exempt from the recovery-series requirement: a killed collector pass
/// has no intent to recover, so such a storm is still a meaningful digest
/// check.
pub fn recovery_gate(report: &BenchReport, t_max: Duration) -> Vec<String> {
    let max_p99 = max_recovery_p99_ms(t_max);
    let mut failures = Vec::new();
    let chaos_runs: Vec<(&BenchRun, &RecoverySection)> = report
        .runs
        .iter()
        .filter_map(|r| Some((r, r.recovery.as_ref()?)))
        .collect();
    if chaos_runs.is_empty() {
        failures.push("recovery gate: report contains no chaos runs".to_owned());
    }
    let mut checks = Vec::new();
    for (run, rec) in chaos_runs {
        let key = run.key();
        if rec.injected_crashes == 0 {
            failures.push(format!(
                "{key}: the storm injected no crashes — the chaos check is vacuous \
                 (raise the kill rates or the op count)"
            ));
        } else if rec.injected_crashes >= MAX_CRASHES {
            failures.push(format!(
                "{key}: the storm reached its cap of {MAX_CRASHES} crashes and stopped \
                 injecting — the cap shaped the schedule (lower the kill rates or the op count)"
            ));
        } else {
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
        checks.push(CrashCheck {
            app: &run.app,
            // A mode no name parses to is held to the logged modes' bar.
            mode: Mode::parse(&run.mode).unwrap_or(Mode::Beldi),
            diverged: usize::from(!rec.digest_match) + usize::from(rec.duplicate_effects > 0),
            duplicated: usize::from(rec.duplicate_effects > 0),
            broken: 0,
        });
        if rec.ic_corrupt + rec.gc_corrupt > 0 {
            failures.push(format!(
                "{key}: IC quarantined {} corrupt intent(s), GC skipped {} corrupt item(s)",
                rec.ic_corrupt, rec.gc_corrupt
            ));
        }
        if rec.recovery_p99_ms > max_p99 {
            failures.push(format!(
                "{key}: recovery p99 {} ms exceeds T/3 = {max_p99} ms",
                rec.recovery_p99_ms
            ));
        }
    }
    failures.extend(crash_verdict(checks));
    failures
}

/// The check of the front door's row (`drive --smoke`): the state the
/// door served must equal the in-process replay's, and every request
/// over the wire must have been answered.
pub fn front_gate(front: &FrontRun) -> Vec<String> {
    let mut failures = Vec::new();
    if front.front_digest != front.inproc_digest {
        failures.push(format!(
            "front door digest {} != in-process digest {} — the networked state diverged",
            front.front_digest, front.inproc_digest
        ));
    }
    if front.errors > 0 {
        failures.push(format!(
            "{} of {} request(s) through the door failed",
            front.errors, front.requests
        ));
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
            in_flight: Default::default(),
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
                gc_corrupt: 0,
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

    /// The smoke storm's lease.
    const T_MAX: Duration = Duration::from_secs(60);

    fn report(runs: Vec<BenchRun>) -> BenchReport {
        BenchReport {
            seed: 42,
            total_ops: 100,
            mix: "default".into(),
            tail_cache: true,
            runs,
            front: None,
        }
    }

    #[test]
    fn equal_reports_pass() {
        let base = report(vec![run("media", 1, 100.0, 0), run("media", 4, 300.0, 0)]);
        assert_eq!(gate(&base, &base), Vec::<String>::new());
        // `wall_ms` is the host's number, never compared.
        let mut slower_host = base.clone();
        slower_host.runs[0].wall_ms = 9_999;
        assert_eq!(gate(&base, &slower_host), Vec::<String>::new());
    }

    #[test]
    fn committed_baseline_gates_against_itself() {
        let text = include_str!("../../../BENCH_baseline.json");
        let base = BenchReport::from_json(text).unwrap();
        assert!(base.runs.len() >= 12, "the smoke preset's runs");
        assert!(base.front.is_some(), "the smoke preset's front-door row");
        assert_eq!(gate(&base, &base), Vec::<String>::new());
    }

    #[test]
    fn one_op_off_fails_naming_the_run_and_the_field() {
        let base = report(vec![run("media", 1, 100.0, 0), run("media", 4, 300.0, 0)]);
        let mut off = base.clone();
        off.runs[1].db.gets += 1;
        let failures = gate(&base, &off);
        assert_eq!(failures[0], "media/beldi/w4.db.gets: baseline 0, current 1");
        assert!(failures[1].contains(REBASELINE), "{failures:?}");
        assert_eq!(failures.len(), 2, "the equal run is not mentioned");
        // No tolerance in either direction: faster is a difference too.
        let mut faster = base.clone();
        faster.runs[0].throughput_rps = 250.0;
        assert!(gate(&base, &faster)[0].contains("media/beldi/w1.throughput_rps"));
    }

    #[test]
    fn a_widely_different_run_lists_its_first_fields_and_counts_the_rest() {
        let base = report(vec![gc_run(&[1; 20], 3)]);
        let other = report(vec![gc_run(&[2; 20], 3)]);
        let failures = gate(&base, &other);
        assert_eq!(failures.len(), MAX_LISTED_DIFFS + 2, "{failures:?}");
        assert!(failures[MAX_LISTED_DIFFS].contains("and 12 more"));
    }

    #[test]
    fn differently_configured_reports_do_not_compare() {
        let base = report(vec![run("media", 1, 100.0, 0)]);
        let reseeded = BenchReport {
            seed: 43,
            ..base.clone()
        };
        let failures = gate(&base, &reseeded);
        assert_eq!(failures[0], "report.seed: baseline 42, current 43");
    }

    #[test]
    fn the_front_door_row_is_compared_field_by_field() {
        let mut base = report(vec![run("media", 1, 100.0, 0)]);
        base.front = Some(crate::driver::FrontRun {
            requests: 64,
            ..crate::wire::Wire::decode(None)
        });
        assert_eq!(gate(&base, &base), Vec::<String>::new());
        let mut off = base.clone();
        if let Some(front) = off.front.as_mut() {
            front.db.gets += 1;
        }
        assert_eq!(
            gate(&base, &off)[0],
            "report.front.db.gets: baseline 0, current 1"
        );
        let missing = report(vec![run("media", 1, 100.0, 0)]);
        assert!(gate(&base, &missing)[0].starts_with("report.front: baseline {"));
    }

    #[test]
    fn a_schema_1_baseline_is_refused_with_the_regenerate_command() {
        let current = report(vec![run("media", 1, 100.0, 0)]);
        let named = format!("\"schema\": {}", crate::driver::BENCH_SCHEMA);
        for old in [1, 2] {
            let stale = current
                .to_json()
                .replace(&named, &format!("\"schema\": {old}"));
            assert_ne!(stale, current.to_json(), "the document names its schema");
            let refusal = BenchReport::from_json(&stale).unwrap_err();
            assert!(refusal.contains(&format!("schema {old}")), "{refusal}");
            assert!(refusal.contains(REBASELINE), "{refusal}");
        }
    }

    #[test]
    fn missing_and_erroring_runs_fail() {
        let base = report(vec![run("media", 1, 100.0, 0), run("travel", 1, 50.0, 0)]);
        let missing = report(vec![run("media", 1, 100.0, 0)]);
        assert!(gate(&base, &missing)[0].contains("missing"));

        // Errors fail even when the baseline recorded the same: a broken
        // baseline must not gate vacuously.
        let erroring = report(vec![run("media", 1, 100.0, 3), run("travel", 1, 50.0, 0)]);
        assert!(gate(&erroring, &erroring)[0].contains("3 request error(s)"));
        let mut no_ops = base.clone();
        no_ops.runs[0].ops = 0;
        assert!(gate(&no_ops, &no_ops)[0].contains("zero ops"));
    }

    #[test]
    fn extra_current_runs_are_ignored() {
        let base = report(vec![run("media", 1, 100.0, 0)]);
        let extra = report(vec![run("media", 1, 100.0, 0), run("social", 8, 10.0, 0)]);
        assert_eq!(gate(&base, &extra), Vec::<String>::new());
    }

    #[test]
    fn growth_gate_accepts_a_plateau() {
        // Metadata grows during warm-up, then plateaus: bounded.
        let r = gc_run(&[400, 700, 820, 800, 790, 810], 30);
        let failures = growth_gate(&report(vec![r]));
        assert!(failures.is_empty(), "{failures:?}");
    }

    /// The bound is the midpoint count × 1.25 + 64 rows: 800 → 1,064.
    #[test]
    fn growth_gate_holds_at_the_bound_and_fails_one_row_past() {
        let at_bound = gc_run(&[400, 700, 800, 800, 900, 1_064], 30);
        assert_eq!(growth_gate(&report(vec![at_bound])), Vec::<String>::new());
        let past = gc_run(&[400, 700, 800, 800, 900, 1_065], 30);
        let failures = growth_gate(&report(vec![past]));
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("800 → 1065") && failures[0].contains("bound 1064"));
    }

    #[test]
    fn growth_gate_rejects_linear_growth() {
        // Metadata keeps climbing past the midpoint: GC is not keeping up.
        let r = gc_run(&[500, 1000, 1500, 2000, 2500, 3000], 30);
        let failures = growth_gate(&report(vec![r]));
        assert!(
            failures.iter().any(|f| f.contains("not reaching")),
            "{failures:?}"
        );
    }

    #[test]
    fn growth_gate_rejects_degenerate_runs() {
        // GC never fired.
        let r = gc_run(&[100, 100, 100, 100], 0);
        let failures = growth_gate(&report(vec![r]));
        assert!(
            failures.iter().any(|f| f.contains("never completed")),
            "{failures:?}"
        );

        // No GC-enabled run in the whole report: never pass vacuously.
        let failures = growth_gate(&report(vec![run("media", 1, 10.0, 0)]));
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
        assert!(growth_gate(&mixed).is_empty());

        // Too few samples to judge.
        let r = gc_run(&[100, 100], 5);
        let failures = growth_gate(&report(vec![r]));
        assert!(
            failures.iter().any(|f| f.contains("too short")),
            "{failures:?}"
        );

        // Corruption is always fatal.
        let mut r = gc_run(&[100, 100, 100, 100], 5);
        r.storage.samples.last_mut().unwrap().gc_corrupt_chains = 1;
        let failures = growth_gate(&report(vec![r]));
        assert!(
            failures.iter().any(|f| f.contains("corrupt")),
            "{failures:?}"
        );

        // An empty report never passes vacuously.
        let failures = growth_gate(&report(vec![]));
        assert!(!failures.is_empty());
    }

    #[test]
    fn recovery_gate_passes_healthy_chaos_run() {
        let failures = recovery_gate(&report(vec![chaos_run("travel")]), T_MAX);
        assert!(failures.is_empty(), "{failures:?}");
    }

    fn check(app: &str, mode: Mode) -> CrashCheck<'_> {
        CrashCheck {
            app,
            mode,
            diverged: 0,
            duplicated: 0,
            broken: 0,
        }
    }

    /// Baseline is the crash checks' negative control: it may diverge
    /// from the oracle, and each app must duplicate an effect somewhere,
    /// while any violation of a logged mode fails.
    #[test]
    fn crash_verdict_expects_duplicates_of_baseline_only() {
        let diverged = || CrashCheck {
            diverged: 3,
            ..check("media", Mode::Baseline)
        };
        let duplicated = CrashCheck {
            duplicated: 2,
            ..check("media", Mode::Baseline)
        };
        let clean = crash_verdict([check("media", Mode::Beldi), diverged(), duplicated]);
        assert_eq!(clean, Vec::<String>::new());
        let lost = CrashCheck {
            diverged: 1,
            ..check("media", Mode::CrossTable)
        };
        let failures = crash_verdict([lost]);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].starts_with("media/cross-table: exactly-once is violated"),
            "{failures:?}"
        );
        // Divergence without a duplicate does not make the control bite.
        let blind = crash_verdict([diverged()]);
        assert_eq!(blind.len(), 1, "{blind:?}");
        assert!(
            blind[0].starts_with("media/baseline: no run made more effects"),
            "{blind:?}"
        );
    }

    /// A baseline sweep whose crash-free oracle failed, or whose scheduled
    /// crash never fired, fails like a logged one: its check is broken,
    /// however many duplicates it also counts.
    #[test]
    fn crash_verdict_fails_a_broken_baseline_check() {
        let broken = CrashCheck {
            broken: 1,
            duplicated: 1,
            ..check("travel", Mode::Baseline)
        };
        let failures = crash_verdict([broken]);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].starts_with("travel/baseline: 1 violation(s) no mode may show"),
            "{failures:?}"
        );
    }

    /// A baseline storm that conserved everything is a negative control
    /// that did not bite, and so is one that only lost state; one that
    /// duplicated an effect passes.
    #[test]
    fn recovery_gate_expects_a_baseline_storm_to_duplicate() {
        let mut r = chaos_run("travel");
        r.mode = Mode::Baseline.name().into();
        r.recovery.as_mut().unwrap().digest_match = false;
        let failures = recovery_gate(&report(vec![r.clone()]), T_MAX);
        assert!(
            failures
                .iter()
                .any(|f| f.starts_with("travel/baseline: no run made more effects")),
            "{failures:?}"
        );
        r.recovery.as_mut().unwrap().duplicate_effects = 3;
        assert_eq!(recovery_gate(&report(vec![r]), T_MAX), Vec::<String>::new());
    }

    #[test]
    fn recovery_gate_rejects_digest_mismatch() {
        let mut r = chaos_run("travel");
        r.recovery.as_mut().unwrap().digest_match = false;
        r.recovery.as_mut().unwrap().oracle_digest = "ffff".into();
        let failures = recovery_gate(&report(vec![r]), T_MAX);
        assert!(
            failures.iter().any(|f| f.contains("digest mismatch")),
            "{failures:?}"
        );
    }

    #[test]
    fn recovery_gate_rejects_duplicate_effects() {
        let mut r = chaos_run("travel");
        r.recovery.as_mut().unwrap().duplicate_effects = 2;
        let failures = recovery_gate(&report(vec![r]), T_MAX);
        assert!(
            failures.iter().any(|f| f.contains("duplicate effect")),
            "{failures:?}"
        );
    }

    /// The ceiling is a third of the run's lease: 20,000 ms at 60 s.
    #[test]
    fn recovery_gate_rejects_slow_recovery() {
        let at = |p99_ms| {
            let mut r = chaos_run("travel");
            r.recovery.as_mut().unwrap().recovery_p99_ms = p99_ms;
            recovery_gate(&report(vec![r]), T_MAX)
        };
        assert_eq!(at(20_000), Vec::<String>::new());
        let failures = at(20_001);
        assert_eq!(
            failures,
            ["travel/beldi/w4: recovery p99 20001 ms exceeds T/3 = 20000 ms"]
        );
        assert_eq!(max_recovery_p99_ms(Duration::from_secs(3_600)), 1_200_000);
    }

    #[test]
    fn front_gate_rejects_a_diverged_or_erroring_door() {
        let sound = crate::driver::FrontRun {
            requests: 64,
            front_digest: "abcd".into(),
            inproc_digest: "abcd".into(),
            ..crate::wire::Wire::decode(None)
        };
        assert_eq!(front_gate(&sound), Vec::<String>::new());
        let diverged = crate::driver::FrontRun {
            inproc_digest: "ffff".into(),
            ..sound.clone()
        };
        let failures = front_gate(&diverged);
        assert!(
            failures[0].contains("digest abcd != in-process digest ffff"),
            "{failures:?}"
        );
        let erroring = crate::driver::FrontRun { errors: 1, ..sound };
        assert_eq!(
            front_gate(&erroring),
            ["1 of 64 request(s) through the door failed"]
        );
    }

    #[test]
    fn recovery_gate_rejects_corrupt_intents() {
        let mut r = chaos_run("travel");
        r.recovery.as_mut().unwrap().ic_corrupt = 1;
        let failures = recovery_gate(&report(vec![r]), T_MAX);
        assert!(
            failures.iter().any(|f| f.contains("corrupt intent")),
            "{failures:?}"
        );
    }

    #[test]
    fn recovery_gate_rejects_gc_counted_corruption() {
        let mut r = chaos_run("travel");
        r.recovery.as_mut().unwrap().gc_corrupt = 1;
        let failures = recovery_gate(&report(vec![r]), T_MAX);
        assert!(
            failures.iter().any(|f| f.contains("GC skipped 1 corrupt")),
            "{failures:?}"
        );
    }

    #[test]
    fn recovery_gate_rejects_vacuous_storms() {
        // A storm that never fired proves nothing.
        let mut r = chaos_run("travel");
        r.recovery.as_mut().unwrap().injected_crashes = 0;
        let failures = recovery_gate(&report(vec![r]), T_MAX);
        assert!(
            failures.iter().any(|f| f.contains("vacuous")),
            "{failures:?}"
        );

        // Crashes without a single observed recovery are just as vacuous.
        let mut r = chaos_run("travel");
        r.recovery.as_mut().unwrap().recovered_intents = 0;
        let failures = recovery_gate(&report(vec![r]), T_MAX);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("recovery series is empty")),
            "{failures:?}"
        );

        // A report with no chaos run at all fails too.
        let failures = recovery_gate(&report(vec![run("travel", 4, 10.0, 0)]), T_MAX);
        assert!(
            failures.iter().any(|f| f.contains("no chaos runs")),
            "{failures:?}"
        );
    }

    /// A storm that reached the crash cap stopped injecting, so the cap
    /// shaped its schedule: one crash under the cap passes, the cap fails.
    #[test]
    fn recovery_gate_rejects_a_storm_at_the_crash_cap() {
        let mut r = chaos_run("travel");
        r.recovery.as_mut().unwrap().injected_crashes = MAX_CRASHES - 1;
        assert_eq!(
            recovery_gate(&report(vec![r.clone()]), T_MAX),
            Vec::<String>::new()
        );
        r.recovery.as_mut().unwrap().injected_crashes = MAX_CRASHES;
        let failures = recovery_gate(&report(vec![r]), T_MAX);
        assert!(
            failures
                .iter()
                .any(|f| f.starts_with("travel/beldi/w4: the storm reached its cap of 10000")),
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
        let failures = recovery_gate(&report(vec![r]), T_MAX);
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
        let failures = recovery_gate(&report(vec![r]), T_MAX);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("recovery series is empty")),
            "{failures:?}"
        );
    }
}
