//! Fixture-based end-to-end tests for the call-graph rule families
//! (`async-safety/*`, `logged-ops/transitive-db`).
//!
//! `tests/fixtures/async_clean` is a miniature executor workspace that
//! satisfies every rule — including the waived channel-parking pattern;
//! `tests/fixtures/async_violations` plants one violation per rule at a
//! marker-commented line. The canary test deletes the clean tree's
//! channel-parking waiver and proves the lint turns that into a build
//! failure.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use beldi_lint::{findings::Report, run, Options};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint_dir(root: &Path) -> Report {
    run(root, &Options::default()).expect("fixture scan")
}

/// The 1-based line of the unique occurrence of `marker` in a fixture
/// file — where the planted finding must land.
fn planted_line(root: &Path, rel: &str, marker: &str) -> u32 {
    let text = fs::read_to_string(root.join(rel)).unwrap();
    let hits: Vec<u32> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains(marker))
        .map(|(i, _)| (i + 1) as u32)
        .collect();
    assert_eq!(hits.len(), 1, "marker `{marker}` must appear exactly once");
    hits[0]
}

#[test]
fn async_clean_tree_lints_clean() {
    let report = lint_dir(&fixture_root("async_clean"));
    assert!(
        report.active.is_empty(),
        "clean async tree must have no findings, got: {:#?}",
        report.active
    );
    // The channel-parking site relies on a documented waiver, not silence.
    assert!(report
        .waived
        .iter()
        .any(|(f, reason)| f.rule == "async-safety/blocking-in-task"
            && f.path == "crates/bench/src/front.rs"
            && reason.contains("channel-parking")));
}

#[test]
fn planted_violations_trip_each_rule_at_its_line() {
    let root = fixture_root("async_violations");
    let report = lint_dir(&root);
    let tasks = "crates/runtime/src/bad_tasks.rs";
    let flow = "crates/apps/src/bad_flow.rs";
    let helpers = "crates/helpers/src/lib.rs";
    for (rule, rel, marker) in [
        (
            "async-safety/blocking-in-task",
            tasks,
            "planted: direct-sleep",
        ),
        (
            "async-safety/blocking-in-task",
            tasks,
            "planted: transitive-recv",
        ),
        (
            "async-safety/blocking-in-task",
            tasks,
            "planted: transitive-net",
        ),
        // Off every executor path: the clock must see every wait and
        // every thread of library code.
        (
            "async-safety/blocking-in-task",
            helpers,
            "planted: raw-spawn",
        ),
        (
            "async-safety/blocking-in-task",
            helpers,
            "planted: raw-scope",
        ),
        (
            "async-safety/blocking-in-task",
            helpers,
            "planted: raw-builder",
        ),
        (
            "async-safety/blocking-in-task",
            helpers,
            "planted: raw-park",
        ),
        (
            "async-safety/guard-across-await",
            tasks,
            "planted: guard-across-await",
        ),
        (
            "async-safety/unused-permit",
            tasks,
            "planted: unused-permit",
        ),
        (
            "logged-ops/transitive-db",
            flow,
            "planted: transitive-db-direct",
        ),
        (
            "logged-ops/transitive-db",
            flow,
            "planted: transitive-db-deep",
        ),
    ] {
        let line = planted_line(&root, rel, marker);
        assert!(
            report
                .active
                .iter()
                .any(|f| f.rule == rule && f.path == rel && f.line == line),
            "`{rule}` must fire at {rel}:{line} ({marker}); got: {:#?}",
            report.active
        );
    }
    // ... and nothing else: every active finding is one of the plants.
    let expected: BTreeSet<&str> = [
        "async-safety/blocking-in-task",
        "async-safety/guard-across-await",
        "async-safety/unused-permit",
        "logged-ops/transitive-db",
    ]
    .into();
    for f in &report.active {
        assert!(
            expected.contains(f.rule.as_str()),
            "unexpected extra finding: {f:#?}"
        );
    }
    assert_eq!(report.active.len(), 11, "{:#?}", report.active);
}

#[test]
fn transitive_findings_name_the_mutation_site() {
    let report = lint_dir(&fixture_root("async_violations"));
    let f = report
        .active
        .iter()
        .find(|f| f.rule == "logged-ops/transitive-db")
        .expect("transitive-db finding");
    assert!(
        f.message.contains("crates/helpers/src/lib.rs"),
        "message must point at the laundering helper: {}",
        f.message
    );
}

/// Canary: deleting the channel-parking waiver makes the lint (and
/// therefore CI) fail on the formerly-clean tree.
#[test]
fn canary_removing_the_waiver_fails_the_build() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-async-canary");
    let _ = fs::remove_dir_all(&tmp);
    copy_tree(&fixture_root("async_clean"), &tmp);
    assert!(
        lint_dir(&tmp).active.is_empty(),
        "copied tree must start clean"
    );

    let front = tmp.join("crates/bench/src/front.rs");
    let text = fs::read_to_string(&front).unwrap();
    let without: String = text
        .lines()
        .filter(|l| !l.contains("canary: channel-parking waiver"))
        .collect::<Vec<_>>()
        .join("\n");
    assert_ne!(text, without, "waiver line must exist in the fixture");
    fs::write(&front, without).unwrap();

    let report = lint_dir(&tmp);
    assert!(
        report
            .active
            .iter()
            .any(|f| f.rule == "async-safety/blocking-in-task"
                && f.path == "crates/bench/src/front.rs"),
        "deleting the waiver must surface blocking-in-task; got {:#?}",
        report.active
    );
}

/// Dogfood: the real tree's one sanctioned real-time surface is the
/// front door (real sockets), waived with that reason. The platform's
/// blocking fronts and the scheduler's idle park wait on the workspace
/// clock and need no waiver at all.
#[test]
fn real_tree_waits_on_the_clock_outside_the_front_door() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_dir(&repo);
    assert!(report.active.is_empty(), "{:#?}", report.active);
    let waived_in = |path: &str| {
        report
            .waived
            .iter()
            .filter(|(f, _)| f.rule == "async-safety/blocking-in-task" && f.path == path)
            .count()
    };
    assert!(waived_in("crates/bench/src/front.rs") > 0);
    for path in [
        "crates/simfaas/src/platform.rs",
        "crates/runtime/src/executor.rs",
    ] {
        assert_eq!(waived_in(path), 0, "{path} must not wait in real time");
    }
}

/// Regression for the true positive this rule family caught: core's
/// quiescence poll paced on a *real-time* sleep. The fix routes it
/// through the workspace clock, so `crates/core/src/env.rs` must stay
/// free of async-safety findings without any waiver.
#[test]
fn core_env_needs_no_async_safety_waiver() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_dir(&repo);
    let offenders: Vec<_> = report
        .active
        .iter()
        .chain(report.waived.iter().map(|(f, _)| f))
        .chain(report.baselined.iter())
        .filter(|f| f.path == "crates/core/src/env.rs" && f.rule.starts_with("async-safety/"))
        .collect();
    assert!(
        offenders.is_empty(),
        "env.rs must pace on the virtual clock, not carry waivers: {offenders:#?}"
    );
}

fn copy_tree(from: &Path, to: &Path) {
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let src = entry.path();
        let dst = to.join(entry.file_name());
        if src.is_dir() {
            copy_tree(&src, &dst);
        } else {
            fs::copy(&src, &dst).unwrap();
        }
    }
}
