//! Fixture-based end-to-end tests for `beldi-lint`.
//!
//! `tests/fixtures/clean` is a miniature workspace that satisfies every
//! rule; `tests/fixtures/violations` plants one violation per rule. The
//! canary test mutates a copy of the clean tree — deleting
//! the probe after a core DB mutation — and proves the coverage rule
//! turns that into a build failure.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use beldi_lint::{findings::Report, run, run_parsed, source::SourceFile};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint_dir(root: &Path) -> Report {
    run(root).expect("fixture scan")
}

fn rules_of(r: &Report) -> BTreeSet<&str> {
    r.active.iter().map(|f| f.rule.as_str()).collect()
}

#[test]
fn clean_fixture_tree_lints_clean() {
    let report = lint_dir(&fixture_root("clean"));
    assert!(
        report.active.is_empty(),
        "clean tree must have no findings, got: {:#?}",
        report.active
    );
    assert!(report.files >= 4);
}

/// One planted finding per rule, and nothing else: a rule that stops
/// firing, or starts firing twice, moves this list.
#[test]
fn violations_tree_trips_every_rule_family() {
    let report = lint_dir(&fixture_root("violations"));
    let mut rules: Vec<&str> = report.active.iter().map(|f| f.rule.as_str()).collect();
    rules.sort_unstable();
    assert_eq!(
        rules,
        [
            "crash-points/conditional",
            "crash-points/coverage",
            "determinism/hashmap-iter",
            "lock-order/nested",
            "waiver/malformed",
            "waiver/unused",
        ],
        "{:#?}",
        report.active
    );
}

#[test]
fn violations_land_in_the_right_files() {
    let report = lint_dir(&fixture_root("violations"));
    let at = |rule: &str| -> Vec<&str> {
        report
            .active
            .iter()
            .filter(|f| f.rule == rule)
            .map(|f| f.path.as_str())
            .collect()
    };
    assert_eq!(
        at("crash-points/conditional"),
        ["crates/core/src/bad_core.rs"]
    );
    assert!(at("lock-order/nested")
        .iter()
        .all(|p| *p == "crates/simdb/src/bad_locks.rs"));
}

/// The headline acceptance test: deleting one `crash_point` from a core
/// mutation path makes the lint (and therefore CI) fail.
#[test]
fn canary_removing_a_probe_fails_the_coverage_rule() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-canary");
    let _ = fs::remove_dir_all(&tmp);
    copy_tree(&fixture_root("clean"), &tmp);

    let proto = tmp.join("crates/core/src/proto.rs");
    let text = fs::read_to_string(&proto).unwrap();
    assert!(
        lint_dir(&tmp).active.is_empty(),
        "copied tree must start clean"
    );

    let without_probe: String = text
        .lines()
        .filter(|l| !l.contains("canary: coverage probe after the mutation"))
        .collect::<Vec<_>>()
        .join("\n");
    assert_ne!(text, without_probe, "canary line must exist in the fixture");
    fs::write(&proto, without_probe).unwrap();

    let report = lint_dir(&tmp);
    let hit = report
        .active
        .iter()
        .find(|f| f.rule == "crash-points/coverage" && f.path == "crates/core/src/proto.rs");
    assert!(
        hit.is_some(),
        "deleting the post-mutation probe must trip crash-points/coverage; got {:#?}",
        report.active
    );
    assert!(hit.unwrap().message.contains("after"));
}

#[test]
fn waiver_suppresses_and_is_reported_as_used() {
    let bad = "pub fn seed(env: &Env, v: Value) -> Result<Value> {\n    // beldi-lint: allow(crash-points/coverage, seeding helper used by the loader)\n    env.db.update(\"state\", \"k\", v)\n}\n";
    let files = vec![SourceFile::parse("crates/core/src/a.rs", bad), labels_sf()];
    let report = run_parsed(&files);
    assert!(report.active.is_empty(), "{:#?}", report.active);
    assert_eq!(report.waived.len(), 1);
    assert!(report.waived[0].1.contains("seeding helper"));
}

#[test]
fn unused_and_malformed_waivers_are_findings() {
    let src = "// beldi-lint: allow(lock-order/nested, nothing here locks)\npub fn noop() {}\n// beldi-lint: allow(no reason given)\n";
    let files = vec![SourceFile::parse("crates/apps/src/a.rs", src), labels_sf()];
    let report = run_parsed(&files);
    let rules = rules_of(&report);
    assert!(rules.contains("waiver/unused"), "{rules:?}");
    assert!(rules.contains("waiver/malformed"), "{rules:?}");
}

/// Dogfood: the actual repository lints clean (same invariant CI holds).
#[test]
fn repository_lints_clean() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_dir(&repo);
    assert!(
        report.active.is_empty(),
        "the repository must lint clean; fix or waive: {:#?}",
        report.active
    );
    // The tree relies on documented waivers, not silence.
    assert!(report.waived.len() >= 10);
}

fn labels_sf() -> SourceFile {
    let text =
        fs::read_to_string(fixture_root("clean").join("crates/simfaas/src/labels.rs")).unwrap();
    SourceFile::parse("crates/simfaas/src/labels.rs", &text)
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
