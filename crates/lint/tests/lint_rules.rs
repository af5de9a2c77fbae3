//! `crash-points/conditional` over a miniature workspace and over this
//! one.
//!
//! The miniature trees are built inline: a label table with one
//! work-dependent label, and a core file whose probes sit where the rule
//! allows them (`clean`) or where it does not (`violations`).

use std::path::Path;

use beldi_lint::{lint, lint_files, source::SourceFile, Finding};

const LABELS: &str = r#"
labels! {
    fixed {
        OpEnter => "op.enter",
        OpExit => "op.exit",
    }
    work_dependent {
        OpPerItem => "op.per_item",
    }
}
"#;

/// Unconditional fixed probes, a work-dependent probe in a loop, a
/// pass-through probe under a branch, a conditional probe in test code,
/// and one in a crate the rule does not cover.
const CLEAN_CORE: &str = r#"
pub fn sweep(ctx: &Ctx, items: &[Item]) -> Result<()> {
    ctx.crash(Label::OpEnter);
    for it in items {
        ctx.crash(Label::OpPerItem);
        ctx.db.delete("table", &it.key)?;
    }
    if items.is_empty() {
        (hooks.probe)(label);
    }
    ctx.crash(Label::OpExit);
    Ok(())
}

#[cfg(test)]
mod tests {
    fn t(found: bool) {
        if found {
            ctx.crash(Label::OpExit);
        }
    }
}
"#;

const CONDITIONAL_APP: &str = r#"
pub fn handler(ctx: &Ctx, found: bool) {
    if found {
        ctx.crash(Label::OpExit);
    }
}
"#;

/// A fixed label under an `if` (line 4), next to the clean file.
const BAD_CORE: &str = r#"
pub fn conditional_probe(ctx: &Ctx, found: bool) {
    if found {
        ctx.crash(Label::OpExit);
    }
}
"#;

fn tree(core: &[(&str, &str)]) -> Vec<Finding> {
    let mut files = vec![
        SourceFile::parse("crates/simfaas/src/labels.rs", LABELS),
        SourceFile::parse("crates/apps/src/app.rs", CONDITIONAL_APP),
    ];
    files.extend(
        core.iter()
            .map(|(path, text)| SourceFile::parse(path, text)),
    );
    lint_files(&files)
}

#[test]
fn clean_fixture_tree_lints_clean() {
    let findings = tree(&[("crates/core/src/proto.rs", CLEAN_CORE)]);
    assert!(findings.is_empty(), "{findings:#?}");
}

/// The one rule fires once on the one planted violation.
#[test]
fn violations_tree_trips_every_rule_family() {
    let findings = tree(&[
        ("crates/core/src/proto.rs", CLEAN_CORE),
        ("crates/core/src/bad_core.rs", BAD_CORE),
    ]);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert!(findings[0]
        .to_string()
        .contains("[crash-points/conditional] probe `Label::OpExit`"));
}

#[test]
fn violations_land_in_the_right_files() {
    let findings = tree(&[
        ("crates/core/src/proto.rs", CLEAN_CORE),
        ("crates/core/src/bad_core.rs", BAD_CORE),
    ]);
    let expected = Finding {
        path: "crates/core/src/bad_core.rs".to_owned(),
        line: 4,
        label: "OpExit".to_owned(),
    };
    assert_eq!(findings, [expected]);
}

/// The workspace itself holds no fixed-label probe under a conditional.
#[test]
fn repository_lints_clean() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = lint(&repo).expect("workspace scan");
    let report: Vec<String> = findings.iter().map(Finding::to_string).collect();
    assert!(findings.is_empty(), "{report:#?}");
}
