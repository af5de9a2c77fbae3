//! `beldi-lint`: the one static check of the Beldi workspace that needs a
//! lexer.
//!
//! The crash-schedule explorer numbers every crash probe a run reaches
//! and replays a schedule by those numbers, so the numbering must be the
//! same in every run of one schedule. A probe under an `if`, a `match` or
//! a loop fires as often as the work a run finds, which shifts every later
//! number; such a probe must fire a label of the label table's
//! `work_dependent` group (`crates/simfaas/src/labels.rs`), which the
//! storm never kills at. This crate checks that rule,
//! `crash-points/conditional`, over a hand-rolled, comment/string-aware
//! lexer (no `syn`; the build environment is offline). Its test
//! `repository_lints_clean` runs it over the workspace.
//!
//! Every other static check lives in a type, rustc, clippy or a run-time
//! test: DESIGN.md §11 has the table.

pub mod lexer;
pub mod source;

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use lexer::TokKind;
use source::SourceFile;

/// Workspace-relative path of the crash-label table.
const LABELS_PATH: &str = "crates/simfaas/src/labels.rs";

/// A probe under a conditional that fires a fixed label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub path: String,
    /// 1-indexed source line of the probe.
    pub line: u32,
    /// The `Label` variant it fires.
    pub label: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [crash-points/conditional] probe `Label::{}` sits under a conditional \
             but is not in the label table's `work_dependent` group; a probe whose firing \
             depends on the work found changes the global crash stream between runs and \
             breaks fixed-schedule exploration",
            self.path, self.line, self.label
        )
    }
}

/// The code that fires probes: the protocol core, the platform, the
/// executor and the front door.
fn in_scope(p: &str) -> bool {
    p.starts_with("crates/core/src/")
        || p.starts_with("crates/simfaas/src/")
        || p.starts_with("crates/runtime/src/")
        || p == "crates/bench/src/front.rs"
}

/// Collects every `.rs` file under `root/crates`, workspace-relative with
/// `/` separators, sorted.
fn collect_sources(root: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    let mut stack = vec![root.join("crates")];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push((rel, path));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Runs the rule over the workspace at `root`.
pub fn lint(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for (rel, path) in collect_sources(root)? {
        files.push(SourceFile::parse(&rel, &fs::read_to_string(path)?));
    }
    Ok(lint_files(&files))
}

/// Runs the rule over already-parsed sources, one of which should be the
/// label table: without it every conditional probe is a finding.
pub fn lint_files(files: &[SourceFile]) -> Vec<Finding> {
    let work_dependent = files
        .iter()
        .find(|f| f.path == LABELS_PATH)
        .map(work_dependent_labels)
        .unwrap_or_default();
    let mut findings = Vec::new();
    for sf in files.iter().filter(|f| in_scope(&f.path)) {
        for i in 0..sf.toks.len() {
            if sf.in_test[i] {
                continue;
            }
            let Some(label) = probe_label(sf, i) else {
                continue;
            };
            if !work_dependent.contains(label) && sf.conditional_depth(i) > 0 {
                findings.push(Finding {
                    path: sf.path.clone(),
                    line: sf.toks[i].line,
                    label: label.to_owned(),
                });
            }
        }
    }
    findings
}

/// The variants in the `work_dependent { .. }` group of the `labels!`
/// table in `sf`.
fn work_dependent_labels(sf: &SourceFile) -> BTreeSet<String> {
    let toks = &sf.toks;
    // The end of the bracketed group opening at `open` (tolerating an
    // unbalanced file: we lint, we don't compile).
    let close = |open: usize| sf.match_of[open].min(toks.len() - 1);
    // The invocation `labels! { .. }`, not the `macro_rules! labels` that
    // declares it.
    let Some(table) = (0..toks.len().saturating_sub(2)).find(|&i| {
        toks[i].is_ident("labels") && toks[i + 1].is_punct('!') && toks[i + 2].is_punct('{')
    }) else {
        return BTreeSet::new();
    };
    let Some(group) = (table + 3..close(table + 2))
        .find(|&i| toks[i].is_ident("work_dependent") && toks[i + 1].is_punct('{'))
    else {
        return BTreeSet::new();
    };
    (group + 2..close(group + 1))
        .filter(|&i| toks[i + 1].kind == TokKind::FatArrow)
        .filter_map(|i| toks[i].ident().map(str::to_owned))
        .collect()
}

/// Idents that fire a crash probe when called.
const PROBE_IDENTS: &[&str] = &["crash_point", "crash", "probe"];

/// If token `i` calls a probe (`x.crash_point(..)`, `ctx.crash(..)`,
/// `(p.crash)(..)`, `self.probe(..)`) with a `Label::Variant` argument,
/// the variant. A pass-through site (the label arrives as a parameter)
/// has none.
fn probe_label(sf: &SourceFile, i: usize) -> Option<&str> {
    if !sf.toks[i]
        .ident()
        .is_some_and(|id| PROBE_IDENTS.contains(&id))
    {
        return None;
    }
    // `ident(`, or `ident)(` for the closure-field form.
    let next = |k: usize| sf.toks.get(i + k).map(|t| &t.kind);
    let open = match (next(1), next(2)) {
        (Some(TokKind::Punct('(')), _) => i + 1,
        (Some(TokKind::Punct(')')), Some(TokKind::Punct('('))) => i + 2,
        _ => return None,
    };
    let close = sf.match_of[open];
    if close == usize::MAX {
        return None;
    }
    (open + 1..close.saturating_sub(2)).find_map(|j| {
        let path = sf.toks[j].is_ident("Label") && sf.toks[j + 1].kind == TokKind::PathSep;
        path.then(|| sf.toks[j + 2].ident()).flatten()
    })
}
