//! `beldi-lint`: a protocol-invariant static analyzer for the Beldi
//! workspace.
//!
//! Beldi's exactly-once guarantee rests on invariants of the code, not
//! only of its runs. Each is checked by the most exact tool that can
//! state it — privacy, rustc, `clippy.toml` — and this crate checks the
//! ones that need knowledge of the protocol: the crash-schedule explorer
//! only proves what the hand-placed `FaultInjector::crash_point` probes
//! let it see, iteration order must not leak into logged state, and the
//! simulated database's deadlock freedom rests on an ascending lock
//! order. Six rules over a hand-rolled, comment/string-aware lexer (no
//! `syn`; the build environment is offline). That a probe fires a
//! declared label is not among them: a crash label is a `Label`, so a
//! misspelled one does not compile.
//!
//! See `DESIGN.md` §11 for the table of every static check and its
//! home, the waiver syntax (`// beldi-lint: allow(<rule>, <reason>)`),
//! and the procedure for adding a check or a crash point.

pub mod findings;
pub mod lexer;
pub mod rules;
pub mod source;

use std::fs;
use std::path::{Path, PathBuf};

use findings::{Finding, Report};
use source::SourceFile;

/// Workspace-relative path of the crash-label table.
pub const LABELS_PATH: &str = "crates/simfaas/src/labels.rs";

/// Directories never scanned: build output, the offline dependency shims
/// (external API surface, not protocol code), and linter test fixtures
/// (which *contain* planted violations).
fn skip_dir(name: &str) -> bool {
    matches!(name, "target" | "shims" | "fixtures" | ".git" | ".github")
}

/// Collects every `.rs` file under `root`, workspace-relative with `/`
/// separators, sorted for deterministic output.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                if !skip_dir(&name) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
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

/// Runs every rule over the workspace at `root` and dispositions the
/// findings against the inline waivers.
pub fn run(root: &Path) -> std::io::Result<Report> {
    let sources = collect_sources(root)?;
    let mut files: Vec<SourceFile> = Vec::with_capacity(sources.len());
    for (rel, path) in &sources {
        let text = fs::read_to_string(path)?;
        files.push(SourceFile::parse(rel, &text));
    }
    Ok(run_parsed(&files))
}

/// Rule pass over already-parsed sources (tests use this on fixtures).
pub fn run_parsed(files: &[SourceFile]) -> Report {
    let mut raw: Vec<Finding> = Vec::new();

    // Without the label table no label is work-dependent, so every
    // conditional probe is a finding.
    let work_dependent = files
        .iter()
        .find(|f| f.path == LABELS_PATH)
        .map(rules::work_dependent_labels)
        .unwrap_or_default();

    for sf in files {
        rules::hashmap_iteration(sf, &mut raw);
        rules::crash_points(sf, &work_dependent, &mut raw);
        rules::lock_order(sf, &mut raw);
        for bad in &sf.bad_waivers {
            raw.push(Finding::new(
                "waiver/malformed",
                &sf.path,
                bad.line,
                bad.detail.clone(),
                sf.line_text(bad.line),
            ));
        }
    }

    // Disposition: `waiver/malformed` is itself unwaivable (a waiver you
    // cannot parse must not self-excuse).
    let mut report = Report {
        files: files.len(),
        ..Report::default()
    };
    for f in raw {
        let sf = files.iter().find(|s| s.path == f.path);
        let waiver = (f.rule != "waiver/malformed")
            .then(|| sf.and_then(|s| s.waived(&f.rule, f.line)))
            .flatten();
        if let Some(w) = waiver {
            report.waived.push((f, w.reason.clone()));
        } else {
            report.active.push(f);
        }
    }

    // Unused waivers are findings too: a stale waiver hides nothing but
    // suggests the violation it excused was fixed — drop it.
    for sf in files {
        for w in &sf.waivers {
            if !w.used.get() {
                report.active.push(Finding::new(
                    "waiver/unused",
                    &sf.path,
                    w.line,
                    format!("waiver for `{}` matches no finding; remove it", w.rule),
                    sf.line_text(w.line),
                ));
            }
        }
    }

    report
        .active
        .sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    report
}
