//! Every `DESIGN §n` reference in the code, the README and the CI files
//! names a section DESIGN.md has: a `## §n` heading. Renumbering or
//! removing a section without moving its references fails here.
//!
//! The other way round, every `file.rs::name` reference in DESIGN.md
//! names a function (or a type) declared in a file of that name under
//! `crates/`, `tests/` or `benchmark/`. Renaming a test or a function
//! without moving its references fails here too.
//!
//! DESIGN.md itself stays within [`DESIGN_MAX_BYTES`]: an edit that adds
//! to it makes room by taking out as much. It says what the code does
//! now: every crate has a row in its inventory and denies `unwrap` and
//! `expect` in its library code (§11), every backticked path it gives
//! names a file or directory, and it names no pull request and no
//! `before → after` number, which belong in CHANGES.md.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Where references are looked for, relative to the repository root.
const SCANNED: [&str; 3] = ["crates", "README.md", ".github"];

/// Where the files DESIGN.md's `file.rs::name` references name are.
const SOURCES: [&str; 3] = ["crates", "tests", "benchmark"];

/// The most bytes DESIGN.md may hold: its size when the bound was set,
/// lowered, never raised, as the file shrinks.
const DESIGN_MAX_BYTES: u64 = 38_189;

/// The keywords that declare a name a reference may give.
const DECLARATIONS: [&str; 5] = ["fn", "struct", "enum", "trait", "type"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every file under `path` (itself, if a file), skipping build output
/// and git's own store.
fn files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_owned());
        return;
    }
    let mut entries: Vec<_> = std::fs::read_dir(path)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for entry in entries {
        if entry
            .file_name()
            .is_some_and(|n| n != "target" && n != ".git")
        {
            files(&entry, out);
        }
    }
}

/// The section numbers of DESIGN.md's `## §n` headings.
fn sections(design: &str) -> BTreeSet<u32> {
    design
        .lines()
        .filter_map(|l| l.strip_prefix("## §"))
        .map(|rest| number(rest).expect("a numbered heading"))
        .collect()
}

/// The number `text` starts with, if it does.
fn number(text: &str) -> Option<u32> {
    let digits = text.bytes().take_while(u8::is_ascii_digit).count();
    text[..digits].parse().ok()
}

/// The section numbers `text` references as `DESIGN §n`, `DESIGN.md §n`
/// or `` `DESIGN.md` §n ``.
fn references(text: &str) -> Vec<u32> {
    text.match_indices("DESIGN")
        .filter_map(|(at, _)| {
            let rest = &text[at + "DESIGN".len()..];
            let rest = rest.strip_prefix(".md").unwrap_or(rest);
            let rest = rest.strip_prefix('`').unwrap_or(rest);
            number(rest.strip_prefix(" §")?)
        })
        .collect()
}

#[test]
fn references_are_read_in_every_spelling() {
    let text = "DESIGN §3, DESIGN.md §14 and `DESIGN.md` §7; not DESIGN.md or DESIGN §x";
    assert_eq!(references(text), [3, 14, 7]);
    assert_eq!(
        sections("# t\n## §1 Scope\n### §1.5 no\n## §12 Layers"),
        BTreeSet::from([1, 12])
    );
}

#[test]
fn design_stays_within_its_byte_bound() {
    let bytes = std::fs::metadata(root().join("DESIGN.md")).unwrap().len();
    assert!(
        bytes <= DESIGN_MAX_BYTES,
        "DESIGN.md is {bytes} B, over its {DESIGN_MAX_BYTES} B bound"
    );
}

#[test]
fn every_design_reference_names_a_section() {
    let design = std::fs::read_to_string(root().join("DESIGN.md")).unwrap();
    let sections = sections(&design);
    let mut paths = Vec::new();
    for scanned in SCANNED {
        files(&root().join(scanned), &mut paths);
    }
    let (mut found, mut dangling) = (0, Vec::new());
    for path in &paths {
        let Ok(text) = std::fs::read_to_string(path) else {
            continue; // Not text.
        };
        for n in references(&text) {
            found += 1;
            if !sections.contains(&n) {
                dangling.push(format!("{}: DESIGN §{n}", path.display()));
            }
        }
    }
    assert!(
        found >= 30,
        "only {found} references found: is the scan broken?"
    );
    assert!(dangling.is_empty(), "no such section: {dangling:#?}");
}

/// Whether `c` may appear in an identifier.
fn ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The `file.rs::name` references in `text`, as `(path, name)`: the path
/// as written (`driver.rs`, `workload/tests/driver.rs`), and one pair per
/// name of a `{a, b}` or `a/b/c` list. A line may break after the `::`.
fn item_references(text: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (at, sep) in text.match_indices(".rs::") {
        let before = &text[..at];
        let stem = before
            .bytes()
            .rev()
            .take_while(|&b| ident(b as char) || b"/.-".contains(&b))
            .count();
        let path = format!("{}.rs", &before[before.len() - stem..]);
        let rest = text[at + sep.len()..].trim_start();
        let names = match rest.strip_prefix('{') {
            Some(list) => &list[..list.find('}').unwrap_or(0)],
            None => {
                let end = rest.find(|c| !(ident(c) || c == '/'));
                &rest[..end.unwrap_or(rest.len())]
            }
        };
        for name in names.split([',', '/']).map(str::trim) {
            out.push((path.clone(), name.to_owned()));
        }
    }
    out
}

/// Whether `source` declares `name` with one of [`DECLARATIONS`].
fn declares(source: &str, name: &str) -> bool {
    DECLARATIONS.iter().any(|kw| {
        let decl = format!("{kw} {name}");
        source.match_indices(&decl).any(|(at, _)| {
            let after = source[at + decl.len()..].chars().next();
            let before = source[..at].chars().next_back();
            !after.is_some_and(ident) && !before.is_some_and(ident)
        })
    })
}

#[test]
fn item_references_are_read_in_every_spelling() {
    let text = "`gc.rs::a_pass` and (`driver.rs::\n  run_load`), \
                `workload/tests/explore.rs::{one, two_2}`, `database.rs::update/put`; \
                not gc.rs alone";
    let refs: Vec<_> = item_references(text)
        .into_iter()
        .map(|(path, name)| format!("{path} {name}"))
        .collect();
    assert_eq!(
        refs,
        [
            "gc.rs a_pass",
            "driver.rs run_load",
            "workload/tests/explore.rs one",
            "workload/tests/explore.rs two_2",
            "database.rs update",
            "database.rs put",
        ]
    );
    assert!(declares("pub(crate) fn run_load(", "run_load"));
    assert!(declares("struct RootCall<'a> {", "RootCall"));
    assert!(!declares("fn run_load_all()", "run_load"));
    assert!(!declares("let fn_a_pass = 1;", "a_pass"));
}

#[test]
fn every_design_item_reference_names_a_declaration() {
    let design = std::fs::read_to_string(root().join("DESIGN.md")).unwrap();
    let mut paths = Vec::new();
    for source in SOURCES {
        files(&root().join(source), &mut paths);
    }
    let sources: Vec<_> = paths
        .iter()
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .map(|p| (p, std::fs::read_to_string(p).unwrap()))
        .collect();
    let references = item_references(&design);
    let dangling: Vec<_> = references
        .iter()
        .filter(|(path, name)| {
            let suffix = format!("/{path}");
            !sources
                .iter()
                .any(|(p, text)| p.to_string_lossy().ends_with(&suffix) && declares(text, name))
        })
        .map(|(path, name)| format!("{path}::{name}"))
        .collect();
    assert!(
        references.len() >= 20,
        "only {} references found: is the scan broken?",
        references.len()
    );
    assert!(dangling.is_empty(), "no such declaration: {dangling:#?}");
}

/// The paths DESIGN.md gives in backticks: a code span of path
/// characters that holds a `/`, less any `::item` it ends with. Fenced
/// blocks are skipped, and a span may break across a line.
fn design_paths(design: &str) -> Vec<&str> {
    design
        .split("\n```")
        .step_by(2)
        .flat_map(|prose| prose.split('`').skip(1).step_by(2))
        .map(|span| span.split("::").next().unwrap_or(span))
        .filter(|span| {
            span.contains('/')
                && span.chars().any(ident)
                && span.chars().all(|c| ident(c) || "./-".contains(c))
        })
        .collect()
}

/// Whether `path` names a file or a directory of `files`, matched by
/// suffix: `simfaas/src/fault.rs` names `crates/simfaas/src/fault.rs`.
/// A path that ends in `/` names a directory only.
fn resolves(path: &str, files: &[PathBuf]) -> bool {
    let dir = format!("/{}/", path.trim_end_matches('/'));
    let file = (!path.ends_with('/')).then(|| format!("/{path}"));
    files.iter().any(|f| {
        let f = f.to_string_lossy();
        f.contains(&dir) || file.as_ref().is_some_and(|file| f.ends_with(file))
    })
}

#[test]
fn design_paths_are_read_in_every_spelling() {
    let text = "`crates/core/src/gc.rs`, `simfaas/src/fault.rs::Probe`, \
                `core/tests/common/mod.rs::\n  contended_env` and `crates/runtime`;\n\
                ```text\nPOST `/invoke` in a fence\n```\n\
                not `gc.rs`, `ic.*`/`gc.*`, `POST /invoke/{ssf}`, `/` or a/b";
    assert_eq!(
        design_paths(text),
        [
            "crates/core/src/gc.rs",
            "simfaas/src/fault.rs",
            "core/tests/common/mod.rs",
            "crates/runtime",
        ]
    );
    let tree = [PathBuf::from("/r/crates/runtime/src/lib.rs")];
    assert!(resolves("runtime/src/lib.rs", &tree));
    assert!(resolves("crates/runtime", &tree));
    assert!(resolves("runtime/src/", &tree));
    assert!(!resolves("runtime/src/lib.rs/", &tree));
    assert!(!resolves("untime/src/lib.rs", &tree));
    assert!(!resolves("crates/run", &tree));
}

#[test]
fn every_design_path_names_a_file_or_directory() {
    let design = std::fs::read_to_string(root().join("DESIGN.md")).unwrap();
    let mut tree = Vec::new();
    files(root(), &mut tree);
    let paths = design_paths(&design);
    let missing: Vec<_> = paths.iter().filter(|p| !resolves(p, &tree)).collect();
    assert!(
        paths.len() >= 20,
        "only {} paths found: is the scan broken?",
        paths.len()
    );
    assert!(
        missing.is_empty(),
        "no such file or directory: {missing:#?}"
    );
}

/// The name of every directory under `crates/`, sorted.
fn crates() -> Vec<String> {
    let mut crates: Vec<_> = std::fs::read_dir(root().join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_dir())
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    crates.sort();
    assert!(crates.len() >= 9, "only {} crates found", crates.len());
    crates
}

#[test]
fn every_crate_has_a_design_inventory_row() {
    let design = std::fs::read_to_string(root().join("DESIGN.md")).unwrap();
    let missing: Vec<_> = crates()
        .into_iter()
        .filter(|name| !design.contains(&format!("| `crates/{name}` |")))
        .collect();
    assert!(missing.is_empty(), "no DESIGN §2 row: {missing:#?}");
}

/// DESIGN §11's panic rule, as each crate's `src/lib.rs` states it.
const PANIC_DENY: &str = "#![deny(clippy::unwrap_used, clippy::expect_used)]";

#[test]
fn every_crate_denies_unwrap_and_expect() {
    let missing: Vec<_> = crates()
        .into_iter()
        .filter(|name| {
            let lib = root().join("crates").join(name).join("src/lib.rs");
            let lib = std::fs::read_to_string(lib).unwrap();
            !lib.lines().any(|line| line.trim() == PANIC_DENY)
        })
        .collect();
    assert!(missing.is_empty(), "no `{PANIC_DENY}`: {missing:#?}");
}

/// The lines of `text` that tell history: a `PR <n>`, or a number, `→`
/// and another number (a line may break beside the arrow).
fn history(text: &str) -> Vec<&str> {
    let pulls = text.match_indices("PR ").filter(|&(at, pr)| {
        !text[..at].chars().next_back().is_some_and(ident)
            && number(&text[at + pr.len()..]).is_some()
    });
    let transitions = text.match_indices('→').filter(|&(at, arrow)| {
        let before = text[..at].trim_end().chars().next_back();
        let after = text[at + arrow.len()..].trim_start().chars().next();
        before.is_some_and(|c| c.is_ascii_digit()) && after.is_some_and(|c| c.is_ascii_digit())
    });
    let mut lines: Vec<&str> = pulls
        .chain(transitions)
        .map(|(at, _)| {
            let start = text[..at].rfind('\n').map_or(0, |n| n + 1);
            text[start..].lines().next().unwrap_or_default()
        })
        .collect();
    lines.dedup();
    lines
}

#[test]
fn history_is_read_in_every_spelling() {
    let text = "PR 12 has it: 158.6 → 27.5 and 7→8\nwent 92.40 →\n85.33\n\
                not SPR 3, PRs, intent-creation→Done, `a` → `b` or step 1 → `b`";
    assert_eq!(
        history(text),
        ["PR 12 has it: 158.6 → 27.5 and 7→8", "went 92.40 →"]
    );
}

#[test]
fn design_is_in_the_present_tense() {
    let design = std::fs::read_to_string(root().join("DESIGN.md")).unwrap();
    let history = history(&design);
    assert!(
        history.is_empty(),
        "history belongs in CHANGES.md: {history:#?}"
    );
}
