//! Every `DESIGN §n` reference in the code, the README and the CI files
//! names a section DESIGN.md has: a `## §n` heading. Renumbering or
//! removing a section without moving its references fails here.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Where references are looked for, relative to the repository root.
const SCANNED: [&str; 3] = ["crates", "README.md", ".github"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every file under `path` (itself, if a file), skipping build output.
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
        if entry.file_name().is_some_and(|n| n != "target") {
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
