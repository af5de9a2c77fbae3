//! CLI for `beldi-lint`.
//!
//! ```text
//! beldi-lint [--root <dir>] [--json <path>]
//! ```
//!
//! Exit codes: 0 clean, 1 unwaived findings, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use beldi_lint::run;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json_out: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a path"),
            },
            "--json" => match args.next() {
                Some(v) => json_out = Some(PathBuf::from(v)),
                None => return usage("--json needs a path"),
            },
            "--help" | "-h" => {
                println!(
                    "beldi-lint: protocol-invariant static analysis for the Beldi workspace\n\
                     \n\
                     usage: beldi-lint [--root <dir>] [--json <path>]\n\
                     \n\
                     --root            workspace root to scan (default: .)\n\
                     --json <path>     write machine-readable findings"
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    // Make the workspace root findable when invoked via `cargo run -p`
    // from a crate directory: walk up until the label table appears.
    let mut probe = root.clone();
    for _ in 0..4 {
        if probe.join(beldi_lint::LABELS_PATH).exists() {
            root = probe;
            break;
        }
        probe = probe.join("..");
    }

    let report = match run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("beldi-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &json_out {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("beldi-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    for f in &report.active {
        println!("{}", f.human());
    }
    println!(
        "beldi-lint: {} file(s), {} active finding(s), {} waived",
        report.files,
        report.active.len(),
        report.waived.len(),
    );
    if report.active.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("beldi-lint: {msg} (try --help)");
    ExitCode::from(2)
}
