//! The rules that need protocol knowledge no other tool has.
//!
//! Every rule is a lexical/structural heuristic, tuned against this
//! workspace; each one's blind spots are documented inline. Rules push
//! raw findings — waiver disposition happens in [`crate::run`]. What
//! the type system, rustc or `clippy.toml` can state exactly is checked
//! there, not here (DESIGN.md §11 has the whole table).
//!
//! | rule id                          | guards                                        |
//! |----------------------------------|-----------------------------------------------|
//! | `determinism/hashmap-iter`       | no order-sensitive `HashMap` iteration        |
//! | `crash-points/coverage`          | probes before *and* after core DB mutations   |
//! | `crash-points/conditional`       | conditional probes fire work-dependent labels |
//! | `lock-order/nested`              | multi-partition holds iterate a sorted set    |
//!
//! That a probe fires a declared label is the type system's: a label is
//! a `Label`, never a string.

use std::collections::BTreeSet;

use crate::findings::Finding;
use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;

// ---- Path scopes ----------------------------------------------------------

/// Code whose iteration order can leak into logged state or the crash
/// stream: the protocol core and the application bodies.
fn hashmap_scope(p: &str) -> bool {
    p.starts_with("crates/core/src/") || p.starts_with("crates/apps/src/")
}

fn probe_scope(p: &str) -> bool {
    p.starts_with("crates/core/src/")
        || p.starts_with("crates/simfaas/src/")
        || p.starts_with("crates/runtime/src/")
        || p == "crates/bench/src/front.rs"
}

/// Where mutation coverage is enforced: the protocol core, plus the
/// executor-facing surfaces grown since PR 9 (the runtime crate and the
/// front door).
fn coverage_scope(p: &str) -> bool {
    p.starts_with("crates/core/src/")
        || p.starts_with("crates/runtime/src/")
        || p == "crates/bench/src/front.rs"
}

// ---- Shared token helpers -------------------------------------------------

/// Database mutation method names (the `beldi-simdb` write surface).
const DB_MUTATORS: &[&str] = &[
    "put",
    "put_row",
    "update",
    "delete",
    "delete_row",
    "transact_write",
];

/// Idents that fire a crash probe when called.
const PROBE_IDENTS: &[&str] = &["crash_point", "crash", "probe"];

fn ident_at(sf: &SourceFile, i: usize) -> Option<&str> {
    sf.toks.get(i).and_then(Tok::ident)
}

/// Is token `i` an ident called as a function: `ident(`, or `ident)(` for
/// the `(p.crash)(...)` closure-field form? Returns the index of the
/// opening `(` of the argument list.
fn call_args_open(sf: &SourceFile, i: usize) -> Option<usize> {
    let next = sf.toks.get(i + 1)?;
    if next.is_punct('(') {
        return Some(i + 1);
    }
    if next.is_punct(')') && sf.toks.get(i + 2).is_some_and(|t| t.is_punct('(')) {
        return Some(i + 2);
    }
    None
}

/// Is token `i` a probe call site? (`x.crash_point(..)`, `ctx.crash(..)`,
/// `(p.crash)(..)`, `self.probe(..)`.)
fn is_probe_site(sf: &SourceFile, i: usize) -> bool {
    ident_at(sf, i).is_some_and(|id| PROBE_IDENTS.contains(&id)) && call_args_open(sf, i).is_some()
}

/// Walks the postfix receiver chain backwards from a `.method` at `dot`,
/// collecting the chain's identifiers (`p.db.update` → [db, p];
/// `self.db().update` → [db, self]). Stops at anything that is not part
/// of a postfix expression.
fn receiver_chain(sf: &SourceFile, dot: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut j = dot;
    loop {
        if j == 0 {
            break;
        }
        j -= 1;
        match &sf.toks[j].kind {
            TokKind::Punct(')') => {
                let open = sf.match_of[j];
                if open == usize::MAX {
                    break;
                }
                j = open;
            }
            TokKind::Punct(']') => {
                let open = sf.match_of[j];
                if open == usize::MAX {
                    break;
                }
                j = open;
            }
            TokKind::Ident(id) => {
                out.push(id.clone());
                // Keep walking only across `.` / `::`.
                if j == 0 {
                    break;
                }
                match &sf.toks[j - 1].kind {
                    TokKind::Punct('.') | TokKind::PathSep => {}
                    _ => break,
                }
            }
            TokKind::Punct('.') | TokKind::PathSep => {}
            _ => break,
        }
    }
    out
}

/// A DB mutation call site: `.mutator(` with a `db`-ish receiver in the
/// postfix chain (so `cache.put(..)` and `Update::new().set(..)` don't
/// count).
fn is_db_mutation(sf: &SourceFile, i: usize) -> bool {
    let Some(id) = ident_at(sf, i) else {
        return false;
    };
    if !DB_MUTATORS.contains(&id) {
        return false;
    }
    if i == 0 || !sf.toks[i - 1].is_punct('.') {
        return false;
    }
    if !sf.toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
        return false;
    }
    receiver_chain(sf, i - 1)
        .iter()
        .any(|r| r == "db" || r == "database" || r.ends_with("_db") || r == "simdb")
}

/// The label a probe call whose arg list opens at `open` fires: the
/// variant of a `Label::Variant` argument, or `None` for a pass-through
/// site (the label arrives as a parameter).
fn label_arg(sf: &SourceFile, open: usize) -> Option<&str> {
    let close = sf.match_of[open];
    if close == usize::MAX {
        return None;
    }
    (open + 1..close.saturating_sub(2)).find_map(|j| {
        let path = sf.toks[j].is_ident("Label") && sf.toks[j + 1].kind == TokKind::PathSep;
        path.then(|| ident_at(sf, j + 2)).flatten()
    })
}

// ---- Determinism ---------------------------------------------------------

/// Flags iteration over values bound with a `HashMap` type unless the
/// statement's vicinity re-orders (`sort*`) or lands in a `BTree*`
/// collection. Heuristic: tracks `name: HashMap<..>` annotations (fields
/// and lets) and `name = HashMap::new()/with_capacity()/default()`
/// initializers; a different map flowing into an iterated variable
/// through a function boundary is not seen.
pub fn hashmap_iteration(sf: &SourceFile, findings: &mut Vec<Finding>) {
    if !hashmap_scope(&sf.path) {
        return;
    }
    let toks = &sf.toks;
    let mut tracked: BTreeSet<&str> = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("HashMap") {
            continue;
        }
        // `name: HashMap<..>` / `name: &mut HashMap<..>` (field, param,
        // or let annotation) and `name = HashMap::new()` initializers.
        let mut j = i;
        while j >= 1
            && (sf.toks[j - 1].is_punct('&')
                || sf.toks[j - 1].is_ident("mut")
                || sf.toks[j - 1].kind == TokKind::Lifetime)
        {
            j -= 1;
        }
        if j >= 2 && (sf.toks[j - 1].is_punct(':') || sf.toks[j - 1].is_punct('=')) {
            if let Some(name) = ident_at(sf, j - 2) {
                tracked.insert(name);
            }
        }
    }
    const ITER_METHODS: &[&str] = &[
        "iter",
        "iter_mut",
        "keys",
        "values",
        "values_mut",
        "drain",
        "into_iter",
    ];
    for i in 2..toks.len() {
        if sf.in_test[i] {
            continue;
        }
        let Some(m) = ident_at(sf, i) else { continue };
        if !ITER_METHODS.contains(&m) || !toks[i - 1].is_punct('.') {
            continue;
        }
        let Some(recv) = ident_at(sf, i - 2) else {
            continue;
        };
        if !tracked.contains(recv) {
            continue;
        }
        let line = toks[i].line;
        // Ordered downstream? Look a couple of lines around the call.
        let window: String = (line.saturating_sub(1)..=line + 2)
            .map(|l| sf.line_text(l))
            .collect::<Vec<_>>()
            .join("\n");
        if window.contains("sort") || window.contains("BTree") {
            continue;
        }
        findings.push(Finding::new(
            "determinism/hashmap-iter",
            &sf.path,
            line,
            format!(
                "iteration over HashMap `{recv}` has nondeterministic order; \
                 sort the result, iterate a BTreeMap, or keep the order from \
                 leaking into logged state / the crash stream"
            ),
            sf.line_text(line),
        ));
    }
}

// ---- Crash points --------------------------------------------------------

/// The variants in the `work_dependent { .. }` group of the `labels!`
/// table in `sf` (`simfaas/src/labels.rs`).
pub fn work_dependent_labels(sf: &SourceFile) -> BTreeSet<String> {
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
        .filter_map(|i| ident_at(sf, i).map(str::to_owned))
        .collect()
}

/// Conditional probes in protocol code must fire a work-dependent label,
/// and every DB mutation in core must be bracketed by probes.
pub fn crash_points(
    sf: &SourceFile,
    work_dependent: &BTreeSet<String>,
    findings: &mut Vec<Finding>,
) {
    if probe_scope(&sf.path) {
        for i in 0..sf.toks.len() {
            if sf.in_test[i] || !is_probe_site(sf, i) {
                continue;
            }
            let Some(label) = label_arg(sf, call_args_open(sf, i).unwrap()) else {
                continue; // pass-through site
            };
            if work_dependent.contains(label) || sf.conditional_depth(i) == 0 {
                continue;
            }
            let line = sf.toks[i].line;
            findings.push(Finding::new(
                "crash-points/conditional",
                &sf.path,
                line,
                format!(
                    "probe `Label::{label}` sits under a conditional but is not in the \
                     label table's `work_dependent` group; a probe whose firing depends \
                     on the work found changes the global crash stream between runs and \
                     breaks fixed-schedule exploration"
                ),
                sf.line_text(line),
            ));
        }
    }

    // Coverage: every DB mutation in core protocol code (and the
    // runtime/front-door surfaces) must have a probe lexically before and
    // after it inside the same function, or the crash-schedule explorer
    // cannot exercise a crash on either side of that effect.
    if coverage_scope(&sf.path) {
        coverage(sf, findings);
    }
}

fn coverage(sf: &SourceFile, findings: &mut Vec<Finding>) {
    for f in &sf.fns {
        if sf.in_test[f.open] {
            continue;
        }
        let probes: Vec<usize> = (f.open..f.close)
            .filter(|&i| is_probe_site(sf, i))
            .collect();
        for i in f.open..f.close {
            if !is_db_mutation(sf, i) {
                continue;
            }
            let before = probes.iter().any(|&p| p < i);
            let after = probes.iter().any(|&p| p > i);
            if before && after {
                continue;
            }
            let line = sf.toks[i].line;
            let missing = match (before, after) {
                (false, false) => "before or after",
                (false, true) => "before",
                _ => "after",
            };
            findings.push(Finding::new(
                "crash-points/coverage",
                &sf.path,
                line,
                format!(
                    "DB mutation in `{}` has no crash probe {missing} it in this \
                     function; the crash-schedule explorer cannot exercise a crash \
                     around this effect (add probes, or waive citing the enclosing \
                     probes that bracket this call)",
                    f.name
                ),
                sf.line_text(line),
            ));
        }
    }
}

// ---- Lock order ----------------------------------------------------------

/// Guards retained across a loop iterating `lock_partition` must come
/// from a sorted set. Heuristic: a loop body that both calls
/// `lock_partition` and inserts/pushes (retaining guards) requires the
/// enclosing function to mention a `BTree*` collection or a `sort` call;
/// per-iteration guards (summed and dropped) pass. That every partition
/// lock *is* taken through `lock_partition` needs no rule:
/// `Table::partitions` is private to `table.rs`.
pub fn lock_order(sf: &SourceFile, findings: &mut Vec<Finding>) {
    if !sf.path.starts_with("crates/simdb/src/") {
        return;
    }
    let toks = &sf.toks;
    for i in 1..toks.len() {
        if sf.in_test[i] || !toks[i].is_ident("lock_partition") || !toks[i - 1].is_punct('.') {
            continue;
        }
        let Some(fun) = sf.enclosing_fn(i) else {
            continue;
        };
        if fun.name == "lock_partition" {
            continue;
        }
        let Some(loop_open) = sf.loop_block_around(i) else {
            continue;
        };
        // A loop over a literal range (`for p in 0..n`) visits
        // partitions in ascending order by construction.
        let mut range_loop = false;
        let mut j = loop_open;
        while j >= 2 && !sf.toks[j - 1].is_punct('{') && !sf.toks[j - 1].is_punct(';') {
            j -= 1;
            if sf.toks[j].is_punct('.') && sf.toks[j - 1].is_punct('.') {
                range_loop = true;
                break;
            }
            if loop_open - j > 40 {
                break;
            }
        }
        if range_loop {
            continue;
        }
        let loop_close = sf.match_of[loop_open];
        // An explicit `drop(guard)` after the acquisition releases the
        // lock before the next iteration — only one lock ever held.
        let dropped = (i..loop_close).any(|j| {
            ident_at(sf, j) == Some("drop") && sf.toks.get(j + 1).is_some_and(|t| t.is_punct('('))
        });
        if dropped {
            continue;
        }
        let retains = (loop_open..loop_close).any(|j| {
            matches!(ident_at(sf, j), Some("insert" | "push")) && sf.toks[j - 1].is_punct('.')
        });
        if !retains {
            continue;
        }
        let ordered = (fun.open.saturating_sub(60)..fun.close).any(|j| {
            matches!(
                ident_at(sf, j),
                Some("BTreeSet" | "BTreeMap" | "sort" | "sort_by" | "sort_unstable")
            )
        });
        if !ordered {
            let line = toks[i].line;
            findings.push(Finding::new(
                "lock-order/nested",
                &sf.path,
                line,
                format!(
                    "`{}` retains partition guards across a loop without an \
                     ascending acquisition order in sight; acquire via a \
                     BTreeSet/BTreeMap (or sort the lock set) to keep the \
                     deadlock-freedom invariant",
                    fun.name
                ),
                sf.line_text(line),
            ));
        }
    }
}
