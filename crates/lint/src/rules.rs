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
//! | `crash-points/label-literal`     | probes fire registry constants, not strings   |
//! | `crash-points/registry`          | referenced labels exist and are well-formed   |
//! | `crash-points/coverage`          | probes before *and* after core DB mutations   |
//! | `crash-points/conditional`       | conditional probes must be `WORK_DEPENDENT`   |
//! | `lock-order/nested`              | multi-partition holds iterate a sorted set    |

use std::collections::BTreeSet;

use crate::findings::Finding;
use crate::lexer::{Tok, TokKind};
use crate::registry::Registry;
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

fn is_registry_file(p: &str) -> bool {
    p.ends_with("simfaas/src/labels.rs")
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

/// Resolves the label argument of a probe/plan call whose arg list opens
/// at `open`: a string literal, a `labels::CONST` / bare `ALL_CAPS`
/// constant, or an opaque expression (pass-through site).
enum LabelArg {
    Literal(String, u32),
    Const(String, u32),
    Opaque,
}

fn label_arg(sf: &SourceFile, open: usize) -> LabelArg {
    let close = sf.match_of[open];
    if close == usize::MAX {
        return LabelArg::Opaque;
    }
    for j in open + 1..close {
        match &sf.toks[j].kind {
            TokKind::Str(s) if Registry::label_shaped(s) => {
                return LabelArg::Literal(s.clone(), sf.toks[j].line)
            }
            TokKind::Ident(id)
                if id.len() > 1 && id.chars().all(|c| c.is_ascii_uppercase() || c == '_') =>
            {
                return LabelArg::Const(id.clone(), sf.toks[j].line)
            }
            _ => {}
        }
    }
    LabelArg::Opaque
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

pub fn crash_points(sf: &SourceFile, reg: &Registry, findings: &mut Vec<Finding>) {
    if is_registry_file(&sf.path) {
        return;
    }
    let toks = &sf.toks;
    let labels = reg.labels();

    for i in 0..toks.len() {
        // (a) Probe sites in protocol code: labels must be constants, and
        // conditional probes must be registered work-dependent.
        if probe_scope(&sf.path) && !sf.in_test[i] && is_probe_site(sf, i) {
            let open = call_args_open(sf, i).unwrap();
            match label_arg(sf, open) {
                LabelArg::Literal(s, line) => {
                    findings.push(Finding::new(
                        "crash-points/label-literal",
                        &sf.path,
                        line,
                        format!(
                            "crash probe fires string literal \"{s}\"; declare it in \
                             `simfaas::labels` and fire the constant, so the registry, \
                             the explorer, and the tests share one source of truth"
                        ),
                        sf.line_text(line),
                    ));
                    check_conditional(sf, reg, i, &s, findings);
                }
                LabelArg::Const(name, line) => {
                    match reg.label_of_const(&name) {
                        Some(label) => {
                            let label = label.to_owned();
                            check_conditional(sf, reg, i, &label, findings);
                        }
                        None => findings.push(Finding::new(
                            "crash-points/registry",
                            &sf.path,
                            line,
                            format!("probe fires unknown label constant `{name}` (not in `simfaas::labels`)"),
                            sf.line_text(line),
                        )),
                    }
                }
                LabelArg::Opaque => {} // pass-through site (label arrives as a parameter)
            }
        }

        // (b) Every label-shaped string anywhere (tests, explorer, plans)
        // must resolve in the registry — a typo in `AtLabel("...")`
        // otherwise silently explores nothing. Only strings fed to
        // plan/probe constructors are checked; arbitrary strings (table
        // names like "txn.data") are not labels.
        if let Some(id) = ident_at(sf, i) {
            if id == "AtLabel" || PROBE_IDENTS.contains(&id) {
                if let Some(open) = call_args_open(sf, i) {
                    if let LabelArg::Literal(s, line) = label_arg(sf, open) {
                        if !labels.contains(s.as_str()) {
                            findings.push(Finding::new(
                                "crash-points/registry",
                                &sf.path,
                                line,
                                format!(
                                    "label \"{s}\" is not declared in `simfaas::labels`; \
                                     a plan or probe naming it can never match a real \
                                     crash point"
                                ),
                                sf.line_text(line),
                            ));
                        }
                    }
                }
            }
        }
    }

    // (c) Coverage: every DB mutation in core protocol code (and the
    // runtime/front-door surfaces) must have a probe lexically before and
    // after it inside the same function, or the crash-schedule explorer
    // cannot exercise a crash on either side of that effect.
    if coverage_scope(&sf.path) {
        coverage(sf, findings);
    }
}

fn check_conditional(
    sf: &SourceFile,
    reg: &Registry,
    site: usize,
    label: &str,
    findings: &mut Vec<Finding>,
) {
    if reg.work_dependent.contains(label) {
        return;
    }
    let depth = sf.conditional_depth(site);
    if depth > 0 {
        let line = sf.toks[site].line;
        findings.push(Finding::new(
            "crash-points/conditional",
            &sf.path,
            line,
            format!(
                "probe \"{label}\" sits under a conditional but is not listed in \
                 `labels::WORK_DEPENDENT`; a probe whose firing depends on the work \
                 found changes the global crash stream between runs and breaks \
                 fixed-schedule exploration"
            ),
            sf.line_text(line),
        ));
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
