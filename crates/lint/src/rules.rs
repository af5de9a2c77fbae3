//! The six rule families.
//!
//! Every rule is a lexical/structural heuristic, tuned against this
//! workspace; each one's blind spots are documented inline. Rules push
//! raw findings — waiver/baseline disposition happens in [`crate::run`].
//! The `async-safety` family and `logged-ops/transitive-db` run over the
//! whole-workspace [`crate::model::Workspace`] / [`crate::graph`] call
//! graph rather than file-by-file (DESIGN.md §15).
//!
//! | rule id                          | guards                                        |
//! |----------------------------------|-----------------------------------------------|
//! | `determinism/wall-clock`         | no `SystemTime::now`/`Instant::now` in replayed code |
//! | `determinism/ad-hoc-rng`         | no unseeded RNG in replayed code              |
//! | `determinism/hashmap-iter`       | no order-sensitive `HashMap` iteration        |
//! | `logged-ops/direct-db`           | apps mutate only through `SsfContext`         |
//! | `logged-ops/transitive-db`       | ...even through helper functions (call graph) |
//! | `crash-points/label-literal`     | probes fire registry constants, not strings   |
//! | `crash-points/registry`          | referenced labels exist and are well-formed   |
//! | `crash-points/coverage`          | probes before *and* after core DB mutations   |
//! | `crash-points/conditional`       | conditional probes must be `WORK_DEPENDENT`   |
//! | `lock-order/raw-lock`            | partition locks only via `lock_partition`     |
//! | `lock-order/nested`              | multi-partition holds iterate a sorted set    |
//! | `async-safety/blocking-in-task`  | no blocking waits reachable from executor tasks |
//! | `async-safety/guard-across-await`| no lock guard live across an `.await`         |
//! | `async-safety/unused-permit`     | semaphore permits are bound, not dropped      |

use std::collections::BTreeSet;

use crate::findings::Finding;
use crate::graph;
use crate::lexer::{Tok, TokKind};
use crate::model::{CallSite, Workspace};
use crate::registry::Registry;
use crate::source::SourceFile;

// ---- Path scopes ----------------------------------------------------------

/// Code that re-executes under replay: the protocol core and the
/// application bodies (plus the simulated platform/workload, which feed
/// the deterministic clock).
fn determinism_scope(p: &str) -> bool {
    p.starts_with("crates/core/src/")
        || p.starts_with("crates/apps/src/")
        || p.starts_with("crates/simfaas/src/")
        || p.starts_with("crates/workload/src/")
}

/// HashMap-iteration scope is tighter: only code whose iteration order
/// can leak into logged state or the crash stream.
fn hashmap_scope(p: &str) -> bool {
    p.starts_with("crates/core/src/") || p.starts_with("crates/apps/src/")
}

fn apps_scope(p: &str) -> bool {
    p.starts_with("crates/apps/src/") || p.starts_with("examples/")
}

fn core_scope(p: &str) -> bool {
    p.starts_with("crates/core/src/")
}

fn probe_scope(p: &str) -> bool {
    p.starts_with("crates/core/src/")
        || p.starts_with("crates/simfaas/src/")
        || p.starts_with("crates/runtime/src/")
        || p == "crates/bench/src/front.rs"
}

/// Where mutation coverage is enforced: the protocol core, plus the
/// executor-facing surfaces grown since PR 9 (the runtime crate and the
/// front door), whose crash points the reachability pass can see.
fn coverage_scope(p: &str) -> bool {
    core_scope(p) || p.starts_with("crates/runtime/src/") || p == "crates/bench/src/front.rs"
}

/// Crates whose library code runs on the virtual timeline: a real-time
/// `std::thread` wait or a raw `std::thread` start anywhere here escapes
/// the clock's schedule even when it is not on an executor path.
/// `simclock` and the host-side lint tool are out.
fn async_scope(p: &str) -> bool {
    p.starts_with("crates/")
        && p.contains("/src/")
        && !clock_impl(p)
        && !p.starts_with("crates/lint/")
}

/// `simclock` *implements* the clock's waits and threads on the host's:
/// its parks are what every virtual-time wait compiles down to, on or
/// off an executor path.
fn clock_impl(p: &str) -> bool {
    p.starts_with("crates/simclock/")
}

fn simdb_scope(p: &str) -> bool {
    p.starts_with("crates/simdb/src/")
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

// ---- Rule family 1: determinism -------------------------------------------

pub fn determinism(sf: &SourceFile, findings: &mut Vec<Finding>) {
    if !determinism_scope(&sf.path) {
        return;
    }
    let toks = &sf.toks;
    for i in 0..toks.len() {
        if sf.in_test[i] {
            continue;
        }
        // SystemTime::now / Instant::now.
        if toks[i].is_ident("now")
            && i >= 2
            && toks[i - 1].kind == TokKind::PathSep
            && matches!(ident_at(sf, i - 2), Some("SystemTime" | "Instant"))
        {
            let line = toks[i].line;
            findings.push(Finding::new(
                "determinism/wall-clock",
                &sf.path,
                line,
                format!(
                    "{}::now() in replayed code; use the simulated clock \
                     (`SsfContext::logged_now_ms` in SSF bodies, `simclock` elsewhere) \
                     so re-executions observe identical time",
                    ident_at(sf, i - 2).unwrap_or("?")
                ),
                sf.line_text(line),
            ));
        }
        // Unseeded / ambient RNG.
        if let Some(id) = ident_at(sf, i) {
            if matches!(id, "thread_rng" | "from_entropy" | "OsRng") {
                let line = toks[i].line;
                findings.push(Finding::new(
                    "determinism/ad-hoc-rng",
                    &sf.path,
                    line,
                    format!(
                        "ambient RNG `{id}` in replayed code; derive randomness from \
                         seeded state (`StdRng::seed_from_u64`) or `SsfContext::logged_uuid` \
                         so replays draw the same values"
                    ),
                    sf.line_text(line),
                ));
            }
        }
    }
    hashmap_iteration(sf, findings);
}

/// Flags iteration over values bound with a `HashMap` type unless the
/// statement's vicinity re-orders (`sort*`) or lands in a `BTree*`
/// collection. Heuristic: tracks `name: HashMap<..>` annotations (fields
/// and lets) and `name = HashMap::new()/with_capacity()/default()`
/// initializers; a different map flowing into an iterated variable
/// through a function boundary is not seen.
fn hashmap_iteration(sf: &SourceFile, findings: &mut Vec<Finding>) {
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

// ---- Rule family 2: logged-ops discipline ---------------------------------

pub fn logged_ops(sf: &SourceFile, findings: &mut Vec<Finding>) {
    if !apps_scope(&sf.path) {
        return;
    }
    let toks = &sf.toks;
    for i in 1..toks.len() {
        if sf.in_test[i] {
            continue;
        }
        let Some(id) = ident_at(sf, i) else { continue };
        if !DB_MUTATORS.contains(&id)
            || !toks[i - 1].is_punct('.')
            || !toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            continue;
        }
        let line = toks[i].line;
        findings.push(Finding::new(
            "logged-ops/direct-db",
            &sf.path,
            line,
            format!(
                "application code calls `.{id}(...)` — a `beldi-simdb` mutation \
                 surface that bypasses DAAL/intent logging; go through the \
                 `SsfContext` logged API (`ctx.write`, `ctx.update`, transactions) \
                 instead"
            ),
            sf.line_text(line),
        ));
    }
}

// ---- Rule family 3: crash points ------------------------------------------

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

// ---- Rule family 4: lock order --------------------------------------------

pub fn lock_order(sf: &SourceFile, findings: &mut Vec<Finding>) {
    if !simdb_scope(&sf.path) {
        return;
    }
    let toks = &sf.toks;
    for i in 1..toks.len() {
        if sf.in_test[i] {
            continue;
        }
        let Some(id) = ident_at(sf, i) else { continue };

        // (a) Raw lock acquisition outside the one blessed helper.
        if matches!(id, "lock" | "try_lock")
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            let in_helper = sf
                .enclosing_fn(i)
                .is_some_and(|f| f.name == "lock_partition");
            if !in_helper {
                let line = toks[i].line;
                findings.push(Finding::new(
                    "lock-order/raw-lock",
                    &sf.path,
                    line,
                    "raw mutex acquisition outside `lock_partition`; partition locks \
                     must flow through the helper so ordering and contention metrics \
                     hold (waive for non-partition mutexes)",
                    sf.line_text(line),
                ));
            }
        }

        // (b) Guards retained across a loop iterating lock_partition must
        // come from a sorted set. Heuristic: a loop body that both calls
        // `lock_partition` and inserts/pushes (retaining guards) requires
        // the enclosing function to mention a `BTree*` collection or a
        // `sort` call; per-iteration guards (summed and dropped) pass.
        if id == "lock_partition" && toks[i - 1].is_punct('.') {
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
                ident_at(sf, j) == Some("drop")
                    && sf.toks.get(j + 1).is_some_and(|t| t.is_punct('('))
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
}

// ---- Rule family 5: async-runtime safety (workspace call graph) -----------

/// Methods whose final-position call in a `let` binds a lock guard.
const GUARD_METHODS: &[&str] = &[
    "lock",
    "try_lock",
    "read",
    "write",
    "lock_partition",
    "upgradable_read",
];

/// Calls that block the calling thread, or start one the workspace
/// clock cannot schedule. The `std::thread` ones are matched by their
/// path qualifier, so the workspace's virtual-time surface
/// (`Clock::sleep`, `Clock::spawn`, `Handle::sleep`, `Executor::spawn`,
/// `beldi_runtime::sleep`) never trips them. The flag says whether the
/// call *waits* (and so stalls an executor it runs on) or only starts a
/// thread.
fn blocking_primitive(call: &CallSite) -> Option<(&'static str, bool)> {
    let std_thread = call.path_qual.as_deref() == Some("thread");
    Some(match call.name.as_str() {
        "sleep" if std_thread => ("`std::thread::sleep` (real-time sleep)", true),
        "park" | "park_timeout" if std_thread => {
            ("`std::thread::park` (parks the OS thread)", true)
        }
        "spawn" if std_thread => (
            "`std::thread::spawn` (a thread outside the clock's schedule)",
            false,
        ),
        "scope" if std_thread => (
            "`std::thread::scope` (threads outside the clock's schedule)",
            false,
        ),
        // `std::thread::Builder::new().spawn(..)`: the `spawn` is a bare
        // method call, so the builder's constructor marks the site.
        "new" if call.path_qual.as_deref() == Some("Builder") => (
            "`std::thread::Builder` (a thread outside the clock's schedule)",
            false,
        ),
        "recv" | "recv_timeout" | "recv_deadline" if call.is_method => {
            ("a blocking channel receive", true)
        }
        "wait" | "wait_until" | "wait_timeout" | "wait_while" | "wait_timeout_while"
            if call.is_method =>
        {
            ("a blocking condvar wait", true)
        }
        _ => return None,
    })
}

/// `std::net` handle types: their construction or use is synchronous IO.
const NET_TYPES: &[&str] = &["TcpStream", "TcpListener", "UdpSocket"];

/// Token index of the `;` ending the statement that starts at `from`,
/// skipping bracket groups; `None` if the enclosing scope (`limit`) ends
/// first.
fn stmt_end(sf: &SourceFile, from: usize, limit: usize) -> Option<usize> {
    let mut j = from;
    while j < limit {
        match &sf.toks[j].kind {
            TokKind::Punct(';') => return Some(j),
            TokKind::Punct('(' | '{' | '[') => {
                let close = sf.match_of[j];
                if close == usize::MAX || close >= limit {
                    return None;
                }
                j = close + 1;
            }
            TokKind::Punct('}') => return None,
            _ => j += 1,
        }
    }
    None
}

/// The meaningful final method/call of the expression ending at `semi`,
/// looking backward through `?` / `.await` and unwrapping one layer of
/// `.unwrap()` / `.expect(..)`: for `let g = m.lock().unwrap();` this is
/// `lock`. Returns `(token index, name)`.
fn final_chain_call(sf: &SourceFile, semi: usize) -> Option<(usize, String)> {
    let mut j = semi;
    while j > 0 {
        j -= 1;
        match &sf.toks[j].kind {
            TokKind::Punct('?') | TokKind::Punct('.') => continue,
            TokKind::Ident(id) if id == "await" => continue,
            TokKind::Punct(')') => {
                let open = sf.match_of[j];
                if open == usize::MAX || open == 0 {
                    return None;
                }
                match ident_at(sf, open - 1) {
                    Some("unwrap" | "expect") => {
                        // Step to the wrapper's ident; the loop then walks
                        // the `.` before it into the real final call.
                        j = open - 1;
                    }
                    Some(name) => return Some((open - 1, name.to_owned())),
                    None => return None,
                }
            }
            _ => return None,
        }
    }
    None
}

/// Parses `let [mut] <binder> [: Ty] = ...;` starting at the `let` token
/// `i`; returns `(binder token index, binder, `=` index)`. Destructuring
/// lets (`let (a, b) = ..`) return `None`.
fn let_binding(sf: &SourceFile, i: usize, limit: usize) -> Option<(usize, String, usize)> {
    let mut j = i + 1;
    if sf.toks.get(j).is_some_and(|t| t.is_ident("mut")) {
        j += 1;
    }
    let binder = ident_at(sf, j)?.to_owned();
    let mut k = j + 1;
    while k < limit {
        match &sf.toks[k].kind {
            TokKind::Punct('=') => return Some((j, binder, k)),
            TokKind::Punct(';') => return None,
            TokKind::Punct('(' | '{' | '[') => {
                let close = sf.match_of[k];
                if close == usize::MAX || close >= limit {
                    return None;
                }
                k = close + 1;
            }
            _ => k += 1,
        }
    }
    None
}

/// The `async-safety` family: `blocking-in-task`, `guard-across-await`,
/// and `unused-permit`, over the workspace model and call graph.
pub fn async_safety(ws: &Workspace, files: &[SourceFile], findings: &mut Vec<Finding>) {
    let reach = graph::reachable_from_tasks(ws, files);
    // Two roots can discover the same site; report it once.
    let mut seen: BTreeSet<(String, u32)> = BTreeSet::new();

    for (idx, m) in ws.fns.iter().enumerate() {
        let sf = &files[m.file];
        let whole = m.is_async || graph::named_root(m, sf).is_some();

        // (a) blocking-in-task: blocking primitives at call sites.
        for call in &m.calls {
            let Some((what, waits)) = blocking_primitive(call) else {
                continue;
            };
            if clock_impl(&sf.path) {
                continue;
            }
            // A thread start stalls no task; wherever it is, it is the
            // off-path finding below.
            let context = if !waits {
                None
            } else if whole || m.in_async_block(call.tok) {
                Some(format!("inside {}", graph::seed_desc(m, sf)))
            } else {
                reach[idx].as_ref().map(|r| {
                    format!(
                        "in `{}`, transitively reachable from {} (called via `{}`)",
                        m.name, r.root, r.via
                    )
                })
            };
            if let Some(context) = context {
                if seen.insert((sf.path.clone(), call.line)) {
                    findings.push(Finding::new(
                        "async-safety/blocking-in-task",
                        &sf.path,
                        call.line,
                        format!(
                            "{what} {context} parks the executor thread and stalls \
                             every in-flight task; use the virtual-time / waker surface \
                             (`clock.sleep`, `Handle::sleep`, `Semaphore::acquire`) or move the \
                             wait onto a dedicated thread"
                        ),
                        sf.line_text(call.line),
                    ));
                }
            } else if async_scope(&sf.path)
                && call.path_qual.is_some()
                && seen.insert((sf.path.clone(), call.line))
            {
                // Off every executor path, a `std::thread` wait or start
                // in library code still escapes the clock's schedule.
                findings.push(Finding::new(
                    "async-safety/blocking-in-task",
                    &sf.path,
                    call.line,
                    format!(
                        "{what} in `{}`: virtual-time library code must wait and start \
                         threads through the workspace clock (`clock.sleep`, \
                         `clock.park_until`, `clock.spawn`), or the simulated schedule \
                         cannot see them",
                        m.name
                    ),
                    sf.line_text(call.line),
                ));
            }
        }

        // (b) blocking-in-task: std::net handle types in task-reachable code.
        let net_spans: Vec<(usize, usize)> = if whole || reach[idx].is_some() {
            vec![(m.open, m.close)]
        } else {
            m.async_blocks.clone()
        };
        'net: for &(o, c) in &net_spans {
            for i in o..c {
                if sf.in_test[i] {
                    continue;
                }
                if let Some(id) = ident_at(sf, i) {
                    if NET_TYPES.contains(&id) {
                        let line = sf.toks[i].line;
                        if seen.insert((sf.path.clone(), line)) {
                            let how = if whole || m.in_async_block(i) {
                                format!("inside {}", graph::seed_desc(m, sf))
                            } else {
                                let r = reach[idx].as_ref().unwrap();
                                format!(
                                    "in `{}`, transitively reachable from {} (via `{}`)",
                                    m.name, r.root, r.via
                                )
                            };
                            findings.push(Finding::new(
                                "async-safety/blocking-in-task",
                                &sf.path,
                                line,
                                format!(
                                    "`std::net::{id}` {how}: synchronous network IO \
                                     blocks the executor thread; keep socket work on \
                                     dedicated connection threads"
                                ),
                                sf.line_text(line),
                            ));
                        }
                        break 'net;
                    }
                }
            }
        }

        // (c) guard-across-await, per async region of this function.
        let async_regions: Vec<(usize, usize)> = if m.is_async {
            vec![(m.open, m.close)]
        } else {
            m.async_blocks.clone()
        };
        for &(o, c) in &async_regions {
            guard_across_await(sf, o, c, findings);
        }

        // (d) unused-permit: everywhere (sync acquisition sites included).
        unused_permit(sf, m.open, m.close, findings);
    }
}

fn guard_across_await(sf: &SourceFile, open: usize, close: usize, findings: &mut Vec<Finding>) {
    let mut i = open + 1;
    while i < close {
        if sf.in_test[i] || !sf.toks[i].is_ident("let") {
            i += 1;
            continue;
        }
        let Some((_, binder, eq)) = let_binding(sf, i, close) else {
            i += 1;
            continue;
        };
        let Some(semi) = stmt_end(sf, eq + 1, close) else {
            i += 1;
            continue;
        };
        let next = semi + 1;
        if binder == "_" {
            // `let _ = x.lock();` drops the guard immediately.
            i = next;
            continue;
        }
        let Some((gtok, gname)) = final_chain_call(sf, semi) else {
            i = next;
            continue;
        };
        if !GUARD_METHODS.contains(&gname.as_str()) {
            i = next;
            continue;
        }
        // The guard lives from `semi` to the end of its lexical scope; an
        // `.await` in that span (without an intervening `drop(binder)`)
        // suspends the task while the guard is held.
        let scope_end = sf.enclosing_block_close(i).unwrap_or(close).min(close);
        let mut k = semi;
        while k + 1 < scope_end {
            k += 1;
            if ident_at(sf, k) == Some("drop")
                && sf.toks.get(k + 1).is_some_and(|t| t.is_punct('('))
                && ident_at(sf, k + 2) == Some(binder.as_str())
            {
                break;
            }
            if sf.toks[k].is_ident("await") && sf.toks[k - 1].is_punct('.') {
                let line = sf.toks[k].line;
                findings.push(Finding::new(
                    "async-safety/guard-across-await",
                    &sf.path,
                    line,
                    format!(
                        "guard `{binder}` (acquired via `.{gname}()` on line {}) is \
                         still live across this `.await`; on the single-threaded \
                         executor any other task needing that lock deadlocks against \
                         the suspended holder — drop the guard before awaiting, or \
                         scope it to a block that closes first",
                        sf.toks[gtok].line
                    ),
                    sf.line_text(line),
                ));
                break;
            }
        }
        i = next;
    }
}

fn unused_permit(sf: &SourceFile, open: usize, close: usize, findings: &mut Vec<Finding>) {
    let mut i = open + 1;
    while i < close {
        if sf.in_test[i] || !sf.toks[i].is_ident("let") {
            i += 1;
            continue;
        }
        let Some((btok, binder, eq)) = let_binding(sf, i, close) else {
            i += 1;
            continue;
        };
        let Some(semi) = stmt_end(sf, eq + 1, close) else {
            i += 1;
            continue;
        };
        if binder == "_" {
            if let Some((_, name)) = final_chain_call(sf, semi) {
                if matches!(name.as_str(), "acquire" | "try_acquire") {
                    let line = sf.toks[btok].line;
                    findings.push(Finding::new(
                        "async-safety/unused-permit",
                        &sf.path,
                        line,
                        format!(
                            "semaphore permit from `.{name}()` is bound to `_` and \
                             dropped on this same line — the admission/concurrency \
                             limit it was meant to enforce is silently disabled; bind \
                             it (`let _permit = ...`) so it lives for the guarded scope"
                        ),
                        sf.line_text(line),
                    ));
                }
            }
        }
        i = semi + 1;
    }
}

// ---- Rule family 6: transitive logged-ops discipline ----------------------

/// Lifts `logged-ops/direct-db` through the call graph: an application
/// call site whose callee (transitively, outside `core`/`simdb`)
/// performs a direct database mutation routes state around the logged
/// `SsfContext` API just as surely as mutating inline.
pub fn transitive_db(ws: &Workspace, files: &[SourceFile], findings: &mut Vec<Finding>) {
    let candidate = |file: usize| {
        let p = &files[file].path;
        // `core` and `simdb` are *supposed* to touch the database; the
        // lint crate manipulates mutation-shaped strings.
        !core_scope(p) && !simdb_scope(p) && !p.starts_with("crates/lint/")
    };

    // Direct mutators outside the sanctioned crates.
    let n = ws.fns.len();
    let mut mutates = vec![false; n];
    let mut note = vec![String::new(); n];
    for (i, m) in ws.fns.iter().enumerate() {
        if !candidate(m.file) {
            continue;
        }
        let sf = &files[m.file];
        for t in m.open..m.close {
            if !sf.in_test[t] && is_db_mutation(sf, t) {
                mutates[i] = true;
                note[i] = format!(
                    "`{}` mutates directly at {}:{}",
                    m.name, sf.path, sf.toks[t].line
                );
                break;
            }
        }
    }

    // Propagate through non-core/non-simdb helpers to a fixpoint.
    loop {
        let mut changed = false;
        for i in 0..n {
            let m = &ws.fns[i];
            if mutates[i] || !candidate(m.file) {
                continue;
            }
            'calls: for call in &m.calls {
                if !graph::traversable(&call.name) || DB_MUTATORS.contains(&call.name.as_str()) {
                    continue;
                }
                for t in ws.resolve(call, m.file) {
                    if t != i && mutates[t] && candidate(ws.fns[t].file) {
                        mutates[i] = true;
                        note[i] = note[t].clone();
                        changed = true;
                        break 'calls;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Findings land on the application-scope call sites.
    let mut seen: BTreeSet<(String, u32)> = BTreeSet::new();
    for m in &ws.fns {
        let sf = &files[m.file];
        if !apps_scope(&sf.path) {
            continue;
        }
        for call in &m.calls {
            if !graph::traversable(&call.name) || DB_MUTATORS.contains(&call.name.as_str()) {
                continue;
            }
            let hit = ws
                .resolve(call, m.file)
                .into_iter()
                .find(|&t| mutates[t] && candidate(ws.fns[t].file));
            if let Some(t) = hit {
                if seen.insert((sf.path.clone(), call.line)) {
                    findings.push(Finding::new(
                        "logged-ops/transitive-db",
                        &sf.path,
                        call.line,
                        format!(
                            "call to `{}` routes a database mutation around \
                             `SsfContext` ({}); application state must flow through \
                             the logged API so DAAL/intent records capture it",
                            call.name, note[t]
                        ),
                        sf.line_text(call.line),
                    ));
                }
            }
        }
    }
}
