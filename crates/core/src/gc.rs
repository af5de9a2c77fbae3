//! The garbage collector (§5, Fig. 10).
//!
//! Left alone, the linked DAAL, the log and the intent table grow
//! without bound. The GC — a timer-triggered serverless function per SSF —
//! prunes them *without blocking concurrent SSF, IC, or other GC
//! instances*, relying on one synchrony assumption: an SSF instance lives
//! at most `T` (derivable from the platform's execution timeout).
//!
//! Fig. 10's step 1, stamping a finish time on intents that completed, is
//! the done-mark's: the write that sets `Done` sets `FinishTime` too
//! ([`intent::mark_done`], the owner's finalize-marker claim), so a pass
//! writes nothing to an intent before it deletes it. A pass does 2–6:
//!
//! 2. classify done intents finished longer ago than the horizon `T` as
//!    *recyclable*;
//! 3. delete the recyclable intents' log entries — by key, with no read:
//!    an intent's done-mark lists the steps at which it has an entry in
//!    its SSF's one log table (`LogSteps`), so the entries are
//!    `log_key(id, step)` for each listed step;
//! 4. disconnect non-tail DAAL rows whose write logs are fully
//!    recyclable, stamping them with a dangling time;
//! 5. delete disconnected rows whose dangling time is older than `T`
//!    and that are no longer reachable from the head (stragglers holding
//!    references have died by then);
//! 6. delete the recyclable intent rows themselves — last, so that a log
//!    entry whose owner is *absent* from the intent table is provably
//!    recyclable (its intent was removed by an earlier completed pass).
//!
//! That is as safe as a pass's stamp: an execution that can still log
//! under an intent found it not done when it registered, so it launched
//! before the done-mark committed and its lease ends it `T` later; the
//! done-mark reads its clock just before that commit, and a pass read its
//! clock before the scan that found the intent done (DESIGN §10). A done
//! intent without a non-negative int `FinishTime` is corrupt and stays.
//!
//! The list in step 3 is complete. Every execution of an intent replays
//! the others step for step, because each nondeterministic input it acts
//! on is logged; so the execution that marks the intent done passes every
//! step at which any execution of it logged, and records each whether it
//! wrote the entry or found it. A callback only updates an entry that
//! already exists — its condition, `exists(CalleeFn)`, needs an invoke
//! entry at the key the callee id names — so nothing else creates a row
//! under an intent's keys. A done intent without the list — a
//! transaction's finalize marker, a body that logged nothing, an intent
//! the IC quarantined — is taken to have logged nothing; one whose list
//! is malformed is counted corrupt and left in place with its entries.
//!
//! Steps 4–5 do not walk the store: in a data table they visit only the
//! keys a sparse index over appended rows lists (`collect_daal_table`
//! has the exactness argument), so a pass costs what its garbage costs.
//!
//! Shadow tables (§6.2) are collected the same way, except whole chains —
//! including head and tail — are deleted once every entry is recyclable,
//! since a finished transaction never reads its shadow again.
//!
//! The GC needs only at-least-once semantics (Fig. 10 note): every action
//! is an idempotent conditional update or delete.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use beldi_simclock::{Metric, Telemetry};
use beldi_simdb::{Database, DbError, PrimaryKey, Projection, ScanRequest};
use beldi_value::{Cond, Update, Value};

use crate::config::Mode;
use crate::daal;
use crate::env::{EnvCore, Ssf};
use crate::error::BeldiResult;
use crate::ids::{log_key, parse_log_key, StepNumber};
use crate::intent;
use crate::schema::{
    A_APPENDED, A_CREATED, A_DANGLE, A_DONE, A_FINISH, A_ID, A_KEY, A_LOG_KEY, A_LOG_STEPS,
    A_NEXT_ROW, A_ROW_ID, A_WRITES, ROW_HEAD,
};
use crate::Label;

/// Summary of one garbage-collector pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Intents classified recyclable and removed.
    pub recycled_intents: usize,
    /// Log entries deleted.
    pub deleted_log_entries: usize,
    /// DAAL rows disconnected (stamped dangling).
    pub disconnected_rows: usize,
    /// DAAL / shadow rows physically deleted.
    pub deleted_rows: usize,
    /// Cyclic (corrupt) DAAL chains encountered and skipped. A chain whose
    /// `NextRow` pointers loop can never arise from the append/unlink
    /// protocol; a non-zero count means the store is damaged and the key
    /// was left untouched rather than part-collected.
    pub corrupt_chains: usize,
    /// Done intents left in place with their log entries because their
    /// `FinishTime` is not a non-negative int (when they may go is
    /// unknown), or because they are past the horizon and their
    /// `LogSteps` is not a list of step numbers (which entries they own is
    /// unknown). A non-zero count means the store is damaged.
    pub corrupt_intents: usize,
}

/// Observation hooks threaded through a GC pass.
///
/// `crash` is the fault-injection surface: it fires at the five
/// step-boundary labels (`gc.enter`, `gc.post_classify`,
/// `gc.post_log_prune`, `gc.post_daal`, `gc.exit`), so the crash-schedule
/// explorer and the storm kill collectors between any two of a pass's
/// steps. `probe` fires at fine-grained points (per unlink, per delete)
/// and exists for tests that need to interleave mutations inside a pass;
/// production passes a no-op.
pub(crate) struct GcHooks<'a> {
    /// Fault-injection crash points (one per step boundary).
    pub crash: &'a dyn Fn(Label),
    /// Test-only interleaving probe (per unlink, per delete).
    pub probe: &'a dyn Fn(Label),
}

/// The no-op hook used outside fault-injection contexts.
fn noop(_: Label) {}

impl GcHooks<'static> {
    /// Hooks that observe nothing.
    pub fn none() -> Self {
        GcHooks {
            crash: &noop,
            probe: &noop,
        }
    }
}

/// Tracks which log owners are recyclable during one pass.
struct OwnerStatus<'a> {
    db: &'a Database,
    intent_table: &'a str,
    recyclable: HashSet<Arc<str>>,
    cache: HashMap<String, bool>,
}

impl OwnerStatus<'_> {
    /// True when the owner's logs may be pruned: either classified
    /// recyclable this pass, or already absent from the intent table
    /// (recycled by an earlier pass — every instance registers its intent
    /// before any logged operation, so absence is conclusive).
    fn is_recyclable(&mut self, owner: &str) -> BeldiResult<bool> {
        if self.recyclable.contains(owner) {
            return Ok(true);
        }
        if let Some(&hit) = self.cache.get(owner) {
            return Ok(hit);
        }
        // An existence probe: the envelopes stay in the store.
        let id_only = Projection::attrs([A_ID]);
        let pk = PrimaryKey::hash(owner);
        let absent = self
            .db
            .get(self.intent_table, &pk, Some(&id_only))?
            .is_none();
        self.cache.insert(owner.to_owned(), absent);
        Ok(absent)
    }
}

/// Runs one GC pass for `ssf` with no observation hooks.
pub(crate) fn run_gc(core: &Arc<EnvCore>, ssf: &Ssf) -> BeldiResult<GcReport> {
    run_gc_with(core, ssf, &GcHooks::none())
}

/// Runs one GC pass for `ssf`, firing `hooks` along the way, and counts
/// it: every way a pass is run — timer, harness, test hook — comes
/// through here. Corruption is counted where it is found.
pub(crate) fn run_gc_with(
    core: &Arc<EnvCore>,
    ssf: &Ssf,
    hooks: &GcHooks<'_>,
) -> BeldiResult<GcReport> {
    let result = pass(core, ssf, hooks);
    let t = core.telemetry();
    t.add(Metric::GcPasses, 1);
    match &result {
        Ok(r) => {
            t.add(Metric::GcRecycledIntents, r.recycled_intents as u64);
            t.add(Metric::GcDeletedLogEntries, r.deleted_log_entries as u64);
            t.add(Metric::GcDisconnectedRows, r.disconnected_rows as u64);
            t.add(Metric::GcDeletedRows, r.deleted_rows as u64);
        }
        Err(_) => t.add(Metric::GcErrors, 1),
    }
    result
}

fn pass(core: &Arc<EnvCore>, ssf: &Ssf, hooks: &GcHooks<'_>) -> BeldiResult<GcReport> {
    let db = &core.db;
    let t = core.telemetry();
    let now_ms = core.platform.clock().now().as_millis();
    // Recycle horizon: `T` after finish. The lease kills an execution at
    // its first probe past `launch + T`, with the launch read before its
    // wrapper's first intent store op, and a store write applies when it
    // is issued, with no virtual time between a probe and the next store
    // call: so a zombie's last write lands at or before `launch + T ≤
    // finish + T`, and a pass recycles strictly later (DESIGN §13).
    let t_ms = core.config.t_max.as_millis() as u64;
    let intent_table = &*ssf.intent_table;
    let mut report = GcReport::default();
    (hooks.crash)(Label::GcEnter);

    // Step 2: classify recyclable intents: done, and finished longer than
    // the horizon ago. A pass may be bounded (Appendix A): collectors are
    // SSFs with execution timeouts, so the remainder waits for later
    // passes.
    let batch_limit = core.config.collector_batch_limit.unwrap_or(usize::MAX);
    // Each recyclable intent with the steps its done-mark lists.
    let mut recyclable: Vec<(Arc<str>, Vec<StepNumber>)> = Vec::new();
    // Classifying needs four small attributes; the envelopes (`Ret`, and
    // `Args` until the done-mark) that make up most of an intent row stay
    // in the store.
    let classify = ScanRequest::all().with_projection(Projection::attrs([
        A_ID,
        A_DONE,
        A_FINISH,
        A_LOG_STEPS,
    ]));
    for row in db.scan_all(intent_table, &classify)? {
        let Some(id) = row.get_shared_str(A_ID) else {
            continue;
        };
        if !row.get_bool(A_DONE).unwrap_or(false) {
            continue;
        }
        // Every done-mark sets the finish time: without one, when the
        // intent may go is unknown, and it stays.
        let Some(finished) = row.get_int(A_FINISH).and_then(|f| u64::try_from(f).ok()) else {
            report_corruption(t, Metric::GcCorruptIntents, &mut report.corrupt_intents);
            continue;
        };
        if now_ms.saturating_sub(finished) <= t_ms || recyclable.len() >= batch_limit {
            continue;
        }
        // Without its list, what the intent owns in the log is unknown: it
        // and its entries stay.
        match intent::log_steps(&row) {
            Some(steps) => recyclable.push((id.clone(), steps)),
            None => report_corruption(t, Metric::GcCorruptIntents, &mut report.corrupt_intents),
        }
    }
    (hooks.crash)(Label::GcPostClassify);

    // Step 3: delete the log entries the recyclable intents' done-marks
    // list. The condition keeps a pass re-run after a crash here from
    // counting an entry twice.
    let present = Cond::exists(A_LOG_KEY);
    #[expect(
        clippy::disallowed_methods,
        reason = "between Label::GcPostClassify and Label::GcPostLogPrune"
    )]
    for (id, steps) in &recyclable {
        for &step in steps {
            let pk = PrimaryKey::hash(log_key(id, step));
            match db.delete(&ssf.log_table, &pk, &present) {
                Ok(()) => report.deleted_log_entries += 1,
                Err(DbError::ConditionFailed) => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
    (hooks.crash)(Label::GcPostLogPrune);

    // Steps 4–5: DAAL maintenance (Beldi mode only; cross-table and
    // baseline data tables are single rows with no log to prune).
    if core.config.mode == Mode::Beldi {
        let mut status = OwnerStatus {
            db,
            intent_table,
            recyclable: recyclable.iter().map(|(id, _)| id.clone()).collect(),
            cache: HashMap::new(),
        };
        for table in &ssf.tables {
            collect_daal_table(
                db,
                t,
                &table.data,
                &mut status,
                now_ms,
                t_ms,
                false,
                &mut report,
                hooks,
            )?;
            collect_daal_table(
                db,
                t,
                &table.shadow,
                &mut status,
                now_ms,
                t_ms,
                true,
                &mut report,
                hooks,
            )?;
        }
    }
    (hooks.crash)(Label::GcPostDaal);

    // Step 6: remove the recycled intents themselves — and, with each,
    // what the fault injector kept about the instance. From here on the
    // id can only come back as a zombie past its lease, whose counters
    // start over.
    for (id, _) in &recyclable {
        intent::delete(db, intent_table, id)?;
        core.platform.faults().forget(id);
        report.recycled_intents += 1;
    }
    (hooks.crash)(Label::GcExit);
    Ok(report)
}

/// Collects one DAAL (or shadow) table: disconnect fully recyclable
/// non-tail rows, then delete rows that have dangled for more than `T`.
///
/// Fig. 10 fixes what may be deleted, not how candidates are found. In a
/// data table everything steps 4–5 can touch — an interior row, a
/// dangle-stamped row, the orphan of a lost append, a cyclic chain — is
/// or requires a non-head row, and every non-head row carries
/// [`A_APPENDED`] from the update that created it. So the keys the
/// sparse index on that marker lists are exactly the keys with anything
/// to collect, and a pass costs what its garbage costs, not what the
/// store holds. Shadow tables are walked key by key: every shadow chain
/// is garbage-to-be and is collected whole, head included.
#[allow(
    clippy::too_many_arguments,
    reason = "internal helper mirroring Fig. 10's loop"
)]
fn collect_daal_table(
    db: &Database,
    t: &Telemetry,
    table: &str,
    status: &mut OwnerStatus<'_>,
    now_ms: u64,
    t_ms: u64,
    is_shadow: bool,
    report: &mut GcReport,
    hooks: &GcHooks<'_>,
) -> BeldiResult<()> {
    let keys = if is_shadow {
        db.distinct_hash_keys(table)?
    } else {
        // One index entry per non-head row, in key order: a key's rows
        // are adjacent, so `dedup` leaves each key once.
        let keys_only = ScanRequest::all().with_projection(Projection::attrs([A_KEY]));
        let mut keys: Vec<Value> = db
            .index_query(table, A_APPENDED, &Value::Bool(true), &keys_only)?
            .iter()
            .filter_map(|row| row.get_attr(A_KEY).cloned())
            .collect();
        keys.dedup();
        keys
    };
    for key in &keys {
        let Some(key) = key.as_shared_str() else {
            continue;
        };
        collect_daal_key(
            db, t, table, key, status, now_ms, t_ms, is_shadow, report, hooks,
        )?;
    }
    Ok(())
}

/// The chain of rows reachable from `HEAD`, reconstructed from a scan
/// result, plus the reachable row-id set. `None` when the pointers form a
/// cycle — corruption no well-formed append/unlink history can produce.
fn reconstruct_chain(rows: &[Value]) -> Option<(Vec<&Value>, HashSet<&str>)> {
    let mut by_id: HashMap<&str, &Value> = HashMap::new();
    for row in rows {
        if let Some(id) = row.get_str(A_ROW_ID) {
            by_id.insert(id, row);
        }
    }
    let mut chain: Vec<&Value> = Vec::new();
    let mut cursor = by_id.get(ROW_HEAD).copied();
    while let Some(row) = cursor {
        chain.push(row);
        cursor = row.get_str(A_NEXT_ROW).and_then(|n| by_id.get(n)).copied();
        if chain.len() > rows.len() {
            return None; // Cycle: the walk outran the scan result.
        }
    }
    let reachable: HashSet<&str> = chain.iter().filter_map(|r| r.get_str(A_ROW_ID)).collect();
    Some((chain, reachable))
}

/// Records corruption a pass found — a cyclic chain, a malformed
/// `FinishTime` or `LogSteps`: a bump of the pass's `count` and of the
/// registry's `metric`, and the pass skips the item. Corruption is never a
/// transient race, and the item is left untouched, since part-collecting
/// damaged state could destroy evidence or live data; every gate fails on
/// a nonzero `core.gc.corrupt_*` count.
fn report_corruption(t: &Telemetry, metric: Metric, count: &mut usize) {
    *count += 1;
    t.add(metric, 1);
}

#[allow(
    clippy::too_many_arguments,
    reason = "internal helper mirroring Fig. 10's loop"
)]
fn collect_daal_key(
    db: &Database,
    t: &Telemetry,
    table: &str,
    key: &Arc<str>,
    status: &mut OwnerStatus<'_>,
    now_ms: u64,
    t_ms: u64,
    is_shadow: bool,
    report: &mut GcReport,
    hooks: &GcHooks<'_>,
) -> BeldiResult<()> {
    // Full (unprojected) rows: the GC inspects every log entry.
    let rows = db.query(table, &Value::from(key), &ScanRequest::all())?;
    let Some((chain, reachable)) = reconstruct_chain(&rows) else {
        report_corruption(t, Metric::GcCorruptChains, &mut report.corrupt_chains);
        return Ok(());
    };

    // Shadow chains: once *every* row (tail included) is recyclable the
    // whole chain — head and tail too, per §6.2 — is stamped and later
    // deleted wholesale.
    if is_shadow && !chain.is_empty() {
        let mut all_recyclable = true;
        for row in &chain {
            if !row_fully_recyclable(row, status)? {
                all_recyclable = false;
                break;
            }
        }
        if all_recyclable {
            for row in &chain {
                if row.get_int(A_DANGLE).is_none() {
                    stamp_dangle(db, table, key, row, now_ms)?;
                    report.disconnected_rows += 1;
                }
            }
            // Deletion still waits out the dangle period below, with
            // reachability ignored for shadow chains.
        }
    }

    // Step 4: disconnect fully recyclable interior rows (never the head,
    // never the tail). A row is unlinked through `prev`, the last row
    // this pass left on the chain: after unlinking a row, its successor's
    // predecessor is the unlinked row's, not the unlinked row itself.
    if chain.len() > 2 {
        let mut prev = chain[0];
        for &row in &chain[1..chain.len() - 1] {
            // Already disconnected and awaiting deletion, or still live.
            if row.get_int(A_DANGLE).is_some() || !row_fully_recyclable(row, status)? {
                prev = row;
                continue;
            }
            let (Some(row_id), Some(next), Some(prev_id)) = (
                row.get_shared_str(A_ROW_ID),
                row.get_shared_str(A_NEXT_ROW),
                prev.get_shared_str(A_ROW_ID),
            ) else {
                prev = row;
                continue;
            };
            // Unlink: prev.NextRow = row.NextRow, guarded so a concurrent
            // GC's earlier unlink is not clobbered.
            (hooks.probe)(Label::GcStep4PreUnlink);
            let prev_pk = PrimaryKey::hash_sort(key, prev_id);
            let cond = Cond::eq(A_NEXT_ROW, row_id);
            let update = Update::new().set(A_NEXT_ROW, next);
            #[expect(
                clippy::disallowed_methods,
                reason = "between Label::GcStep4PreUnlink and Label::GcPostDaal"
            )]
            match db.update(table, &prev_pk, &cond, &update) {
                Ok(()) => {}
                // A concurrent collector unlinked the row first: `prev`
                // still precedes what follows it.
                Err(DbError::ConditionFailed) => continue,
                Err(e) => return Err(e.into()),
            }
            stamp_dangle(db, table, key, row, now_ms)?;
            report.disconnected_rows += 1;
        }
    }

    // Orphans from failed appends: unreachable, never linked, older than
    // `T` (their creator has died). Stamp them dangling; deletion below
    // waits out another `T`.
    for row in &rows {
        let Some(row_id) = row.get_str(A_ROW_ID) else {
            continue;
        };
        if reachable.contains(row_id) || row.get_int(A_DANGLE).is_some() {
            continue;
        }
        let created = row.get_int(A_CREATED).unwrap_or(0) as u64;
        if now_ms.saturating_sub(created) > t_ms {
            stamp_dangle(db, table, key, row, now_ms)?;
            report.disconnected_rows += 1;
        }
    }

    // Step 5: delete rows that dangled for more than `T`; shadow chains
    // are deleted wholesale once stamped. Interior rows must additionally
    // be unreachable *at deletion time*: the pass-start snapshot is stale
    // by now — a concurrent collector working from its own pre-disconnect
    // view can re-link a dangling row while unlinking that row's
    // neighbour (its guarded `prev.NextRow` update still succeeds), so a
    // row this pass saw as unreachable may be back on the chain. The
    // dangle wait makes a *fresh* scan decisive: any view from before the
    // disconnect is now older than `T`, so its holder has died and no
    // further re-link of this row can occur.
    let candidates: Vec<&Arc<str>> = rows
        .iter()
        .filter(|row| daal::dangling_expired(row, now_ms, t_ms))
        .filter_map(|row| row.get_shared_str(A_ROW_ID))
        .collect();
    if candidates.is_empty() {
        return Ok(());
    }
    let fresh_rows;
    let fresh_reachable = if is_shadow {
        None // Shadow chains are stamped whole; reachability is moot.
    } else {
        (hooks.probe)(Label::GcStep5PreRescan);
        fresh_rows = db.query(table, &Value::from(key), &ScanRequest::all())?;
        let Some((_, fresh)) = reconstruct_chain(&fresh_rows) else {
            report_corruption(t, Metric::GcCorruptChains, &mut report.corrupt_chains);
            return Ok(());
        };
        Some(fresh)
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "between Label::GcStep5PreDelete and Label::GcPostDaal"
    )]
    for row_id in candidates {
        if let Some(fresh) = &fresh_reachable {
            if fresh.contains(&**row_id) {
                continue; // Re-linked since the pass snapshot: still live.
            }
        }
        (hooks.probe)(Label::GcStep5PreDelete);
        let pk = PrimaryKey::hash_sort(key, row_id);
        match db.delete(table, &pk, &Cond::True) {
            Ok(()) => report.deleted_rows += 1,
            Err(DbError::ConditionFailed) => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// True when every write-log entry in `row` belongs to a recyclable owner.
fn row_fully_recyclable(row: &Value, status: &mut OwnerStatus<'_>) -> BeldiResult<bool> {
    let Some(writes) = row.get_attr(A_WRITES).and_then(Value::as_map) else {
        return Ok(true); // Empty log.
    };
    for log_key in writes.keys() {
        let Some((owner, _)) = parse_log_key(log_key) else {
            return Ok(false); // Unparseable: be conservative.
        };
        if !status.is_recyclable(owner)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Stamps `DangleTime = now` on a row (idempotent-if-absent).
#[expect(
    clippy::disallowed_methods,
    reason = "steps 4–5 stamp between Label::GcPostLogPrune and Label::GcPostDaal"
)]
fn stamp_dangle(
    db: &Database,
    table: &str,
    key: &Arc<str>,
    row: &Value,
    now_ms: u64,
) -> BeldiResult<()> {
    let Some(row_id) = row.get_shared_str(A_ROW_ID) else {
        return Ok(());
    };
    let pk = PrimaryKey::hash_sort(key, row_id);
    let cond = Cond::not_exists(A_DANGLE).and(Cond::exists(A_KEY));
    let update = Update::new().set(A_DANGLE, Value::Int(now_ms as i64));
    match db.update(table, &pk, &cond, &update) {
        Ok(()) | Err(DbError::ConditionFailed) => Ok(()),
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BeldiConfig;
    use crate::env::{BeldiEnv, SsfBody};
    use crate::schema::{A_CLAIMANT, A_VALUE};
    use beldi_simclock::SimInstant;
    use beldi_simdb::MetricsSnapshot;
    use beldi_value::vmap;
    use std::cell::{Cell, RefCell};
    use std::time::Duration;

    /// A Beldi env with one registered SSF (`f`, table `t`) and a tiny `T`.
    fn env() -> BeldiEnv {
        let env =
            BeldiEnv::for_tests_with(BeldiConfig::beldi().with_t_max(Duration::from_millis(50)));
        env.register_ssf("f", &["t"], std::sync::Arc::new(|_, _| Ok(Value::Null)));
        env
    }

    /// Plants a raw DAAL row in `f`'s data table.
    fn plant_row(
        env: &BeldiEnv,
        row_id: &str,
        value: i64,
        next: Option<&str>,
        dangle: Option<i64>,
    ) {
        let mut row = vmap! {
            A_KEY => "k", A_ROW_ID => row_id, A_VALUE => value,
            crate::schema::A_LOG_SIZE => 0i64, A_CREATED => 0i64
        };
        let attrs = row.as_map_mut().unwrap();
        if row_id != ROW_HEAD {
            // As `daal::append_row` creates every non-head row.
            attrs.insert(A_APPENDED, Value::Bool(true));
        }
        if let Some(n) = next {
            attrs.insert(A_NEXT_ROW, Value::from(n));
        }
        if let Some(d) = dangle {
            attrs.insert(A_DANGLE, Value::Int(d));
        }
        #[expect(clippy::disallowed_methods, reason = "the test plants a row")]
        env.db().put("f.data.t", row).unwrap();
    }

    /// Regression for the step-5 snapshot-staleness bug: two collectors
    /// racing over adjacent interior rows can *re-link* a dangling row
    /// (pass P2 unlinks `B` via `A.NextRow = C` and stamps it; pass P1,
    /// still on its older view, unlinks `A` via `HEAD.NextRow = B` —
    /// putting the dangling `B` back on the chain). A later pass whose
    /// pass-start snapshot predates the re-link would then see `B` as
    /// unreachable with an expired dangle and delete it, severing the
    /// chain and losing the tail value. The fix re-reads the chain
    /// immediately before interior-row deletes; this test injects the
    /// re-link at exactly that point (the pre-rescan probe) and asserts
    /// the fresh scan vetoes the deletion.
    #[test]
    fn step5_rescans_before_deleting_interior_rows() {
        let e = env();
        let db = e.db().clone();
        // State as the racing passes left it: HEAD -> C, with B dangling
        // (expired) but about to be re-linked as HEAD -> B -> C.
        plant_row(&e, ROW_HEAD, 1, Some("C"), None);
        plant_row(&e, "B", 2, Some("C"), Some(1));
        plant_row(&e, "C", 3, None, None);
        e.clock().sleep(Duration::from_millis(120)); // Dangle waits expire.

        let relink = move |label: Label| {
            if label == Label::GcStep5PreRescan {
                // The stale-view collector's guarded unlink of A lands
                // now: HEAD.NextRow = B. B is reachable again.
                #[expect(
                    clippy::disallowed_methods,
                    reason = "the test plays a second collector"
                )]
                db.update(
                    "f.data.t",
                    &PrimaryKey::hash_sort("k", ROW_HEAD),
                    &Cond::True,
                    &Update::new().set(A_NEXT_ROW, "B"),
                )
                .unwrap();
            }
        };
        let hooks = GcHooks {
            crash: &|_| {},
            probe: &relink,
        };
        run_gc_with(e.test_core(), &e.test_ssf("f"), &hooks).unwrap();

        // B survived: the fresh scan saw it reachable. The chain is whole
        // and the tail value intact.
        let rows = e
            .db()
            .query("f.data.t", &Value::from("k"), &ScanRequest::all())
            .unwrap();
        assert!(
            rows.iter().any(|r| r.get_str(A_ROW_ID) == Some("B")),
            "re-linked row must not be deleted"
        );
        assert_eq!(
            daal::read_value(e.db(), "f.data.t", &"k".into()).unwrap(),
            Value::Int(3),
            "tail value lost — the chain was severed"
        );
        // Without the mutation the same pass deletes the expired orphan.
        let e2 = env();
        plant_row(&e2, ROW_HEAD, 1, Some("C"), None);
        plant_row(&e2, "B", 2, Some("C"), Some(1));
        plant_row(&e2, "C", 3, None, None);
        e2.clock().sleep(Duration::from_millis(120));
        let report = run_gc_with(e2.test_core(), &e2.test_ssf("f"), &GcHooks::none()).unwrap();
        assert_eq!(report.deleted_rows, 1, "expired unreachable row reclaimed");
    }

    /// Step 2 looks at `Id`, `Done`, `FinishTime` and `LogSteps`: what it
    /// reads must not depend on how large the intents' envelopes are.
    #[test]
    fn classify_scan_reads_the_same_bytes_whatever_the_envelopes_hold() {
        // `(bytes read by step 2, report)` of a pass before the horizon
        // and of the recycling pass, over five intents with `input`-sized
        // `Args` and `Ret`.
        let passes = |input: usize| {
            let e = BeldiEnv::for_tests_with(
                BeldiConfig::beldi().with_t_max(Duration::from_millis(50)),
            );
            e.register_ssf("echo", &[], std::sync::Arc::new(|_, input| Ok(input)));
            for i in 0..5 {
                let big = Value::from("x".repeat(input));
                e.invoke_as("echo", &format!("i-{i}"), big).unwrap();
            }
            let mut out = Vec::new();
            for _ in 0..2 {
                let start = e.db_metrics().bytes_read;
                let classify = Cell::new(0);
                let at_boundary = |label: Label| {
                    if label == Label::GcPostClassify {
                        classify.set(e.db_metrics().bytes_read - start);
                    }
                };
                let hooks = GcHooks {
                    crash: &at_boundary,
                    probe: &|_| {},
                };
                let report = run_gc_with(e.test_core(), &e.test_ssf("echo"), &hooks).unwrap();
                out.push((classify.get(), report));
                e.clock().sleep(Duration::from_millis(120));
            }
            assert_eq!(e.db().row_count("echo.intent").unwrap(), 0);
            out
        };
        let small = passes(16);
        assert_eq!(
            (small[0].1.recycled_intents, small[1].1.recycled_intents),
            (0, 5)
        );
        assert!(
            small[0].0 > 0 && small[0].0 < 5 * 40,
            "{} bytes",
            small[0].0
        );
        assert_eq!(passes(16 << 10), small);
    }

    /// Runs one pass over `ssf` and returns its report with what the store
    /// was charged for step 3: between `gc.post_classify` and
    /// `gc.post_log_prune`.
    fn step3_cost(e: &BeldiEnv, ssf: &str) -> (GcReport, MetricsSnapshot) {
        let (before, after) = (RefCell::new(None), RefCell::new(None));
        let at_boundary = |label: Label| match label {
            Label::GcPostClassify => *before.borrow_mut() = Some(e.db_metrics()),
            Label::GcPostLogPrune => *after.borrow_mut() = Some(e.db_metrics()),
            _ => {}
        };
        let hooks = GcHooks {
            crash: &at_boundary,
            probe: &|_| {},
        };
        let report = run_gc_with(e.test_core(), &e.test_ssf(ssf), &hooks).unwrap();
        let (before, after) = (before.take().unwrap(), after.take().unwrap());
        (report, after.delta(&before))
    }

    /// Step 3 reads nothing: it deletes the keys the done-marks list, one
    /// delete per logged entry, whatever kinds of entries an intent logged
    /// and in either logged mode. A transaction owner's finalize marker is
    /// a done intent that never ran and lists nothing; the instance that
    /// claimed it still has its entries deleted.
    #[test]
    fn log_prune_reads_nothing() {
        let read_write_invoke: SsfBody = Arc::new(|ctx, input| {
            ctx.read("t", "k")?;
            ctx.write("t", "k", input.clone())?;
            ctx.sync_invoke("leaf", input)
        });
        let transaction: SsfBody = Arc::new(|ctx, input| {
            ctx.begin_tx()?;
            ctx.write("t", "k", input)?;
            ctx.end_tx()?;
            Ok(Value::Null)
        });
        // (config, body, intents recycled: four instances, plus a
        // finalize marker each in the transaction case)
        for (cfg, body, intents) in [
            (BeldiConfig::beldi(), read_write_invoke.clone(), 4),
            (BeldiConfig::cross_table(), read_write_invoke, 4),
            (BeldiConfig::beldi(), transaction, 8),
        ] {
            let e = BeldiEnv::for_tests_with(cfg.with_t_max(Duration::from_millis(50)));
            e.register_ssf("leaf", &[], Arc::new(|_, input| Ok(input)));
            e.register_ssf("f", &["t"], body);
            for i in 0..4 {
                e.invoke_as("f", &format!("i-{i}"), Value::Int(i)).unwrap();
            }
            e.clock().sleep(Duration::from_millis(120));

            let logged = e.db().row_count("f.log").unwrap();
            assert!(logged >= 2 * 4, "{logged} entries");
            let (report, step3) = step3_cost(&e, "f");
            assert_eq!(report.recycled_intents, intents);
            assert_eq!((step3.queries, step3.gets, step3.scans), (0, 0, 0));
            assert_eq!(step3.deletes, logged as u64);
            assert_eq!(step3.cond_failures, 0);
            assert_eq!(report.deleted_log_entries, logged);
            assert_eq!(e.db().row_count("f.log").unwrap(), 0);
            assert_eq!(e.db().row_count("f.intent").unwrap(), 0);
        }
    }

    /// A pass killed after step 3 leaves its intents for the next pass,
    /// whose deletes find nothing: each entry is counted deleted once.
    #[test]
    fn a_pass_rerun_after_a_crash_past_step_3_counts_each_entry_once() {
        let e =
            BeldiEnv::for_tests_with(BeldiConfig::beldi().with_t_max(Duration::from_millis(50)));
        e.register_ssf(
            "f",
            &["t"],
            Arc::new(|ctx, _| {
                ctx.read("t", "k")?;
                ctx.logged_now_ms()?;
                Ok(Value::Null)
            }),
        );
        for i in 0..3 {
            e.invoke_as("f", &format!("i-{i}"), Value::Null).unwrap();
        }
        e.clock().sleep(Duration::from_millis(120));
        assert_eq!(e.db().row_count("f.log").unwrap(), 6);

        let before = RefCell::new(None);
        let deleted = Cell::new(0);
        let kill_after_step_3 = |label: Label| match label {
            Label::GcPostClassify => *before.borrow_mut() = Some(e.db_metrics()),
            Label::GcPostLogPrune => {
                let before = before.take().unwrap();
                deleted.set(e.db_metrics().delta(&before).deletes);
                panic!("collector killed after step 3");
            }
            _ => {}
        };
        let hooks = GcHooks {
            crash: &kill_after_step_3,
            probe: &|_| {},
        };
        let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_gc_with(e.test_core(), &e.test_ssf("f"), &hooks)
        }));
        assert!(killed.is_err());
        assert_eq!(deleted.get(), 6);
        assert_eq!(e.db().row_count("f.log").unwrap(), 0);
        assert_eq!(e.db().row_count("f.intent").unwrap(), 3);

        let rerun = run_gc(e.test_core(), &e.test_ssf("f")).unwrap();
        assert_eq!((rerun.recycled_intents, rerun.deleted_log_entries), (3, 0));
        assert_eq!(e.db().row_count("f.intent").unwrap(), 0);
    }

    /// Plants the done intent `bad` as `attrs` describe it, with a log entry
    /// at step 0, past any horizon; then two passes each count one corrupt
    /// intent, and the intent and its entry stay.
    fn assert_reported_not_collected(attrs: Value) {
        let e = env();
        #[expect(clippy::disallowed_methods, reason = "the test plants an intent")]
        e.db().put("f.intent", attrs.clone()).unwrap();
        #[expect(clippy::disallowed_methods, reason = "the test plants its log entry")]
        e.db()
            .put("f.log", vmap! { A_LOG_KEY => "bad#0", A_VALUE => 1i64 })
            .unwrap();
        e.clock().sleep(Duration::from_millis(120));

        for _ in 0..2 {
            let report = e.run_gc_once("f").unwrap();
            assert_eq!(report.corrupt_intents, 1, "{report:?}");
            assert_eq!(report.recycled_intents, 0, "{report:?}");
        }
        // Each pass counted the intent where it found it.
        let t = e.telemetry();
        assert_eq!(t.get(Metric::GcPasses), 2);
        assert_eq!(t.get(Metric::GcCorruptIntents), 2, "{t:?}");
        assert_eq!(e.db().row_count("f.intent").unwrap(), 1, "{attrs}");
        assert_eq!(e.db().row_count("f.log").unwrap(), 1, "{attrs}");
    }

    /// A done intent whose `LogSteps` is not a list of step numbers is
    /// corruption: a `corrupt_intents` count, and the intent and its
    /// entries stay.
    #[test]
    fn a_malformed_log_step_list_is_reported_not_collected() {
        for bad in [
            Value::from("0"),
            Value::List(vec![Value::Int(0), Value::Bool(true)]),
            Value::List(vec![Value::Int(-1)]),
        ] {
            let intent = vmap! {
                A_ID => "bad", A_DONE => true, A_FINISH => 0i64, A_LOG_STEPS => bad
            };
            assert_reported_not_collected(intent);
        }
    }

    /// A done intent whose `FinishTime` is absent, not an int or negative
    /// is corruption, whatever its age: the same report as a malformed
    /// `LogSteps`.
    #[test]
    fn a_malformed_finish_time_is_reported_not_collected() {
        for bad in [None, Some(Value::from("0")), Some(Value::Int(-1))] {
            let mut intent = vmap! {
                A_ID => "bad", A_DONE => true, A_LOG_STEPS => Value::List(vec![Value::Int(0)])
            };
            if let Some(finish) = bad {
                intent.as_map_mut().unwrap().insert(A_FINISH, finish);
            }
            assert_reported_not_collected(intent);
        }
    }

    /// No pass writes: the done-mark set the finish time. Before the
    /// horizon a pass costs its classify scan and nothing else; past it,
    /// over `N` done intents with `K` listed steps each, it costs the same
    /// scan pages, `N·K` log deletes and `N` intent deletes.
    #[test]
    fn a_pass_writes_nothing() {
        const N: usize = 40; // Over one scan page.
        const K: usize = 3;
        let e = BeldiEnv::for_tests_with(BeldiConfig::beldi().with_t_max(Duration::from_secs(60)));
        e.register_ssf(
            "f",
            &[],
            Arc::new(|ctx, _| {
                for _ in 0..K {
                    ctx.logged_now_ms()?;
                }
                Ok(Value::Null)
            }),
        );
        for i in 0..N {
            e.invoke_as("f", &format!("i-{i}"), Value::Null).unwrap();
        }
        let pass = || {
            let before = e.db_metrics();
            let report = run_gc(e.test_core(), &e.test_ssf("f")).unwrap();
            (report, e.db_metrics().delta(&before))
        };

        let (young, scan) = pass();
        assert_eq!(young, GcReport::default());
        assert!(scan.scans >= 2, "{scan:?}");
        assert_eq!(
            (scan.gets, scan.queries, scan.writes, scan.deletes),
            (0, 0, 0, 0)
        );

        e.clock().sleep(Duration::from_secs(150));
        let (old, cost) = pass();
        assert_eq!((old.recycled_intents, old.deleted_log_entries), (N, N * K));
        assert_eq!((cost.writes, cost.bytes_written), (0, 0), "{cost:?}");
        assert_eq!(cost.deletes, (N + N * K) as u64);
        assert_eq!(
            (cost.scans, cost.gets, cost.queries, cost.cond_failures),
            (scan.scans, 0, 0, 0)
        );
        assert_eq!(e.db().row_count("f.intent").unwrap(), 0);
    }

    /// The horizon is exact: an intent whose done-mark ran at `t` survives
    /// a pass at `t + T` and is recycled by a pass at `t + T + 1 ms`.
    #[test]
    fn the_horizon_is_exact() {
        let e =
            BeldiEnv::for_tests_with(BeldiConfig::beldi().with_t_max(Duration::from_millis(50)));
        e.register_ssf(
            "f",
            &[],
            Arc::new(|ctx, _| Ok(Value::Int(ctx.logged_now_ms()? as i64))),
        );
        e.invoke_as("f", "i", Value::Null).unwrap();
        let row = e.db().get("f.intent", &PrimaryKey::hash("i"), None);
        let done_at = row.unwrap().unwrap().get_int(A_FINISH).unwrap() as u64;
        let pass_at = |ms: u64| {
            e.clock().sleep_until(SimInstant::from_millis(ms));
            assert_eq!(e.clock().now().as_millis(), ms);
            run_gc(e.test_core(), &e.test_ssf("f")).unwrap()
        };
        assert_eq!(pass_at(done_at + 50).recycled_intents, 0);
        assert_eq!(pass_at(done_at + 51).recycled_intents, 1);
        assert_eq!(e.db().row_count("f.intent").unwrap(), 0);
    }

    /// A transaction owner's finalize marker is a done intent like any
    /// other: the claim sets its finish time, and it is recycled with its
    /// claimant.
    #[test]
    fn a_finalize_marker_carries_its_finish_time_and_goes_with_its_claimant() {
        let e =
            BeldiEnv::for_tests_with(BeldiConfig::beldi().with_t_max(Duration::from_millis(50)));
        e.register_ssf(
            "f",
            &["t"],
            Arc::new(|ctx, input| {
                ctx.begin_tx()?;
                ctx.write("t", "k", input)?;
                ctx.end_tx()?;
                Ok(Value::Null)
            }),
        );
        e.invoke_as("f", "owner", Value::Int(1)).unwrap();
        let rows = e.db().scan_all("f.intent", &ScanRequest::all()).unwrap();
        assert_eq!(rows.len(), 2);
        let finish_of = |pick: &dyn Fn(&Value) -> bool| {
            let row = rows.iter().find(|r| pick(r)).expect("the row");
            row.get_int(A_FINISH).expect("a finish time") as u64
        };
        let claimed_at = finish_of(&|r| r.get_str(A_CLAIMANT) == Some("owner"));
        let done_at = finish_of(&|r| r.get_str(A_ID) == Some("owner"));
        assert!(claimed_at <= done_at, "{claimed_at} > {done_at}");

        e.clock().sleep_until(SimInstant::from_millis(done_at + 51));
        let report = run_gc(e.test_core(), &e.test_ssf("f")).unwrap();
        assert_eq!((report.recycled_intents, report.corrupt_intents), (2, 0));
        assert_eq!(e.db().row_count("f.intent").unwrap(), 0);
    }

    /// The cycle guard: a fabricated cyclic chain is counted, in every
    /// build, and never part-collected.
    #[test]
    fn cyclic_chain_is_reported_not_collected() {
        let e = env();
        plant_row(&e, ROW_HEAD, 1, Some("R1"), None);
        plant_row(&e, "R1", 2, Some("R1"), None); // Self-loop.
        let report = run_gc_with(e.test_core(), &e.test_ssf("f"), &GcHooks::none()).unwrap();
        assert_eq!(report.corrupt_chains, 1, "{report:?}");
        // Every entry point counts the pass and the chain it found; the
        // pass itself succeeds.
        let t = e.telemetry();
        let counts =
            || [Metric::GcPasses, Metric::GcErrors, Metric::GcCorruptChains].map(|m| t.get(m));
        assert_eq!(counts(), [1, 0, 1]);
        let again = e.run_gc_once("f").unwrap();
        assert_eq!(again.corrupt_chains, 1, "{again:?}");
        assert_eq!(counts(), [2, 0, 2]);
        // Both rows still present: nothing was part-collected.
        let rows = e
            .db()
            .query("f.data.t", &Value::from("k"), &ScanRequest::all())
            .unwrap();
        assert_eq!(rows.len(), 2);
    }

    /// `reconstruct_chain` itself: well-formed chains walk head→tail;
    /// cyclic pointer graphs return `None` (the counted path) instead of
    /// a truncated chain.
    #[test]
    fn reconstruct_chain_detects_cycles() {
        let rows = vec![
            vmap! { A_ROW_ID => ROW_HEAD, A_NEXT_ROW => "A" },
            vmap! { A_ROW_ID => "A", A_NEXT_ROW => "B" },
            vmap! { A_ROW_ID => "B" },
            vmap! { A_ROW_ID => "orphan" },
        ];
        let (chain, reachable) = reconstruct_chain(&rows).expect("acyclic");
        assert_eq!(chain.len(), 3);
        assert!(reachable.contains("B") && !reachable.contains("orphan"));

        let cyclic = vec![
            vmap! { A_ROW_ID => ROW_HEAD, A_NEXT_ROW => "A" },
            vmap! { A_ROW_ID => "A", A_NEXT_ROW => ROW_HEAD },
        ];
        assert!(reconstruct_chain(&cyclic).is_none());
    }
}
