//! The garbage collector (§5, Fig. 10).
//!
//! Left alone, the linked DAAL, the log and the intent table grow
//! without bound. The GC — a timer-triggered serverless function per SSF —
//! prunes them *without blocking concurrent SSF, IC, or other GC
//! instances*, relying on one synchrony assumption: an SSF instance lives
//! at most `T` (derivable from the platform's execution timeout).
//!
//! A pass performs the paper's six steps:
//!
//! 1. stamp a finish time on intents that completed since the last pass;
//! 2. classify intents whose finish time is older than `T` as
//!    *recyclable* — no live instance can still need their logs;
//! 3. delete the recyclable intents' log entries — one owner-index query
//!    per intent that ran finds its read, invoke and (cross-table mode)
//!    write entries together, since an SSF keeps them in one table;
//! 4. disconnect non-tail DAAL rows whose write logs are fully
//!    recyclable, stamping them with a dangling time;
//! 5. delete disconnected rows whose dangling time is older than `T`
//!    and that are no longer reachable from the head (stragglers holding
//!    references have died by then);
//! 6. delete the recyclable intent rows themselves — last, so that a log
//!    entry whose owner is *absent* from the intent table is provably
//!    recyclable (its intent was removed by an earlier completed pass).
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

use beldi_simdb::{Database, DbError, PrimaryKey, Projection, ScanRequest};
use beldi_value::{Cond, Update, Value};

use crate::config::Mode;
use crate::daal;
use crate::env::{EnvCore, Ssf};
use crate::error::BeldiResult;
use crate::ids::{is_finalize_marker, parse_log_key};
use crate::intent;
use crate::schema::{
    A_APPENDED, A_CREATED, A_DANGLE, A_DONE, A_FINISH, A_ID, A_KEY, A_LOG_KEY, A_NEXT_ROW, A_OWNER,
    A_ROW_ID, A_WRITES, ROW_HEAD,
};
use crate::Label;

/// Summary of one garbage-collector pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Intents whose finish time was stamped this pass.
    pub finish_stamped: usize,
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
}

impl GcReport {
    /// Accumulates another pass's counters into this report (the
    /// aggregation behind [`crate::GcTotals`]).
    pub fn absorb(&mut self, other: &GcReport) {
        self.finish_stamped += other.finish_stamped;
        self.recycled_intents += other.recycled_intents;
        self.deleted_log_entries += other.deleted_log_entries;
        self.disconnected_rows += other.disconnected_rows;
        self.deleted_rows += other.deleted_rows;
        self.corrupt_chains += other.corrupt_chains;
    }
}

/// Observation hooks threaded through a GC pass.
///
/// `crash` is the fault-injection surface: it fires at a **fixed set of
/// step-boundary labels** (`gc.enter`, `gc.post_classify`,
/// `gc.post_log_prune`, `gc.post_daal`, `gc.exit` — exactly five per
/// pass, independent of how much work the pass found), so the
/// crash-schedule explorer's global stream stays deterministic while
/// still killing collectors between any two of the paper's six steps.
/// `probe` fires at fine-grained, work-dependent points (per unlink, per
/// delete) and exists for tests that need to interleave mutations inside
/// a pass; production passes a no-op.
pub(crate) struct GcHooks<'a> {
    /// Fault-injection crash points (fixed count per pass).
    pub crash: &'a dyn Fn(Label),
    /// Test-only interleaving probe (work-dependent points).
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

/// Runs one GC pass for `ssf`, firing `hooks` along the way.
pub(crate) fn run_gc_with(
    core: &Arc<EnvCore>,
    ssf: &Ssf,
    hooks: &GcHooks<'_>,
) -> BeldiResult<GcReport> {
    let db = &core.db;
    let now_ms = core.platform.clock().now().as_millis();
    // Recycle horizon. Under cooperative `T_max` enforcement the lease is
    // checked at crash probes, so a zombie is killed at its first probe
    // *past* the deadline — one last logged write can land just after
    // `launch + T_max`, i.e. just after `finish + T_max`, which is exactly
    // where a single-`T_max` horizon would already have pruned the log
    // entry that makes the straggler's re-apply a no-op. Doubling the
    // horizon puts pruning strictly after the last possible zombie write
    // (and after the last client retry, which stops `T_max` past the first
    // attempt — see `BeldiEnv::invoke_attempts`), closing the
    // duplicate-effect window a long crash storm surfaced.
    let t_ms = core.config.t_max.as_millis() as u64;
    let t_ms = if core.config.enforce_t_max {
        t_ms.saturating_mul(2)
    } else {
        t_ms
    };
    let intent_table = &*ssf.intent_table;
    let mut report = GcReport::default();
    (hooks.crash)(Label::GcEnter);

    // Steps 1–2: stamp finish times; classify recyclable intents. A pass
    // may be bounded (Appendix A): collectors are SSFs with execution
    // timeouts, so the remainder waits for later passes.
    let batch_limit = core.config.collector_batch_limit.unwrap_or(usize::MAX);
    let mut recyclable: Vec<Arc<str>> = Vec::new();
    // Classifying needs three small attributes; the envelopes (`Args`,
    // `Ret`) that make up most of an intent row stay in the store.
    let classify = ScanRequest::all().with_projection(Projection::attrs([A_ID, A_DONE, A_FINISH]));
    for row in db.scan_all(intent_table, &classify)? {
        let Some(id) = row.get_shared_str(A_ID) else {
            continue;
        };
        if !row.get_bool(A_DONE).unwrap_or(false) {
            continue;
        }
        match row.get_int(A_FINISH).map(|f| f as u64) {
            None if report.finish_stamped < batch_limit => {
                intent::stamp_finish(db, intent_table, id, now_ms)?;
                report.finish_stamped += 1;
            }
            None => {}
            Some(f) if now_ms.saturating_sub(f) > t_ms && recyclable.len() < batch_limit => {
                recyclable.push(id.clone());
            }
            Some(_) => {}
        }
    }
    (hooks.crash)(Label::GcPostClassify);

    // Step 3: prune the log entries of the recyclable intents that ran.
    for owner in recyclable.iter().filter(|id| !is_finalize_marker(id)) {
        report.deleted_log_entries += delete_log_entries_of(db, &ssf.log_table, owner)?;
    }
    (hooks.crash)(Label::GcPostLogPrune);

    // Steps 4–5: DAAL maintenance (Beldi mode only; cross-table and
    // baseline data tables are single rows with no log to prune).
    if core.config.mode == Mode::Beldi {
        let mut status = OwnerStatus {
            db,
            intent_table,
            recyclable: recyclable.iter().cloned().collect(),
            cache: HashMap::new(),
        };
        for table in &ssf.tables {
            collect_daal_table(
                db,
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
    for id in &recyclable {
        intent::delete(db, intent_table, id)?;
        core.platform.faults().forget(id);
        report.recycled_intents += 1;
    }
    (hooks.crash)(Label::GcExit);
    Ok(report)
}

/// Deletes every entry of `owner` in the log table (via the owner index,
/// read keys-only: the delete needs nothing but the log key).
fn delete_log_entries_of(db: &Database, table: &str, owner: &Arc<str>) -> BeldiResult<usize> {
    let keys_only = ScanRequest::all().with_projection(Projection::attrs([A_LOG_KEY]));
    let rows = db.index_query(table, A_OWNER, &Value::from(owner), &keys_only)?;
    let mut deleted = 0;
    for row in rows {
        if let Some(lk) = row.get_shared_str(A_LOG_KEY) {
            // beldi-lint: allow(crash-points/coverage, bracketed by gc.post_classify and
            // gc.post_log_prune in run_gc_with; per-entry probes would make the pass
            // probe count work-dependent and break the fixed global crash stream)
            match db.delete(table, &PrimaryKey::hash(lk), &Cond::True) {
                Ok(()) => deleted += 1,
                Err(DbError::ConditionFailed) => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
    Ok(deleted)
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
            db, table, key, status, now_ms, t_ms, is_shadow, report, hooks,
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

/// Records a cyclic (corrupt) chain: counter bump, hard error in debug
/// builds, `Ok` in release so the pass skips the key. A cycle is
/// corruption, never a transient race — the key is left untouched
/// either way, since part-collecting a damaged chain could destroy
/// evidence or live data.
fn report_corrupt_chain(
    report: &mut GcReport,
    table: &str,
    key: &str,
    context: &str,
) -> BeldiResult<()> {
    report.corrupt_chains += 1;
    if cfg!(debug_assertions) {
        return Err(crate::error::BeldiError::Protocol(format!(
            "GC {context} found a cyclic DAAL chain at {table}/{key}"
        )));
    }
    Ok(())
}

#[allow(
    clippy::too_many_arguments,
    reason = "internal helper mirroring Fig. 10's loop"
)]
fn collect_daal_key(
    db: &Database,
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
        return report_corrupt_chain(report, table, key, "pass scan");
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
    // never the tail).
    if chain.len() > 2 {
        for i in 1..chain.len() - 1 {
            let row = chain[i];
            if row.get_int(A_DANGLE).is_some() {
                continue; // Already disconnected, awaiting deletion.
            }
            if !row_fully_recyclable(row, status)? {
                continue;
            }
            let (Some(row_id), Some(next)) =
                (row.get_shared_str(A_ROW_ID), row.get_shared_str(A_NEXT_ROW))
            else {
                continue;
            };
            let Some(prev_id) = chain[i - 1].get_shared_str(A_ROW_ID) else {
                continue;
            };
            // Unlink: prev.NextRow = row.NextRow, guarded so a concurrent
            // GC's earlier unlink is not clobbered.
            (hooks.probe)(Label::GcStep4PreUnlink);
            let prev_pk = PrimaryKey::hash_sort(key, prev_id);
            let cond = Cond::eq(A_NEXT_ROW, row_id);
            let update = Update::new().set(A_NEXT_ROW, next);
            match db.update(table, &prev_pk, &cond, &update) {
                Ok(()) => {}
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
            return report_corrupt_chain(report, table, key, "step-5 re-scan");
        };
        Some(fresh)
    };
    for row_id in candidates {
        if let Some(fresh) = &fresh_reachable {
            if fresh.contains(&**row_id) {
                continue; // Re-linked since the pass snapshot: still live.
            }
        }
        (hooks.probe)(Label::GcStep5PreDelete);
        let pk = PrimaryKey::hash_sort(key, row_id);
        // beldi-lint: allow(crash-points/coverage, gc.step5.pre_delete fires before
        // each delete; gc.post_daal fires after the sweep in run_gc_with)
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
    // beldi-lint: allow(crash-points/coverage, dangle stamping sits between the
    // gc.post_classify and gc.post_daal step-boundary probes in run_gc_with)
    match db.update(table, &pk, &cond, &update) {
        Ok(()) | Err(DbError::ConditionFailed) => Ok(()),
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BeldiConfig;
    use crate::env::BeldiEnv;
    use crate::schema::A_VALUE;
    use beldi_value::vmap;
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

    /// Steps 1–2 look at `Id`, `Done` and `FinishTime`: what they read
    /// must not depend on how large the intents' envelopes are.
    #[test]
    fn classify_scan_reads_the_same_bytes_whatever_the_envelopes_hold() {
        use std::cell::Cell;
        // `(bytes read by steps 1–2, report)` of the stamping pass and of
        // the recycling pass, over five intents with `input`-sized `Args`
        // and `Ret`.
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
            (small[0].1.finish_stamped, small[1].1.recycled_intents),
            (5, 5)
        );
        assert!(
            small[0].0 > 0 && small[0].0 < 5 * 40,
            "{} bytes",
            small[0].0
        );
        assert_eq!(passes(16 << 10), small);
    }

    /// Step 3 asks the store once per recyclable intent, whatever kinds
    /// of entries the intent logged: they are all in `{ssf}.log`.
    #[test]
    fn log_prune_queries_once_per_recyclable_intent() {
        use std::cell::Cell;
        for cfg in [BeldiConfig::beldi(), BeldiConfig::cross_table()] {
            let e = BeldiEnv::for_tests_with(cfg.with_t_max(Duration::from_millis(50)));
            e.register_ssf("leaf", &[], std::sync::Arc::new(|_, input| Ok(input)));
            e.register_ssf(
                "f",
                &["t"],
                std::sync::Arc::new(|ctx, input| {
                    ctx.read("t", "k")?;
                    ctx.write("t", "k", input.clone())?;
                    ctx.sync_invoke("leaf", input)
                }),
            );
            for i in 0..4 {
                e.invoke_as("f", &format!("i-{i}"), Value::Int(i)).unwrap();
            }
            run_gc(e.test_core(), &e.test_ssf("f")).unwrap(); // Stamps the finish times.
            e.clock().sleep(Duration::from_millis(120));

            let (before, after) = (Cell::new(0), Cell::new(0));
            let at_boundary = |label: Label| {
                if label == Label::GcPostClassify {
                    before.set(e.db_metrics().queries);
                } else if label == Label::GcPostLogPrune {
                    after.set(e.db_metrics().queries);
                }
            };
            let hooks = GcHooks {
                crash: &at_boundary,
                probe: &|_| {},
            };
            let report = run_gc_with(e.test_core(), &e.test_ssf("f"), &hooks).unwrap();
            assert_eq!(report.recycled_intents, 4);
            assert!(report.deleted_log_entries >= 2 * 4, "{report:?}");
            assert_eq!(after.get() - before.get(), 4, "one owner query each");
        }
    }

    /// A transaction's finalize marker is a done intent that never ran:
    /// step 3 recycles it without asking the owner index about it, and the
    /// instance that claimed it still has its entries deleted.
    #[test]
    fn finalize_marker_costs_no_owner_query() {
        use std::cell::Cell;
        let e =
            BeldiEnv::for_tests_with(BeldiConfig::beldi().with_t_max(Duration::from_millis(50)));
        e.register_ssf(
            "f",
            &["t"],
            std::sync::Arc::new(|ctx, input| {
                ctx.begin_tx()?;
                ctx.write("t", "k", input)?;
                ctx.end_tx()?;
                Ok(Value::Null)
            }),
        );
        e.invoke_as("f", "i-0", Value::Int(1)).unwrap();
        let intents = e.db().scan_all("f.intent", &ScanRequest::all()).unwrap();
        let marker = intents
            .iter()
            .find(|r| r.get_str(A_ID).is_some_and(is_finalize_marker))
            .expect("the transaction claimed its marker");
        assert_eq!(marker.get_str(crate::schema::A_CLAIMANT), Some("i-0"));
        assert_eq!(intents.len(), 2);
        assert!(e.db().row_count("f.log").unwrap() > 0);
        run_gc(e.test_core(), &e.test_ssf("f")).unwrap(); // Stamps the finish times.
        e.clock().sleep(Duration::from_millis(120));

        let (before, after) = (Cell::new(0), Cell::new(0));
        let at_boundary = |label: Label| {
            if label == Label::GcPostClassify {
                before.set(e.db_metrics().queries);
            } else if label == Label::GcPostLogPrune {
                after.set(e.db_metrics().queries);
            }
        };
        let hooks = GcHooks {
            crash: &at_boundary,
            probe: &|_| {},
        };
        let report = run_gc_with(e.test_core(), &e.test_ssf("f"), &hooks).unwrap();
        assert_eq!(report.recycled_intents, 2);
        assert_eq!(after.get() - before.get(), 1, "the claimant's query only");
        assert!(report.deleted_log_entries > 0, "{report:?}");
        assert_eq!(e.db().row_count("f.log").unwrap(), 0);
        assert_eq!(e.db().row_count("f.intent").unwrap(), 0);
    }

    /// The cycle guard: a fabricated cyclic chain must surface loudly —
    /// an error in debug builds (this test), a `corrupt_chains` count in
    /// release — and never be part-collected.
    #[test]
    fn cyclic_chain_is_reported_not_collected() {
        let e = env();
        plant_row(&e, ROW_HEAD, 1, Some("R1"), None);
        plant_row(&e, "R1", 2, Some("R1"), None); // Self-loop.
        let result = run_gc_with(e.test_core(), &e.test_ssf("f"), &GcHooks::none());
        // Tests compile with debug assertions: corruption is a hard error.
        let err = result.expect_err("debug builds fail loudly on corruption");
        assert!(err.to_string().contains("cycl"), "{err}");
        // The env-level totals record the failed pass.
        assert_eq!(e.gc_totals().errors, 0, "run_gc_with bypasses totals");
        let env_err = e.run_gc_once("f").expect_err("same corruption via env");
        assert!(env_err.to_string().contains("cycl"));
        assert_eq!(e.gc_totals().passes, 1);
        assert_eq!(e.gc_totals().errors, 1);
        // Both rows still present: nothing was part-collected.
        let rows = e
            .db()
            .query("f.data.t", &Value::from("k"), &ScanRequest::all())
            .unwrap();
        assert_eq!(rows.len(), 2);
    }

    /// `reconstruct_chain` itself: well-formed chains walk head→tail;
    /// cyclic pointer graphs return `None` (the release-mode counter
    /// path) instead of a truncated chain.
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

    /// GcReport aggregation used by the env totals.
    #[test]
    fn gc_report_absorb_sums_every_counter() {
        let a = GcReport {
            finish_stamped: 1,
            recycled_intents: 2,
            deleted_log_entries: 3,
            disconnected_rows: 4,
            deleted_rows: 5,
            corrupt_chains: 6,
        };
        let mut total = a;
        total.absorb(&a);
        assert_eq!(
            total,
            GcReport {
                finish_stamped: 2,
                recycled_intents: 4,
                deleted_log_entries: 6,
                disconnected_rows: 8,
                deleted_rows: 10,
                corrupt_chains: 12,
            }
        );
    }
}
