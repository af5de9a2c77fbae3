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
//! DESIGN §10 has why the done-mark's clock is as safe as a pass's stamp
//! and why the list in step 3 is complete. An intent whose done-mark
//! breaks its decode rule (`schema::DoneMark`) is counted and stays.
//!
//! Steps 4–5 do not walk the store: in a data table they visit only the
//! keys a sparse index over appended rows lists (`Sweep::table` has the
//! exactness argument), so a pass costs what its garbage costs.
//!
//! A shadow chain (§6.2) goes whole with its transaction's finalize
//! marker in its SSF ([`finalize_marker`]), in the pass that recycles it,
//! with no owner probe, stamp or dangle wait; a marker an owner claimed
//! waits for its claimant, whose finalize may re-run. With no marker in
//! step 2's scan, a chain stays while its item's lock is its
//! transaction's, which only finalize, after claiming the marker,
//! releases, or while a get finds the marker claimed since the scan.
//!
//! The GC needs only at-least-once semantics (Fig. 10 note): every action
//! is an idempotent conditional update or delete.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use beldi_simclock::{Metric, Op, Telemetry};
use beldi_simdb::{Database, DbError, PrimaryKey, Projection, ScanRequest, TableRef};
use beldi_value::{Cond, Update, Value};

use crate::config::Mode;
use crate::daal;
use crate::env::{EnvCore, Ssf, SsfTable};
use crate::error::BeldiResult;
use crate::ids::{finalize_marker, log_key, parse_log_key};
use crate::intent;
use crate::schema::{
    self, DaalRow, DoneMark, ShadowRef, A_APPENDED, A_DANGLE, A_ID, A_KEY, A_LOG_KEY, A_NEXT_ROW,
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
    /// Corrupt DAAL chains — a row that breaks its decode rule, or
    /// `NextRow` pointers that loop — encountered and skipped. A non-zero
    /// count means the store is damaged and the key was left untouched
    /// rather than part-collected.
    pub corrupt_chains: usize,
    /// Intents left in place, with their log entries, because their
    /// done-mark breaks its decode rule (`schema::DoneMark`; `LogSteps`
    /// is read only past the horizon). A non-zero count means the store is
    /// damaged.
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
    let intent_table = &ssf.intent_table;
    let mut report = GcReport::default();
    (hooks.crash)(Label::GcEnter);

    // Step 2: classify recyclable intents: done, and finished longer than
    // the horizon ago. Each with the steps its done-mark lists and, for a
    // claimed finalize marker, its claimant.
    let mut recyclable = Vec::new();
    // Classifying needs the done-mark's five small attributes; the
    // envelopes (`Ret`, and `Args` until the done-mark) that make up most
    // of an intent row stay in the store.
    let classify = ScanRequest::all().with_projection(Projection::attrs(DoneMark::ATTRS));
    let step = t.op(Op::GcClassify, &ssf.name);
    let intents = db.scan_all(intent_table, &classify)?;
    for row in &intents {
        // A corrupt done-mark leaves when the intent may go, or what it
        // owns in the log, unknown: it and its entries stay.
        let Ok(mark) = DoneMark::decode(intent_table.name(), row) else {
            report_corruption(t, Metric::GcCorruptIntents, &mut report.corrupt_intents);
            continue;
        };
        if mark
            .finished_ms
            .is_none_or(|f| now_ms.saturating_sub(f) <= t_ms)
        {
            continue;
        }
        match mark.log_steps() {
            Ok(steps) => recyclable.push((mark.id.clone(), steps, mark.claimant.cloned())),
            Err(_) => report_corruption(t, Metric::GcCorruptIntents, &mut report.corrupt_intents),
        }
    }
    // A claim goes once its claimant goes in this pass or has gone: one
    // whose claimant stays leaves `gone` and the list.
    let mut gone: HashSet<Arc<str>> = recyclable.iter().map(|(id, ..)| id.clone()).collect();
    recyclable.retain(|(id, _, claimant)| match claimant {
        Some(owner) if !gone.contains(owner) && listed(&intents, owner) => !gone.remove(id),
        _ => true,
    });
    drop(step);
    (hooks.crash)(Label::GcPostClassify);

    // Step 3: delete the log entries the recyclable intents' done-marks
    // list. The condition keeps a pass re-run after a crash here from
    // counting an entry twice.
    let present = Cond::exists(A_LOG_KEY);
    let step = t.op(Op::GcLogPrune, &ssf.name);
    #[expect(
        clippy::disallowed_methods,
        reason = "between Label::GcPostClassify and Label::GcPostLogPrune"
    )]
    for (id, steps, _) in &recyclable {
        for &step in steps {
            let pk = PrimaryKey::hash(log_key(id, step));
            match db.delete(&ssf.log_table, &pk, &present) {
                Ok(()) => report.deleted_log_entries += 1,
                Err(DbError::ConditionFailed) => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
    drop(step);
    (hooks.crash)(Label::GcPostLogPrune);

    // Steps 4–5: DAAL maintenance (Beldi mode only; cross-table and
    // baseline data tables are single rows with no log to prune).
    if core.config.mode == Mode::Beldi {
        let _step = t.op(Op::GcDaal, &ssf.name);
        let mut sweep = Sweep {
            db,
            t,
            now_ms,
            t_ms,
            hooks,
            report: &mut report,
            intent_table,
            recyclable: gone,
            intents: &intents,
            absent: HashMap::new(),
        };
        for table in &ssf.tables {
            sweep.table(&table.data)?;
            sweep.shadow(&ssf.name, table)?;
        }
    }
    (hooks.crash)(Label::GcPostDaal);

    // Step 6: remove the recycled intents themselves — and, with each,
    // what the fault injector kept about the instance. From here on the
    // id can only come back as a zombie past its lease, whose counters
    // start over. Each delete runs in its intent's scope, so the run
    // record names the instance it recycles.
    for (id, ..) in &recyclable {
        let _step = t.op(Op::GcRecycle, id);
        intent::delete(db, intent_table, id)?;
        core.platform.faults().forget(id);
        report.recycled_intents += 1;
    }
    (hooks.crash)(Label::GcExit);
    Ok(report)
}

/// Steps 4–5 of one pass, table by table: what they share.
struct Sweep<'a> {
    db: &'a Database,
    t: &'a Telemetry,
    now_ms: u64,
    t_ms: u64,
    hooks: &'a GcHooks<'a>,
    report: &'a mut GcReport,
    intent_table: &'a TableRef,
    /// The intents this pass recycles.
    recyclable: HashSet<Arc<str>>,
    /// Step 2's read of the intent table.
    intents: &'a [Value],
    /// Owners probed so far: whether each is absent from the intent table.
    absent: HashMap<String, bool>,
}

impl Sweep<'_> {
    /// Collects one DAAL table: disconnect fully recyclable non-tail rows,
    /// then delete rows that have dangled for more than `T`.
    ///
    /// Everything steps 4–5 can touch — an interior row, a dangle-stamped
    /// row, the orphan of a lost append, a cyclic chain — is or requires a
    /// non-head row, and every non-head row carries [`A_APPENDED`]. So the
    /// sparse index on it lists exactly the keys with anything to collect,
    /// and a pass costs what its garbage costs.
    fn table(&mut self, table: &TableRef) -> BeldiResult<()> {
        // One index entry per non-head row, in key order: a key's rows are
        // adjacent, so `dedup` leaves each key once.
        let keys_only = ScanRequest::all().with_projection(Projection::attrs([A_KEY]));
        let mut keys = self
            .db
            .index_query(table, A_APPENDED, &Value::Bool(true), &keys_only)?;
        keys.dedup();
        for key in keys
            .iter()
            .filter_map(|row| row.get_attr(A_KEY)?.as_shared_str())
        {
            self.key(table, key)?;
        }
        Ok(())
    }

    fn key(&mut self, table: &TableRef, key: &Arc<str>) -> BeldiResult<()> {
        let (db, now_ms, t_ms) = (self.db, self.now_ms, self.t_ms);
        // Full (unprojected) rows: the GC inspects every log entry.
        let rows = db.query(table, &Value::from(key), &ScanRequest::all())?;
        let Some((rows, chain, reachable)) = reconstruct_chain(table.name(), key, &rows) else {
            return self.corrupt_chain();
        };

        // Step 4: disconnect fully recyclable interior rows (never the
        // head, never the tail). A row is unlinked through `prev`, the last
        // row this pass left on the chain: after unlinking a row, its
        // successor's predecessor is the unlinked row's.
        if chain.len() > 2 {
            let mut prev = &rows[chain[0]];
            for pair in chain[1..].windows(2) {
                let (row, successor) = (&rows[pair[0]], &rows[pair[1]]);
                // Already disconnected and awaiting deletion, or still live.
                let Some(next) = row.next.filter(|_| row.dangle_ms.is_none()) else {
                    prev = row;
                    continue;
                };
                if !self.recyclable(row, successor.created_ms)? {
                    prev = row;
                    continue;
                }
                // Unlink: prev.NextRow = row.NextRow, guarded so a
                // concurrent GC's earlier unlink is not clobbered.
                (self.hooks.probe)(Label::GcStep4PreUnlink);
                let prev_pk = PrimaryKey::hash_sort(key, prev.row_id);
                let cond = Cond::eq(A_NEXT_ROW, row.row_id);
                let update = Update::new().set(A_NEXT_ROW, next);
                #[expect(
                    clippy::disallowed_methods,
                    reason = "between Label::GcStep4PreUnlink and Label::GcPostDaal"
                )]
                match db.update(table, &prev_pk, &cond, &update) {
                    Ok(()) => self.stamp(table, key, row.row_id)?,
                    // A concurrent collector unlinked the row first: `prev`
                    // still precedes what follows it.
                    Err(DbError::ConditionFailed) => {}
                    Err(e) => return Err(e.into()),
                }
            }
        }

        // Orphans from failed appends: unreachable, never linked, older
        // than `T` (their creator has died). Stamp them dangling; deletion
        // below waits out another `T`.
        for row in &rows {
            let live = reachable.contains(&**row.row_id) || row.dangle_ms.is_some();
            if !live && now_ms.saturating_sub(row.created_ms) > t_ms {
                self.stamp(table, key, row.row_id)?;
            }
        }

        // Step 5: delete rows that dangled for more than `T` and are
        // unreachable *at deletion time*: the pass-start
        // snapshot is stale by now — a concurrent collector working from
        // its own pre-disconnect view can re-link a dangling row while
        // unlinking that row's neighbour (its guarded `prev.NextRow` update
        // still succeeds), so a row this pass saw as unreachable may be back
        // on the chain. The dangle wait makes a *fresh* scan decisive: any
        // view from before the disconnect is now older than `T`, so its
        // holder has died and no further re-link of this row can occur.
        let candidates: Vec<&Arc<str>> = rows
            .iter()
            .filter(|row| row.dangling_expired(now_ms, t_ms))
            .map(|row| row.row_id)
            .collect();
        if candidates.is_empty() {
            return Ok(());
        }
        (self.hooks.probe)(Label::GcStep5PreRescan);
        let fresh_rows = db.query(table, &Value::from(key), &ScanRequest::all())?;
        let Some((_, _, fresh_reachable)) = reconstruct_chain(table.name(), key, &fresh_rows)
        else {
            return self.corrupt_chain();
        };
        for row_id in candidates {
            if fresh_reachable.contains(&**row_id) {
                continue; // Re-linked since the pass snapshot: still live.
            }
            (self.hooks.probe)(Label::GcStep5PreDelete);
            self.delete(table, key, row_id)?;
        }
        Ok(())
    }

    /// Deletes whole each shadow chain of `table` whose transaction has
    /// finalized in `ssf`: its marker goes in this pass, or is absent and
    /// the item's lock is not the transaction's. A chain none of whose
    /// rows names its transaction, made after the GC deleted it, goes too.
    ///
    /// A marker step 2's scan does not list may have been claimed since:
    /// finalize claims it before it frees a lock, so a free lock is
    /// followed by a get of the marker, which then finds it. The chain
    /// stays until the marker goes, and a leg that re-executes meanwhile
    /// replays its shadow writes from it.
    fn shadow(&mut self, ssf: &str, table: &SsfTable) -> BeldiResult<()> {
        let refs = ScanRequest::all().with_projection(Projection::attrs(ShadowRef::ATTRS));
        let rows = self.db.scan_all(&table.shadow, &refs)?;
        // The scan answers in key order: a chain's rows are adjacent.
        for chain in rows.chunk_by(|a, b| a.get_attr(A_KEY) == b.get_attr(A_KEY)) {
            let decode = |row| ShadowRef::decode(table.shadow.name(), row);
            let Ok(chain) = chain.iter().map(decode).collect::<BeldiResult<Vec<_>>>() else {
                self.corrupt_chain()?;
                continue;
            };
            let finalized = match chain.iter().find_map(|row| row.item) {
                Some((txn, key)) => {
                    let marker = finalize_marker(ssf, txn);
                    self.recyclable.contains(&marker)
                        || !listed(self.intents, &marker)
                            && !self.locked(&table.data, key, txn)?
                            && self.intent_absent(&marker)?
                }
                None => true,
            };
            if finalized {
                for row in &chain {
                    self.delete(&table.shadow, row.skey, row.row_id)?;
                }
            }
        }
        Ok(())
    }

    /// Whether `txn` holds `key`'s lock in `data`. A lock that breaks its
    /// decode rule counts the chain corrupt, and reads as held.
    fn locked(&mut self, data: &TableRef, key: &Arc<str>, txn: &str) -> BeldiResult<bool> {
        let lock = daal::lock_owner(self.db, data, key)?;
        match schema::lock_owner(data.name(), key, &lock) {
            Ok(holder) => Ok(holder.is_some_and(|(id, _)| id == txn)),
            Err(_) => self.corrupt_chain().map(|()| true),
        }
    }

    /// True when every write-log entry in `row`, an interior row whose
    /// successor was created at `successor_ms`, belongs to a recyclable
    /// owner.
    ///
    /// An appended row's `Created` is read after its predecessor was read
    /// full, so every entry of `row` was written no later than
    /// `successor_ms`, and each entry's owner registered its intent before
    /// writing it. When that is before this pass's clock read, step 2's
    /// scan, taken after it, lists every such owner not yet recycled.
    fn recyclable(&mut self, row: &DaalRow<'_>, successor_ms: u64) -> BeldiResult<bool> {
        let registered_before_scan = successor_ms < self.now_ms;
        for log_key in row.writes.into_iter().flat_map(|w| w.keys()) {
            let Some((owner, _)) = parse_log_key(log_key) else {
                return Ok(false); // Unparseable: be conservative.
            };
            if !self.owner_recyclable(owner, registered_before_scan)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// True when `owner`'s logs may be pruned: either classified
    /// recyclable this pass, or already absent from the intent table
    /// (recycled by an earlier pass — every instance registers its intent
    /// before any logged operation, so absence is conclusive). Step 2's
    /// scan decides an owner it lists, and one that `registered_before_scan`
    /// and it does not list; only the rest is probed.
    fn owner_recyclable(&mut self, owner: &str, registered_before_scan: bool) -> BeldiResult<bool> {
        if self.recyclable.contains(owner) {
            return Ok(true);
        }
        let scanned = listed(self.intents, owner);
        if scanned || registered_before_scan {
            return Ok(!scanned);
        }
        if let Some(&hit) = self.absent.get(owner) {
            return Ok(hit);
        }
        let absent = self.intent_absent(owner)?;
        self.absent.insert(owner.to_owned(), absent);
        Ok(absent)
    }

    /// Whether intent `id` is absent from the intent table now: an
    /// existence probe, whose envelopes stay in the store.
    fn intent_absent(&self, id: &str) -> BeldiResult<bool> {
        let (id_only, pk) = (Projection::attrs([A_ID]), PrimaryKey::hash(id));
        Ok(self
            .db
            .get(self.intent_table, &pk, Some(&id_only))?
            .is_none())
    }

    /// Stamps `DangleTime = now` on a row (idempotent-if-absent) and
    /// counts it disconnected.
    #[expect(
        clippy::disallowed_methods,
        reason = "steps 4–5 stamp between Label::GcPostLogPrune and Label::GcPostDaal"
    )]
    fn stamp(&mut self, table: &TableRef, key: &Arc<str>, row_id: &Arc<str>) -> BeldiResult<()> {
        let pk = PrimaryKey::hash_sort(key, row_id);
        let cond = Cond::not_exists(A_DANGLE).and(Cond::exists(A_KEY));
        let update = Update::new().set(A_DANGLE, Value::Int(self.now_ms as i64));
        match self.db.update(table, &pk, &cond, &update) {
            Ok(()) | Err(DbError::ConditionFailed) => {}
            Err(e) => return Err(e.into()),
        }
        self.report.disconnected_rows += 1;
        Ok(())
    }

    /// Deletes a row and counts it.
    #[expect(
        clippy::disallowed_methods,
        reason = "steps 4–5 delete between Label::GcPostLogPrune (Label::GcStep5PreDelete \
                  in a data table) and Label::GcPostDaal"
    )]
    fn delete(&mut self, table: &TableRef, key: &Arc<str>, row_id: &Arc<str>) -> BeldiResult<()> {
        let pk = PrimaryKey::hash_sort(key, row_id);
        self.db.delete(table, &pk, &Cond::True)?;
        self.report.deleted_rows += 1;
        Ok(())
    }

    /// Counts a corrupt chain; the key is left untouched.
    fn corrupt_chain(&mut self) -> BeldiResult<()> {
        let count = &mut self.report.corrupt_chains;
        report_corruption(self.t, Metric::GcCorruptChains, count);
        Ok(())
    }
}

/// Whether `id` is among `intents`, a scan of an intent table: it answers
/// in key order, so a binary search finds it.
fn listed(intents: &[Value], id: &str) -> bool {
    intents
        .binary_search_by(|row| row.get_str(A_ID).cmp(&Some(id)))
        .is_ok()
}

/// `key`'s rows decoded, the positions of the chain reachable from
/// `HEAD` in chain order, and the reachable row ids. `None` when a row
/// breaks its decode rule or the pointers form a cycle — corruption no
/// well-formed append/unlink history can produce.
fn reconstruct_chain<'r>(table: &str, key: &str, rows: &'r [Value]) -> Option<Chain<'r>> {
    let mut decoded = Vec::with_capacity(rows.len());
    for row in rows {
        decoded.push(DaalRow::decode(table, key, row).ok()?);
    }
    let chain = daal::chain_order(
        &mut decoded,
        |r| r.row_id,
        |r| r.next.map(|n| &**n),
        table,
        key,
    );
    let chain = chain.ok()?;
    let reachable = chain.iter().map(|&i| &**decoded[i].row_id).collect();
    Some((decoded, chain, reachable))
}

/// [`reconstruct_chain`]'s answer.
type Chain<'r> = (Vec<DaalRow<'r>>, Vec<usize>, HashSet<&'r str>);

/// Records corruption a pass found — a corrupt chain or done-mark: a bump
/// of the pass's `count` and of the registry's `metric`, and the pass
/// skips the item. Corruption is never a transient race, and the item is
/// left untouched, since part-collecting damaged state could destroy
/// evidence or live data; every gate fails on a nonzero
/// `core.gc.corrupt_*` count.
fn report_corruption(t: &Telemetry, metric: Metric, count: &mut usize) {
    *count += 1;
    t.add(metric, 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BeldiConfig;
    use crate::env::{BeldiEnv, SsfBody};
    use crate::schema::{
        A_CLAIMANT, A_CREATED, A_DONE, A_FINISH, A_LOG_STEPS, A_ROW_ID, A_VALUE, ROW_HEAD,
    };
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
            daal::read_value_cached(e.db(), None, &e.db().table("f.data.t"), &"k".into()).unwrap(),
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
            ctx.read("t", "k")?;
            ctx.write("t", "k", input)?;
            ctx.end_tx()?;
            Ok(Value::Null)
        });
        // (config, body, intents recycled: four instances, plus a
        // finalize marker each in the transaction case; entries each
        // instance logs at least: a read and an invoke, or a read in a
        // transaction)
        for (cfg, body, intents, per_instance) in [
            (BeldiConfig::beldi(), read_write_invoke.clone(), 4, 2),
            (BeldiConfig::cross_table(), read_write_invoke, 4, 2),
            (BeldiConfig::beldi(), transaction, 8, 1),
        ] {
            let e = BeldiEnv::for_tests_with(cfg.with_t_max(Duration::from_millis(50)));
            e.register_ssf("leaf", &[], Arc::new(|_, input| Ok(input)));
            e.register_ssf("f", &["t"], body);
            for i in 0..4 {
                e.invoke_as("f", &format!("i-{i}"), Value::Int(i)).unwrap();
            }
            e.clock().sleep(Duration::from_millis(120));

            let logged = e.db().row_count("f.log").unwrap();
            assert!(logged >= per_instance * 4, "{logged} entries");
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

    /// Step 4 decides an entry's owner from step 2's scan: one the scan
    /// lists stays, and one it does not list is gone when the row's
    /// successor was created before the pass began, so every entry in the
    /// row, and its owner's registration, came before the scan. Over full
    /// rows whose owners an earlier pass recycled, a pass makes no intent
    /// get; only a successor created at or after its clock read is probed.
    #[test]
    fn owners_of_full_rows_are_decided_by_the_classify_scan() {
        // HEAD -> B -> C -> D: B holds an entry of `gone` (recycled by an
        // earlier pass), C one of `live` (registered, running).
        let pass = |successor_ms: i64| {
            let e = env();
            let row = |id: &str, next: Option<&str>, owner: &str, created: i64| {
                let mut row = vmap! {
                    A_KEY => "k", A_ROW_ID => id, A_VALUE => 1i64, A_APPENDED => true,
                    crate::schema::A_LOG_SIZE => 1i64, A_CREATED => created,
                    crate::schema::A_WRITES => vmap! { log_key(owner, 0) => true }
                };
                if let Some(n) = next {
                    row.as_map_mut().unwrap().insert(A_NEXT_ROW, Value::from(n));
                }
                #[expect(clippy::disallowed_methods, reason = "the test plants a row")]
                e.db().put("f.data.t", row).unwrap();
            };
            plant_row(&e, ROW_HEAD, 0, Some("B"), None);
            row("B", Some("C"), "gone", 0);
            row("C", Some("D"), "live", successor_ms);
            row("D", None, "live", successor_ms);
            let intents = e.db().table("f.intent");
            intent::register(
                e.db(),
                &intents,
                &"live".into(),
                Value::Null,
                false,
                None,
                0,
            )
            .unwrap();
            e.clock().sleep(Duration::from_millis(10));
            let before = e.db_metrics();
            let report = run_gc(e.test_core(), &e.test_ssf("f")).unwrap();
            (report.disconnected_rows, e.db_metrics().delta(&before).gets)
        };
        // B goes, C stays; the scan decided both.
        assert_eq!(pass(5), (1, 0));
        // C created after the pass's clock read: `gone` is probed.
        assert_eq!(pass(1_000), (1, 1));
    }

    /// A leg's finalize claims its marker after step 2's scan and frees
    /// the item's lock before the pass reads it: the pass then finds the
    /// marker by a get and keeps the chain, which goes with the marker.
    #[test]
    fn a_marker_claimed_after_the_scan_keeps_its_shadow_chain() {
        let e = BeldiEnv::for_tests();
        e.register_ssf(
            "leg",
            &["t"],
            Arc::new(|ctx, _| {
                ctx.write("t", "k", Value::Int(1))?;
                Ok(Value::Null)
            }),
        );
        e.register_ssf("owner", &[], Arc::new(|_, _| Ok(Value::Null)));
        let owner = RefCell::new(e.test_context("owner", "o"));
        owner.borrow_mut().begin_tx().unwrap();
        owner.borrow_mut().sync_invoke("leg", Value::Null).unwrap();
        let commit = |label: Label| {
            if label == Label::GcPostLogPrune {
                owner.borrow_mut().end_tx().unwrap();
            }
        };
        let hooks = GcHooks {
            crash: &commit,
            probe: &|_| {},
        };
        run_gc_with(e.test_core(), &e.test_ssf("leg"), &hooks).unwrap();
        assert_eq!(e.read_current("leg", "t", "k").unwrap(), Value::Int(1));
        assert_eq!(e.db().row_count("leg.data.t.shadow").unwrap(), 1);
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

    /// An orphan without a `Created` is not one created at 0: its chain is
    /// counted corrupt, and the sweep neither stamps nor deletes it.
    #[test]
    fn an_orphan_without_a_creation_time_is_counted_not_swept() {
        let e = env();
        plant_row(&e, ROW_HEAD, 1, None, None);
        plant_row(&e, "R-orphan", 2, None, None);
        let mut orphan = e
            .db()
            .get("f.data.t", &PrimaryKey::hash_sort("k", "R-orphan"), None)
            .unwrap()
            .unwrap();
        orphan.as_map_mut().unwrap().remove(A_CREATED);
        #[expect(clippy::disallowed_methods, reason = "plants corruption")]
        e.db().put("f.data.t", orphan).unwrap();
        for _ in 0..3 {
            e.clock().sleep(Duration::from_millis(120));
            let report = e.run_gc_once("f").unwrap();
            assert_eq!(report.corrupt_chains, 1, "{report:?}");
            assert_eq!((report.disconnected_rows, report.deleted_rows), (0, 0));
        }
        let rows = e
            .db()
            .query("f.data.t", &Value::from("k"), &ScanRequest::all())
            .unwrap();
        assert_eq!(rows.len(), 2, "the orphan stays, unstamped");
        assert!(rows.iter().all(|r| r.get_attr(A_DANGLE).is_none()));
    }

    /// `reconstruct_chain` itself: well-formed chains walk head→tail;
    /// cyclic pointer graphs, and a row that breaks its decode rule,
    /// return `None` (the counted path) instead of a truncated chain.
    #[test]
    fn reconstruct_chain_detects_cycles() {
        let row = |id: &str, next: Option<&str>| {
            let mut row = vmap! { A_ROW_ID => id, A_CREATED => 0i64 };
            if let Some(n) = next {
                row.as_map_mut().unwrap().insert(A_NEXT_ROW, Value::from(n));
            }
            row
        };
        let rows = vec![
            row("A", Some("B")),
            row("B", None),
            row(ROW_HEAD, Some("A")),
            row("orphan", None),
        ];
        let (_, chain, reachable) = reconstruct_chain("t", "k", &rows).expect("acyclic");
        assert_eq!(chain.len(), 3);
        assert!(reachable.contains("B") && !reachable.contains("orphan"));

        let cyclic = vec![row(ROW_HEAD, Some("A")), row("A", Some(ROW_HEAD))];
        assert!(reconstruct_chain("t", "k", &cyclic).is_none());
        let uncreated = vec![vmap! { A_ROW_ID => ROW_HEAD }];
        assert!(reconstruct_chain("t", "k", &uncreated).is_none());
    }
}
