//! Transaction contexts and the cross-SSF transaction protocol (§6).
//!
//! Beldi transactions are 2PL with **wait-die** deadlock prevention and a
//! coordinator-free two-phase commit: there is no entity with visibility
//! over the whole workflow, so each SSF performs the coordinator's duties
//! for its own data and recursively signals its callees.
//!
//! - A [`TxnContext`] (transaction id, intent-creation timestamp, and
//!   [`TxnMode`]) is created by `begin_tx` and piggybacks on every SSF
//!   invocation made inside the transaction.
//! - In `Execute` mode, an execution's first `read`/`write`/`cond_write`
//!   of an item acquires its lock (owned by the *transaction*, not the
//!   instance, so crash-restart keeps ownership — "locks with intent",
//!   §6.1). Writes are redirected to a per-transaction *shadow table*;
//!   reads check the shadow first so transactions read their own writes.
//! - `end_tx` flips the mode to `Commit` (flush each written item and
//!   release its lock in one write; release the rest) or `Abort` (release
//!   locks only) and signals every SSF this one invoked under the
//!   transaction with the new mode; those SSFs do the same for their data
//!   and callees, which mimics the second phase of 2PC over the workflow
//!   graph. A signal is addressed by its transaction: its instance id is
//!   [`crate::ids::finalize_marker`]`(callee SSF, txn)`, so its intent is
//!   that SSF's one finalize claim, and a second signal to the same SSF
//!   replays or joins it.
//!
//! Commit pays only for what it changes: one index query per shadow
//! table finds an SSF's entries, a signal logs nothing at its sender, and
//! a read of a committed value uses the tail cache.
//!
//! The target isolation level is **opacity**: strict serializability plus
//! the guarantee that even doomed transactions only observe consistent
//! state — necessary because Beldi's intent collector deterministically
//! *replays* whatever a crashed instance read (Fig. 12's OCC infinite
//! loop is reproduced as a test in `tests/opacity.rs`).

use std::sync::Arc;

use beldi_value::{Map, Value};

use crate::error::{BeldiError, BeldiResult};

/// Phase of a distributed transaction context (§6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnMode {
    /// Operations execute against shadow state under 2PL.
    Execute,
    /// The decision was commit: flush shadow values, release locks,
    /// propagate to callees.
    Commit,
    /// The decision was abort: discard shadow values, release locks,
    /// propagate to callees.
    Abort,
}

impl TxnMode {
    fn as_str(self) -> &'static str {
        match self {
            TxnMode::Execute => "execute",
            TxnMode::Commit => "commit",
            TxnMode::Abort => "abort",
        }
    }

    pub(crate) fn parse(s: &str) -> Option<Self> {
        match s {
            "execute" => Some(TxnMode::Execute),
            "commit" => Some(TxnMode::Commit),
            "abort" => Some(TxnMode::Abort),
            _ => None,
        }
    }
}

/// Outcome reported by [`crate::SsfContext::end_tx`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// All operations succeeded; shadow state was flushed.
    Committed,
    /// The transaction was aborted (user abort or wait-die) and all its
    /// effects discarded.
    Aborted,
}

/// A transaction context, created by `begin_tx` and forwarded with every
/// invocation inside the transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnContext {
    /// Globally unique transaction id (also the lock-owner id), shared by
    /// every lock, shadow entry and envelope that names it.
    pub id: Arc<str>,
    /// Intent-creation timestamp in virtual ms — the age used by wait-die.
    pub start_ms: u64,
    /// Current phase.
    pub mode: TxnMode,
}

impl TxnContext {
    /// Serializes the context for an invocation envelope or intent record.
    pub(crate) fn to_value(&self) -> Value {
        let mut m = Map::with_capacity(3);
        m.insert("Id", Value::from(&self.id));
        m.insert("StartMs", Value::Int(self.start_ms as i64));
        m.insert("Mode", Value::from(self.mode.as_str()));
        Value::Map(m)
    }

    /// A copy of this context in a different mode.
    pub(crate) fn with_mode(&self, mode: TxnMode) -> Self {
        TxnContext {
            id: self.id.clone(),
            start_ms: self.start_ms,
            mode,
        }
    }

    /// Wait-die seniority: `self` waits for `owner` only when `self` is
    /// older. Ties break on the id so the order is total.
    pub(crate) fn is_older_than(&self, owner_start_ms: u64, owner_id: &str) -> bool {
        (self.start_ms, &*self.id) < (owner_start_ms, owner_id)
    }
}

/// Per-instance transaction bookkeeping held by a [`crate::SsfContext`].
#[derive(Debug, Clone)]
pub(crate) struct TxnState {
    /// The (possibly inherited) context.
    pub ctx: TxnContext,
    /// True when this instance created the context (`begin_tx` ran here);
    /// only the owner runs the commit/abort decision.
    pub owned: bool,
    /// Set when any operation observed an abort (wait-die kill, callee
    /// abort, or user abort).
    pub aborted: bool,
    /// Set once `end_tx` completed, so the wrapper does not re-run the
    /// decision protocol.
    pub ended: bool,
    /// Depth of ignored nested `begin_tx` calls (§6.2: nested begin/end
    /// pairs are absorbed into the top-level transaction).
    pub nested: u32,
    /// The `(logical table, key)` items this execution locked (few, so a
    /// list). Replay rebuilds it: each first lock replays as applied.
    locked: Vec<(String, String)>,
}

impl TxnState {
    /// A state for a context inherited from the caller.
    pub fn inherited(ctx: TxnContext) -> Self {
        TxnState {
            ctx,
            owned: false,
            aborted: false,
            ended: false,
            nested: 0,
            locked: Vec::new(),
        }
    }

    /// A state for a context created by this instance.
    pub fn owned(ctx: TxnContext) -> Self {
        TxnState {
            owned: true,
            ..TxnState::inherited(ctx)
        }
    }
}

/// The op a decision runs as: a commit or an abort.
pub(crate) fn decision_op(decision: TxnMode) -> Op {
    match decision {
        TxnMode::Abort => Op::TxnAbort,
        _ => Op::TxnCommit,
    }
}

/// Builds the `LockOwner` column value for a transaction or instance
/// (Fig. 11 stores `[TXNID, START_TIME]`).
pub(crate) fn lock_owner_value(owner_id: &Arc<str>, start_ms: u64) -> Value {
    let mut m = Map::with_capacity(2);
    m.insert("Id", Value::from(owner_id));
    m.insert("Ts", Value::Int(start_ms as i64));
    Value::Map(m)
}

// ---- The transaction protocol on SsfContext ----

use std::collections::{BTreeMap, BTreeSet};

use beldi_simclock::Op;
use beldi_simdb::{DbError, PrimaryKey, Projection, ScanRequest};
use beldi_value::{Cond, Path, Update};

use crate::config::Mode;
use crate::context::SsfContext;
use crate::daal;
use crate::ids::finalize_marker;
use crate::invoke::{self, Envelope, Outcome};
use crate::schema::{
    self, shadow_key, IntentRecord, InvokeEntry, ShadowRow, A_CLAIMANT, A_CREATED, A_DONE,
    A_FINISH, A_ID, A_KEY, A_LOCK, A_ORIG_KEY, A_ORIG_TABLE, A_TXN_ID, A_VALUE, A_WRITTEN,
    ROW_HEAD,
};
use crate::Label;

/// Wait-die retry budget: an older transaction spins this many times
/// (sleeping between attempts) for a younger lock holder to finish.
const MAX_WAIT_SPINS: usize = 20_000;

/// Virtual-time pause between wait-die lock retries.
const WAIT_BACKOFF: std::time::Duration = std::time::Duration::from_millis(1);

impl SsfContext {
    // ---- Public API (Fig. 2) ----

    /// Begins a transaction.
    ///
    /// Creates a fresh [`TxnContext`] that subsequent operations run
    /// under: reads and writes acquire item locks (2PL with wait-die) and
    /// writes are buffered in a shadow table until [`SsfContext::end_tx`].
    /// The context is forwarded with every [`SsfContext::sync_invoke`], so
    /// the transaction may span multiple SSFs.
    ///
    /// Inside an existing transaction (inherited or local), `begin_tx` is
    /// absorbed into the top-level transaction (§6.2 — Beldi has no nested
    /// transaction semantics). After a transaction this instance *owned*
    /// has ended (committed or aborted), `begin_tx` starts a fresh one —
    /// sequential transactions per instance, which is what lets
    /// application code retry a wait-die abort.
    ///
    /// In baseline mode this is a no-op; in cross-table mode transactions
    /// are unsupported (the paper only compares that mode on
    /// non-transactional operations).
    pub fn begin_tx(&mut self) -> BeldiResult<()> {
        match self.mode() {
            Mode::Baseline => return Ok(()),
            Mode::CrossTable => {
                return Err(BeldiError::Unsupported(
                    "transactions in cross-table logging mode",
                ))
            }
            Mode::Beldi => {}
        }
        let _op = self.op(Op::TxnBegin);
        if let Some(t) = &mut self.txn {
            if t.owned && t.ended {
                // The previous owned transaction is fully decided (locks
                // released, callees signalled); a new one may start.
                self.txn = None;
            } else {
                t.nested += 1;
                return Ok(());
            }
        }
        // The id and creation time are nondeterministic, so they are
        // logged: a re-executed instance resumes the *same* transaction
        // (and still owns its locks).
        let id = self.log_uuid()?.into();
        let start_ms = self.log_now_ms()?;
        self.txn = Some(TxnState::owned(TxnContext {
            id,
            start_ms,
            mode: TxnMode::Execute,
        }));
        Ok(())
    }

    /// Ends the enclosing transaction, committing unless any operation
    /// aborted.
    ///
    /// For the SSF that created the transaction this runs the decision
    /// protocol: flush shadow values (on commit), release locks, and
    /// recursively signal every callee invoked inside the transaction
    /// with the decision — the coordinator-free second phase of 2PC
    /// (§6.2). For SSFs that inherited the context, `end_tx` only reports
    /// the local outcome; the decision arrives later via the propagation
    /// wave.
    pub fn end_tx(&mut self) -> BeldiResult<TxnOutcome> {
        if self.mode() == Mode::Baseline {
            return Ok(TxnOutcome::Committed);
        }
        let Some(t) = &mut self.txn else {
            return Err(BeldiError::NotInTransaction);
        };
        let (outcome, decision) = match t.aborted {
            true => (TxnOutcome::Aborted, TxnMode::Abort),
            false => (TxnOutcome::Committed, TxnMode::Commit),
        };
        // Through the fields, which `t` does not borrow.
        let _op = self
            .core
            .telemetry()
            .op(decision_op(decision), self.probe.id());
        if t.nested > 0 {
            t.nested -= 1;
            return Ok(outcome);
        }
        if t.ended {
            return Err(BeldiError::NotInTransaction);
        }
        // An inherited context's top-level owner decides.
        if t.owned {
            self.finalize(decision)?;
            if let Some(t) = &mut self.txn {
                t.ended = true;
            }
        }
        Ok(outcome)
    }

    /// Marks the enclosing transaction aborted and ends it.
    pub fn abort_tx(&mut self) -> BeldiResult<TxnOutcome> {
        if self.mode() == Mode::Baseline {
            return Ok(TxnOutcome::Aborted);
        }
        let Some(t) = &mut self.txn else {
            return Err(BeldiError::NotInTransaction);
        };
        t.aborted = true;
        self.end_tx()
    }

    // ---- Execute-mode operation semantics (§6.2) ----

    /// Acquires the transaction's lock on `key` with wait-die deadlock
    /// prevention (Fig. 11), unless this execution holds it. Returns true
    /// when this call created the item's shadow entry, which then holds no
    /// write: an SSF's instances in one transaction run one at a time
    /// (async invokes are refused inside one).
    ///
    /// # Errors
    ///
    /// [`BeldiError::TxnAborted`] when a strictly older transaction holds
    /// the lock — this transaction must die (it cannot kill the holder;
    /// SSFs have no way to kill each other, which is why wait-die rather
    /// than wound-wait).
    pub(crate) fn txn_lock(&mut self, logical: &str, key: &Arc<str>) -> BeldiResult<bool> {
        let holds = |t: &TxnState| t.locked.iter().any(|(l, k)| l == logical && **k == **key);
        if self.txn.as_ref().is_some_and(holds) {
            return Ok(false);
        }
        let _op = self.op(Op::Lock);
        let physical = self.data_table(logical)?;
        let ctx = self.txn_ctx_cloned()?;
        let owner = lock_owner_value(&ctx.id, ctx.start_ms);
        for _ in 0..MAX_WAIT_SPINS {
            let out = self.write_step(
                &physical,
                key,
                Update::new().set(A_LOCK, owner.clone()),
                Some(&Self::lock_free_cond(&ctx.id)),
            )?;
            if out.as_bool() {
                let created = self.ensure_shadow_entry(logical, key)?;
                if let Some(t) = &mut self.txn {
                    t.locked.push((logical.to_owned(), key.to_string()));
                }
                return Ok(created);
            }
            // Who holds it? Logged so replay takes the same branch.
            let _retry = self.op(Op::WaitDieRetry);
            let holder = daal::lock_owner(self.db(), &physical, key)?.unwrap_or(Value::Null);
            let holder = self.log_value(holder)?;
            match schema::lock_owner(physical.name(), key, &holder)? {
                None => continue, // Freed in between; retry immediately.
                Some((owner_id, owner_ts)) => {
                    if owner_id == &*ctx.id {
                        continue; // Stale view of our own lock; retry.
                    }
                    if ctx.is_older_than(owner_ts, owner_id) {
                        // We are older: wait for the younger holder.
                        self.clock().sleep(WAIT_BACKOFF);
                    } else {
                        // We are younger: die.
                        if let Some(t) = &mut self.txn {
                            t.aborted = true;
                        }
                        return Err(BeldiError::TxnAborted);
                    }
                }
            }
        }
        Err(BeldiError::Protocol(format!(
            "transaction lock on {logical}/{key} starved"
        )))
    }

    /// Transactional read: lock, then read the shadow value if this
    /// transaction wrote the item, else the real value. Logged.
    pub(crate) fn txn_read(&mut self, logical: &str, key: &str) -> BeldiResult<Value> {
        let key = key.into();
        let fresh = self.txn_lock(logical, &key)?;
        let val = self.txn_effective_value(logical, &key, fresh)?;
        self.log_value(val)
    }

    /// Transactional write: lock, then buffer the value in the shadow
    /// table (flushed to the real table at commit).
    pub(crate) fn txn_write(&mut self, logical: &str, key: &str, value: Value) -> BeldiResult<()> {
        let key = key.into();
        self.txn_lock(logical, &key)?;
        self.shadow_write(logical, &key, value)
    }

    /// Transactional conditional write: the condition is evaluated against
    /// the transaction's consistent view (shadow-over-real), which is
    /// stable under the held lock; the outcome derives from a logged read,
    /// so replay is deterministic.
    ///
    /// In-transaction conditions see a synthetic row holding only the
    /// [`A_VALUE`] attribute.
    pub(crate) fn txn_cond_write(
        &mut self,
        logical: &str,
        key: &str,
        value: Value,
        cond: Cond,
    ) -> BeldiResult<bool> {
        let key = key.into();
        let fresh = self.txn_lock(logical, &key)?;
        let cur = self.txn_effective_value(logical, &key, fresh)?;
        let cur = self.log_value(cur)?;
        let row = beldi_value::vmap! { A_VALUE => cur };
        let holds = cond
            .eval(&row)
            .map_err(|e| BeldiError::Protocol(format!("in-txn condition error: {e}")))?;
        if holds {
            self.shadow_write(logical, &key, value)?;
        }
        Ok(holds)
    }

    /// The value this transaction observes for `key`: its own shadow write
    /// if present, else the committed value, read through the tail cache
    /// like any data read (shadow tables are not cached). A `fresh` shadow
    /// entry (see [`SsfContext::txn_lock`]) is not probed; on replay the
    /// read log returns the logged value either way.
    fn txn_effective_value(
        &mut self,
        logical: &str,
        key: &Arc<str>,
        fresh: bool,
    ) -> BeldiResult<Value> {
        if !fresh {
            let ctx = self.txn_ctx_cloned()?;
            let shadow = self.shadow_table(logical)?;
            let skey = shadow_key(&ctx.id, key);
            let probe = Projection::attrs(schema::SHADOW_PROBE);
            if let Some(tail) = daal::read_tail_row(self.db(), &shadow, &skey, &probe)? {
                if let Some(written) = schema::shadow_probe(shadow.name(), &skey, tail)? {
                    return Ok(written);
                }
            }
        }
        let physical = self.data_table(logical)?;
        daal::read_value_cached(self.db(), self.core.tail_cache.as_ref(), &physical, key)
    }

    /// Creates the shadow-table entry for a locked item if absent
    /// (idempotent, unlogged — `set_if_absent` semantics); true if created.
    #[expect(
        clippy::disallowed_methods,
        reason = "between the lock step's Label::WriteExit and the next step's entry \
                  (Label::ReadPreLog for a read, Label::WriteEnter for a write)"
    )]
    fn ensure_shadow_entry(&mut self, logical: &str, key: &Arc<str>) -> BeldiResult<bool> {
        let ctx = self.txn_ctx_cloned()?;
        let shadow = self.shadow_table(logical)?;
        let skey = shadow_key(&ctx.id, key);
        let pk = PrimaryKey::hash_sort(skey, ROW_HEAD);
        let update = Update::new()
            .set(A_TXN_ID, &ctx.id)
            .set(A_ORIG_KEY, key)
            .set(A_ORIG_TABLE, logical)
            .set(A_WRITTEN, Value::Bool(false))
            .set(crate::schema::A_LOG_SIZE, Value::Int(0))
            .set(A_CREATED, Value::Int(self.raw_now_ms() as i64));
        match self
            .db()
            .update(&shadow, &pk, &Cond::not_exists(A_KEY), &update)
        {
            Ok(()) => Ok(true),
            Err(DbError::ConditionFailed) => Ok(false),
            Err(e) => Err(e.into()),
        }
    }

    /// Exactly-once buffered write into the shadow DAAL.
    fn shadow_write(&mut self, logical: &str, key: &Arc<str>, value: Value) -> BeldiResult<()> {
        let ctx = self.txn_ctx_cloned()?;
        let shadow = self.shadow_table(logical)?;
        let skey = shadow_key(&ctx.id, key);
        self.write_step(
            &shadow,
            &skey,
            Update::new()
                .set(A_VALUE, value)
                .set(A_WRITTEN, Value::Bool(true)),
            None,
        )?;
        Ok(())
    }

    fn txn_ctx_cloned(&self) -> BeldiResult<TxnContext> {
        self.txn
            .as_ref()
            .map(|t| t.ctx.clone())
            .ok_or(BeldiError::NotInTransaction)
    }

    // ---- Decision protocol and propagation (§6.2) ----

    /// Runs the commit or abort protocol for this SSF's share of the
    /// transaction, then signals this SSF's callees.
    ///
    /// Exactly-once overall: each SSF finalizes a transaction under one
    /// intent, its *finalize marker* ([`finalize_marker`]), which a
    /// signal's registration claims (the owner claims its own here). A
    /// second signal to the same SSF replays or re-executes that intent,
    /// and every write below is a logged step of it. A signal keeps no log
    /// entry at its sender, which retries it until the platform replies;
    /// a callee's error reply is this share's error.
    ///
    /// Each item costs one write under the held lock: a written item's
    /// flush and release on commit, else its release. A flush whose lock
    /// is not held is an error (`Corrupt` if the lock is damaged), never a
    /// lost write.
    pub(crate) fn finalize(&mut self, decision: TxnMode) -> BeldiResult<()> {
        debug_assert!(matches!(decision, TxnMode::Commit | TxnMode::Abort));
        let ctx = self.txn_ctx_cloned()?;
        self.crash(Label::TxnPreFinalize);
        let marker = finalize_marker(&self.ssf.name, &ctx.id);
        if marker != *self.instance() && !self.claim_finalize_marker(&marker)? {
            return Ok(());
        }

        // 1. Flush (commit only) and release every item held here.
        let held = Cond::eq(Path::attr(A_LOCK).then_attr("Id"), &ctx.id);
        for e in self.shadow_entries(&ctx.id)? {
            let physical = self.data_table(&e.logical)?;
            let release = Update::new().set(A_LOCK, Value::Null);
            let (label, update, flush) = match e.written.filter(|_| decision == TxnMode::Commit) {
                Some(val) => (Label::TxnPreFlushItem, release.set(A_VALUE, val), true),
                None => (Label::TxnPreReleaseItem, release, false),
            };
            self.crash(label);
            let out = self.write_step(&physical, &e.key, update, Some(&held))?;
            // A release may find the lock gone (a replayed release). A
            // flush that does reads the lock: a damaged one is corruption.
            if flush && !out.as_bool() {
                let holder = daal::lock_owner(self.db(), &physical, &e.key)?;
                schema::lock_owner(physical.name(), &e.key, &holder.unwrap_or_default())?;
                return Err(BeldiError::Protocol(format!(
                    "commit of {}/{} found its lock not held",
                    e.logical, e.key
                )));
            }
        }

        // 2. Signal the callees this SSF invoked inside the transaction.
        let signal_ctx = ctx.with_mode(decision);
        for callee in self.txn_callees(&ctx.id)? {
            let signal = Envelope::TxnSignal {
                id: finalize_marker(&callee, &ctx.id),
                txn: signal_ctx.clone(),
            }
            .into_value();
            self.crash(Label::TxnPreSignal);
            // Unreachable: crash; the retried sender signals again. A
            // callee whose share failed answers its error: this share's.
            match invoke::deliver(self.platform(), &callee, &signal).map(|r| Outcome::decode(&r)) {
                None => panic!("beldi: signal to `{callee}` unreachable"),
                Some(Some(Outcome::Error(m))) => return Err(BeldiError::Protocol(m)),
                Some(_) => {}
            }
        }
        self.crash(Label::TxnPostFinalize);
        Ok(())
    }

    /// Claims the owner's finalize marker, `marker`, in its SSF's intent
    /// table.
    ///
    /// Returns true when this *intent* owns the claim (first claim or
    /// re-execution of the claimant); false when another instance already
    /// finalizes this transaction here.
    #[expect(
        clippy::disallowed_methods,
        reason = "between Label::TxnPreFinalize and the first item's or signal's probe \
                  (Label::TxnPostFinalize when there is none)"
    )]
    fn claim_finalize_marker(&self, marker: &Arc<str>) -> BeldiResult<bool> {
        let table = &self.ssf.intent_table;
        let pk = PrimaryKey::hash(marker);
        // `Done = true` keeps the intent collector away and makes a signal
        // that cycles back to this SSF replay the claim; the GC recycles
        // the marker like any completed intent, `T` after its finish time.
        // Its fresh row is seeded with its `Id`.
        let now_ms = Value::Int(self.raw_now_ms() as i64);
        let update = Update::new()
            .set(A_DONE, Value::Bool(true))
            .set(A_CLAIMANT, self.instance())
            .set(A_CREATED, now_ms.clone())
            .set(A_FINISH, now_ms);
        match self
            .db()
            .update(table, &pk, &Cond::not_exists(A_ID), &update)
        {
            Ok(()) => Ok(true),
            Err(DbError::ConditionFailed) => match self.db().get(table, &pk, None)? {
                Some(row) => {
                    let claimant = IntentRecord::claimant(table.name(), marker, &row)?;
                    Ok(claimant == Some(self.instance_id()))
                }
                None => Ok(false),
            },
            Err(e) => Err(e.into()),
        }
    }

    /// The sorted items this transaction locked or wrote in this SSF, with
    /// the values it wrote: one `TxnId` index query per shadow table, and
    /// no other read. The answer holds each key's whole chain (an append
    /// carries `TxnId`), walked from `HEAD` as [`daal::traverse`] walks
    /// one; the tail gives the item.
    fn shadow_entries(&self, txn_id: &Arc<str>) -> BeldiResult<Vec<ShadowRow>> {
        let req = ScanRequest::all().with_projection(Projection::attrs(ShadowRow::ATTRS));
        let mut out = BTreeSet::new();
        for table in &self.ssf.tables {
            let rows =
                self.db()
                    .index_query(&table.shadow, A_TXN_ID, &Value::from(txn_id), &req)?;
            let mut chains: BTreeMap<Arc<str>, Vec<ShadowRow>> = BTreeMap::new();
            for row in rows {
                let (skey, row) = ShadowRow::decode(table.shadow.name(), row)?;
                chains.entry(skey).or_default().push(row);
            }
            for (skey, mut rows) in chains {
                let order = daal::chain_order(
                    &mut rows,
                    |row| &row.row_id,
                    |row| row.next.as_deref(),
                    table.shadow.name(),
                    &skey,
                )?;
                if let Some(&tail) = order.last() {
                    out.insert(rows.swap_remove(tail));
                }
            }
        }
        Ok(out.into_iter().collect())
    }

    /// The deterministic sorted set of SSFs this SSF invoked inside the
    /// transaction, from the log's transaction-id index.
    fn txn_callees(&self, txn_id: &str) -> BeldiResult<Vec<String>> {
        let rows = self.db().index_query(
            &self.ssf.log_table,
            A_TXN_ID,
            &Value::from(txn_id),
            &ScanRequest::all(),
        )?;
        let mut set = BTreeSet::new();
        for row in &rows {
            set.insert(InvokeEntry::callee_fn(self.ssf.log_table.name(), row)?.to_owned());
        }
        Ok(set.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_round_trips() {
        let ctx = TxnContext {
            id: "t-1".into(),
            start_ms: 42,
            mode: TxnMode::Execute,
        };
        let v = ctx.to_value();
        assert_eq!(TxnContext::decode(&v).unwrap(), ctx);
        let c2 = ctx.with_mode(TxnMode::Commit);
        assert_eq!(c2.mode, TxnMode::Commit);
        assert_eq!(c2.id, ctx.id);
    }

    #[test]
    fn malformed_context_rejected() {
        assert_eq!(TxnContext::decode(&Value::Null), None);
        let partial = beldi_value::vmap! { "Id" => "x" };
        assert_eq!(TxnContext::decode(&partial), None);
        // A negative start time is not one.
        let negative = beldi_value::vmap! { "Id" => "x", "StartMs" => -1i64, "Mode" => "commit" };
        assert_eq!(TxnContext::decode(&negative), None);
    }

    #[test]
    fn wait_die_ordering_is_total() {
        let a = TxnContext {
            id: "a".into(),
            start_ms: 10,
            mode: TxnMode::Execute,
        };
        // Older (smaller timestamp) wins.
        assert!(a.is_older_than(20, "b"));
        assert!(!a.is_older_than(5, "b"));
        // Ties break on id.
        assert!(a.is_older_than(10, "b"));
        // A transaction is not older than itself.
        assert!(!a.is_older_than(10, "a"));
        // Antisymmetric: of two distinct transactions exactly one is older.
        for (ts, id) in [(10, "b"), (10, "0"), (5, "z"), (20, "a")] {
            let b = TxnContext {
                id: id.into(),
                start_ms: ts,
                mode: TxnMode::Execute,
            };
            assert_ne!(
                a.is_older_than(b.start_ms, &b.id),
                b.is_older_than(a.start_ms, &a.id),
                "({ts}, {id})"
            );
        }
    }

    #[test]
    fn lock_owner_round_trips() {
        let v = lock_owner_value(&"txn-9".into(), 123);
        assert_eq!(schema::lock_owner("t", "k", &v), Ok(Some(("txn-9", 123))));
        assert_eq!(schema::lock_owner("t", "k", &Value::Null), Ok(None));
        let bad = beldi_value::vmap! { "Id" => "txn-9", "Ts" => -1i64 };
        let corrupt = schema::corrupt("t", "k", A_LOCK);
        assert_eq!(schema::lock_owner("t", "k", &bad), Err(corrupt));
    }
}
