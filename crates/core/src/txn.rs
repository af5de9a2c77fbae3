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
//! A transaction pays only for its items. Begin logs one entry, the id:
//! its wait-die age is its intent's creation time, which the intent row
//! already stores, so a transaction the instance begins again after a
//! wait-die kill keeps its age (Rosenkrantz, Stearns & Lewis, 1978).
//! With the tail cache on, a shadow write is one update on the `HEAD` its
//! lock created, and a lock's write returns the item's committed value,
//! so the read that took the lock issues no get. Commit pays only for
//! what it changes: one index query per shadow table finds an SSF's
//! entries, and a signal logs nothing at its sender.
//!
//! No commit or abort reads a log to find whom to signal. Each SSF knows
//! its subordinates from its execution, as in R*'s tree of processes
//! (Mohan, Lindsay & Obermarck, 1986), and that knowledge travels up in
//! replies and down in signals ([`CallTree`]): a finalize, in a fresh
//! instance, needs nothing the GC recycles, however late it runs.
//!
//! The target isolation level is **opacity**: strict serializability plus
//! the guarantee that even doomed transactions only observe consistent
//! state — necessary because Beldi's intent collector deterministically
//! *replays* whatever a crashed instance read (Fig. 12's OCC infinite
//! loop is reproduced as a test in `tests/opacity.rs`).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use beldi_simclock::Op;
use beldi_simdb::{DbError, PrimaryKey, Projection, ScanRequest};
use beldi_value::{Cond, Map, Path, Update, Value};

use crate::config::Mode;
use crate::context::SsfContext;
use crate::daal::{self, StepKind};
use crate::error::{BeldiError, BeldiResult};
use crate::ids::finalize_marker;
use crate::invoke::{self, Envelope, Outcome};
use crate::schema::{
    self, shadow_key, DoneMark, ShadowRow, A_CLAIMANT, A_CREATED, A_DONE, A_FINISH, A_ID, A_KEY,
    A_LOCK, A_ORIG_KEY, A_ORIG_TABLE, A_TXN_ID, A_VALUE, A_WRITTEN, ROW_HEAD,
};
use crate::Label;

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
    /// The `(caller, callee)` SSF pairs of the transaction's calls this SSF
    /// knows: its own and those in the trees their replies carried, or in
    /// its signal's tree. Replay rebuilds it as it rebuilds `locked`.
    calls: BTreeSet<(Arc<str>, Arc<str>)>,
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
            calls: BTreeSet::new(),
        }
    }

    /// Records a call from `caller` to `callee`, whose reply (or signal)
    /// carried `subtree`.
    pub fn invoked(&mut self, caller: &Arc<str>, callee: Arc<str>, subtree: CallTree) {
        for (next, subtree) in subtree.0 {
            self.invoked(&callee, next, subtree);
        }
        self.calls.insert((caller.clone(), callee));
    }

    /// The call tree SSF `me` passes on: each SSF reachable from `me` with
    /// all its callees where `me`'s signals first reach it (by name, depth
    /// first), and with none elsewhere, where its signal replays.
    pub fn tree(&self, me: &Arc<str>) -> CallTree {
        match self.calls.is_empty() {
            true => CallTree::default(),
            false => self.unroll(me, &mut BTreeSet::from([me])),
        }
    }

    fn unroll<'a>(&'a self, ssf: &Arc<str>, reached: &mut BTreeSet<&'a Arc<str>>) -> CallTree {
        let mut tree = CallTree::default();
        for (_, callee) in self.calls.iter().filter(|(from, _)| from == ssf) {
            let subtree = match reached.insert(callee) {
                true => self.unroll(callee, reached),
                false => CallTree::default(),
            };
            tree.0.insert(callee.clone(), subtree);
        }
        tree
    }
}

/// The key of a call tree in a reply or a signal, absent when empty.
pub(crate) const K_CALLEES: &str = "Callees";

/// A subtree of a transaction's call tree: the SSFs one SSF invoked inside
/// the transaction, each with its own subtree ([`TxnState::tree`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct CallTree(pub BTreeMap<Arc<str>, CallTree>);

impl CallTree {
    /// The tree as a reply's or a signal's field.
    fn into_value(self) -> Value {
        let mut m = Map::with_capacity(self.0.len());
        for (ssf, subtree) in self.0 {
            m.insert(ssf, subtree.into_value());
        }
        Value::Map(m)
    }

    /// Puts the tree into a reply's or a signal's map `m`.
    pub fn put(self, m: &mut Map) {
        if !self.0.is_empty() {
            m.insert(K_CALLEES, self.into_value());
        }
    }
}

/// What [`SsfContext::txn_lock`] found.
#[derive(Debug, Default)]
pub(crate) struct Locked {
    /// This call created the item's shadow entry, which then holds no
    /// write: an SSF's instances in one transaction run one at a time
    /// (async invokes are refused inside one).
    fresh: bool,
    /// The item's committed value, when the lock's write returned it.
    value: Option<Value>,
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
        // The id is derived from this step: a re-executed instance
        // resumes the *same* transaction (and still owns its locks). The age is the intent's creation time, which its row
        // stores, so a replay and a transaction begun again after a
        // wait-die kill both keep it.
        let ctx = TxnContext {
            id: self.logged_uuid().into(),
            start_ms: self.created_ms,
            mode: TxnMode::Execute,
        };
        self.txn = Some(TxnState {
            owned: true,
            ..TxnState::inherited(ctx)
        });
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
    /// prevention (Fig. 11) in one [`SsfContext::lock_wait`], unless this
    /// execution holds it. A lock taken for a `read` returns
    /// the item's committed value when its write applied now: the tail
    /// row's `Value`, returned by the one conditional update that set the
    /// lock. A lock replayed from its log entry returns none.
    ///
    /// # Errors
    ///
    /// [`BeldiError::TxnAborted`] when a strictly older transaction holds
    /// the lock — this transaction must die (it cannot kill the holder;
    /// SSFs have no way to kill each other, which is why wait-die rather
    /// than wound-wait). The death is logged at the lock's step.
    pub(crate) fn txn_lock(
        &mut self,
        logical: &str,
        key: &Arc<str>,
        read: bool,
    ) -> BeldiResult<Locked> {
        let holds = |t: &TxnState| t.locked.iter().any(|(l, k)| l == logical && **k == **key);
        if self.txn.as_ref().is_some_and(holds) {
            return Ok(Locked::default());
        }
        let _op = self.op(Op::Lock);
        let physical = self.data_table(logical)?;
        let ctx = self.txn_ctx_cloned()?;
        // Wait-die: a younger transaction dies; an older one waits.
        let dies = |this: &Self, holder: &Value| {
            let _retry = this.op(Op::WaitDieRetry);
            let holder = schema::lock_owner(physical.name(), key, holder)?;
            Ok(holder.is_some_and(|(id, ts)| !ctx.is_older_than(ts, id)))
        };
        let out = self.lock_wait(&physical, key, (&ctx.id, ctx.start_ms), read, dies);
        if let (Err(BeldiError::TxnAborted), Some(t)) = (&out, &mut self.txn) {
            t.aborted = true;
        }
        let value = out?;
        let fresh = self.ensure_shadow_entry(logical, key)?;
        if let Some(t) = &mut self.txn {
            t.locked.push((logical.to_owned(), key.to_string()));
        }
        Ok(Locked { fresh, value })
    }

    /// Transactional read: lock, then read the shadow value if this
    /// transaction wrote the item, else the real value. Logged.
    pub(crate) fn txn_read(&mut self, logical: &str, key: &str) -> BeldiResult<Value> {
        let key = key.into();
        let locked = self.txn_lock(logical, &key, true)?;
        let val = self.txn_effective_value(logical, &key, locked)?;
        self.log_value(val)
    }

    /// Transactional write: lock, then buffer the value in the shadow
    /// table (flushed to the real table at commit).
    pub(crate) fn txn_write(&mut self, logical: &str, key: &str, value: Value) -> BeldiResult<()> {
        let key = key.into();
        self.txn_lock(logical, &key, false)?;
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
        let locked = self.txn_lock(logical, &key, true)?;
        let cur = self.txn_effective_value(logical, &key, locked)?;
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
    /// if present, else the committed value — the one its lock returned,
    /// or read through the tail cache like any data read (shadow tables
    /// are not cached). A fresh shadow entry ([`Locked`]) is not probed;
    /// on replay the read log returns the logged value either way.
    fn txn_effective_value(
        &mut self,
        logical: &str,
        key: &Arc<str>,
        locked: Locked,
    ) -> BeldiResult<Value> {
        if !locked.fresh {
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
        if let Some(value) = locked.value {
            return Ok(value);
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
            StepKind::Write,
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
            let out = self.write_step(&physical, &e.key, update, StepKind::Cond(&held))?;
            // A release may find the lock gone (a replayed release). A
            // flush that does reads the lock: a damaged one is corruption.
            if flush && !out.as_bool() {
                let holder = daal::lock_owner(self.db(), &physical, &e.key)?;
                schema::lock_owner(physical.name(), &e.key, &holder)?;
                return Err(BeldiError::Protocol(format!(
                    "commit of {}/{} found its lock not held",
                    e.logical, e.key
                )));
            }
        }

        // 2. Signal the SSFs this one invoked inside the transaction, as
        // its execution or its signal names them, each with its subtree.
        let signal_ctx = TxnContext {
            mode: decision,
            ..ctx.clone()
        };
        let signals = self.txn.as_ref().map(|t| t.tree(&self.ssf.name));
        for (callee, callees) in signals.unwrap_or_default().0 {
            let signal = Envelope::TxnSignal {
                id: finalize_marker(&callee, &ctx.id),
                txn: signal_ctx.clone(),
                callees,
            }
            .into_value();
            self.crash(Label::TxnPreSignal);
            // Unreachable: give up; the retried sender signals again. A
            // callee whose share failed answers its error: this share's.
            let reply = invoke::deliver(self.platform(), &callee, &signal);
            if let Some(Outcome::Error(m)) = Outcome::decode(&reply) {
                return Err(BeldiError::Protocol(m));
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
            Err(DbError::ConditionFailed) => {
                let mark = Projection::attrs(DoneMark::ATTRS);
                match self.db().get(table, &pk, Some(&mark))? {
                    Some(row) => {
                        let claimant = DoneMark::decode(table.name(), &row)?.claimant;
                        Ok(claimant == Some(self.instance()))
                    }
                    None => Ok(false),
                }
            }
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
        let commit = TxnContext {
            mode: TxnMode::Commit,
            ..ctx
        };
        assert_eq!(TxnContext::decode(&commit.to_value()).unwrap(), commit);
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

    /// The call tree `{ssf: subtree, ..}`.
    fn tree<const N: usize>(calls: [(&str, CallTree); N]) -> CallTree {
        CallTree(
            calls
                .into_iter()
                .map(|(ssf, sub)| (ssf.into(), sub))
                .collect(),
        )
    }

    #[test]
    fn a_call_tree_merges_its_calls_and_reaches_each_ssf_once() {
        let leaf = CallTree::default;
        let ctx = TxnContext {
            id: "t".into(),
            start_ms: 0,
            mode: TxnMode::Execute,
        };
        // A calls B twice, each B calls D, and the two D's call on to E,
        // and to F and A′, who calls H; A calls C, whose D calls G.
        let mut a = TxnState::inherited(ctx.clone());
        let me: Arc<str> = "a".into();
        a.invoked(&me, "b".into(), tree([("d", tree([("e", leaf())]))]));
        let a_h = tree([("a", tree([("h", leaf())])), ("f", leaf())]);
        a.invoked(&me, "b".into(), tree([("d", a_h)]));
        a.invoked(&me, "c".into(), tree([("d", tree([("g", leaf())]))]));
        // D's first signal, through B, carries all four of D's callees,
        // and C's none; A′'s call to H is A's, and A is the root.
        let d = tree([("a", leaf()), ("e", leaf()), ("f", leaf()), ("g", leaf())]);
        let want = tree([
            ("b", tree([("d", d)])),
            ("c", tree([("d", leaf())])),
            ("h", leaf()),
        ]);
        assert_eq!(a.tree(&me), want);
        // What a signal carries is the tree its receiver passes on.
        let mut b = TxnState::inherited(ctx);
        let b_name: Arc<str> = "b".into();
        for (callee, subtree) in want.0[&b_name].clone().0 {
            b.invoked(&b_name, callee, subtree);
        }
        assert_eq!(b.tree(&b_name), want.0[&b_name]);
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
