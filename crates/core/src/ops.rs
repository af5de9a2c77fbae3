//! The logged storage operations of Beldi's API (Fig. 2, §4.2–4.4).
//!
//! Every operation here consumes one (or more) *step numbers* and records
//! its outcome in a log keyed by `(instance id, step)`, so a re-executed
//! instance deterministically replays recorded results instead of
//! re-performing effects:
//!
//! - [`SsfContext::read`] logs the value it returned (Fig. 5): its result
//!   feeds later effects, so replay must reproduce it;
//! - [`SsfContext::write`] / [`SsfContext::cond_write`] execute and log
//!   atomically inside the storage atomicity scope (Figs. 6/17 via the
//!   linked DAAL, or a cross-table transaction in that mode);
//! - [`SsfContext::lock`] / [`SsfContext::unlock`] are conditional writes
//!   against the item's lock-owner column (§6.1): lock ownership belongs
//!   to the *intent*, so a re-executed instance still holds its locks. A
//!   lock wait is one step: a refused try logs nothing and backs off (1
//!   ms, doubling to 64 ms); the acquiring try logs `true`, and a wait-die
//!   death `false`;
//! - [`SsfContext::logged_now_ms`] logs the clock, so a re-execution
//!   reads the same time; [`SsfContext::logged_uuid`] needs no entry: its
//!   id is derived from its step.

use std::sync::Arc;
use std::time::Duration;

use beldi_simclock::{logging_step, Op};
use beldi_simdb::{DbError, PrimaryKey, TableRef};
use beldi_value::{Cond, Path, Update, Value};

use crate::config::Mode;
use crate::context::SsfContext;
use crate::daal::{self, StepKind, WriteOutcome};
use crate::error::{BeldiError, BeldiResult};
use crate::modes;
use crate::schema::{self, A_LOCK, A_LOG_KEY, A_VALUE};
use crate::Label;

/// The longest pause between two tries of a lock wait: latency a waiter
/// may pay after the lock frees, against a try per pause while it is held.
const LOCK_BACKOFF_CAP: Duration = Duration::from_millis(64);

impl SsfContext {
    // ---- Read (Fig. 5) ----

    /// Reads the current value of `key` in `table` (`Null` if absent).
    ///
    /// Exactly-once: the value is recorded in the read log under this
    /// step, and re-executions return the recorded value. Inside a
    /// transaction, the read first acquires the item's lock (2PL) and
    /// observes the transaction's own shadow writes.
    pub fn read(&mut self, table: &str, key: &str) -> BeldiResult<Value> {
        let _op = self.op(Op::Read);
        if self.in_txn() {
            return self.txn_read(table, key);
        }
        let physical = self.data_table(table)?;
        self.crash(Label::ReadEnter);
        // A Beldi read goes through the tail cache (`daal::TailCache`).
        let val = match self.mode() {
            Mode::Beldi => {
                let cache = self.core.tail_cache.as_ref();
                daal::read_value_cached(self.db(), cache, &physical, &key.into())?
            }
            Mode::CrossTable | Mode::Baseline => modes::baseline_read(self.db(), &physical, key)?,
        };
        self.log_value(val)
    }

    /// Records `val` in the read log under the next step and returns the
    /// authoritative value (the recorded one, on replay).
    ///
    /// This is the paper's read-logging tail (Fig. 5) and is reused for
    /// every logged source of nondeterminism. Baseline logs nothing.
    #[expect(
        clippy::disallowed_methods,
        reason = "between Label::ReadPreLog and Label::ReadPostLog"
    )]
    pub(crate) fn log_value(&mut self, val: Value) -> BeldiResult<Value> {
        if self.mode() == Mode::Baseline {
            return Ok(val);
        }
        let step = self.step;
        let log_key = self.next_log_key();
        let log = &self.ssf.log_table;
        self.crash(Label::ReadPreLog);
        // First writer wins: a re-execution must find the value its
        // predecessor logged, never overwrite it with a fresh read. The
        // fresh entry is seeded with its key.
        let entry_cond = Cond::not_exists(A_LOG_KEY);
        let update = Update::with_capacity(1).set(A_VALUE, val.clone());
        let pk = PrimaryKey::hash(&log_key);
        match logging_step(step, || self.db().update(log, &pk, &entry_cond, &update)) {
            Ok(()) => {
                self.log_steps.push(step);
                self.crash(Label::ReadPostLog);
                Ok(val)
            }
            Err(DbError::ConditionFailed) => {
                // A previous execution of this step logged first; its
                // value is authoritative.
                self.log_steps.push(step);
                let row = self.db().get(log, &pk, None)?.ok_or_else(|| {
                    BeldiError::Protocol(format!("read-log entry {log_key} vanished"))
                })?;
                schema::read_entry(log.name(), &log_key, &row).cloned()
            }
            Err(e) => Err(e.into()),
        }
    }

    // ---- Write (Figs. 6/7) and conditional write (Figs. 17/18) ----

    /// Writes `value` to `key` in `table`.
    ///
    /// Exactly-once: executing and logging happen inside one atomicity
    /// scope; re-executions find the log record and do nothing. Inside a
    /// transaction the write is redirected to the transaction's shadow
    /// table and only reaches `table` at commit.
    pub fn write(&mut self, table: &str, key: &str, value: Value) -> BeldiResult<()> {
        let _op = self.op(Op::Write);
        if self.in_txn() {
            return self.txn_write(table, key, value);
        }
        let physical = self.data_table(table)?;
        let set = Update::new().set(A_VALUE, value);
        self.write_step(&physical, &key.into(), set, StepKind::Write)?;
        Ok(())
    }

    /// Writes `value` to `key` only if `cond` holds at the time of the
    /// write; returns whether it did.
    ///
    /// The condition is evaluated against the item's row inside the
    /// database's atomicity scope; it may reference the [`A_VALUE`] and
    /// [`A_LOCK`] attributes (e.g. `Cond::ge(Path::parse("Value.stock")?,
    /// 1)`). The outcome — including `false` — is logged, so re-executions
    /// replay it even if the state has since changed.
    pub fn cond_write(
        &mut self,
        table: &str,
        key: &str,
        value: Value,
        cond: Cond,
    ) -> BeldiResult<bool> {
        let _op = self.op(Op::CondWrite);
        if self.in_txn() {
            return self.txn_cond_write(table, key, value, cond);
        }
        let physical = self.data_table(table)?;
        let out = self.write_step(
            &physical,
            &key.into(),
            Update::new().set(A_VALUE, value),
            StepKind::Cond(&cond),
        )?;
        Ok(out.as_bool())
    }

    /// One write step against a physical table, dispatched by mode (in
    /// baseline, unlogged). `payload` is the update applied on success,
    /// under the `kind`'s condition.
    ///
    /// Consumes one step number. Callers outside this module use it for
    /// lock releases, shadow writes and transaction flushes.
    pub(crate) fn write_step(
        &mut self,
        physical: &TableRef,
        key: &Arc<str>,
        payload: Update,
        kind: StepKind<'_>,
    ) -> BeldiResult<WriteOutcome> {
        self.step += 1;
        self.write_at(self.step - 1, physical, key, payload, kind)
    }

    /// [`SsfContext::write_step`] at `step`, which the caller took.
    fn write_at(
        &mut self,
        step: crate::ids::StepNumber,
        physical: &TableRef,
        key: &Arc<str>,
        payload: Update,
        kind: StepKind<'_>,
    ) -> BeldiResult<WriteOutcome> {
        let log_key = || crate::ids::log_key(self.instance(), step);
        self.crash(Label::WriteEnter);
        let out = match self.mode() {
            Mode::Beldi => self.with_daal(physical, |p| {
                daal::try_write(p, physical, key, &log_key(), payload, kind)
            })?,
            Mode::CrossTable => {
                let log = &self.ssf.log_table;
                let out = modes::cross_table_write(
                    self.db(),
                    physical,
                    log,
                    key,
                    &log_key(),
                    payload,
                    kind,
                )?;
                // Every outcome but a refused lock try leaves the step's entry.
                if !matches!(out, WriteOutcome::Refused(_)) {
                    self.log_steps.push(step);
                }
                out
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "between Label::WriteEnter and Label::WriteExit"
            )]
            Mode::Baseline => {
                // Unlogged: a retry applies it again.
                let pk = PrimaryKey::hash(key);
                let cond = kind.cond().cloned().unwrap_or(Cond::True);
                match logging_step(step, || self.db().update(physical, &pk, &cond, &payload)) {
                    Ok(()) => WriteOutcome::Applied(None),
                    Err(DbError::ConditionFailed) => WriteOutcome::ConditionFalse,
                    Err(e) => return Err(e.into()),
                }
            }
        };
        self.crash(Label::WriteExit);
        Ok(out)
    }

    // ---- Locks (§6.1) ----

    /// The condition under which `owner_id` may take (or retake) a lock.
    pub(crate) fn lock_free_cond(owner_id: &Arc<str>) -> Cond {
        Cond::not_exists(A_LOCK)
            .or(Cond::eq(A_LOCK, Value::Null))
            .or(Cond::eq(Path::attr(A_LOCK).then_attr("Id"), owner_id))
    }

    /// Acquires the lock on `key`, blocking (in virtual time) until it is
    /// free.
    ///
    /// Locks are owned by the *intent*, so a crash does not strand the
    /// lock: the re-executed instance re-acquires it idempotently.
    /// Standalone locks have no deadlock prevention; inside transactions,
    /// [`SsfContext::begin_tx`] switches locking to wait-die.
    pub fn lock(&mut self, table: &str, key: &str) -> BeldiResult<()> {
        if self.in_txn() {
            return self.txn_lock(table, &key.into(), false).map(drop);
        }
        let _op = self.op(Op::Lock);
        if self.mode() == Mode::Baseline {
            return Ok(());
        }
        let physical = self.data_table(table)?;
        let owner = (&self.instance().clone(), 0);
        let never = |_: &Self, _: &Value| Ok(false);
        self.lock_wait(&physical, &key.into(), owner, false, never)
            .map(drop)
    }

    /// Takes the lock on `key` for `owner` (an id and its age) in one step
    /// (module docs), returning the item's value when a `returning` try
    /// applied now. Each try passes the write probes, so the lease bounds
    /// the wait. When `dies` judges a refusing holder fatal, the step logs
    /// `false` (a write whose condition never holds: B2 logs it, appending
    /// to a full row) and the wait, like a replay of it, ends in
    /// [`BeldiError::TxnAborted`].
    pub(crate) fn lock_wait(
        &mut self,
        physical: &TableRef,
        key: &Arc<str>,
        (owner_id, age): (&Arc<str>, u64),
        returning: bool,
        mut dies: impl FnMut(&Self, &Value) -> BeldiResult<bool>,
    ) -> BeldiResult<Option<Value>> {
        let step = self.step;
        self.step += 1;
        let free = &Self::lock_free_cond(owner_id);
        let lock = StepKind::Lock { free, returning };
        let owner = crate::txn::lock_owner_value(owner_id, age);
        let mut pause = Duration::from_millis(1);
        loop {
            let set = Update::new().set(A_LOCK, owner.clone());
            let holder = match self.write_at(step, physical, key, set, lock)? {
                WriteOutcome::Applied(value) => return Ok(value),
                WriteOutcome::ConditionFalse => return Err(BeldiError::TxnAborted),
                WriteOutcome::Refused(holder) => holder,
            };
            if dies(self, &holder)? {
                let death = StepKind::Cond(&Cond::False);
                return match self.write_at(step, physical, key, Update::new(), death)? {
                    // A racing execution of this instance took the lock here.
                    WriteOutcome::Applied(value) => Ok(value),
                    _ => Err(BeldiError::TxnAborted),
                };
            }
            self.clock().sleep(pause);
            pause = (pause * 2).min(LOCK_BACKOFF_CAP);
        }
    }

    /// Releases the lock on `key`.
    ///
    /// # Errors
    ///
    /// [`BeldiError::Protocol`] when the lock is not held by this intent
    /// (an application bug); re-executions of a successful unlock replay
    /// harmlessly.
    pub fn unlock(&mut self, table: &str, key: &str) -> BeldiResult<()> {
        let _op = self.op(Op::Lock);
        if let Some(txn) = &self.txn {
            // Transactional locks are released by the commit/abort
            // protocol, never manually.
            if !txn.ended {
                return Err(BeldiError::Unsupported(
                    "unlock inside a transaction (2PL releases at commit/abort)",
                ));
            }
        }
        if self.mode() == Mode::Baseline {
            return Ok(());
        }
        let physical = self.data_table(table)?;
        let held = Cond::eq(Path::attr(A_LOCK).then_attr("Id"), self.instance());
        let release = Update::new().set(A_LOCK, Value::Null);
        match self.write_step(&physical, &key.into(), release, StepKind::Cond(&held))? {
            WriteOutcome::Applied(_) => Ok(()),
            _ => Err(BeldiError::Protocol(format!(
                "unlock of {table}/{key}, which this intent does not hold"
            ))),
        }
    }

    // ---- Logged nondeterminism ----

    /// Current virtual time in milliseconds, logged so re-executions see
    /// the same timestamp.
    pub fn logged_now_ms(&mut self) -> BeldiResult<u64> {
        let _op = self.op(Op::Read);
        let (step, now) = (self.step, Value::Int(self.raw_now_ms() as i64));
        let v = self.log_value(now)?;
        let key = || crate::ids::log_key(self.instance(), step);
        schema::time(&v).ok_or_else(|| schema::corrupt(self.ssf.log_table.name(), &key(), A_VALUE))
    }

    /// A unique id, the same on every execution of this step: derived
    /// from `(instance, step)` ([`beldi_simfaas::Platform::issue_id`]), it
    /// needs no log entry. It consumes its step in every mode.
    pub fn logged_uuid(&mut self) -> String {
        let id = self.platform().issue_id(self.instance(), self.step);
        self.step += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::BeldiEnv;
    use crate::BeldiConfig;
    use beldi_simclock::Metric;
    use std::sync::Arc;

    fn test_ctx(mode: crate::Mode) -> (BeldiEnv, SsfContext) {
        let cfg = BeldiConfig::for_mode(mode);
        let env = BeldiEnv::for_tests_with(cfg.with_row_capacity(3));
        env.register_ssf("f", &["state"], Arc::new(|_, _| Ok(Value::Null)));
        let ctx = env.test_context("f", "inst-1");
        (env, ctx)
    }

    #[test]
    fn read_write_round_trip_all_modes() {
        for mode in [
            crate::Mode::Beldi,
            crate::Mode::CrossTable,
            crate::Mode::Baseline,
        ] {
            let (_env, mut ctx) = test_ctx(mode);
            assert_eq!(ctx.read("state", "k").unwrap(), Value::Null);
            ctx.write("state", "k", Value::Int(4)).unwrap();
            assert_eq!(ctx.read("state", "k").unwrap(), Value::Int(4));
        }
    }

    /// A read entry a replay finds damaged is `Corrupt`, never a default:
    /// one without a `Value` is not a logged `Null`, a clock read that is
    /// not a non-negative int is not 0.
    #[test]
    fn a_replayed_read_entry_breaking_its_rule_is_corrupt() {
        use crate::schema::corrupt;
        let (env, _) = test_ctx(crate::Mode::Beldi);
        let plant = |entry: Value| {
            #[expect(clippy::disallowed_methods, reason = "plants corruption")]
            env.db().put("f.log", entry).unwrap();
        };
        let damaged = || corrupt("f.log", "inst-1#0", A_VALUE);
        plant(beldi_value::vmap! { A_LOG_KEY => "inst-1#0" });
        let mut replay = env.test_context("f", "inst-1");
        assert_eq!(replay.read("state", "k"), Err(damaged()));
        for bad in [Value::from("7"), Value::Int(-7)] {
            plant(beldi_value::vmap! { A_LOG_KEY => "inst-1#0", A_VALUE => bad });
            let mut replay = env.test_context("f", "inst-1");
            assert_eq!(replay.logged_now_ms(), Err(damaged()));
        }
    }

    #[test]
    fn replay_returns_logged_read() {
        let (env, mut ctx) = test_ctx(crate::Mode::Beldi);
        ctx.write("state", "k", Value::Int(1)).unwrap();
        let v1 = ctx.read("state", "k").unwrap();
        assert_eq!(v1, Value::Int(1));
        // Another writer changes the value...
        let mut other = env.test_context("f", "inst-2");
        other.write("state", "k", Value::Int(2)).unwrap();
        // ...but a re-execution of inst-1 replays the logged values and
        // re-performs nothing.
        let mut replay = env.test_context("f", "inst-1");
        replay.write("state", "k", Value::Int(1)).unwrap();
        assert_eq!(replay.read("state", "k").unwrap(), Value::Int(1));
        // The store still holds the other writer's value.
        let mut fresh = env.test_context("f", "inst-3");
        assert_eq!(fresh.read("state", "k").unwrap(), Value::Int(2));
    }

    #[test]
    fn cond_write_outcome_is_replayed() {
        let (env, mut ctx) = test_ctx(crate::Mode::Beldi);
        ctx.write("state", "k", Value::Int(10)).unwrap();
        let ok = ctx
            .cond_write("state", "k", Value::Int(11), Cond::ge(A_VALUE, 10i64))
            .unwrap();
        assert!(ok);
        let no = ctx
            .cond_write("state", "k", Value::Int(99), Cond::ge(A_VALUE, 100i64))
            .unwrap();
        assert!(!no);
        // Replay the exact same steps on a re-execution.
        let mut replay = env.test_context("f", "inst-1");
        replay.write("state", "k", Value::Int(10)).unwrap();
        assert!(replay
            .cond_write("state", "k", Value::Int(11), Cond::ge(A_VALUE, 10i64))
            .unwrap());
        assert!(!replay
            .cond_write("state", "k", Value::Int(99), Cond::ge(A_VALUE, 100i64))
            .unwrap());
        assert_eq!(replay.read("state", "k").unwrap(), Value::Int(11));
    }

    #[test]
    fn tail_cache_skips_traversal_scans_without_changing_reads() {
        let reads_and_queries = |tail_cache: bool| -> (Vec<Value>, u64) {
            let cfg = BeldiConfig::beldi().with_tail_cache(tail_cache);
            let env = BeldiEnv::for_tests_with(cfg);
            env.register_ssf("f", &["state"], Arc::new(|_, _| Ok(Value::Null)));
            let mut ctx = env.test_context("f", "inst-1");
            ctx.write("state", "k", Value::Int(7)).unwrap();
            let before = env.db_metrics();
            let mut vals = Vec::new();
            for _ in 0..5 {
                // Distinct instances so each read hits storage instead of
                // replaying its own read log.
                let mut reader = env.test_context("f", &format!("r-{}", vals.len()));
                vals.push(reader.read("state", "k").unwrap());
            }
            (vals, env.db_metrics().delta(&before).queries)
        };
        let (cached_vals, cached_queries) = reads_and_queries(true);
        let (plain_vals, plain_queries) = reads_and_queries(false);
        assert_eq!(cached_vals, plain_vals, "cache must not change values");
        assert_eq!(plain_queries, 5, "uncached: one traversal scan per read");
        assert_eq!(
            cached_queries, 0,
            "cached: the setup write left the tail cached, so no read scans"
        );
    }

    /// Writes that never fill a row resolve on the cached tail: the first
    /// write creates `HEAD`, the implicit entry of an uncached key, and
    /// every write is a hit; none falls back and none scans.
    #[test]
    fn a_fill_free_write_loop_hits_the_cached_tail() {
        let env = BeldiEnv::for_tests();
        env.register_ssf("f", &["state"], Arc::new(|_, _| Ok(Value::Null)));
        let mut ctx = env.test_context("f", "w");
        let before = env.db_metrics();
        for v in 0..10 {
            ctx.write("state", "k", Value::Int(v)).unwrap();
        }
        let t = env.telemetry();
        let counts = (
            t.get(Metric::TailCacheWriteHits),
            t.get(Metric::TailCacheWriteFallbacks),
        );
        assert_eq!(counts, (10, 0), "(write hits, write fallbacks)");
        let d = env.db_metrics().delta(&before);
        assert_eq!((d.queries, d.writes), (0, 10), "no write scans");
    }

    /// An intent created after the key's tail was appended writes that
    /// row without a traversal; one created before it falls back.
    #[test]
    fn a_tail_older_than_the_intent_takes_the_write() {
        let cfg = BeldiConfig::beldi().with_row_capacity(2);
        let env = BeldiEnv::for_tests_with(cfg);
        env.register_ssf("f", &["state"], Arc::new(|_, _| Ok(Value::Null)));
        let core = env.test_core();
        let ssf = core.ssf("f").unwrap();
        let intent = |id: &str| {
            let now = env.clock().now().as_millis();
            let probe = core.platform.faults().probe(&id.into());
            SsfContext::new(core.clone(), ssf.clone(), probe, now, now)
        };
        let mut early = intent("early");
        for v in 0..3 {
            env.clock().sleep(std::time::Duration::from_millis(1));
            intent(&format!("w-{v}"))
                .write("state", "k", Value::Int(v))
                .unwrap();
        }
        assert_eq!(env.daal_chain_len("f", "state", "k").unwrap(), 2);
        let t = env.telemetry();
        let counts = || {
            (
                t.get(Metric::TailCacheWriteHits),
                t.get(Metric::TailCacheWriteFallbacks),
            )
        };
        let before = counts();
        env.clock().sleep(std::time::Duration::from_millis(1));
        intent("late").write("state", "k", Value::Int(10)).unwrap();
        assert_eq!(
            counts(),
            (before.0 + 1, before.1),
            "a hit on the appended row"
        );
        early.write("state", "k", Value::Int(11)).unwrap();
        assert_eq!(counts(), (before.0 + 1, before.1 + 1), "a fallback");
        assert_eq!(env.read_current("f", "state", "k").unwrap(), Value::Int(11));
    }

    #[test]
    fn read_bills_the_value_not_the_write_log() {
        // What one read fetches when the key's tail row carries `writes`
        // log entries (the default row holds up to 100).
        let one_read = |writes: usize| {
            let env = BeldiEnv::for_tests();
            env.register_ssf("f", &["state"], Arc::new(|_, _| Ok(Value::Null)));
            env.seed("f", "state", "k", Value::from("v")).unwrap();
            let mut writer = env.test_context("f", "writer");
            for _ in 0..writes {
                writer.write("state", "k", Value::from("v")).unwrap();
            }
            // The first read finds the tail; the second is the steady state.
            env.test_context("f", "r-0").read("state", "k").unwrap();
            let before = env.db_metrics();
            let val = env.test_context("f", "r-1").read("state", "k").unwrap();
            assert_eq!(val, Value::from("v"));
            let d = env.db_metrics().delta(&before);
            (d.gets, d.queries, d.bytes_read)
        };
        let bare = one_read(0);
        assert_eq!(bare, (1, 0, "v".len() as u64 + 3 + A_VALUE.len() as u64));
        assert_eq!(one_read(99), bare, "the write log must stay in the store");
    }

    #[test]
    fn data_sovereignty_rejects_foreign_tables() {
        let (_env, mut ctx) = test_ctx(crate::Mode::Beldi);
        assert!(matches!(
            ctx.read("not-mine", "k"),
            Err(BeldiError::Protocol(_))
        ));
    }

    #[test]
    fn lock_is_intent_owned_and_reentrant() {
        let (env, mut ctx) = test_ctx(crate::Mode::Beldi);
        ctx.write("state", "k", Value::Int(0)).unwrap();
        ctx.lock("state", "k").unwrap();
        // A re-execution of the same intent re-acquires without blocking.
        let mut replay = env.test_context("f", "inst-1");
        replay.write("state", "k", Value::Int(0)).unwrap();
        replay.lock("state", "k").unwrap();
        replay.unlock("state", "k").unwrap();
        // Now a different intent can take it.
        let mut other = env.test_context("f", "inst-9");
        other.lock("state", "k").unwrap();
        other.unlock("state", "k").unwrap();
    }

    /// A lock wait is one step however many tries it takes: the waiter
    /// below is refused while the holder sleeps 10 ms (tries at 0, 1, 3
    /// and 7 ms), and acquires at 15 ms. Its lock leaves one entry, `w#0`,
    /// and its next op takes step 1, as with no wait, in both logged
    /// modes.
    #[test]
    fn a_lock_wait_is_one_step_however_many_tries_it_takes() {
        for mode in [crate::Mode::Beldi, crate::Mode::CrossTable] {
            let (env, mut holder) = test_ctx(mode);
            holder.lock("state", "k").unwrap();
            let clock = env.clock().clone();
            let release = env.clock().spawn(
                "holder".into(),
                Box::new(move || {
                    clock.sleep(std::time::Duration::from_millis(10));
                    holder.unlock("state", "k").unwrap();
                }),
            );
            let mut waiter = env.test_context("f", "w");
            let before = env.db_metrics();
            waiter.lock("state", "k").unwrap();
            let refused = env.db_metrics().delta(&before).cond_failures;
            assert_eq!(refused, 4, "{mode:?}: refused tries");
            assert_eq!(env.clock().now().as_millis(), 15, "{mode:?}");
            waiter.write("state", "k", Value::Int(1)).unwrap();
            release.join().unwrap();
            // The waiter's entries: in the key's write logs, or log rows.
            let (table, attr) = match mode {
                crate::Mode::Beldi => ("f.data.state", schema::A_WRITES),
                _ => ("f.log", A_LOG_KEY),
            };
            let rows = env
                .db()
                .scan_all(&env.db().table(table), &beldi_simdb::ScanRequest::all())
                .unwrap();
            let mut entries: Vec<String> = rows
                .iter()
                .filter_map(|row| row.get_attr(attr))
                .flat_map(|v| -> Vec<String> {
                    match v.as_map() {
                        Some(log) => log.keys().map(|k| k.to_string()).collect(),
                        None => v.as_str().map(str::to_owned).into_iter().collect(),
                    }
                })
                .filter(|k| k.starts_with("w#"))
                .collect();
            entries.sort();
            assert_eq!(entries, ["w#0", "w#1"], "{mode:?}");
        }
    }

    #[test]
    fn unlock_without_lock_is_an_error() {
        let (_env, mut ctx) = test_ctx(crate::Mode::Beldi);
        ctx.write("state", "k", Value::Int(0)).unwrap();
        assert!(ctx.unlock("state", "k").is_err());
    }

    /// A re-execution of a step gets the step's id; another step or
    /// another instance gets another, of the platform's shape.
    #[test]
    fn logged_uuid_is_stable_across_replay() {
        let (env, mut ctx) = test_ctx(crate::Mode::Beldi);
        let a = [ctx.logged_uuid(), ctx.logged_uuid()];
        let mut replay = env.test_context("f", "inst-1");
        assert_eq!([replay.logged_uuid(), replay.logged_uuid()], a);
        assert_ne!(a[0], a[1]);
        let mut other = env.test_context("f", "inst-2");
        assert!(!a.contains(&other.logged_uuid()));
        assert!(a
            .iter()
            .all(|id| id.len() == 25 && id.as_bytes()[16] == b'-'));
    }

    /// A logged uuid needs no entry: in every mode it consumes its step
    /// and moves no store counter.
    #[test]
    fn a_logged_uuid_moves_no_store_counter() {
        for mode in [
            crate::Mode::Beldi,
            crate::Mode::CrossTable,
            crate::Mode::Baseline,
        ] {
            let (env, mut ctx) = test_ctx(mode);
            let before = env.db_metrics();
            ctx.logged_uuid();
            assert_eq!(ctx.step(), 1, "{mode:?}");
            assert_eq!(env.db_metrics(), before, "{mode:?}");
        }
    }

    #[test]
    fn logged_now_is_stable_across_replay() {
        let (env, mut ctx) = test_ctx(crate::Mode::Beldi);
        let a = ctx.logged_now_ms().unwrap();
        env.clock().sleep(std::time::Duration::from_millis(50));
        let mut replay = env.test_context("f", "inst-1");
        assert_eq!(replay.logged_now_ms().unwrap(), a);
    }

    /// The differential test of cached writes: random write histories
    /// run with the tail cache on and off. A refused lock try consumes no
    /// step: it logs nothing, so the intent's next op takes its step, and
    /// a lock run again there may acquire.
    mod cached_against_uncached {
        use super::*;
        use crate::ids::StepNumber;
        use crate::schema::{A_KEY, A_LOG_SIZE, A_NEXT_ROW, A_ROW_ID, A_WRITES};
        use proptest::prelude::*;
        use std::time::Duration;

        const KEYS: [&str; 3] = ["ka", "kb", "kc"];

        /// One logged write step over [`KEYS`].
        #[derive(Debug, Clone, Copy)]
        enum Op {
            Write(usize, i64),
            /// Writes the value if the current one is at least the bound.
            CondWrite(usize, i64, i64),
            Lock(usize),
            Unlock(usize),
        }

        impl Op {
            /// The key, payload and condition `write_step` takes when
            /// intent `id` runs this op; a lock's makes it a lock try.
            fn args(self, id: &Arc<str>) -> (Arc<str>, Update, Option<Cond>) {
                let (k, update, cond) = match self {
                    Op::Write(k, v) => (k, Update::new().set(A_VALUE, v), None),
                    Op::CondWrite(k, t, v) => {
                        (k, Update::new().set(A_VALUE, v), Some(Cond::ge(A_VALUE, t)))
                    }
                    Op::Lock(k) => (
                        k,
                        Update::new().set(A_LOCK, crate::txn::lock_owner_value(id, 0)),
                        Some(SsfContext::lock_free_cond(id)),
                    ),
                    Op::Unlock(k) => (
                        k,
                        Update::new().set(A_LOCK, Value::Null),
                        Some(Cond::eq(Path::attr(A_LOCK).then_attr("Id"), id)),
                    ),
                };
                (KEYS[k].into(), update, cond)
            }
        }

        /// One event of a generated history.
        #[derive(Debug, Clone, Copy)]
        enum Event {
            /// A new intent is created now.
            Begin,
            /// Virtual time passes, in milliseconds.
            Sleep(u64),
            /// An intent (picked modulo those begun) runs its next step.
            Run(usize, Op),
            /// An intent re-executes one of the steps it ran (picked
            /// modulo their number), as a replaying instance does.
            Replay(usize, usize),
        }

        fn event() -> impl Strategy<Value = Event> {
            prop_oneof![
                (0..1usize).prop_map(|_| Event::Begin),
                (1..4u64).prop_map(Event::Sleep),
                (0..4usize, 0..3usize, -5i64..5)
                    .prop_map(|(i, k, v)| Event::Run(i, Op::Write(k, v))),
                (0..4usize, 0..3usize, -5i64..5, -5i64..5)
                    .prop_map(|(i, k, t, v)| Event::Run(i, Op::CondWrite(k, t, v))),
                (0..4usize, 0..3usize).prop_map(|(i, k)| Event::Run(i, Op::Lock(k))),
                (0..4usize, 0..3usize).prop_map(|(i, k)| Event::Run(i, Op::Unlock(k))),
                (0..4usize, 0..64usize).prop_map(|(i, j)| Event::Replay(i, j)),
            ]
        }

        /// One intent of a history: its id, creation time, and each step
        /// it ran with the outcome the step first had.
        struct Intent {
            id: Arc<str>,
            created_ms: u64,
            ran: Vec<(Op, WriteOutcome)>,
        }

        /// A data row as the comparison sees it: `Key`, `RowId`, `Value`,
        /// `RecentWrites`, `NextRow` and `LogSize`.
        type Row = Vec<Option<Value>>;

        /// Runs `events` at row capacity 2: each step's outcome, the data
        /// table's rows, and the queries the history cost. A replayed step
        /// must return its first outcome.
        fn run(events: &[Event], tail_cache: bool) -> (Vec<WriteOutcome>, Vec<Row>, u64) {
            let cfg = BeldiConfig::beldi()
                .with_row_capacity(2)
                .with_tail_cache(tail_cache);
            let env = BeldiEnv::for_tests_with(cfg);
            env.register_ssf("f", &["t"], Arc::new(|_, _| Ok(Value::Null)));
            let core = env.test_core();
            let ssf = core.ssf("f").unwrap();
            let physical = ssf.tables[0].data.clone();
            let now = || env.clock().now().as_millis();
            let begin = |n: usize| Intent {
                id: format!("i{n}").into(),
                created_ms: now(),
                ran: Vec::new(),
            };
            let mut intents = vec![begin(0)];
            let mut outcomes = Vec::new();
            let before = env.db_metrics();
            for &event in events {
                let (i, op, step) = match event {
                    Event::Begin => {
                        intents.push(begin(intents.len()));
                        continue;
                    }
                    Event::Sleep(ms) => {
                        env.clock().sleep(Duration::from_millis(ms));
                        continue;
                    }
                    Event::Run(i, op) => {
                        let i = i % intents.len();
                        (i, op, intents[i].ran.len())
                    }
                    Event::Replay(i, j) => {
                        let i = i % intents.len();
                        let ran = &intents[i].ran;
                        if ran.is_empty() {
                            continue;
                        }
                        (i, ran[j % ran.len()].0, j % ran.len())
                    }
                };
                let intent = &mut intents[i];
                let (id, created_ms) = (intent.id.clone(), intent.created_ms);
                let launch_ms = core.platform.clock().now().as_millis();
                let probe = core.platform.faults().probe(&id);
                let mut ctx =
                    SsfContext::new(core.clone(), ssf.clone(), probe, created_ms, launch_ms);
                ctx.step = step as StepNumber;
                let (key, update, cond) = op.args(&id);
                let kind = match (op, &cond) {
                    (Op::Lock(_), Some(free)) => StepKind::Lock {
                        free,
                        returning: false,
                    },
                    (_, Some(cond)) => StepKind::Cond(cond),
                    (_, None) => StepKind::Write,
                };
                let out = ctx.write_step(&physical, &key, update, kind).unwrap();
                match intent.ran.get(step) {
                    Some((_, first)) => assert_eq!(&out, first, "{id} replayed step {step}"),
                    None if matches!(out, WriteOutcome::Refused(_)) => {}
                    None => intent.ran.push((op, out.clone())),
                }
                outcomes.push(out);
            }
            let queries = env.db_metrics().delta(&before).queries;
            let attrs = [A_KEY, A_ROW_ID, A_VALUE, A_WRITES, A_NEXT_ROW, A_LOG_SIZE];
            let mut rows: Vec<Row> = env
                .db()
                .scan_all(&physical, &beldi_simdb::ScanRequest::all())
                .unwrap()
                .iter()
                .map(|row| attrs.iter().map(|a| row.get_attr(a).cloned()).collect())
                .collect();
            rows.sort();
            (outcomes, rows, queries)
        }

        proptest! {
            #![proptest_config(ProptestConfig {
                cases: 64,
                ..ProptestConfig::default()
            })]

            /// Cached writes change what a history costs, never what it
            /// does: the same outcomes and the same rows — values, write
            /// logs, links and log sizes — with the cache on as off, for
            /// no more queries.
            #[test]
            fn cached_writes_match_uncached_writes(
                events in prop::collection::vec(event(), 1..40),
            ) {
                let (cached, cached_rows, cached_queries) = run(&events, true);
                let (plain, plain_rows, plain_queries) = run(&events, false);
                prop_assert_eq!(cached, plain);
                prop_assert_eq!(cached_rows, plain_rows);
                prop_assert!(
                    cached_queries <= plain_queries,
                    "cached {cached_queries} queries, uncached {plain_queries}"
                );
            }
        }
    }
}
