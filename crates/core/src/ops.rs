//! The logged storage operations of Beldi's API (Fig. 2, §4.2–4.4).
//!
//! Every operation here consumes one (or more) *step numbers* and records
//! its outcome in a log keyed by `(instance id, step)`, so a re-executed
//! instance deterministically replays recorded results instead of
//! re-performing effects:
//!
//! - [`SsfContext::read`] logs the value it returned as a read entry of
//!   the SSF's log (Fig. 5) — reads have no external effect, but their results feed
//!   later effects, so replay must reproduce them;
//! - [`SsfContext::write`] / [`SsfContext::cond_write`] execute and log
//!   atomically inside the storage atomicity scope (Figs. 6/17 via the
//!   linked DAAL, or a cross-table transaction in that mode);
//! - [`SsfContext::lock`] / [`SsfContext::unlock`] are conditional writes
//!   against the item's lock-owner column (§6.1): lock ownership belongs
//!   to the *intent*, so a re-executed instance still holds its locks;
//! - [`SsfContext::logged_now_ms`] and [`SsfContext::logged_uuid`] make
//!   the two common sources of nondeterminism replayable, as Olive
//!   prescribes for nondeterministic intent code.

use std::sync::Arc;

use beldi_simdb::{DbError, PrimaryKey};
use beldi_value::{Cond, Path, Update, Value};

use crate::config::Mode;
use crate::context::SsfContext;
use crate::daal::{self, WriteOutcome, WritePayload};
use crate::error::{BeldiError, BeldiResult};
use crate::modes;
use crate::schema::{A_LOCK, A_LOG_KEY, A_VALUE};
use crate::Label;

/// Maximum spins while waiting for a contended lock before concluding the
/// application has a liveness bug (standalone locks have no deadlock
/// prevention; transactions use wait-die and abort much earlier).
const MAX_LOCK_SPINS: usize = 100_000;

impl SsfContext {
    // ---- Read (Fig. 5) ----

    /// Reads the current value of `key` in `table` (`Null` if absent).
    ///
    /// Exactly-once: the value is recorded in the read log under this
    /// step, and re-executions return the recorded value. Inside a
    /// transaction, the read first acquires the item's lock (2PL) and
    /// observes the transaction's own shadow writes.
    pub fn read(&mut self, table: &str, key: &str) -> BeldiResult<Value> {
        if self.in_txn() {
            return self.txn_read(table, key);
        }
        let physical = self.data_table(table)?;
        self.crash(Label::ReadEnter);
        let val = self.raw_read_value(&physical, key)?;
        if self.mode() == Mode::Baseline {
            return Ok(val);
        }
        self.log_value(val)
    }

    /// The mode-appropriate raw (unlogged) read of a data table.
    ///
    /// Beldi-mode reads go through the environment's tail-row cache when
    /// enabled, turning the common case from a traversal scan plus a point
    /// get into a single validated point get (the driver's measured hot
    /// path; see `daal::TailCache`).
    pub(crate) fn raw_read_value(&self, physical: &str, key: &str) -> BeldiResult<Value> {
        match self.mode() {
            Mode::Beldi => daal::read_value_cached(
                self.db(),
                self.core.tail_cache.as_ref(),
                physical,
                &key.into(),
            ),
            Mode::CrossTable => modes::cross_table_read(self.db(), physical, key),
            Mode::Baseline => modes::baseline_read(self.db(), physical, key),
        }
    }

    /// Records `val` in the read log under the next step and returns the
    /// authoritative value (the recorded one, on replay).
    ///
    /// This is the paper's read-logging tail (Fig. 5) and is reused for
    /// every logged source of nondeterminism.
    #[expect(
        clippy::disallowed_methods,
        reason = "between Label::ReadPreLog and Label::ReadPostLog"
    )]
    pub(crate) fn log_value(&mut self, val: Value) -> BeldiResult<Value> {
        let step = self.step;
        let log_key = self.next_log_key();
        let log = &self.ssf.log_table;
        self.crash(Label::ReadPreLog);
        // First writer wins: a re-execution must find the value its
        // predecessor logged, never overwrite it with a fresh read. The
        // fresh entry is seeded with its key.
        let entry_cond = Cond::not_exists(A_LOG_KEY);
        let update = Update::new().set(A_VALUE, val.clone());
        let pk = PrimaryKey::hash(&log_key);
        match self.db().update(log, &pk, &entry_cond, &update) {
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
                Ok(row.get_attr(A_VALUE).cloned().unwrap_or(Value::Null))
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
        if self.in_txn() {
            return self.txn_write(table, key, value);
        }
        let physical = self.data_table(table)?;
        if self.mode() == Mode::Baseline {
            return modes::baseline_write(self.db(), &physical, key, value);
        }
        let key = key.into();
        self.write_step(&physical, &key, Update::new().set(A_VALUE, value), None)?;
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
        if self.in_txn() {
            return self.txn_cond_write(table, key, value, cond);
        }
        let physical = self.data_table(table)?;
        if self.mode() == Mode::Baseline {
            return modes::baseline_cond_write(self.db(), &physical, key, value, &cond);
        }
        let out = self.write_step(
            &physical,
            &key.into(),
            Update::new().set(A_VALUE, value),
            Some(&cond),
        )?;
        Ok(out.as_bool())
    }

    /// One exactly-once write step against a physical table, dispatched by
    /// mode. `payload` is the update applied on success; `user_cond`
    /// optionally gates it (with the false outcome logged).
    ///
    /// Consumes one step number. Callers outside this module use it for
    /// lock transitions and transaction flushes.
    pub(crate) fn write_step(
        &mut self,
        physical: &str,
        key: &Arc<str>,
        payload: Update,
        user_cond: Option<&Cond>,
    ) -> BeldiResult<WriteOutcome> {
        let step = self.step;
        let log_key = self.next_log_key();
        self.crash(Label::WriteEnter);
        let out = match self.mode() {
            Mode::Beldi => self.with_daal(|p| {
                let payload = WritePayload { apply: payload };
                daal::try_write(p, physical, key, &log_key, payload, user_cond)
            })?,
            Mode::CrossTable => {
                // Either outcome leaves the step's entry in the log.
                let out = modes::cross_table_write(
                    self.db(),
                    physical,
                    &self.ssf.log_table,
                    key,
                    &log_key,
                    payload,
                    user_cond,
                )?;
                self.log_steps.push(step);
                out
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "between Label::WriteEnter and Label::WriteExit"
            )]
            Mode::Baseline => {
                // Unlogged; used only via lock/flush paths that are no-ops
                // in baseline mode, but kept total for robustness.
                let pk = PrimaryKey::hash(key);
                let cond = user_cond.cloned().unwrap_or(Cond::True);
                match self.db().update(physical, &pk, &cond, &payload) {
                    Ok(()) => WriteOutcome::Applied,
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
    /// Locks are owned by the *intent* — the transaction id inside a
    /// transaction, the instance id otherwise — so a crash does not strand
    /// the lock: the re-executed instance re-acquires it idempotently.
    ///
    /// Standalone locks have no deadlock prevention (the paper defers
    /// liveness to higher-level mechanisms); inside transactions,
    /// [`SsfContext::begin_tx`] switches locking to wait-die.
    pub fn lock(&mut self, table: &str, key: &str) -> BeldiResult<()> {
        if self.in_txn() {
            return self.txn_lock(table, &key.into()).map(|_| ());
        }
        if self.mode() == Mode::Baseline {
            return Ok(());
        }
        let physical = self.data_table(table)?;
        let (owner_id, key) = (self.instance.clone(), key.into());
        let owner = crate::txn::lock_owner_value(&owner_id, 0);
        for _ in 0..MAX_LOCK_SPINS {
            let out = self.write_step(
                &physical,
                &key,
                Update::new().set(A_LOCK, owner.clone()),
                Some(&Self::lock_free_cond(&owner_id)),
            )?;
            if out.as_bool() {
                return Ok(());
            }
            self.clock().sleep(std::time::Duration::from_millis(1));
        }
        Err(BeldiError::Protocol(format!(
            "lock on {table}/{key} never became free (application liveness bug?)"
        )))
    }

    /// Releases the lock on `key`.
    ///
    /// # Errors
    ///
    /// [`BeldiError::Protocol`] when the lock is not held by this intent
    /// (an application bug); re-executions of a successful unlock replay
    /// harmlessly.
    pub fn unlock(&mut self, table: &str, key: &str) -> BeldiResult<()> {
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
        let held = Cond::eq(Path::attr(A_LOCK).then_attr("Id"), &self.instance);
        let out = self.write_step(
            &physical,
            &key.into(),
            Update::new().set(A_LOCK, Value::Null),
            Some(&held),
        )?;
        if out.as_bool() {
            Ok(())
        } else {
            Err(BeldiError::Protocol(format!(
                "unlock of {table}/{key}, which this intent does not hold"
            )))
        }
    }

    // ---- Logged nondeterminism ----

    /// Current virtual time in milliseconds, logged so re-executions see
    /// the same timestamp.
    pub fn logged_now_ms(&mut self) -> BeldiResult<u64> {
        if self.mode() == Mode::Baseline {
            return Ok(self.raw_now_ms());
        }
        let now = Value::Int(self.raw_now_ms() as i64);
        let v = self.log_value(now)?;
        Ok(v.as_int().unwrap_or(0) as u64)
    }

    /// A fresh UUID, logged so re-executions see the same id.
    pub fn logged_uuid(&mut self) -> BeldiResult<String> {
        if self.mode() == Mode::Baseline {
            return Ok(self.fresh_uuid());
        }
        let fresh = Value::from(self.fresh_uuid());
        let v = self.log_value(fresh)?;
        Ok(v.as_str().unwrap_or_default().to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::BeldiEnv;
    use crate::BeldiConfig;
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
        assert_eq!(cached_queries, 1, "cached: only the first read scans");
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

    #[test]
    fn unlock_without_lock_is_an_error() {
        let (_env, mut ctx) = test_ctx(crate::Mode::Beldi);
        ctx.write("state", "k", Value::Int(0)).unwrap();
        assert!(ctx.unlock("state", "k").is_err());
    }

    #[test]
    fn logged_uuid_is_stable_across_replay() {
        let (env, mut ctx) = test_ctx(crate::Mode::Beldi);
        let a = ctx.logged_uuid().unwrap();
        let mut replay = env.test_context("f", "inst-1");
        let b = replay.logged_uuid().unwrap();
        assert_eq!(a, b);
        // A different instance gets a different id.
        let mut other = env.test_context("f", "inst-2");
        assert_ne!(other.logged_uuid().unwrap(), a);
    }

    #[test]
    fn logged_now_is_stable_across_replay() {
        let (env, mut ctx) = test_ctx(crate::Mode::Beldi);
        let a = ctx.logged_now_ms().unwrap();
        env.clock().sleep(std::time::Duration::from_millis(50));
        let mut replay = env.test_context("f", "inst-1");
        assert_eq!(replay.logged_now_ms().unwrap(), a);
    }
}
