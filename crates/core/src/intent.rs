//! The intent table (§3.3, Fig. 3).
//!
//! Every SSF execution intent is a row keyed by instance id, recording the
//! original invocation envelope (so the intent collector can re-execute it
//! verbatim), the completion flag, the outcome of an intent no caller waits
//! on, and GC bookkeeping. Registration is the first external action of
//! every instance; completion (`Done = true`, finish time, and for a root
//! or a commit signal its outcome) is the last. Each fact is stored once:
//! `Args` leaves out the envelope fields the row holds as attributes (`Id`,
//! `Caller`, `Async`), the done-mark removes what only the collector reads
//! (`Args`, `LastLaunch`), since it reads only intents that are not done,
//! and a callee's outcome lives in its caller's invoke log, not in `Ret`.

#![expect(
    clippy::disallowed_methods,
    reason = "each write runs between its caller's probes: `register` between \
              Label::WrapperEnter and Label::WrapperPostIntent (Label::AsyncRegPostIntent \
              for an async callee), `mark_done` between Label::WrapperPreDone and \
              Label::WrapperPostDone, `claim_launch` between Label::IcPostScan and \
              Label::IcPreRestart, `delete` between Label::GcPostDaal and Label::GcExit"
)]

use std::sync::Arc;

use beldi_simdb::{Database, DbError, PrimaryKey};
use beldi_value::{Cond, Update, Value};

use crate::error::BeldiResult;
use crate::ids::StepNumber;
use crate::schema::{
    A_ARGS, A_ASYNC, A_CALLER, A_CREATED, A_DONE, A_FINISH, A_ID, A_LAST_LAUNCH, A_LOG_STEPS, A_RET,
};

/// A decoded intent-table row.
#[derive(Debug, Clone)]
pub(crate) struct IntentRecord {
    /// Instance id.
    pub id: Arc<str>,
    /// Completion flag.
    pub done: bool,
    /// Whether the instance was invoked asynchronously.
    pub is_async: bool,
    /// The original invocation envelope without the fields the row holds
    /// itself ([`crate::invoke::Envelope::into_args`]); `Null` once done.
    pub args: Value,
    /// The outcome envelope recorded at completion; only an intent with
    /// no caller records one.
    pub ret: Option<Value>,
    /// Calling SSF name, if any.
    pub caller: Option<Arc<str>>,
    /// Creation timestamp (virtual ms); the start of the recovery-latency
    /// window for crashed instances.
    pub created_ms: u64,
    /// Last (re-)launch timestamp (virtual ms), advanced by the IC; 0
    /// once done.
    pub last_launch_ms: u64,
}

impl IntentRecord {
    /// Decodes an intent row. The row shares its map with the stored one,
    /// so `Args` and `Ret` are read, not taken. Rows with unknown shape
    /// decode defensively (the collectors must tolerate anything they
    /// scan).
    pub fn from_row(row: Value) -> Option<Self> {
        Some(IntentRecord {
            id: row.get_shared_str(A_ID)?.clone(),
            done: row.get_bool(A_DONE).unwrap_or(false),
            is_async: row.get_bool(A_ASYNC).unwrap_or(false),
            args: row.get_attr(A_ARGS).cloned().unwrap_or(Value::Null),
            ret: row.get_attr(A_RET).filter(|v| !v.is_null()).cloned(),
            caller: row.get_shared_str(A_CALLER).cloned(),
            created_ms: row.get_int(A_CREATED).unwrap_or(0) as u64,
            last_launch_ms: row.get_int(A_LAST_LAUNCH).unwrap_or(0) as u64,
        })
    }
}

/// Registers an intent if it is not already present.
///
/// `None` means this registration won: the record is exactly what was
/// passed in, created at `now_ms`, not done (no read-back, and no copy of
/// `args` kept to describe it). `Some` is the record a previous execution
/// registered — the *authoritative* one: the caller must honor an
/// already-set `Done` flag by replaying the recorded return value.
pub(crate) fn register(
    db: &Database,
    table: &str,
    id: &Arc<str>,
    args: Value,
    is_async: bool,
    caller: Option<&Arc<str>>,
    now_ms: u64,
) -> BeldiResult<Option<IntentRecord>> {
    let pk = PrimaryKey::hash(id);
    let mut update = Update::new()
        .set(A_DONE, Value::Bool(false))
        .set(A_ASYNC, Value::Bool(is_async))
        .set(A_ARGS, args)
        .set(A_CREATED, Value::Int(now_ms as i64))
        .set(A_LAST_LAUNCH, Value::Int(now_ms as i64));
    if let Some(c) = caller {
        update = update.set(A_CALLER, Value::from(c));
    }
    match db.update(table, &pk, &Cond::not_exists(A_ID), &update) {
        Ok(()) => return Ok(None),
        Err(DbError::ConditionFailed) => {}
        Err(e) => return Err(e.into()),
    }
    // A previous execution registered first; its record is authoritative.
    let earlier = load(db, table, id)?.ok_or_else(|| {
        crate::error::BeldiError::Protocol(format!("intent {id} vanished after registration"))
    })?;
    Ok(Some(earlier))
}

/// Loads an intent record, if present.
pub(crate) fn load(db: &Database, table: &str, id: &Arc<str>) -> BeldiResult<Option<IntentRecord>> {
    let row = db.get(table, &PrimaryKey::hash(id), None)?;
    Ok(row.and_then(IntentRecord::from_row))
}

/// Marks an intent as done, recording in the same write its outcome
/// envelope `ret` ([`A_RET`], when given), the steps at which it has a log
/// entry ([`A_LOG_STEPS`], omitted when there are none) and its finish
/// time ([`A_FINISH`], the clock `now_ms` read just before this write),
/// from which the GC counts the recycle horizon. The same write removes
/// [`A_ARGS`] and [`A_LAST_LAUNCH`]: their one reader, the intent
/// collector, reads only intents that are not done.
///
/// The wrapper passes `ret` only for an intent with no caller, a root or a
/// commit signal, whose row is the outcome's one durable home; a callee's
/// outcome is in its caller's invoke-log entry, which its callback wrote
/// before this (Fig. 9).
///
/// Idempotent: re-executions overwrite with the identical (deterministic)
/// outcome and steps; the first done-mark's finish time stays.
pub(crate) fn mark_done(
    db: &Database,
    table: &str,
    id: &Arc<str>,
    ret: Option<Value>,
    log_steps: &[StepNumber],
    now_ms: u64,
) -> BeldiResult<()> {
    let mut update = Update::new()
        .set(A_DONE, Value::Bool(true))
        .set_if_absent(A_FINISH, Value::Int(now_ms as i64))
        .remove(A_ARGS)
        .remove(A_LAST_LAUNCH);
    if let Some(ret) = ret {
        update = update.set(A_RET, ret);
    }
    if !log_steps.is_empty() {
        let steps = log_steps.iter().map(|&s| Value::Int(s as i64)).collect();
        update = update.set(A_LOG_STEPS, Value::List(steps));
    }
    db.update(table, &PrimaryKey::hash(id), &Cond::exists(A_ID), &update)?;
    Ok(())
}

/// Decodes an intent's [`A_LOG_STEPS`]: empty when absent, `None` when
/// present but not a list of non-negative ints (corruption).
pub(crate) fn log_steps(row: &Value) -> Option<Vec<StepNumber>> {
    let Some(steps) = row.get_attr(A_LOG_STEPS) else {
        return Some(Vec::new());
    };
    steps
        .as_list()?
        .iter()
        .map(|s| s.as_int().and_then(|n| StepNumber::try_from(n).ok()))
        .collect()
}

/// Compare-and-swap of the last-launch timestamp (the IC's duplicate-
/// suppression optimization, §3.3). Returns false when another IC instance
/// advanced it first.
pub(crate) fn claim_launch(
    db: &Database,
    table: &str,
    id: &Arc<str>,
    seen_last_launch_ms: u64,
    now_ms: u64,
) -> BeldiResult<bool> {
    let cond = Cond::eq(A_LAST_LAUNCH, Value::Int(seen_last_launch_ms as i64))
        .and(Cond::eq(A_DONE, Value::Bool(false)));
    let update = Update::new().set(A_LAST_LAUNCH, Value::Int(now_ms as i64));
    match db.update(table, &PrimaryKey::hash(id), &cond, &update) {
        Ok(()) => Ok(true),
        Err(DbError::ConditionFailed) => Ok(false),
        Err(e) => Err(e.into()),
    }
}

/// Deletes an intent row (the GC's final step for a recycled intent).
pub(crate) fn delete(db: &Database, table: &str, id: &Arc<str>) -> BeldiResult<()> {
    match db.delete(table, &PrimaryKey::hash(id), &Cond::True) {
        Ok(()) | Err(DbError::ConditionFailed) => Ok(()),
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::intent_schema;
    use beldi_simdb::Database;

    fn db() -> std::sync::Arc<Database> {
        let db = Database::for_tests();
        db.create_table("i", intent_schema()).unwrap();
        db
    }

    fn x() -> Arc<str> {
        "x".into()
    }

    #[test]
    fn register_is_first_wins() {
        let db = db();
        let a = register(
            &db,
            "i",
            &x(),
            Value::Int(1),
            false,
            Some(&"caller".into()),
            5,
        )
        .unwrap();
        assert!(a.is_none(), "the first registration wins");
        // A re-execution re-registers with different args; the original
        // registration is what it gets back.
        let b = register(&db, "i", &x(), Value::Int(2), false, None, 9)
            .unwrap()
            .expect("the earlier record");
        assert_eq!(b.args, Value::Int(1));
        assert_eq!(b.caller.as_deref(), Some("caller"));
        assert!(!b.done);
        assert_eq!(b.created_ms, 5);
    }

    #[test]
    fn done_round_trips_return_value() {
        let db = db();
        register(&db, "i", &x(), Value::Null, false, None, 0).unwrap();
        mark_done(&db, "i", &x(), Some(Value::Int(42)), &[0, 2], 3).unwrap();
        let rec = load(&db, "i", &x()).unwrap().unwrap();
        assert!(rec.done);
        assert_eq!(rec.ret, Some(Value::Int(42)));
        let row = db.get("i", &PrimaryKey::hash("x"), None).unwrap().unwrap();
        assert_eq!(log_steps(&row), Some(vec![0, 2]));
        // Only the collector reads the envelope and the launch time, and
        // it reads only intents that are not done.
        assert_eq!(row.get_attr(A_ARGS), None);
        assert_eq!(row.get_attr(A_LAST_LAUNCH), None);
    }

    #[test]
    fn a_done_mark_without_an_outcome_stores_no_ret() {
        let db = db();
        register(
            &db,
            "i",
            &x(),
            Value::Null,
            false,
            Some(&"caller".into()),
            0,
        )
        .unwrap();
        mark_done(&db, "i", &x(), None, &[0], 3).unwrap();
        let rec = load(&db, "i", &x()).unwrap().unwrap();
        assert!(rec.done);
        assert_eq!(rec.ret, None);
        let row = db.get("i", &PrimaryKey::hash("x"), None).unwrap().unwrap();
        assert_eq!(row.get_attr(A_RET), None);
    }

    #[test]
    fn log_steps_decode_absent_as_empty_and_malformed_as_none() {
        use beldi_value::vmap;
        assert_eq!(log_steps(&vmap! { A_ID => "x" }), Some(vec![]));
        for bad in [
            Value::Int(3),
            Value::List(vec![Value::Int(1), Value::from("2")]),
            Value::List(vec![Value::Int(-1)]),
        ] {
            assert_eq!(
                log_steps(&vmap! { A_LOG_STEPS => bad.clone() }),
                None,
                "{bad}"
            );
        }
    }

    #[test]
    fn claim_launch_is_a_cas() {
        let db = db();
        register(&db, "i", &x(), Value::Null, false, None, 0).unwrap();
        assert!(claim_launch(&db, "i", &x(), 0, 10).unwrap());
        // Second claimer saw the stale timestamp and loses.
        assert!(!claim_launch(&db, "i", &x(), 0, 11).unwrap());
        // Done intents are never claimed.
        mark_done(&db, "i", &x(), None, &[], 15).unwrap();
        assert!(!claim_launch(&db, "i", &x(), 10, 20).unwrap());
    }

    #[test]
    fn the_first_done_mark_sets_the_finish_time() {
        let db = db();
        let finish = || {
            let row = db.get("i", &PrimaryKey::hash("x"), None).unwrap().unwrap();
            row.get_int(A_FINISH)
        };
        register(&db, "i", &x(), Value::Null, false, None, 0).unwrap();
        // Not done yet: no finish time.
        assert_eq!(finish(), None);
        mark_done(&db, "i", &x(), Some(Value::Int(1)), &[0], 7).unwrap();
        assert_eq!(finish(), Some(7));
        // A re-execution's done-mark rewrites the outcome, not the time.
        mark_done(&db, "i", &x(), Some(Value::Int(1)), &[0], 99).unwrap();
        assert_eq!(finish(), Some(7));
    }

    #[test]
    fn delete_is_idempotent() {
        let db = db();
        register(&db, "i", &x(), Value::Null, false, None, 0).unwrap();
        delete(&db, "i", &x()).unwrap();
        delete(&db, "i", &x()).unwrap();
        assert!(load(&db, "i", &x()).unwrap().is_none());
    }
}
