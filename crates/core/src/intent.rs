//! The intent table's writes (§3.3, Fig. 3). Every SSF execution intent
//! is a row keyed by instance id; its attributes, and how each decodes,
//! are `crate::schema`'s. Registration is the first external action of
//! every instance; completion (`Done`, the finish time, and for a root or
//! a commit signal its outcome) is the last.

#![expect(
    clippy::disallowed_methods,
    reason = "each write runs between its caller's probes: `register` between \
              Label::WrapperEnter and Label::WrapperPostIntent (Label::AsyncRegPostIntent \
              for an async callee), `mark_done` between Label::WrapperPreDone and \
              Label::WrapperPostDone, `claim_launch` between Label::IcPostScan and \
              Label::IcPreRestart, `delete` between Label::GcPostDaal and Label::GcExit"
)]

use std::sync::Arc;

use beldi_simclock::Op;
use beldi_simdb::{Database, DbError, PrimaryKey, TableRef};
use beldi_value::{Cond, Update, Value};

use crate::error::{BeldiError, BeldiResult};
use crate::ids::StepNumber;
use crate::schema::{
    IntentRecord, A_ARGS, A_ASYNC, A_CALLER, A_CREATED, A_DONE, A_FINISH, A_ID, A_LAST_LAUNCH,
    A_LOG_STEPS, A_RET,
};

/// Registers an intent if it is not already present.
///
/// `None` means this registration won: the record is what was passed in,
/// created at `now_ms`, not done (no read-back). `Some` is the record a
/// previous execution registered — the *authoritative* one: the caller
/// must honor an already-set `Done` flag by replaying its outcome.
pub(crate) fn register(
    db: &Database,
    table: &TableRef,
    id: &Arc<str>,
    args: Value,
    is_async: bool,
    caller: Option<&Arc<str>>,
    now_ms: u64,
) -> BeldiResult<Option<IntentRecord>> {
    let _op = db.telemetry().op(Op::IntentRegister, id);
    let pk = PrimaryKey::hash(id);
    let mut update = Update::with_capacity(5 + usize::from(caller.is_some()))
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
    let earlier = load(db, table, id)?
        .ok_or_else(|| BeldiError::Protocol(format!("intent {id} vanished after registration")))?;
    Ok(Some(earlier))
}

/// Loads an intent record, if present.
pub(crate) fn load(
    db: &Database,
    table: &TableRef,
    id: &Arc<str>,
) -> BeldiResult<Option<IntentRecord>> {
    let row = db.get(table, &PrimaryKey::hash(id), None)?;
    row.map(|row| IntentRecord::decode(table.name(), &row))
        .transpose()
}

/// Marks an intent as done, recording in the same write its outcome
/// envelope `ret` ([`A_RET`], when given), the steps at which it has a log
/// entry ([`A_LOG_STEPS`], omitted when there are none) and its finish
/// time ([`A_FINISH`], the clock `now_ms` read just before this write),
/// from which the GC counts the recycle horizon. The same write removes
/// [`A_ARGS`] and [`A_LAST_LAUNCH`]: their one reader, the intent
/// collector, reads only intents that are not done.
///
/// The wrapper passes `ret` only for an intent with no caller ([`A_RET`]).
/// Idempotent: re-executions overwrite with the identical (deterministic)
/// outcome and steps; the first done-mark's finish time stays.
pub(crate) fn mark_done(
    db: &Database,
    table: &TableRef,
    id: &Arc<str>,
    ret: Option<Value>,
    log_steps: &[StepNumber],
    now_ms: u64,
) -> BeldiResult<()> {
    let _op = db.telemetry().op(Op::MarkDone, id);
    let actions = 4 + usize::from(ret.is_some()) + usize::from(!log_steps.is_empty());
    let mut update = Update::with_capacity(actions)
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

/// Compare-and-swap of the last-launch timestamp (the IC's duplicate-
/// suppression optimization, §3.3). Returns false when another IC instance
/// advanced it first.
pub(crate) fn claim_launch(
    db: &Database,
    table: &TableRef,
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
pub(crate) fn delete(db: &Database, table: &TableRef, id: &Arc<str>) -> BeldiResult<()> {
    match db.delete(table, &PrimaryKey::hash(id), &Cond::True) {
        Ok(()) | Err(DbError::ConditionFailed) => Ok(()),
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{intent_schema, DoneMark};
    use beldi_simdb::Database;
    use beldi_value::vmap;

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
            &db.table("i"),
            &x(),
            vmap! { "Input" => 1i64 },
            false,
            Some(&"caller".into()),
            5,
        )
        .unwrap();
        assert!(a.is_none(), "the first registration wins");
        // A re-execution re-registers with different args; the original
        // registration is what it gets back.
        let b = register(
            &db,
            &db.table("i"),
            &x(),
            vmap! { "Input" => 2i64 },
            false,
            None,
            9,
        )
        .unwrap()
        .expect("the earlier record");
        assert_eq!(b.args, Some(vmap! { "Input" => 1i64 }));
        assert_eq!(b.caller.as_deref(), Some("caller"));
        assert!(!b.done);
        assert_eq!(b.created_ms, 5);
    }

    #[test]
    fn done_round_trips_return_value() {
        let db = db();
        register(&db, &db.table("i"), &x(), Value::Null, false, None, 0).unwrap();
        let ret = vmap! { "Outcome" => "ok", "Ret" => 42i64 };
        mark_done(&db, &db.table("i"), &x(), Some(ret.clone()), &[0, 2], 3).unwrap();
        let rec = load(&db, &db.table("i"), &x()).unwrap().unwrap();
        assert!(rec.done);
        assert_eq!(rec.ret, Some(ret));
        let row = db.get("i", &PrimaryKey::hash("x"), None).unwrap().unwrap();
        let mark = DoneMark::decode("i", &row).unwrap();
        assert_eq!(mark.log_steps(), Ok(vec![0, 2]));
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
            &db.table("i"),
            &x(),
            Value::Null,
            false,
            Some(&"caller".into()),
            0,
        )
        .unwrap();
        mark_done(&db, &db.table("i"), &x(), None, &[0], 3).unwrap();
        let rec = load(&db, &db.table("i"), &x()).unwrap().unwrap();
        assert!(rec.done);
        assert_eq!(rec.ret, None);
        let row = db.get("i", &PrimaryKey::hash("x"), None).unwrap().unwrap();
        assert_eq!(row.get_attr(A_RET), None);
    }

    #[test]
    fn log_steps_decode_absent_as_empty_and_malformed_as_none() {
        let done = vmap! { A_ID => "x", A_DONE => true, A_FINISH => 3i64 };
        let mark = DoneMark::decode("i", &done).unwrap();
        assert_eq!(mark.log_steps(), Ok(vec![]));
        for bad in [
            Value::Int(3),
            Value::List(vec![Value::Int(1), Value::from("2")]),
            Value::List(vec![Value::Int(-1)]),
        ] {
            let mut row = done.clone();
            row.as_map_mut().unwrap().insert(A_LOG_STEPS, bad.clone());
            let steps = DoneMark::decode("i", &row).unwrap().log_steps();
            assert_eq!(
                steps,
                Err(crate::schema::corrupt("i", "x", A_LOG_STEPS)),
                "{bad}"
            );
        }
    }

    #[test]
    fn claim_launch_is_a_cas() {
        let db = db();
        register(&db, &db.table("i"), &x(), Value::Null, false, None, 0).unwrap();
        assert!(claim_launch(&db, &db.table("i"), &x(), 0, 10).unwrap());
        // Second claimer saw the stale timestamp and loses.
        assert!(!claim_launch(&db, &db.table("i"), &x(), 0, 11).unwrap());
        // Done intents are never claimed.
        mark_done(&db, &db.table("i"), &x(), None, &[], 15).unwrap();
        assert!(!claim_launch(&db, &db.table("i"), &x(), 10, 20).unwrap());
    }

    #[test]
    fn the_first_done_mark_sets_the_finish_time() {
        let db = db();
        let finish = || {
            let row = db.get("i", &PrimaryKey::hash("x"), None).unwrap().unwrap();
            row.get_int(A_FINISH)
        };
        register(&db, &db.table("i"), &x(), Value::Null, false, None, 0).unwrap();
        // Not done yet: no finish time.
        assert_eq!(finish(), None);
        mark_done(&db, &db.table("i"), &x(), Some(Value::Int(1)), &[0], 7).unwrap();
        assert_eq!(finish(), Some(7));
        // A re-execution's done-mark rewrites the outcome, not the time.
        mark_done(&db, &db.table("i"), &x(), Some(Value::Int(1)), &[0], 99).unwrap();
        assert_eq!(finish(), Some(7));
    }

    #[test]
    fn delete_is_idempotent() {
        let db = db();
        register(&db, &db.table("i"), &x(), Value::Null, false, None, 0).unwrap();
        delete(&db, &db.table("i"), &x()).unwrap();
        delete(&db, &db.table("i"), &x()).unwrap();
        assert!(load(&db, &db.table("i"), &x()).unwrap().is_none());
    }
}
