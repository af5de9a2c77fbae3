//! Per-mode storage primitives.
//!
//! The paper evaluates three systems over the same applications:
//!
//! - **Beldi** — exactly-once writes over the linked DAAL (`daal.rs`);
//! - **cross-table transactions** — the comparator of Figs. 13/16/25:
//!   the value lives in a plain one-row-per-key table and the write's
//!   log entry in a *separate* table (the SSF's log), kept consistent
//!   with DynamoDB-style `TransactWriteItems`;
//! - **baseline** — raw reads/writes with no logging and no guarantees.
//!
//! This module implements the cross-table primitives and the plain-table
//! read both it and baseline use; `ops.rs::write_step` dispatches a write
//! between them, the DAAL and a baseline's raw update.

#![expect(
    clippy::disallowed_methods,
    reason = "a cross-table write runs between Label::WriteEnter and Label::WriteExit \
              (`ops.rs::write_step`); `seed_plain` loads data before any instance runs"
)]

use beldi_simdb::{Database, DbError, PrimaryKey, TableRef, TransactOp};
use beldi_value::{Cond, Update, Value};

use crate::daal::{StepKind, WriteOutcome};
use crate::error::{BeldiError, BeldiResult};
use crate::ids;
use crate::schema::{self, A_FLAG, A_KEY, A_LOG_KEY, A_VALUE};

// ---- Plain tables ----

/// Raw read, baseline and cross-table: the `Value` attribute of the
/// key's single row.
pub(crate) fn baseline_read(db: &Database, table: &TableRef, key: &str) -> BeldiResult<Value> {
    let row = db.get(table, &PrimaryKey::hash(key), None)?;
    Ok(schema::data_value(row.as_ref()))
}

// ---- Cross-table transactional logging ----

/// Index of the log-entry `Put`, first in the transact batches below: a
/// cancellation blaming it means "this step already executed", and one
/// blaming the data op, "this step is not logged".
const LOG_OP: usize = 0;

fn write_entry_put(log: &str, log_key: &str, flag: bool) -> TransactOp {
    TransactOp::Put {
        table: log.to_owned(),
        item: beldi_value::vmap! { A_LOG_KEY => log_key, A_FLAG => flag },
        cond: Cond::not_exists(A_LOG_KEY),
    }
}

/// Reads the logged outcome of write step `log_key` from the log table.
fn logged_flag(db: &Database, log: &TableRef, log_key: &str) -> BeldiResult<WriteOutcome> {
    let row = db
        .get(log, &PrimaryKey::hash(log_key), None)?
        .ok_or_else(|| {
            BeldiError::Protocol(format!("write-log entry {log_key} vanished after conflict"))
        })?;
    let flag = schema::write_entry(log.name(), log_key, &row)?;
    Ok(WriteOutcome::from_flag(flag))
}

/// Exactly-once write in cross-table mode: atomically update the data row
/// *and* insert the log entry in one cross-table transaction.
///
/// `payload` is applied to the data row on success (e.g. `SET Value = v`
/// or `SET LockOwner = o`) under the `kind`'s condition. A conditional
/// write logs the false outcome exactly as in the DAAL protocol (Fig. 17);
/// a refused lock try logs nothing.
pub(crate) fn cross_table_write(
    db: &Database,
    table: &TableRef,
    log: &TableRef,
    key: &str,
    log_key: &str,
    payload: Update,
    kind: StepKind<'_>,
) -> BeldiResult<WriteOutcome> {
    let ops = [
        write_entry_put(log.name(), log_key, true),
        TransactOp::Update {
            table: table.name().to_string(),
            key: PrimaryKey::hash(key),
            cond: kind.cond().cloned().unwrap_or(Cond::True),
            update: payload,
        },
    ];
    match ids::logging(log_key, || db.transact_write(&ops)) {
        Ok(()) => Ok(WriteOutcome::Applied(None)),
        Err(DbError::TransactionCanceled { failed_op }) if failed_op == LOG_OP => {
            // The step already executed; replay its logged outcome.
            logged_flag(db, log, log_key)
        }
        Err(DbError::TransactionCanceled { .. }) if matches!(kind, StepKind::Lock { .. }) => {
            Ok(WriteOutcome::Refused(Value::Null))
        }
        Err(DbError::TransactionCanceled { .. }) => {
            // The user condition failed at the serialization point; log
            // the false outcome (unless a racing re-execution logged
            // first, in which case replay it).
            let log_false = [write_entry_put(log.name(), log_key, false)];
            match ids::logging(log_key, || db.transact_write(&log_false)) {
                Ok(()) => Ok(WriteOutcome::ConditionFalse),
                Err(DbError::TransactionCanceled { .. }) => logged_flag(db, log, log_key),
                Err(e) => Err(e.into()),
            }
        }
        Err(e) => Err(e.into()),
    }
}

/// Seeds a cross-table or baseline data row (data loading, not logged).
pub(crate) fn seed_plain(
    db: &Database,
    table: &TableRef,
    key: &str,
    value: Value,
) -> BeldiResult<()> {
    db.put(table, beldi_value::vmap! { A_KEY => key, A_VALUE => value })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{log_schema, plain_data_schema, A_LOCK};

    fn db() -> std::sync::Arc<Database> {
        let db = Database::for_tests();
        db.create_table("d", plain_data_schema()).unwrap();
        db.create_table("w", log_schema()).unwrap();
        db
    }

    #[test]
    fn baseline_round_trip() {
        let db = db();
        assert_eq!(
            baseline_read(&db, &db.table("d"), "k").unwrap(),
            Value::Null
        );
        seed_plain(&db, &db.table("d"), "k", Value::Int(3)).unwrap();
        assert_eq!(
            baseline_read(&db, &db.table("d"), "k").unwrap(),
            Value::Int(3)
        );
    }

    /// A write entry a replay finds without its `Flag` is `Corrupt`, not
    /// an applied write.
    #[test]
    fn a_replayed_write_entry_without_a_flag_is_corrupt() {
        let db = db();
        db.put("w", beldi_value::vmap! { A_LOG_KEY => "i#0" })
            .unwrap();
        let payload = Update::new().set(A_VALUE, Value::Int(5));
        let out = cross_table_write(
            &db,
            &db.table("d"),
            &db.table("w"),
            "k",
            "i#0",
            payload,
            StepKind::Write,
        );
        assert_eq!(out, Err(schema::corrupt("w", "i#0", A_FLAG)));
        assert_eq!(
            baseline_read(&db, &db.table("d"), "k").unwrap(),
            Value::Null
        );
    }

    #[test]
    fn cross_table_write_is_exactly_once() {
        let db = db();
        let payload = Update::new().set(A_VALUE, Value::Int(5));
        let out = cross_table_write(
            &db,
            &db.table("d"),
            &db.table("w"),
            "k",
            "i#0",
            payload.clone(),
            StepKind::Write,
        )
        .unwrap();
        assert_eq!(out, WriteOutcome::Applied(None));
        assert_eq!(
            baseline_read(&db, &db.table("d"), "k").unwrap(),
            Value::Int(5)
        );
        // Replay of the same step: logged, so the data row is untouched.
        let other = Update::new().set(A_VALUE, Value::Int(99));
        let out = cross_table_write(
            &db,
            &db.table("d"),
            &db.table("w"),
            "k",
            "i#0",
            other,
            StepKind::Write,
        )
        .unwrap();
        assert_eq!(out, WriteOutcome::Applied(None));
        assert_eq!(
            baseline_read(&db, &db.table("d"), "k").unwrap(),
            Value::Int(5)
        );
    }

    #[test]
    fn cross_table_cond_false_logged_and_replayed() {
        let db = db();
        cross_table_write(
            &db,
            &db.table("d"),
            &db.table("w"),
            "k",
            "i#0",
            Update::new().set(A_VALUE, Value::Int(1)),
            StepKind::Write,
        )
        .unwrap();
        let cond = Cond::ge(A_VALUE, 100i64);
        let payload = Update::new().set(A_VALUE, Value::Int(2));
        let out = cross_table_write(
            &db,
            &db.table("d"),
            &db.table("w"),
            "k",
            "i#1",
            payload.clone(),
            StepKind::Cond(&cond),
        )
        .unwrap();
        assert_eq!(out, WriteOutcome::ConditionFalse);
        // Make the condition true, then replay the step: the *logged*
        // false outcome answers, not a re-evaluation.
        cross_table_write(
            &db,
            &db.table("d"),
            &db.table("w"),
            "k",
            "i#2",
            Update::new().set(A_VALUE, Value::Int(200)),
            StepKind::Write,
        )
        .unwrap();
        let out = cross_table_write(
            &db,
            &db.table("d"),
            &db.table("w"),
            "k",
            "i#1",
            payload,
            StepKind::Cond(&cond),
        )
        .unwrap();
        assert_eq!(out, WriteOutcome::ConditionFalse);
        assert_eq!(
            baseline_read(&db, &db.table("d"), "k").unwrap(),
            Value::Int(200)
        );
    }

    /// A lock try sets the owner and logs `true`; a refused one is one
    /// cancelled transaction and logs nothing.
    #[test]
    fn cross_table_lock_payload() {
        let db = db();
        let free = Cond::not_exists(A_LOCK).or(Cond::eq(A_LOCK, Value::Null));
        let lock = |log_key: &str, id: &str| {
            let before = db.metrics();
            let owner = crate::txn::lock_owner_value(&id.into(), 7);
            let payload = Update::new().set(A_LOCK, owner);
            let kind = StepKind::Lock {
                free: &free,
                returning: false,
            };
            let (d, w) = (&db.table("d"), &db.table("w"));
            let out = cross_table_write(&db, d, w, "k", log_key, payload, kind).unwrap();
            (out, db.metrics().delta(&before).transact_writes)
        };
        assert_eq!(lock("i#0", "t1"), (WriteOutcome::Applied(None), 1));
        let row = db.get("d", &PrimaryKey::hash("k"), None).unwrap().unwrap();
        let owner = crate::txn::lock_owner_value(&"t1".into(), 7);
        assert_eq!(row.get_attr(A_LOCK), Some(&owner));
        assert_eq!(lock("j#0", "t2"), (WriteOutcome::Refused(Value::Null), 1));
        let entry = db.get("w", &PrimaryKey::hash("j#0"), None).unwrap();
        assert_eq!(entry, None, "a refused try logs nothing");
    }
}
