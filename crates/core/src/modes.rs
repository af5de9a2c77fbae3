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
//! This module implements the cross-table and baseline primitives; the
//! logged wrappers in `ops.rs` dispatch between them and the DAAL.

#![expect(
    clippy::disallowed_methods,
    reason = "a cross-table write runs between Label::WriteEnter and Label::WriteExit \
              (`ops.rs::write_step`); baseline mode has no exactly-once claim, so no probe"
)]

use beldi_simdb::{Database, DbError, PrimaryKey, TransactOp};
use beldi_value::{Cond, Update, Value};

use crate::daal::WriteOutcome;
use crate::error::{BeldiError, BeldiResult};
use crate::schema::{A_FLAG, A_KEY, A_LOCK, A_LOG_KEY, A_VALUE};

// ---- Baseline ----

/// Raw read: the `Value` attribute of the key's single row.
pub(crate) fn baseline_read(db: &Database, table: &str, key: &str) -> BeldiResult<Value> {
    let row = db.get(table, &PrimaryKey::hash(key), None)?;
    Ok(row
        .and_then(|r| r.get_attr(A_VALUE).cloned())
        .unwrap_or(Value::Null))
}

/// Raw unconditional write.
pub(crate) fn baseline_write(
    db: &Database,
    table: &str,
    key: &str,
    value: Value,
) -> BeldiResult<()> {
    db.update(
        table,
        &PrimaryKey::hash(key),
        &Cond::True,
        &Update::new().set(A_VALUE, value),
    )?;
    Ok(())
}

/// Raw conditional write; returns whether the condition held.
pub(crate) fn baseline_cond_write(
    db: &Database,
    table: &str,
    key: &str,
    value: Value,
    cond: &Cond,
) -> BeldiResult<bool> {
    match db.update(
        table,
        &PrimaryKey::hash(key),
        cond,
        &Update::new().set(A_VALUE, value),
    ) {
        Ok(()) => Ok(true),
        Err(DbError::ConditionFailed) => Ok(false),
        Err(e) => Err(e.into()),
    }
}

// ---- Cross-table transactional logging ----

/// Index of the log-entry `Put` inside the transact batches below; a
/// cancellation blaming this op means "this step already executed".
const LOG_OP: usize = 1;

fn write_entry_put(log: &str, log_key: &str, flag: bool) -> TransactOp {
    TransactOp::Put {
        table: log.to_owned(),
        item: beldi_value::vmap! { A_LOG_KEY => log_key, A_FLAG => flag },
        cond: Cond::not_exists(A_LOG_KEY),
    }
}

/// Reads the logged outcome of write step `log_key` from the log table.
fn logged_flag(db: &Database, log: &str, log_key: &str) -> BeldiResult<WriteOutcome> {
    let row = db
        .get(log, &PrimaryKey::hash(log_key), None)?
        .ok_or_else(|| {
            BeldiError::Protocol(format!("write-log entry {log_key} vanished after conflict"))
        })?;
    Ok(if row.get_bool(A_FLAG).unwrap_or(true) {
        WriteOutcome::Applied
    } else {
        WriteOutcome::ConditionFalse
    })
}

/// Exactly-once write in cross-table mode: atomically update the data row
/// *and* insert the log entry in one cross-table transaction.
///
/// `payload` is applied to the data row on success (e.g. `SET Value = v`
/// or `SET LockOwner = o`); `user_cond` gates it, with the false outcome
/// logged exactly as in the DAAL protocol (Fig. 17).
pub(crate) fn cross_table_write(
    db: &Database,
    table: &str,
    log: &str,
    key: &str,
    log_key: &str,
    payload: Update,
    user_cond: Option<&Cond>,
) -> BeldiResult<WriteOutcome> {
    let pk = PrimaryKey::hash(key);
    let data_cond = user_cond.cloned().unwrap_or(Cond::True);
    let ops = [
        TransactOp::Update {
            table: table.to_owned(),
            key: pk,
            cond: data_cond,
            update: payload,
        },
        write_entry_put(log, log_key, true),
    ];
    match db.transact_write(&ops) {
        Ok(()) => Ok(WriteOutcome::Applied),
        Err(DbError::TransactionCanceled { failed_op }) if failed_op == LOG_OP => {
            // The step already executed; replay its logged outcome.
            logged_flag(db, log, log_key)
        }
        Err(DbError::TransactionCanceled { .. }) => {
            // The user condition failed at the serialization point; log
            // the false outcome (unless a racing re-execution logged
            // first, in which case replay it).
            match db.transact_write(&[write_entry_put(log, log_key, false)]) {
                Ok(()) => Ok(WriteOutcome::ConditionFalse),
                Err(DbError::TransactionCanceled { .. }) => logged_flag(db, log, log_key),
                Err(e) => Err(e.into()),
            }
        }
        Err(e) => Err(e.into()),
    }
}

/// Raw read of the cross-table data row (same shape as baseline).
pub(crate) fn cross_table_read(db: &Database, table: &str, key: &str) -> BeldiResult<Value> {
    baseline_read(db, table, key)
}

/// The lock owner recorded on a cross-table data row, if any.
#[cfg_attr(not(test), allow(dead_code, reason = "exercised by unit tests"))]
pub(crate) fn cross_table_lock_owner(
    db: &Database,
    table: &str,
    key: &str,
) -> BeldiResult<Option<Value>> {
    let row = db.get(table, &PrimaryKey::hash(key), None)?;
    Ok(row
        .and_then(|r| r.get_attr(A_LOCK).cloned())
        .filter(|v| !v.is_null()))
}

/// Seeds a cross-table or baseline data row (data loading, not logged).
pub(crate) fn seed_plain(db: &Database, table: &str, key: &str, value: Value) -> BeldiResult<()> {
    db.put(table, beldi_value::vmap! { A_KEY => key, A_VALUE => value })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{log_schema, plain_data_schema};

    fn db() -> std::sync::Arc<Database> {
        let db = Database::for_tests();
        db.create_table("d", plain_data_schema()).unwrap();
        db.create_table("w", log_schema()).unwrap();
        db
    }

    #[test]
    fn baseline_round_trip() {
        let db = db();
        assert_eq!(baseline_read(&db, "d", "k").unwrap(), Value::Null);
        baseline_write(&db, "d", "k", Value::Int(3)).unwrap();
        assert_eq!(baseline_read(&db, "d", "k").unwrap(), Value::Int(3));
        // Baseline writes are *not* idempotent per step — that is the
        // point of the comparison.
        baseline_write(&db, "d", "k", Value::Int(4)).unwrap();
        assert_eq!(baseline_read(&db, "d", "k").unwrap(), Value::Int(4));
    }

    #[test]
    fn baseline_cond_write_dispatches() {
        let db = db();
        baseline_write(&db, "d", "k", Value::Int(1)).unwrap();
        assert!(
            baseline_cond_write(&db, "d", "k", Value::Int(2), &Cond::eq(A_VALUE, 1i64)).unwrap()
        );
        assert!(
            !baseline_cond_write(&db, "d", "k", Value::Int(9), &Cond::eq(A_VALUE, 1i64)).unwrap()
        );
        assert_eq!(baseline_read(&db, "d", "k").unwrap(), Value::Int(2));
    }

    #[test]
    fn cross_table_write_is_exactly_once() {
        let db = db();
        let payload = Update::new().set(A_VALUE, Value::Int(5));
        let out = cross_table_write(&db, "d", "w", "k", "i#0", payload.clone(), None).unwrap();
        assert_eq!(out, WriteOutcome::Applied);
        assert_eq!(baseline_read(&db, "d", "k").unwrap(), Value::Int(5));
        // Replay of the same step: logged, so the data row is untouched.
        let other = Update::new().set(A_VALUE, Value::Int(99));
        let out = cross_table_write(&db, "d", "w", "k", "i#0", other, None).unwrap();
        assert_eq!(out, WriteOutcome::Applied);
        assert_eq!(baseline_read(&db, "d", "k").unwrap(), Value::Int(5));
    }

    #[test]
    fn cross_table_cond_false_logged_and_replayed() {
        let db = db();
        cross_table_write(
            &db,
            "d",
            "w",
            "k",
            "i#0",
            Update::new().set(A_VALUE, Value::Int(1)),
            None,
        )
        .unwrap();
        let cond = Cond::ge(A_VALUE, 100i64);
        let payload = Update::new().set(A_VALUE, Value::Int(2));
        let out =
            cross_table_write(&db, "d", "w", "k", "i#1", payload.clone(), Some(&cond)).unwrap();
        assert_eq!(out, WriteOutcome::ConditionFalse);
        // Make the condition true, then replay the step: the *logged*
        // false outcome answers, not a re-evaluation.
        cross_table_write(
            &db,
            "d",
            "w",
            "k",
            "i#2",
            Update::new().set(A_VALUE, Value::Int(200)),
            None,
        )
        .unwrap();
        let out = cross_table_write(&db, "d", "w", "k", "i#1", payload, Some(&cond)).unwrap();
        assert_eq!(out, WriteOutcome::ConditionFalse);
        assert_eq!(baseline_read(&db, "d", "k").unwrap(), Value::Int(200));
    }

    #[test]
    fn cross_table_lock_payload() {
        let db = db();
        let owner = crate::txn::lock_owner_value(&"t1".into(), 7);
        let free = Cond::not_exists(A_LOCK).or(Cond::eq(A_LOCK, Value::Null));
        let out = cross_table_write(
            &db,
            "d",
            "w",
            "k",
            "i#0",
            Update::new().set(A_LOCK, owner.clone()),
            Some(&free),
        )
        .unwrap();
        assert_eq!(out, WriteOutcome::Applied);
        assert_eq!(cross_table_lock_owner(&db, "d", "k").unwrap(), Some(owner));
    }
}
