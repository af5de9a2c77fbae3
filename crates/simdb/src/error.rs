//! Database error types.

use std::fmt;

use beldi_value::ValueError;

/// Result alias for database operations.
pub type DbResult<T> = Result<T, DbError>;

/// Errors returned by the simulated database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// The named table does not exist.
    TableNotFound(String),
    /// A table with this name already exists.
    TableExists(String),
    /// The condition expression of a conditional update evaluated to false.
    ///
    /// This is the signal Beldi's lock-free write protocol (Fig. 6)
    /// dispatches on, so it is a distinct variant rather than a generic
    /// error.
    ConditionFailed,
    /// The updated row would exceed the table's row size limit
    /// (DynamoDB: 400 KB — the constraint motivating the linked DAAL).
    RowTooLarge {
        /// Size the row would have had.
        size: usize,
        /// The configured limit.
        limit: usize,
    },
    /// An item was missing its key attributes, or a key attribute had the
    /// wrong shape.
    BadKey(String),
    /// The named secondary index does not exist on the table.
    IndexNotFound(String),
    /// A condition/update expression was structurally invalid for the row.
    Validation(ValueError),
    /// A cross-table transaction was canceled because one of its condition
    /// checks failed (DynamoDB `TransactionCanceledException`).
    TransactionCanceled {
        /// Index of the first failing operation.
        failed_op: usize,
    },
    /// A cross-table transaction named the same row in more than one
    /// operation (DynamoDB `ValidationException`: "Transaction request
    /// cannot include multiple operations on one item").
    DuplicateTransactionItem {
        /// `table/key` of the duplicated row.
        item: String,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::TableNotFound(t) => write!(f, "table `{t}` not found"),
            DbError::TableExists(t) => write!(f, "table `{t}` already exists"),
            DbError::ConditionFailed => write!(f, "conditional check failed"),
            DbError::RowTooLarge { size, limit } => {
                write!(f, "row size {size} B exceeds limit {limit} B")
            }
            DbError::BadKey(msg) => write!(f, "bad key: {msg}"),
            DbError::IndexNotFound(i) => write!(f, "index `{i}` not found"),
            DbError::Validation(e) => write!(f, "expression validation: {e}"),
            DbError::TransactionCanceled { failed_op } => {
                write!(f, "transaction canceled (op {failed_op} condition failed)")
            }
            DbError::DuplicateTransactionItem { item } => {
                write!(f, "transaction includes multiple operations on {item}")
            }
        }
    }
}

impl std::error::Error for DbError {}

impl From<ValueError> for DbError {
    fn from(e: ValueError) -> Self {
        DbError::Validation(e)
    }
}
