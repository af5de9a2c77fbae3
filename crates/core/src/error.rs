//! Beldi error types.

use std::fmt;

use beldi_simdb::DbError;
use beldi_simfaas::InvokeError;

/// Result alias for Beldi operations.
pub type BeldiResult<T> = Result<T, BeldiError>;

/// Errors surfaced by the Beldi library.
///
/// Most database or platform failures inside an SSF are *not* represented
/// here: the wrapper treats unexpected failures as crashes (panic), leaving
/// completion to the intent collector — that is the paper's failure model.
/// `BeldiError` covers the conditions application code must handle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BeldiError {
    /// The enclosing transaction was aborted (user abort, wait-die kill,
    /// or a callee reporting abort). Application code should propagate
    /// this to its `end_tx` / return it from the SSF body.
    TxnAborted,
    /// A transactional API was used outside a transaction.
    NotInTransaction,
    /// `begin_tx` was called while a transaction is already active
    /// (Beldi does not support nested transactions, §6.2).
    NestedTransaction,
    /// The operation is not supported in the configured mode (e.g.
    /// transactions in baseline mode, `async_invoke` inside a transaction).
    Unsupported(&'static str),
    /// A database error that is part of the API contract (e.g. table
    /// missing at registration time).
    Db(DbError),
    /// An invocation error surfaced to a *root* caller (e.g. the workflow
    /// driver observing a crash or timeout).
    Invoke(InvokeError),
    /// The SSF body returned malformed data (application bug surfaced
    /// through the API, e.g. a non-map envelope).
    Protocol(String),
    /// A stored row breaks its decode rule (`crate::schema`): attribute
    /// `attr` of row `key` in `table` is of the wrong kind, a required one
    /// is missing, or a stored time or step is negative. Never a default.
    Corrupt {
        /// The table holding the row.
        table: String,
        /// The row's hash key.
        key: String,
        /// The attribute that breaks its rule.
        attr: &'static str,
    },
}

impl fmt::Display for BeldiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BeldiError::TxnAborted => write!(f, "transaction aborted"),
            BeldiError::NotInTransaction => write!(f, "not inside a transaction"),
            BeldiError::NestedTransaction => write!(f, "nested transactions are unsupported"),
            BeldiError::Unsupported(what) => write!(f, "unsupported: {what}"),
            BeldiError::Db(e) => write!(f, "database: {e}"),
            BeldiError::Invoke(e) => write!(f, "invoke: {e}"),
            BeldiError::Protocol(m) => write!(f, "protocol: {m}"),
            BeldiError::Corrupt { table, key, attr } => {
                write!(f, "corrupt: {table}/{key} breaks the rule of {attr}")
            }
        }
    }
}

impl std::error::Error for BeldiError {}

impl From<DbError> for BeldiError {
    fn from(e: DbError) -> Self {
        BeldiError::Db(e)
    }
}

impl From<InvokeError> for BeldiError {
    fn from(e: InvokeError) -> Self {
        BeldiError::Invoke(e)
    }
}
