//! A simulated strongly consistent NoSQL database for the Beldi reproduction.
//!
//! Beldi (OSDI 2020) assumes only that SSF storage "supports strong
//! consistency, tolerates faults, supports atomic updates on some atomicity
//! scope (e.g., row, partition), and has a scan operation with the ability
//! to filter results and create projections" (§2.2). This crate provides
//! that contract, modelled after DynamoDB, narrowed to what Beldi calls:
//! the reproduction filters in the caller, after a projected read (the
//! collectors in `beldi`, the explorer in `beldi-workload`), so a read
//! takes a projection and no filter.
//!
//! - **Row-scope atomic conditional updates** ([`Database::update`]): a
//!   condition expression ([`beldi_value::Cond`]) is evaluated and an update
//!   expression ([`beldi_value::Update`]) applied atomically on one row.
//! - **Query and scan with a projection** ([`Database::query`],
//!   [`Database::scan_all`]): both are *paged* and therefore not atomic
//!   across rows — matching DynamoDB, and matching the consistency
//!   reasoning Beldi performs for linked-DAAL traversal (§4.1).
//! - **Row size limits**: the default 400 KB cap is the very constraint the
//!   linked DAAL exists to work around (§4.1).
//! - **Secondary indexes** ([`Database::index_query`]), sparse (a row
//!   without the indexed attribute has no entry) and read with the same
//!   projection and the same per-page billing as a query: used
//!   by the intent collector to find unfinished intents, by the
//!   invocation callback handler to locate invoke-log entries by callee
//!   id, and by the garbage collector to list the keys whose DAAL has
//!   grown past its head row.
//! - **Optional cross-table transactions** ([`Database::transact_write`]):
//!   the comparator the paper benchmarks against the linked DAAL in
//!   Figs. 13, 16, and 25.
//! - **A pluggable latency model** ([`LatencyModel`]) in virtual time, so
//!   benchmarks reproduce the paper's latency *shapes*.
//!
//! The store itself is an in-process ordered map per table, behind one
//! lock per table — a strict superset of the row, DynamoDB's atomicity
//! scope. Single-row operations lock their table once; queries and scans
//! read in key order, a page per lock, each page resuming after the last
//! key the one before examined;
//! cross-table transactions lock the tables their ops touch in name
//! order (no global transaction lock). "Fault tolerance" of the storage
//! layer is by construction (the process does not model storage-node
//! failures — neither does the paper, which treats DynamoDB as reliable;
//! *client* (SSF) crashes are injected by `beldi-simfaas`).

#![deny(clippy::unwrap_used, clippy::expect_used)]

mod data;
mod database;
mod error;
mod key;
mod latency;
mod scan;
mod snapshot;
mod table;

pub use beldi_simclock::MetricsSnapshot;
pub use database::{AsTable, Database, TableRef, TransactOp};
pub use error::{DbError, DbResult};
pub use key::{PrimaryKey, TableSchema};
pub use latency::{LatencyModel, OpKind};
pub use scan::{Projection, ScanRequest};
pub use snapshot::{DbSnapshot, RowDiff, SnapshotDiff};
