//! A simulated strongly consistent NoSQL database for the Beldi reproduction.
//!
//! Beldi (OSDI 2020) assumes only that SSF storage "supports strong
//! consistency, tolerates faults, supports atomic updates on some atomicity
//! scope (e.g., row, partition), and has a scan operation with the ability
//! to filter results and create projections" (§2.2). This crate provides
//! exactly that contract, modelled after DynamoDB:
//!
//! - **Row-scope atomic conditional updates** ([`Database::update`]): a
//!   condition expression ([`beldi_value::Cond`]) is evaluated and an update
//!   expression ([`beldi_value::Update`]) applied atomically on one row.
//! - **Query and scan with filter + projection** ([`Database::query`],
//!   [`Database::scan_page`]): scans are *paged* and therefore not atomic across
//!   rows — matching DynamoDB, and matching the consistency reasoning Beldi
//!   performs for linked-DAAL traversal (§4.1).
//! - **Row size limits**: the default 400 KB cap is the very constraint the
//!   linked DAAL exists to work around (§4.1).
//! - **Secondary indexes** ([`Database::index_query`]), sparse (a row
//!   without the indexed attribute has no entry) and read with the same
//!   filter + projection and the same per-page billing as a query: used
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
//! The store itself is an in-process map, **hash-partitioned**: every table
//! is split into `P` independently locked partitions (rows routed by their
//! hash-key value, so a row — the DynamoDB atomicity scope — never spans
//! partitions). Single-row operations lock exactly one partition;
//! cross-table transactions lock exactly the partitions their ops touch, in
//! a deterministic global order (no global transaction lock), so disjoint
//! work scales with the partition count. "Fault tolerance" of the storage
//! layer is by construction (the process does not model storage-node
//! failures — neither does the paper, which treats DynamoDB as reliable;
//! *client* (SSF) crashes are injected by `beldi-simfaas`).

mod database;
mod error;
mod key;
mod latency;
mod metrics;
mod partition;
mod scan;
mod snapshot;
mod table;

pub use database::{Database, TransactOp};
pub use error::{DbError, DbResult};
pub use key::{PrimaryKey, TableSchema};
pub use latency::{LatencyModel, OpKind};
pub use metrics::{DbMetrics, MetricsSnapshot};
pub use partition::DEFAULT_PARTITIONS;
pub use scan::{Projection, ScanCursor, ScanPage, ScanRequest};
pub use snapshot::{DbSnapshot, RowDiff, SnapshotDiff};
