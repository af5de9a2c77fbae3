//! **Beldi**: fault-tolerant and transactional stateful serverless workflows.
//!
//! A from-scratch Rust reproduction of *"Fault-tolerant and transactional
//! stateful serverless workflows"* (Zhang et al., OSDI 2020). Beldi is a
//! library + runtime that lets stateful serverless functions (SSFs) running
//! on a stock FaaS platform enjoy:
//!
//! - **exactly-once execution semantics** under arbitrary crash/restart,
//!   built from atomic logging of every externally visible operation plus
//!   re-execution of unfinished *intents* by an intent collector (§3);
//! - the **linked DAAL** (§4.1): a non-blocking linked list of database
//!   rows collocating an item's value, write log, and lock metadata inside
//!   the database's atomicity scope, extended row by row as logs fill;
//! - **exactly-once invocations** of other SSFs with a callback protocol
//!   (§4.5);
//! - **garbage collection** of logs and DAAL rows concurrent with live SSFs
//!   (§5);
//! - **locks and transactions** across SSF boundaries: 2PL with wait-die,
//!   shadow tables, opacity, and coordinator-free commit/abort propagation
//!   along workflow edges (§6).
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use beldi::{BeldiConfig, BeldiEnv, SsfContext, BeldiResult};
//! use beldi_value::{vmap, Value};
//!
//! let env = BeldiEnv::for_tests();
//! env.register_ssf(
//!     "counter",
//!     &["state"],
//!     Arc::new(|ctx: &mut SsfContext, input: Value| -> BeldiResult<Value> {
//!         let cur = ctx.read("state", "hits")?.as_int().unwrap_or(0);
//!         ctx.write("state", "hits", Value::Int(cur + 1))?;
//!         let _ = input;
//!         Ok(Value::Int(cur + 1))
//!     }),
//! );
//! let out = env.invoke("counter", Value::Null).unwrap();
//! assert_eq!(out.as_int(), Some(1));
//! let out = env.invoke("counter", Value::Null).unwrap();
//! assert_eq!(out.as_int(), Some(2));
//! ```
//!
//! # Modes
//!
//! The same application code runs in three modes (the three systems the
//! paper measures):
//!
//! - [`Mode::Beldi`] — full exactly-once semantics over the linked DAAL;
//! - [`Mode::CrossTable`] — exactly-once semantics using a separate log
//!   table updated with cross-table transactions (the comparator in
//!   Figs. 13/16/25);
//! - [`Mode::Baseline`] — raw database and invocation calls, retried
//!   but never logged, with no guarantees (the paper's baseline).

#![deny(clippy::unwrap_used, clippy::expect_used)]

mod config;
mod context;
mod daal;
mod env;
mod error;
mod gc;
mod ic;
mod ids;
mod intent;
mod invoke;
mod modes;
mod ops;
pub mod schema;
pub mod stepfn;
mod txn;
mod wrapper;

pub use config::{BeldiConfig, ConfigError, Mode};
pub use context::SsfContext;
pub use env::{BeldiEnv, DrainReport, EnvBuilder, SsfBody, MAX_ROOT_ATTEMPTS};
pub use error::{BeldiError, BeldiResult};
pub use gc::GcReport;
pub use ic::IcReport;
pub use ids::{
    callee_id, callee_log_key, finalize_marker, log_key, parse_log_key, InstanceId, StepNumber,
};
pub use txn::{TxnContext, TxnMode, TxnOutcome};

/// Schema constants and table-name helpers (exposed for benchmarks,
/// verification tooling, and condition expressions over row attributes
/// such as [`schema::A_VALUE`]).
pub use schema::{A_LOCK, A_VALUE};

// Re-exports so applications depend on `beldi` alone.
pub use beldi_simclock as simclock;
pub use beldi_simfaas::{silence_crash_backtraces, CrashPlan, Label, StormPolicy};
pub use beldi_value as value;
