//! Load generation and latency recording for the Beldi reproduction —
//! the stand-in for wrk2 (§7.2) and the closed-loop capacity driver.
//!
//! One load loop, [`run_clients`] in the [`driver`] module, runs both.
//! A client is a task on one [`Executor`] that issues its requests in
//! order from a start offset, each behind an admission gate; open and
//! closed loops differ only in their clients:
//!
//! - **Open loop** (the figures' sweeps, Figs. 14/15/26): a client per
//!   arrival, started at `i / rate` whatever earlier requests take, so
//!   saturation shows up as growing latency rather than reduced offered
//!   load. Each latency is measured from the request's *intended*
//!   arrival, not from when a free connection got around to sending it
//!   (no coordinated omission).
//! - **Closed loop** ([`drive`]): `N` client workers at offset 0 on one
//!   shared environment, each issuing its next request the moment the
//!   previous one replies. It emits a machine-readable [`BenchReport`]
//!   (`BENCH_results.json`), which the [`gate`](mod@gate) module compares
//!   against a checked-in baseline in CI and checks for bounded storage
//!   growth, crash recovery and the front door's agreement (DESIGN.md §9).
//!
//! All time is virtual ([`beldi_simclock::Clock`]); experiments compress
//! minutes into milliseconds without changing any ordering.
//!
//! The crate also hosts the [`explore`](mod@explore) module: a seed-reproducible
//! crash-schedule model checker that sweeps every labelled crash point of
//! a workload, recovers via the intent collector, diffs the final state
//! against a crash-free oracle, and judges each run's record with the
//! [`history`] checker (DESIGN.md §8).

#![warn(clippy::let_underscore_must_use)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod driver;
pub mod explore;
pub mod gate;
pub mod history;
pub mod wire;

pub use beldi_runtime::Executor;
pub use beldi_simclock::{Histogram, Percentiles};
pub use driver::{
    drive, run_clients, BenchReport, BenchRun, ChaosOptions, Client, Counters, DriveOptions,
    FrontRun, Outcome, RecoverySection, Sample,
};
pub use explore::{explore, ExploreOptions, ExploreReport, PipelineApp, Violation, ViolationKind};
pub use gate::{crash_verdict, front_gate, gate, growth_gate, recovery_gate, CrashCheck};
