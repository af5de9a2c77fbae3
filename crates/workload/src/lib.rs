//! Open-loop load generation and latency recording for the Beldi
//! reproduction — the stand-in for wrk2 (§7.2).
//!
//! wrk2's two defining properties are reproduced:
//!
//! - **Open-loop constant-rate arrivals**: requests are issued on a fixed
//!   schedule regardless of how long earlier requests take, so saturation
//!   shows up as growing latency (Figs. 14/15/26) rather than reduced
//!   offered load.
//! - **Coordinated-omission-free recording**: each latency is measured
//!   from the request's *intended* arrival time, not from when a delayed
//!   issuer got around to sending it.
//!
//! All time is virtual ([`beldi_simclock::Clock`]); experiments compress
//! minutes into milliseconds without changing any ordering.
//!
//! The crate also hosts the [`explore`](mod@explore) module: a seed-reproducible
//! crash-schedule model checker that sweeps every labelled crash point of
//! a workload, recovers via the intent collector, and diffs the final
//! state against a crash-free oracle (DESIGN.md §8).

//! The [`driver`] module adds the closed-loop counterpart: `N` client
//! workers saturate one shared environment and emit a machine-readable
//! [`BenchReport`] (`BENCH_results.json`), which the [`gate`](mod@gate) module
//! compares against a checked-in baseline in CI and checks for bounded
//! storage growth, crash recovery and the front door's agreement
//! (DESIGN.md §9).

#![warn(clippy::let_underscore_must_use)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod driver;
pub mod explore;
pub mod gate;
mod runner;
pub mod wire;

pub use beldi_simclock::{Histogram, Percentiles};
pub use driver::{
    drive, BenchReport, BenchRun, ChaosOptions, DriveOptions, FrontRun, InFlightSample,
    InFlightSeries, RecoverySection, StorageSample, StorageSeries,
};
pub use explore::{explore, ExploreOptions, ExploreReport, PipelineApp, Violation, ViolationKind};
pub use gate::{crash_verdict, front_gate, gate, growth_gate, recovery_gate, CrashCheck};
pub use runner::{RateRunner, RunReport};
