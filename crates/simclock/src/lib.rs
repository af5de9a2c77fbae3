//! Virtual time for the Beldi reproduction.
//!
//! The paper's garbage-collection safety argument (§5) and its experiments
//! (Fig. 16 runs for 60 minutes) depend only on *relative* time: an SSF
//! instance lives at most `T`, the GC waits `T` before deleting, intent and
//! garbage collectors fire every minute. All components in this workspace
//! therefore read time exclusively through the [`Clock`] trait, whose
//! required surface is two methods, `now` and `sleep`.
//!
//! One clock moves time: [`SimClock`]. Every experiment, every default
//! `BeldiEnv` and the HTTP front door run on it. Time jumps to the
//! earliest deadline when every participant thread is waiting, one
//! participant runs at a time, and the order is seeded: virtual time is
//! the sum of the modelled waits and nothing of the host's. It hands
//! out [`SimInstant`]s: virtual nanoseconds since the clock's epoch.
//!
//! # The participant contract
//!
//! A wait is *clock-visible* when it goes through the trait:
//! [`Clock::sleep`] / [`Clock::sleep_until`]; [`Clock::park_until`], woken
//! by [`Clock::unpark`] (what [`park_on`] — and so the platform's blocking
//! invokes and a thread's `Semaphore` acquire — and the executor's idle
//! wait are built on); and [`JoinHandle::join`] of a thread started with
//! [`Clock::spawn`]. [`Clock::yield_now`] ends a turn without waiting
//! (what a synchronous invoke does where a hand-off to a worker thread
//! would be). On a clock that implements only `now` + `sleep` (a
//! counter that `sleep` adds to, say), the last three default to the
//! host's `std::thread` equivalents and the yield to nothing. On a
//! `SimClock` they are how the schedule learns that a thread has stopped
//! running: a participant must wait in no other way on anything another
//! participant has to run to provide, and a thread the clock did not
//! start must not wait on it at all (it panics, naming the thread).
//! [`SimClock`]'s docs give the details.
//!
//! The crate also holds the two waiting primitives every layer above
//! shares: the periodic [`Ticker`] and the waker-based [`Semaphore`]
//! ([`sync`]); and the one counter registry every layer records into,
//! [`Telemetry`] ([`telemetry`]), with its virtual-time [`Histogram`] and
//! its run record ([`Event`]).

#![warn(clippy::let_underscore_must_use)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

#[cfg(test)]
mod clippy_canaries;
mod clock;
mod histogram;
mod record;
mod sim;
pub mod sync;
pub mod telemetry;
mod ticker;

pub use clock::{Clock, JoinHandle, SharedClock, SimInstant};
pub use histogram::{Histogram, Percentiles};
pub use record::{Event, EventKind, OpScope, StoreCall, StoreKind};
pub use sim::SimClock;
pub use sync::{park_on, Permit, Semaphore};
pub use telemetry::{Gauge, Hist, Metric, MetricsSnapshot, Op, PlatformSnapshot, Telemetry};
pub use ticker::{Ticker, TickerHandle};
