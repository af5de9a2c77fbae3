//! Virtual time for the Beldi reproduction.
//!
//! The paper's garbage-collection safety argument (§5) and its experiments
//! (Fig. 16 runs for 60 minutes) depend only on *relative* time: an SSF
//! instance lives at most `T`, the GC waits `T` before deleting, intent and
//! garbage collectors fire every minute. All components in this workspace
//! therefore read time exclusively through the [`Clock`] trait, and the
//! experiments drive a [`ScaledClock`] that compresses virtual minutes into
//! real milliseconds while preserving every ordering.
//!
//! Two implementations are provided:
//!
//! - [`ScaledClock`] — virtual time advances at `rate` × real time;
//!   `sleep(d)` costs `d / rate` of wall time. `rate = 1.0` is real time.
//! - [`ManualClock`] — time advances only when a test calls
//!   [`ManualClock::advance`]; sleepers wake deterministically.
//!
//! Both hand out [`SimInstant`]s: virtual nanoseconds since the clock's
//! epoch.
//!
//! The crate also holds the two waiting primitives every layer above
//! shares: the periodic [`Ticker`] and the waker-based [`Semaphore`]
//! ([`sync`]).

mod clock;
pub mod sync;
mod ticker;

pub use clock::{Clock, ManualClock, ScaledClock, SharedClock, SimInstant};
pub use sync::{Permit, Semaphore};
pub use ticker::{Ticker, TickerHandle};
