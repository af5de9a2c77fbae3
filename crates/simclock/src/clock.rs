//! The [`Clock`] trait and its host defaults.

#![expect(
    clippy::disallowed_methods,
    reason = "this module *implements* the trait's default waits and threads on the host's: its \
              parks and thread starts are what every clock-visible wait compiles down to on a \
              clock that implements only `now` and `sleep`"
)]

use std::fmt;
use std::sync::Arc;
use std::thread::Thread;
use std::time::Duration;

/// A point in virtual time: nanoseconds since the clock's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimInstant {
    nanos: u64,
}

impl SimInstant {
    /// The clock epoch (time zero).
    pub const EPOCH: SimInstant = SimInstant { nanos: 0 };

    /// Creates an instant from nanoseconds since the epoch.
    pub fn from_nanos(nanos: u64) -> Self {
        SimInstant { nanos }
    }

    /// Creates an instant from milliseconds since the epoch.
    pub fn from_millis(ms: u64) -> Self {
        SimInstant {
            nanos: ms.saturating_mul(1_000_000),
        }
    }

    /// Returns nanoseconds since the epoch.
    pub fn as_nanos(self) -> u64 {
        self.nanos
    }

    /// Returns milliseconds since the epoch (truncating).
    pub fn as_millis(self) -> u64 {
        self.nanos / 1_000_000
    }

    /// Returns the duration elapsed since `earlier`, saturating to zero.
    pub fn since(self, earlier: SimInstant) -> Duration {
        Duration::from_nanos(self.nanos.saturating_sub(earlier.nanos))
    }

    /// Returns this instant advanced by `d`.
    pub fn plus(self, d: Duration) -> SimInstant {
        SimInstant {
            nanos: self.nanos.saturating_add(d.as_nanos() as u64),
        }
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.nanos / 1_000_000;
        write!(f, "t+{}.{:03}s", ms / 1000, ms % 1000)
    }
}

/// How often a thread parked by the default [`Clock::park_until`]
/// re-reads a clock whose rate it cannot see.
const PARK_RECHECK: Duration = Duration::from_micros(200);

/// A source of virtual time.
///
/// Implementations must be monotonic: successive [`Clock::now`] calls never
/// go backwards. Only [`Clock::now`] and [`Clock::sleep`] are required;
/// the parking and thread methods default to the host's own
/// (`std::thread`), which is right for every clock whose time flows
/// without being told who is waiting. [`crate::SimClock`] overrides them
/// to make those waits visible to its schedule.
pub trait Clock: Send + Sync {
    /// Returns the current virtual time.
    fn now(&self) -> SimInstant;

    /// Blocks the calling thread for `d` of *virtual* time.
    fn sleep(&self, d: Duration);

    /// Blocks until the given virtual instant (no-op if already past).
    fn sleep_until(&self, deadline: SimInstant) {
        let now = self.now();
        if deadline > now {
            self.sleep(deadline.since(now));
        }
    }

    /// Parks the calling thread until [`Clock::unpark`] names it or
    /// virtual time reaches `deadline`. May return early: callers loop
    /// on their own condition. An `unpark` that comes first is not lost —
    /// the next park returns at once.
    fn park_until(&self, deadline: Option<SimInstant>) {
        match deadline {
            None => std::thread::park(),
            Some(_) => std::thread::park_timeout(PARK_RECHECK),
        }
    }

    /// Wakes `thread` from [`Clock::park_until`].
    fn unpark(&self, thread: &Thread) {
        thread.unpark();
    }

    /// Ends the calling thread's turn without waiting for anything: it
    /// stays ready to run. A clock that schedules nothing has no turn to
    /// end, so the default returns at once.
    fn yield_now(&self) {}

    /// Runs `body` on a new thread named `name`.
    ///
    /// # Panics
    ///
    /// Panics when the host refuses to start the thread.
    fn spawn(&self, name: String, body: Box<dyn FnOnce() + Send>) -> JoinHandle {
        JoinHandle::new(spawn_named(name, body), None)
    }
}

#[expect(
    clippy::expect_used,
    reason = "`Clock::spawn` documents the panic: a body the host gives no thread cannot run"
)]
pub(crate) fn spawn_named(
    name: String,
    body: impl FnOnce() + Send + 'static,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .spawn(body)
        .expect("the host must be able to start a thread")
}

/// Handle to a thread started by [`Clock::spawn`]. Dropping it detaches
/// the thread.
pub struct JoinHandle {
    thread: std::thread::JoinHandle<()>,
    /// The clock-visible part of the wait, for clocks that schedule
    /// their threads.
    await_exit: Option<Box<dyn FnOnce() + Send>>,
}

impl JoinHandle {
    pub(crate) fn new(
        thread: std::thread::JoinHandle<()>,
        await_exit: Option<Box<dyn FnOnce() + Send>>,
    ) -> JoinHandle {
        JoinHandle { thread, await_exit }
    }

    /// Waits for the thread to finish; `Err` carries its panic.
    pub fn join(self) -> std::thread::Result<()> {
        if let Some(await_exit) = self.await_exit {
            await_exit();
        }
        self.thread.join()
    }
}

/// A shareable, dynamically dispatched clock handle.
pub type SharedClock = Arc<dyn Clock>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_instant_arithmetic() {
        let a = SimInstant::from_millis(100);
        let b = a.plus(Duration::from_millis(50));
        assert_eq!(b.as_millis(), 150);
        assert_eq!(b.since(a), Duration::from_millis(50));
        assert_eq!(a.since(b), Duration::ZERO); // Saturates.
        assert_eq!(format!("{b}"), "t+0.150s");
    }

    #[test]
    fn sleep_until_past_deadline_is_noop() {
        let c = crate::SimClock::new(1);
        c.sleep(Duration::from_secs(1));
        c.sleep_until(SimInstant::from_millis(500)); // Must not block.
        assert_eq!(c.now().as_millis(), 1000);
    }
}
