//! `LedgerClock`: the modelled time base.
//!
//! Virtual time is a counter that moves only by the durations the
//! system asks to sleep: `advance(d)` adds `d` and returns at once. With
//! one closed-loop client and apps that are chains of sequential
//! synchronous invocations, at most one thread sleeps at a time, so the
//! virtual latency of a request is the sum of the modelled waits on its
//! path: a function of the seed and the configuration, not of the host.
//!
//! Nothing may run a periodic timer on this clock: a ticker that sleeps
//! in a loop would spin virtual time forward as fast as the host allows.
//! The driver runs the collectors itself, between requests.
//!
//! The `beldi_simclock::Clock` implementation for this type lives in
//! `adapter.rs`, the one file that names workspace symbols.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Sleeps and virtual nanoseconds charged to one thread name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadShare {
    pub sleeps: u64,
    pub nanos: u64,
}

#[derive(Default)]
pub struct LedgerClock {
    nanos: AtomicU64,
    sleeps: AtomicU64,
    attribute: AtomicBool,
    by_thread: Mutex<BTreeMap<String, ThreadShare>>,
}

impl LedgerClock {
    pub fn new() -> Self {
        LedgerClock::default()
    }

    /// Virtual nanoseconds since the clock was made.
    pub fn now_nanos(&self) -> u64 {
        // SeqCst: a worker's sleeps must be visible to the client thread
        // that reads the clock right after the worker's reply arrives.
        self.nanos.load(Ordering::SeqCst)
    }

    /// Number of `advance` calls so far.
    pub fn sleeps(&self) -> u64 {
        self.sleeps.load(Ordering::SeqCst)
    }

    /// Adds `d` to virtual time and returns without blocking.
    pub fn advance(&self, d: Duration) {
        let nanos = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(nanos, Ordering::SeqCst);
        self.sleeps.fetch_add(1, Ordering::SeqCst);
        if self.attribute.load(Ordering::Relaxed) {
            let current = std::thread::current();
            let name = current.name().unwrap_or("unnamed");
            let mut map = self.by_thread.lock().expect("attribution map poisoned");
            // Look up by `&str` first: the common case allocates nothing.
            let share = match map.get_mut(name) {
                Some(share) => share,
                None => map.entry(name.to_owned()).or_default(),
            };
            share.sleeps += 1;
            share.nanos += nanos;
        }
    }

    /// Turns per-thread attribution on or off (the traced pass turns it
    /// on; its cost is part of the tracing overhead).
    pub fn set_attribution(&self, on: bool) {
        self.attribute.store(on, Ordering::Relaxed);
    }

    /// Virtual time charged to each thread name while attribution was on.
    pub fn by_thread(&self) -> BTreeMap<String, ThreadShare> {
        self.by_thread
            .lock()
            .expect("attribution map poisoned")
            .clone()
    }
}
