//! Shared by the concurrency tests: environments whose threads interleave
//! inside an invocation, and the clock-thread plumbing.
//!
//! A default [`BeldiEnv`] runs on a seeded `SimClock`: one thread runs at
//! a time and hands over only at a clock-visible wait. With zero storage
//! latency an invocation has none, so "concurrent" invocations would run
//! one after the other.

#![allow(
    dead_code,
    reason = "each test binary includes this module and uses its own subset"
)]

use std::sync::Arc;

use beldi::{BeldiConfig, BeldiEnv};
use beldi_simclock::JoinHandle;
use beldi_simdb::LatencyModel;

/// An environment on the default seeded schedule whose storage operations
/// take modelled time: every database operation is then a point where the
/// schedule can switch threads.
pub fn contended_env(config: BeldiConfig) -> BeldiEnv {
    BeldiEnv::builder(config)
        .latency(LatencyModel::dynamo())
        .build()
}

/// Starts `body` as a thread of `env`'s clock.
pub fn spawn(
    env: &Arc<BeldiEnv>,
    name: impl Into<String>,
    body: impl FnOnce(&BeldiEnv) + Send + 'static,
) -> JoinHandle {
    let e = Arc::clone(env);
    env.clock().spawn(name.into(), Box::new(move || body(&e)))
}

/// Waits for every thread; a panic in one is the test's.
pub fn join_all(threads: Vec<JoinHandle>) {
    for t in threads {
        t.join().unwrap();
    }
}
