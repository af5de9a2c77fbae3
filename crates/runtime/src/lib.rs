//! `beldi-runtime`: a deterministic cooperative async executor on
//! virtual time (DESIGN.md §14).
//!
//! A client thread per in-flight request caps "in flight" at the OS
//! thread count; this crate makes ten thousand concurrent in-flight
//! workflows representable as lightweight tasks polled by one thread —
//! what the workload driver's client workers and the HTTP front door's
//! requests are. It is built
//! from the standard library only — hand-rolled `Future` tasks, a
//! [`std::task::Wake`] waker per task, a seeded ready queue (same seed ⇒
//! same interleaving), and a virtual-time timer heap driven by the
//! workspace's [`beldi_simclock::Clock`] — because this workspace vendors
//! every dependency offline: no tokio, no async-std.
//!
//! ```
//! use std::time::Duration;
//! use beldi_runtime::Executor;
//!
//! let rt = Executor::simulated(42);
//! let sum = rt.block_on(async {
//!     let a = beldi_runtime::spawn(async {
//!         beldi_runtime::sleep(Duration::from_millis(5)).await;
//!         2
//!     });
//!     let b = beldi_runtime::spawn(async { 3 });
//!     a.await + b.await
//! });
//! assert_eq!(sum, 5);
//! ```

#![warn(clippy::let_underscore_must_use)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod context;
mod executor;
mod join;
pub mod sync;

pub use context::{handle, try_handle};
pub use executor::{Executor, Handle, Sleep, YieldNow};
pub use join::JoinHandle;
pub use sync::Semaphore;

use std::future::Future;
use std::time::Duration;

/// Spawns a task on the current executor ([`handle`] must resolve).
pub fn spawn<F>(fut: F) -> JoinHandle<F::Output>
where
    F: Future + Send + 'static,
    F::Output: Send + 'static,
{
    handle().spawn(fut)
}

/// Suspends the current task for `d` of virtual time.
pub fn sleep(d: Duration) -> Sleep {
    handle().sleep(d)
}

/// Yields the current task back to the seeded scheduler once.
pub fn yield_now() -> YieldNow {
    YieldNow::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn block_on_returns_value() {
        let rt = Executor::simulated(1);
        assert_eq!(rt.block_on(async { 41 + 1 }), 42);
    }

    #[test]
    fn spawned_tasks_all_run() {
        let rt = Executor::simulated(7);
        let n = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..100)
            .map(|_| {
                let n = n.clone();
                rt.spawn(async move {
                    yield_now().await;
                    n.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        rt.run();
        assert_eq!(n.load(Ordering::SeqCst), 100);
        assert!(handles.iter().all(|h| h.is_finished()));
    }

    #[test]
    fn join_handle_returns_result_across_await() {
        let rt = Executor::simulated(3);
        let out = rt.block_on(async {
            let h = spawn(async {
                sleep(Duration::from_millis(2)).await;
                "done"
            });
            h.await
        });
        assert_eq!(out, "done");
    }

    #[test]
    fn sleep_respects_virtual_deadlines() {
        let rt = Executor::simulated(9);
        let h = rt.handle();
        let woke_at = rt.block_on(async move {
            let t0 = h.now();
            sleep(Duration::from_millis(50)).await;
            h.now().since(t0)
        });
        assert_eq!(woke_at, Duration::from_millis(50));
    }

    #[test]
    fn timers_fire_in_deadline_order() {
        let rt = Executor::simulated(11);
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        for (tag, ms) in [("c", 30u64), ("a", 10), ("b", 20)] {
            let order = order.clone();
            rt.spawn(async move {
                sleep(Duration::from_millis(ms)).await;
                order.lock().push(tag);
            });
        }
        rt.run();
        assert_eq!(*order.lock(), vec!["a", "b", "c"]);
    }

    #[test]
    fn same_seed_same_schedule_trace() {
        let trace_for = |seed: u64| {
            let rt = Executor::simulated(seed);
            rt.record_schedule();
            for i in 0..50u64 {
                rt.spawn(async move {
                    for _ in 0..(i % 5) {
                        yield_now().await;
                    }
                    sleep(Duration::from_micros(100 * (i % 7 + 1))).await;
                });
            }
            rt.run();
            rt.take_schedule()
        };
        let a = trace_for(42);
        let b = trace_for(42);
        let c = trace_for(42);
        let other = trace_for(43);
        assert_eq!(a, b, "same seed must replay the same schedule");
        assert_eq!(a, c, "the third run must replay it too");
        assert_ne!(a, other, "different seeds should interleave differently");
    }

    #[test]
    fn cross_thread_wake_unparks_executor() {
        let rt = Executor::simulated(5);
        let h = rt.handle();
        let clock = h.clock();
        // The one task waits on a gate, so the executor parks with no
        // timer to wake it; only a task handed in from another thread of
        // the clock can.
        let gate = Semaphore::new(1);
        let held = gate.try_acquire().expect("a fresh semaphore has a permit");
        rt.spawn(async move {
            let _permit = gate.acquire().await;
        });
        let c = clock.clone();
        let producer = clock.spawn(
            "producer".into(),
            Box::new(move || {
                c.sleep(Duration::from_millis(1));
                h.spawn(async move { drop(held) });
            }),
        );
        rt.run();
        producer.join().unwrap();
        assert_eq!(clock.now().as_millis(), 1);
    }

    #[test]
    fn ten_thousand_tasks_one_thread() {
        let rt = Executor::simulated(17);
        let n = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let h = rt.handle();
        for i in 0..10_000u64 {
            let (n, peak, h) = (n.clone(), peak.clone(), h.clone());
            rt.spawn(async move {
                // Every task sleeps, so all 10k are simultaneously
                // in-flight (parked on timers) at some point.
                sleep(Duration::from_millis(5 + (i % 10))).await;
                peak.fetch_max(h.live_tasks(), Ordering::SeqCst);
                n.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(rt.live_tasks(), 10_000);
        rt.run();
        assert_eq!(n.load(Ordering::SeqCst), 10_000);
        assert!(
            peak.load(Ordering::SeqCst) >= 9_000,
            "peak in-flight {} — tasks should overlap massively",
            peak.load(Ordering::SeqCst)
        );
    }
}
