//! A warm container that has run an asynchronous or pending invocation
//! keeps a parked thread, so an environment owns threads: it must take
//! them with it when it drops.
//!
//! One test, so that nothing else in this process starts or ends a
//! thread while the count is read.
#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use beldi::value::Value;
use beldi::{BeldiConfig, BeldiEnv};
use beldi_runtime::Executor;
use beldi_simclock::{Clock, SharedClock, SimInstant};

/// A clock that implements only `now` and `sleep`: a counter that
/// `sleep` adds to. Its parks, unparks and threads are the trait's host
/// defaults — the shape of a clock that schedules nothing.
#[derive(Default)]
struct CounterClock(AtomicU64);

impl Clock for CounterClock {
    fn now(&self) -> SimInstant {
        SimInstant::from_nanos(self.0.load(Ordering::SeqCst))
    }

    fn sleep(&self, d: Duration) {
        self.0.fetch_add(d.as_nanos() as u64, Ordering::SeqCst);
    }
}

/// A default (`SimClock`) environment, or one on `clock`, with a two-SSF
/// chain whose containers are warm and have threads: reached through the
/// pending front, `outer` has invoked `inner` once on its own thread (and
/// `inner` has called back into `outer` while that container was
/// occupied), and `inner`, reached the same way, has a thread of its own.
fn warmed_env(clock: Option<SharedClock>) -> BeldiEnv {
    let env = match clock {
        None => BeldiEnv::for_tests(),
        Some(clock) => BeldiEnv::builder(BeldiConfig::beldi()).clock(clock).build(),
    };
    env.register_ssf("inner", &[], Arc::new(|_ctx, input| Ok(input)));
    env.register_ssf(
        "outer",
        &[],
        Arc::new(|ctx, input| ctx.sync_invoke("inner", input)),
    );
    let rt = Executor::new(env.clock().clone(), 1);
    for ssf in ["outer", "inner"] {
        let call = env.invoke_task(ssf, &format!("{ssf}-root"), Value::Int(7), 1);
        assert_eq!(rt.block_on(call).unwrap(), Value::Int(7));
    }
    env
}

fn threads_now() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// The thread count once it is back at `expected`. A joined thread can
/// stay listed for a moment while the kernel reaps it (a join returns
/// when the thread has cleared its id, before it is unlisted), so a
/// higher reading is re-taken a bounded number of times; a leak stays
/// higher.
fn threads_settled_at(expected: usize) -> usize {
    for _ in 0..10_000 {
        if threads_now() <= expected {
            break;
        }
        std::thread::yield_now();
    }
    threads_now()
}

#[test]
fn no_thread_outlives_its_environment() {
    let counter = || Some(Arc::new(CounterClock::default()) as SharedClock);
    let at_start = threads_now();

    for clock in [|| None, counter] {
        for _ in 0..20 {
            let env = warmed_env(clock());
            let workers = 2; // One per SSF.
                             // Read settled: the previous environment's workers are joined,
                             // but a joined thread stays listed until the kernel reaps it.
            let parked = threads_settled_at(at_start + workers);
            assert_eq!(parked, at_start + workers, "each one parked");
            drop(env);
        }
        assert_eq!(threads_settled_at(at_start), at_start);
    }

    // Dropped by a thread of the clock other than the one that built it:
    // neither hangs nor panics, and still leaves nothing behind.
    for clock in [|| None, counter] {
        let env = warmed_env(clock());
        let env_clock = env.clock().clone();
        let dropper = env_clock.spawn("dropper".into(), Box::new(move || drop(env)));
        dropper.join().expect("the drop panicked");
        assert_eq!(threads_settled_at(at_start), at_start);
    }
}
