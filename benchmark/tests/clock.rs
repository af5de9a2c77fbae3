//! `LedgerClock`: monotone, never blocks, attribution adds up.

use std::sync::Arc;
use std::time::{Duration, Instant};

use beldi_benchmark::clock::LedgerClock;

#[test]
fn time_moves_only_by_what_is_slept() {
    let clock = LedgerClock::new();
    assert_eq!(clock.now_nanos(), 0);
    let mut last = 0;
    for ms in [3, 0, 250, 1] {
        clock.advance(Duration::from_millis(ms));
        let now = clock.now_nanos();
        assert!(now >= last, "the clock went backwards");
        assert_eq!(now - last, ms * 1_000_000);
        last = now;
    }
    assert_eq!(clock.sleeps(), 4);
    std::thread::sleep(Duration::from_millis(5));
    assert_eq!(clock.now_nanos(), last, "wall time must not move the clock");
}

#[test]
fn sleep_never_blocks() {
    let clock = LedgerClock::new();
    let started = Instant::now();
    for _ in 0..10_000 {
        clock.advance(Duration::from_secs(3_600));
    }
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "ten thousand one-hour sleeps took {:?}",
        started.elapsed()
    );
    assert_eq!(clock.now_nanos(), 10_000 * 3_600 * 1_000_000_000);
}

#[test]
fn per_thread_attribution_sums_to_the_total() {
    let clock = Arc::new(LedgerClock::new());
    clock.advance(Duration::from_millis(7)); // Before attribution: in the total only.
    clock.set_attribution(true);
    let before = (clock.now_nanos(), clock.sleeps());
    let workers: Vec<_> = (0..4u64)
        .map(|i| {
            let clock = clock.clone();
            std::thread::Builder::new()
                .name(format!("ssf-fn{}", i % 2))
                .spawn(move || {
                    for _ in 0..100 {
                        clock.advance(Duration::from_micros(10 + i));
                    }
                })
                .expect("spawn a worker")
        })
        .collect();
    clock.advance(Duration::from_millis(1));
    for w in workers {
        w.join().expect("worker finished");
    }
    clock.set_attribution(false);
    clock.advance(Duration::from_millis(9)); // After: in the total only.

    let shares = clock.by_thread();
    assert_eq!(
        shares.len(),
        3,
        "two worker names and this test's thread: {shares:?}"
    );
    assert_eq!(shares["ssf-fn0"].sleeps, 200);
    assert_eq!(shares["ssf-fn1"].sleeps, 200);
    let nanos: u64 = shares.values().map(|s| s.nanos).sum();
    let sleeps: u64 = shares.values().map(|s| s.sleeps).sum();
    assert_eq!(nanos, clock.now_nanos() - before.0 - 9_000_000);
    assert_eq!(sleeps, clock.sleeps() - before.1 - 1);
}
