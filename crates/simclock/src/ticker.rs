//! Periodic timers in virtual time.
//!
//! Beldi triggers its intent collector and garbage collector "by a timer
//! every 1 minute, which is the finest resolution supported by AWS" (§7.2).
//! [`Ticker`] reproduces that: it invokes a callback every `period` of
//! virtual time on a dedicated thread of the clock until stopped.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::clock::{JoinHandle, SharedClock};

/// A periodic virtual-time timer.
pub struct Ticker;

/// Handle to a running [`Ticker`]; stops the timer when dropped or on
/// [`TickerHandle::stop`].
pub struct TickerHandle {
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle>,
}

impl Ticker {
    /// Spawns a timer that calls `tick` every `period` of virtual time.
    ///
    /// The first tick fires after one full period. Ticks never overlap:
    /// if `tick` runs long, the next tick is delayed (matching how a
    /// timer-triggered serverless function that is still running simply
    /// skips its slot).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn spawn(
        clock: SharedClock,
        period: Duration,
        mut tick: impl FnMut() + Send + 'static,
    ) -> TickerHandle {
        assert!(!period.is_zero(), "ticker period must be non-zero");
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let spawner = clock.clone();
        let body = move || {
            let mut next = clock.now().plus(period);
            loop {
                clock.sleep_until(next);
                if stop2.load(Ordering::Acquire) {
                    return;
                }
                tick();
                if stop2.load(Ordering::Acquire) {
                    return;
                }
                // Schedule relative to *now* so long ticks delay rather
                // than pile up.
                let now = clock.now();
                next = next.plus(period);
                if next < now {
                    next = now.plus(period);
                }
            }
        };
        let join = spawner.spawn("sim-ticker".into(), Box::new(body));
        TickerHandle {
            stop,
            join: Some(join),
        }
    }
}

impl TickerHandle {
    /// Stops the timer and waits for its thread to exit, which it does
    /// at the end of the period it is sleeping through: at once on a
    /// [`crate::SimClock`] (the join is a wait the clock sees, so time
    /// moves to the timer's deadline).
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(j) = self.join.take() {
            j.join().ok();
        }
    }
}

impl Drop for TickerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Detach rather than join: dropping must not deadlock if the clock
        // never advances again.
        self.join.take();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use std::sync::atomic::AtomicUsize;

    fn counting_ticker() -> (SharedClock, TickerHandle, Arc<AtomicUsize>) {
        let clock: SharedClock = crate::SimClock::shared(1);
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = count.clone();
        let h = Ticker::spawn(clock.clone(), Duration::from_secs(1), move || {
            c2.fetch_add(1, Ordering::SeqCst);
        });
        (clock, h, count)
    }

    #[test]
    fn ticker_fires_repeatedly() {
        let (clock, h, count) = counting_ticker();
        clock.sleep(Duration::from_millis(10_500));
        assert_eq!(count.load(Ordering::SeqCst), 10, "one tick a period");
        h.stop();
    }

    #[test]
    fn stop_prevents_further_ticks() {
        let (clock, h, count) = counting_ticker();
        clock.sleep(Duration::from_millis(2_500));
        h.stop();
        assert_eq!(clock.now().as_millis(), 3_000, "it exits at its deadline");
        clock.sleep(Duration::from_secs(5));
        assert_eq!(count.load(Ordering::SeqCst), 2, "the third tick never ran");
    }

    /// On a `SimClock` the ticks land exactly on the period, and `stop`
    /// needs nobody to advance the clock: joining is a wait the clock
    /// sees, so time moves to the ticker's next deadline and it exits.
    #[test]
    fn sim_clock_ticker_is_exact_and_stops_unaided() {
        let clock = crate::SimClock::shared(1);
        let ticks = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let (c, t) = (clock.clone(), ticks.clone());
        let h = Ticker::spawn(clock.clone(), Duration::from_secs(60), move || {
            t.lock().push(c.now().as_millis());
        });
        clock.sleep(Duration::from_secs(200));
        assert_eq!(*ticks.lock(), [60_000, 120_000, 180_000]);
        h.stop();
        assert_eq!(ticks.lock().len(), 3);
        assert_eq!(clock.now().as_millis(), 240_000);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_period_rejected() {
        let clock: SharedClock = crate::SimClock::shared(1);
        let _ = Ticker::spawn(clock, Duration::ZERO, || {});
    }
}
