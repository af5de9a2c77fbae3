//! Open-loop constant-rate execution (wrk2 semantics).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use beldi_simclock::{SharedClock, SimInstant};
use parking_lot::Mutex;

use beldi_simclock::{Histogram, Percentiles};

/// A request issued by the runner: receives the request index, returns
/// whether it succeeded.
pub type Request = Arc<dyn Fn(u64) -> bool + Send + Sync>;

/// Open-loop constant-rate load runner.
///
/// Arrival times are fixed up front at `1/rate` spacing (virtual time);
/// a pool of issuer threads (threads of the clock) executes them, and each latency is measured
/// from the request's *intended* arrival — so a backlog shows up as
/// latency (no coordinated omission), exactly like wrk2 with a fixed
/// connection count.
pub struct RateRunner {
    clock: SharedClock,
    rate_per_sec: f64,
    duration: Duration,
    issuers: usize,
}

/// Result of one constant-rate run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The configured arrival rate (requests per virtual second).
    pub offered_rate: f64,
    /// Completions per virtual second actually achieved.
    pub achieved_rate: f64,
    /// Requests that returned failure.
    pub errors: u64,
    /// Latency percentile summary.
    pub latency: Percentiles,
}

impl RateRunner {
    /// Creates a runner issuing `rate_per_sec` requests per virtual second
    /// for `duration` (virtual), from a pool of `issuers` threads.
    ///
    /// # Panics
    ///
    /// Panics when `rate_per_sec` is not positive or `issuers` is zero.
    pub fn new(clock: SharedClock, rate_per_sec: f64, duration: Duration, issuers: usize) -> Self {
        assert!(rate_per_sec > 0.0, "rate must be positive");
        assert!(issuers > 0, "need at least one issuer");
        RateRunner {
            clock,
            rate_per_sec,
            duration,
            issuers,
        }
    }

    /// Executes the run and collects latencies.
    pub fn run(&self, request: Request) -> RunReport {
        let total = (self.rate_per_sec * self.duration.as_secs_f64()).floor() as u64;
        let interval_ns = (1e9 / self.rate_per_sec) as u64;
        let start = self.clock.now();
        let next = Arc::new(AtomicU64::new(0));
        let errors = Arc::new(AtomicU64::new(0));
        let done = Arc::new(AtomicUsize::new(0));
        let hist = Arc::new(Mutex::new(Histogram::new()));

        let mut handles = Vec::with_capacity(self.issuers);
        for issuer in 0..self.issuers {
            let clock = self.clock.clone();
            let next = Arc::clone(&next);
            let errors = Arc::clone(&errors);
            let done = Arc::clone(&done);
            let hist = Arc::clone(&hist);
            let request = Arc::clone(&request);
            let body = move || {
                let mut local = Histogram::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let intended = start.plus(Duration::from_nanos(i * interval_ns));
                    sleep_until(&clock, intended);
                    let ok = request(i);
                    let latency = clock.now().since(intended);
                    local.record(latency);
                    if !ok {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                }
                hist.lock().merge(&local);
            };
            let name = format!("issuer-{issuer}");
            handles.push(self.clock.spawn(name, Box::new(body)));
        }
        for h in handles {
            if let Err(panic) = h.join() {
                std::panic::resume_unwind(panic);
            }
        }

        let elapsed = self.clock.now().since(start).as_secs_f64().max(1e-9);
        let latency = hist.lock().percentiles();
        RunReport {
            offered_rate: self.rate_per_sec,
            achieved_rate: done.load(Ordering::Relaxed) as f64 / elapsed,
            errors: errors.load(Ordering::Relaxed),
            latency,
        }
    }
}

/// Sleeps (in virtual time) until `deadline`; returns immediately when
/// already past it (the behind-schedule case the latency then reflects).
fn sleep_until(clock: &SharedClock, deadline: SimInstant) {
    let now = clock.now();
    if now < deadline {
        clock.sleep(deadline.since(now));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beldi_simclock::SimClock;

    /// Virtual time only: the runs below are exact, whatever the host does.
    fn sim_clock() -> SharedClock {
        SimClock::shared(7)
    }

    #[test]
    fn issues_the_scheduled_number_of_requests() {
        let runner = RateRunner::new(sim_clock(), 100.0, Duration::from_secs(2), 4);
        let count = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&count);
        let report = runner.run(Arc::new(move |_| {
            c.fetch_add(1, Ordering::Relaxed);
            true
        }));
        assert_eq!(count.load(Ordering::Relaxed), 200);
        assert_eq!(report.latency.count, 200);
        assert_eq!(report.errors, 0);
        // Instant requests are never late, and the run ends with the last
        // arrival, 1.99 s in.
        assert_eq!(report.latency.max, Duration::ZERO);
        assert_eq!(report.achieved_rate, 200.0 / 1.99);
    }

    #[test]
    fn errors_are_counted() {
        let runner = RateRunner::new(sim_clock(), 50.0, Duration::from_secs(1), 2);
        let report = runner.run(Arc::new(|i| i % 5 != 0));
        assert_eq!(report.errors, 10);
    }

    #[test]
    fn slow_requests_inflate_latency_not_rate_accounting() {
        // Each request takes 40ms virtual but arrivals come every 10ms
        // from 2 issuers: the backlog must appear as latency growth.
        let clock = sim_clock();
        let runner = RateRunner::new(clock.clone(), 100.0, Duration::from_secs(1), 2);
        let report = runner.run(Arc::new(move |_| {
            clock.sleep(Duration::from_millis(40));
            true
        }));
        // The two issuers serve one request every 20ms between them, so
        // request `i`, due at `10 i` ms, completes at `40 + 10 i +
        // 20 (i / 2)` ms — queueing delay far above the service time.
        let mut expected = Histogram::new();
        for i in 0..100u64 {
            expected.record(Duration::from_millis(40 + 20 * (i / 2)));
        }
        assert_eq!(report.latency, expected.percentiles());
        assert!(report.latency.p99 > Duration::from_millis(1000));
        // 100 requests, the last done 2.01 s in.
        assert_eq!(report.achieved_rate, 100.0 / 2.01);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let _ = RateRunner::new(sim_clock(), 0.0, Duration::from_secs(1), 1);
    }
}
