//! Throughput sweeps: latency-vs-throughput series (Figs. 14, 15, 26).

use std::time::Duration;

use crate::runner::RunReport;

/// One point of a latency-vs-throughput series.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Offered arrival rate (req per virtual second).
    pub offered_rate: f64,
    /// Achieved completion rate.
    pub achieved_rate: f64,
    /// Median latency.
    pub p50: Duration,
    /// 99th-percentile latency.
    pub p99: Duration,
    /// Failed requests.
    pub errors: u64,
}

impl From<&RunReport> for SweepPoint {
    fn from(r: &RunReport) -> Self {
        SweepPoint {
            offered_rate: r.offered_rate,
            achieved_rate: r.achieved_rate,
            p50: r.latency.p50,
            p99: r.latency.p99,
            errors: r.errors,
        }
    }
}
