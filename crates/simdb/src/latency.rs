//! Virtual-time latency model for database operations.
//!
//! The paper's microbenchmark (Fig. 13) reports DynamoDB-backed operation
//! latencies in the single-digit-to-tens of milliseconds with a heavy tail.
//! To reproduce the latency *shapes*, every database operation sleeps (in
//! virtual time) for a sampled duration: a per-operation base cost, a
//! per-row scan cost, a per-kilobyte transfer cost, and log-normal-ish
//! jitter with an occasional tail spike.
//!
//! The default parameters approximate published DynamoDB figures (reads
//! ≈ 4 ms median, writes ≈ 6 ms, scans ≈ 5 ms + per-row cost). Absolute
//! values are not the point — ratios between baseline/Beldi/cross-table
//! operations are, and those come from *how many* operations each design
//! issues.

use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use parking_lot::Mutex;

/// The kind of database operation, for latency and metrics accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Point read (`get`).
    Get,
    /// Unconditional or conditional single-row write (`put`/`update`).
    Write,
    /// Query on a hash key.
    Query,
    /// Full-table scan page.
    Scan,
    /// Cross-table transactional write.
    TransactWrite,
    /// Delete.
    Delete,
}

/// Parameters of the latency model.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    /// Base cost of a point read.
    pub get_base: Duration,
    /// Base cost of a single-row write.
    pub write_base: Duration,
    /// Base cost of a query/scan request.
    pub scan_base: Duration,
    /// Additional cost per row returned by query/scan.
    pub scan_per_row: Duration,
    /// Additional cost per KiB transferred (any operation).
    pub per_kib: Duration,
    /// Per-item cost of a cross-table transactional write. DynamoDB's
    /// `TransactWriteItems` runs two-phase internally and bills 2× write
    /// units per item, so this is roughly 2× `write_base`, charged per
    /// item in the batch.
    pub transact_base: Duration,
    /// Multiplicative jitter: sampled uniformly from `[1 - j, 1 + j]`.
    pub jitter: f64,
    /// Probability of a tail spike.
    pub tail_prob: f64,
    /// Multiplier applied on a tail spike.
    pub tail_mult: f64,
}

impl LatencyModel {
    /// DynamoDB-flavoured defaults (virtual time).
    pub fn dynamo() -> Self {
        LatencyModel {
            get_base: Duration::from_micros(3_500),
            write_base: Duration::from_micros(5_000),
            scan_base: Duration::from_micros(4_000),
            scan_per_row: Duration::from_micros(60),
            per_kib: Duration::from_micros(15),
            transact_base: Duration::from_micros(14_000),
            jitter: 0.35,
            tail_prob: 0.01,
            tail_mult: 6.0,
        }
    }

    /// A zero-latency model for unit tests.
    pub fn zero() -> Self {
        LatencyModel {
            get_base: Duration::ZERO,
            write_base: Duration::ZERO,
            scan_base: Duration::ZERO,
            scan_per_row: Duration::ZERO,
            per_kib: Duration::ZERO,
            transact_base: Duration::ZERO,
            jitter: 0.0,
            tail_prob: 0.0,
            tail_mult: 1.0,
        }
    }

    /// Computes the deterministic part of the cost for an operation that
    /// touched `rows` rows and transferred `bytes` bytes.
    pub fn base_cost(&self, op: OpKind, rows: usize, bytes: usize) -> Duration {
        let base = match op {
            OpKind::Get => self.get_base,
            OpKind::Write | OpKind::Delete => self.write_base,
            OpKind::Query | OpKind::Scan => self.scan_base + self.scan_per_row * (rows as u32),
            OpKind::TransactWrite => mul_duration(self.transact_base, rows.max(1) as f64),
        };
        base + mul_duration(self.per_kib, bytes as f64 / 1024.0)
    }
}

fn mul_duration(d: Duration, f: f64) -> Duration {
    Duration::from_nanos((d.as_nanos() as f64 * f) as u64)
}

/// A seeded sampler wrapping a [`LatencyModel`].
pub(crate) struct LatencySampler {
    model: LatencyModel,
    rng: Mutex<SmallRng>,
}

impl LatencySampler {
    pub(crate) fn new(model: LatencyModel, seed: u64) -> Self {
        LatencySampler {
            model,
            rng: Mutex::new(SmallRng::seed_from_u64(seed)),
        }
    }

    /// Samples the virtual-time cost of one operation.
    pub(crate) fn sample(&self, op: OpKind, rows: usize, bytes: usize) -> Duration {
        let base = self.model.base_cost(op, rows, bytes);
        if base.is_zero() {
            return base;
        }
        let mut rng = self.rng.lock();
        let jitter = if self.model.jitter > 0.0 {
            1.0 + rng.gen_range(-self.model.jitter..self.model.jitter)
        } else {
            1.0
        };
        let tail = if self.model.tail_prob > 0.0 && rng.gen_bool(self.model.tail_prob) {
            self.model.tail_mult
        } else {
            1.0
        };
        mul_duration(base, jitter * tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_model_is_zero() {
        let s = LatencySampler::new(LatencyModel::zero(), 1);
        assert_eq!(s.sample(OpKind::Get, 1, 100), Duration::ZERO);
        assert_eq!(s.sample(OpKind::Scan, 50, 10_000), Duration::ZERO);
    }

    #[test]
    fn scan_cost_grows_with_rows() {
        let m = LatencyModel::dynamo();
        let small = m.base_cost(OpKind::Query, 1, 0);
        let big = m.base_cost(OpKind::Query, 100, 0);
        assert!(big > small);
        assert_eq!(
            big - small,
            m.scan_per_row * 99,
            "per-row cost should be linear"
        );
    }

    #[test]
    fn bytes_add_cost() {
        let m = LatencyModel::dynamo();
        let a = m.base_cost(OpKind::Get, 1, 0);
        let b = m.base_cost(OpKind::Get, 1, 100 * 1024);
        assert!(b > a);
    }

    #[test]
    fn transact_is_pricier_than_write() {
        let m = LatencyModel::dynamo();
        assert!(
            m.base_cost(OpKind::TransactWrite, 1, 0) > m.base_cost(OpKind::Write, 1, 0),
            "cross-table txn must cost more than a plain write"
        );
    }

    #[test]
    fn jitter_stays_in_bounds() {
        let m = LatencyModel::dynamo();
        let s = LatencySampler::new(m.clone(), 42);
        let base = m.base_cost(OpKind::Get, 1, 16);
        for _ in 0..1000 {
            let d = s.sample(OpKind::Get, 1, 16);
            let lo = mul_duration(base, 1.0 - m.jitter - 1e-9);
            let hi = mul_duration(base, (1.0 + m.jitter) * m.tail_mult + 1e-9);
            assert!(d >= lo && d <= hi, "sample {d:?} outside [{lo:?}, {hi:?}]");
        }
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let a = LatencySampler::new(LatencyModel::dynamo(), 7);
        let b = LatencySampler::new(LatencyModel::dynamo(), 7);
        for _ in 0..32 {
            assert_eq!(
                a.sample(OpKind::Write, 1, 64),
                b.sample(OpKind::Write, 1, 64)
            );
        }
    }
}
