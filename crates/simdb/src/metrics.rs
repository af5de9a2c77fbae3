//! Operation counters and byte accounting.
//!
//! §7.3 of the paper reports "other costs": extra bytes stored per
//! operation, network bytes fetched by DAAL scans, and per-operation request
//! counts (each Beldi read issues one extra scan and write, etc.). These
//! metrics make that table reproducible: the database counts every
//! operation and every byte it returns or stores.
//!
//! Since the store is hash-partitioned, the counters also expose *where*
//! the load lands: one lock-acquisition counter per partition index
//! (aggregated across tables) and a tally of contended acquisitions
//! (`lock_waits`), so key skew and partition hot spots are observable in
//! the `costs` harness output.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::latency::OpKind;

/// Monotonic counters maintained by the database.
#[derive(Debug, Default)]
pub struct DbMetrics {
    gets: AtomicU64,
    writes: AtomicU64,
    queries: AtomicU64,
    scans: AtomicU64,
    transact_writes: AtomicU64,
    deletes: AtomicU64,
    cond_failures: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    rows_scanned: AtomicU64,
    lock_waits: AtomicU64,
    /// Lock acquisitions per partition index, aggregated across tables.
    partition_ops: Vec<AtomicU64>,
}

/// A point-in-time copy of [`DbMetrics`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Number of point reads.
    pub gets: u64,
    /// Number of single-row writes (put/update), including failed
    /// conditional writes.
    pub writes: u64,
    /// Number of hash-key queries.
    pub queries: u64,
    /// Number of scan pages served.
    pub scans: u64,
    /// Number of cross-table transactional writes.
    pub transact_writes: u64,
    /// Number of deletes.
    pub deletes: u64,
    /// Number of conditional updates whose condition failed.
    pub cond_failures: u64,
    /// Total bytes returned to clients.
    pub bytes_read: u64,
    /// Total bytes written into rows.
    pub bytes_written: u64,
    /// Total rows examined by queries and scans.
    pub rows_scanned: u64,
    /// Partition-lock acquisitions that had to wait for another holder.
    pub lock_waits: u64,
    /// Partition-lock acquisitions per partition index (across tables);
    /// the skew fingerprint of the workload.
    pub partition_ops: Vec<u64>,
}

impl DbMetrics {
    /// Creates zeroed metrics tracking `partitions` partition indices.
    pub fn new(partitions: usize) -> Self {
        DbMetrics {
            partition_ops: (0..partitions).map(|_| AtomicU64::new(0)).collect(),
            ..DbMetrics::default()
        }
    }

    pub(crate) fn record_op(&self, op: OpKind) {
        let ctr = match op {
            OpKind::Get => &self.gets,
            OpKind::Write => &self.writes,
            OpKind::Query => &self.queries,
            OpKind::Scan => &self.scans,
            OpKind::TransactWrite => &self.transact_writes,
            OpKind::Delete => &self.deletes,
        };
        ctr.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_cond_failure(&self) {
        self.cond_failures.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_read_bytes(&self, n: usize) {
        self.bytes_read.fetch_add(n as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_written_bytes(&self, n: usize) {
        self.bytes_written.fetch_add(n as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_rows_scanned(&self, n: usize) {
        self.rows_scanned.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Records one partition-lock acquisition; `waited` marks contention.
    pub(crate) fn record_partition_access(&self, partition: usize, waited: bool) {
        if waited {
            self.lock_waits.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(ctr) = self.partition_ops.get(partition) {
            ctr.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Takes a snapshot of all counters, stabilized against torn reads.
    ///
    /// The counters are independent relaxed atomics, so a single pass over
    /// them can interleave with a concurrent recorder and return a set
    /// that never existed at any one instant (e.g. a partition-ops entry
    /// from *after* an operation whose kind counter was read *before* it).
    /// The snapshot therefore re-reads until two consecutive passes agree
    /// — a stable double read is a consistent cut. Under sustained
    /// concurrent load the retry budget can run out; the last pass is then
    /// returned as a best effort (measurement windows bracketed by
    /// quiescent points, as the harnesses use, always stabilize).
    pub fn snapshot(&self) -> MetricsSnapshot {
        const STABILIZE_ATTEMPTS: usize = 8;
        let mut prev = self.load_all();
        for _ in 0..STABILIZE_ATTEMPTS {
            let cur = self.load_all();
            if cur == prev {
                return cur;
            }
            prev = cur;
        }
        prev
    }

    /// Atomically zeroes every counter, returning the values swapped out.
    ///
    /// The per-counter swaps are individually atomic (no increment is ever
    /// lost to a concurrent recorder), but the *set* is consistent only at
    /// a quiescent point — same caveat as [`DbMetrics::snapshot`]. Used by
    /// harnesses to start a measurement window after setup/seeding.
    pub fn reset(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            gets: self.gets.swap(0, Ordering::Relaxed),
            writes: self.writes.swap(0, Ordering::Relaxed),
            queries: self.queries.swap(0, Ordering::Relaxed),
            scans: self.scans.swap(0, Ordering::Relaxed),
            transact_writes: self.transact_writes.swap(0, Ordering::Relaxed),
            deletes: self.deletes.swap(0, Ordering::Relaxed),
            cond_failures: self.cond_failures.swap(0, Ordering::Relaxed),
            bytes_read: self.bytes_read.swap(0, Ordering::Relaxed),
            bytes_written: self.bytes_written.swap(0, Ordering::Relaxed),
            rows_scanned: self.rows_scanned.swap(0, Ordering::Relaxed),
            lock_waits: self.lock_waits.swap(0, Ordering::Relaxed),
            partition_ops: self
                .partition_ops
                .iter()
                .map(|c| c.swap(0, Ordering::Relaxed))
                .collect(),
        }
    }

    /// One raw pass over every counter (may be torn; see
    /// [`DbMetrics::snapshot`]).
    fn load_all(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            gets: self.gets.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            scans: self.scans.load(Ordering::Relaxed),
            transact_writes: self.transact_writes.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            cond_failures: self.cond_failures.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            rows_scanned: self.rows_scanned.load(Ordering::Relaxed),
            lock_waits: self.lock_waits.load(Ordering::Relaxed),
            partition_ops: self
                .partition_ops
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

impl MetricsSnapshot {
    /// Total operation count across all kinds.
    pub fn total_ops(&self) -> u64 {
        self.gets + self.writes + self.queries + self.scans + self.transact_writes + self.deletes
    }

    /// Difference between two snapshots (`self - earlier`), for measuring an
    /// experiment window.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            gets: self.gets - earlier.gets,
            writes: self.writes - earlier.writes,
            queries: self.queries - earlier.queries,
            scans: self.scans - earlier.scans,
            transact_writes: self.transact_writes - earlier.transact_writes,
            deletes: self.deletes - earlier.deletes,
            cond_failures: self.cond_failures - earlier.cond_failures,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            rows_scanned: self.rows_scanned - earlier.rows_scanned,
            lock_waits: self.lock_waits - earlier.lock_waits,
            partition_ops: self
                .partition_ops
                .iter()
                .enumerate()
                .map(|(i, v)| v - earlier.partition_ops.get(i).copied().unwrap_or(0))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = DbMetrics::new(4);
        m.record_op(OpKind::Get);
        m.record_op(OpKind::Get);
        m.record_op(OpKind::Write);
        m.record_cond_failure();
        m.record_read_bytes(100);
        m.record_written_bytes(50);
        m.record_rows_scanned(7);
        m.record_partition_access(1, false);
        m.record_partition_access(1, true);
        m.record_partition_access(3, false);
        let s = m.snapshot();
        assert_eq!(s.gets, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.cond_failures, 1);
        assert_eq!(s.bytes_read, 100);
        assert_eq!(s.bytes_written, 50);
        assert_eq!(s.rows_scanned, 7);
        assert_eq!(s.total_ops(), 3);
        assert_eq!(s.lock_waits, 1);
        assert_eq!(s.partition_ops, vec![0, 2, 0, 1]);
    }

    #[test]
    fn out_of_range_partition_access_is_ignored() {
        let m = DbMetrics::new(2);
        m.record_partition_access(99, false);
        assert_eq!(m.snapshot().partition_ops, vec![0, 0]);
    }

    #[test]
    fn reset_returns_and_zeroes() {
        let m = DbMetrics::new(2);
        m.record_op(OpKind::Get);
        m.record_op(OpKind::Write);
        m.record_partition_access(1, true);
        let taken = m.reset();
        assert_eq!(taken.gets, 1);
        assert_eq!(taken.writes, 1);
        assert_eq!(taken.lock_waits, 1);
        assert_eq!(taken.partition_ops, vec![0, 1]);
        let after = m.snapshot();
        let zeroed = MetricsSnapshot {
            partition_ops: vec![0, 0],
            ..MetricsSnapshot::default()
        };
        assert_eq!(after, zeroed);
        // Recording continues from zero.
        m.record_op(OpKind::Get);
        assert_eq!(m.snapshot().gets, 1);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a stress test of real parallelism on atomics: nothing in it waits on a clock"
    )]
    fn snapshot_is_monotonic_under_load_and_exact_at_quiescence() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let m = Arc::new(DbMetrics::new(4));
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let m = Arc::clone(&m);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    m.record_op(OpKind::Get);
                    m.record_partition_access(i % 4, false);
                    i += 1;
                }
                i as u64
            })
        };
        let mut last = 0u64;
        for _ in 0..200 {
            let s = m.snapshot();
            assert!(s.gets >= last, "snapshot went backwards");
            last = s.gets;
        }
        stop.store(true, Ordering::Relaxed);
        let total = writer.join().unwrap();
        // Quiescent point: the stabilized snapshot is exact and mutually
        // consistent across counters.
        let s = m.snapshot();
        assert_eq!(s.gets, total);
        assert_eq!(s.partition_ops.iter().sum::<u64>(), total);
        assert_eq!(s, m.snapshot());
    }

    #[test]
    fn delta_subtracts() {
        let m = DbMetrics::new(2);
        m.record_op(OpKind::Query);
        m.record_partition_access(0, true);
        let before = m.snapshot();
        m.record_op(OpKind::Query);
        m.record_op(OpKind::Scan);
        m.record_partition_access(0, false);
        m.record_partition_access(1, true);
        let after = m.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.queries, 1);
        assert_eq!(d.scans, 1);
        assert_eq!(d.gets, 0);
        assert_eq!(d.lock_waits, 1);
        assert_eq!(d.partition_ops, vec![1, 1]);
    }
}
