//! A table: an immutable schema plus `P` independently locked partitions.
//!
//! The partition mutex is the simulated atomicity scope — a strict
//! superset of DynamoDB's per-row guarantee, since a row never spans
//! partitions. Single-row operations lock exactly one partition; scans
//! release the lock between pages (driven by [`crate::Database`]) so they
//! are **not** atomic across rows, matching real DynamoDB scans; and
//! cross-table transactions lock exactly the partitions their ops touch,
//! in a deterministic global order (see [`crate::Database::transact_write`]).
//!
//! That order is ascending `(table name, partition)`, and a thread that
//! holds a partition may only take one above it. Debug builds check this
//! at every acquisition ([`Table::lock_partition`]): an out-of-order lock
//! panics at once instead of deadlocking some later schedule.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use beldi_value::Value;
use parking_lot::{Mutex, MutexGuard};

use crate::key::TableSchema;
use crate::partition::{route, PartitionData};

/// One table: its name (its place in the lock order), schema (immutable,
/// readable without any lock) and its hash partitions.
#[derive(Debug)]
pub(crate) struct Table {
    name: Arc<str>,
    pub(crate) schema: TableSchema,
    partitions: Vec<Mutex<PartitionData>>,
}

thread_local! {
    /// The `(table, partition)` locks this thread holds (debug builds).
    static HELD: RefCell<Vec<(Arc<str>, usize)>> = const { RefCell::new(Vec::new()) };
}

/// A held partition lock. In debug builds it is also an entry in this
/// thread's held set until it drops.
pub(crate) struct PartitionGuard<'a> {
    guard: MutexGuard<'a, PartitionData>,
    table: &'a Arc<str>,
    partition: usize,
}

impl Deref for PartitionGuard<'_> {
    type Target = PartitionData;
    fn deref(&self) -> &PartitionData {
        &self.guard
    }
}

impl DerefMut for PartitionGuard<'_> {
    fn deref_mut(&mut self) -> &mut PartitionData {
        &mut self.guard
    }
}

impl Drop for PartitionGuard<'_> {
    fn drop(&mut self) {
        if cfg!(debug_assertions) {
            // A drop must not panic: `try_with` for a thread being torn
            // down, `try_borrow_mut` for one unwinding out of the check.
            let _ = HELD.try_with(|held| {
                let Ok(mut held) = held.try_borrow_mut() else {
                    return;
                };
                let mine = |(t, p): &(Arc<str>, usize)| t == self.table && *p == self.partition;
                if let Some(i) = held.iter().rposition(mine) {
                    held.remove(i);
                }
            });
        }
    }
}

impl Table {
    /// Creates a table named `name` with `partitions` empty partitions.
    pub(crate) fn new(name: &str, schema: TableSchema, partitions: usize) -> Self {
        assert!(partitions >= 1, "a table needs at least one partition");
        let parts = (0..partitions)
            .map(|_| Mutex::new(PartitionData::new(&schema)))
            .collect();
        Table {
            name: name.into(),
            schema,
            partitions: parts,
        }
    }

    /// Number of partitions.
    pub(crate) fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// The partition index a hash-key value routes to.
    pub(crate) fn route(&self, hash_key: &Value) -> usize {
        route(hash_key, self.partitions.len())
    }

    /// Locks partition `p`, reporting whether the acquisition had to wait
    /// for another holder (the per-partition contention signal surfaced in
    /// [`crate::MetricsSnapshot::lock_waits`]).
    ///
    /// # Panics
    ///
    /// In debug builds, if this thread already holds a partition at or
    /// above `(self, p)` in `(table name, partition)` order: only
    /// `Database::lock_sorted` holds more than one, in that order.
    pub(crate) fn lock_partition(&self, p: usize) -> (PartitionGuard<'_>, bool) {
        if cfg!(debug_assertions) {
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                let me = (&*self.name, p);
                if let Some((t, q)) = held.iter().find(|(t, q)| (&**t, *q) >= me) {
                    panic!(
                        "partition lock order: this thread holds {t}/{q} and asks for {}/{p}",
                        self.name
                    );
                }
                held.push((self.name.clone(), p));
            });
        }
        let slot = &self.partitions[p];
        let (guard, waited) = match slot.try_lock() {
            Some(guard) => (guard, false),
            None => (slot.lock(), true),
        };
        let guard = PartitionGuard {
            guard,
            table: &self.name,
            partition: p,
        };
        (guard, waited)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::PrimaryKey;
    use beldi_value::vmap;

    fn table(partitions: usize) -> Table {
        Table::new("t", TableSchema::hash_and_sort("Key", "RowId"), partitions)
    }

    #[test]
    fn rows_of_one_hash_key_share_a_partition() {
        let t = table(8);
        let p = t.route(&Value::from("a"));
        for sort in 0..20i64 {
            let key = PrimaryKey::hash_sort("a", sort);
            assert_eq!(t.route(&key.hash), p, "sort {sort} rerouted");
        }
    }

    #[test]
    fn lock_partition_reports_contention() {
        let t = table(2);
        let (guard, contended) = t.lock_partition(0);
        assert!(!contended, "uncontended lock must not report a wait");
        // The other partition stays free while 0 is held.
        let (other, contended) = t.lock_partition(1);
        assert!(!contended);
        drop(other);
        drop(guard);
    }

    #[test]
    fn partitions_hold_disjoint_rows() {
        let t = table(4);
        let mut total = 0;
        for i in 0..32i64 {
            let item = vmap! { "Key" => format!("k{i}"), "RowId" => 0i64 };
            let key = t.schema.key_of(&item).unwrap();
            let p = t.route(&key.hash);
            let (mut data, _) = t.lock_partition(p);
            data.put_row(key, item, t.schema.max_row_bytes).unwrap();
        }
        for p in 0..t.partition_count() {
            let (data, _) = t.lock_partition(p);
            total += data.rows.len();
        }
        assert_eq!(total, 32, "rows lost or duplicated across partitions");
    }

    /// The lock-order canary: partition 1, then partition 0 of the same
    /// table, is the order two crossing transactions would deadlock on.
    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "this thread holds t/1 and asks for t/0")
    )]
    fn a_lower_partition_after_a_higher_one_panics() {
        let t = table(2);
        let (_high, _) = t.lock_partition(1);
        let (_low, _) = t.lock_partition(0);
    }

    #[test]
    fn a_released_partition_may_be_taken_again() {
        let t = table(2);
        drop(t.lock_partition(1));
        let (_low, _) = t.lock_partition(0);
        let (_high, _) = t.lock_partition(1);
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_rejected() {
        let _ = table(0);
    }
}
