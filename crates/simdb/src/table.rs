//! A table: an immutable schema plus its rows behind one lock.
//!
//! The table mutex is the simulated atomicity scope — a strict superset of
//! DynamoDB's per-row guarantee. Single-row operations lock the table
//! once; queries and scans release the lock between pages (driven by
//! [`crate::Database`]) so they are **not** atomic across rows, matching
//! real DynamoDB scans; and cross-table transactions lock the tables
//! their ops touch in name order (see [`crate::Database::transact_write`]).
//!
//! A thread that holds a table lock may only take the lock of a table
//! whose name sorts above it. Debug builds check this at every
//! acquisition ([`Table::lock`]): an out-of-order lock panics at once
//! instead of deadlocking some later schedule.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use crate::data::TableData;
use crate::key::TableSchema;

/// One table: its id, its name (its place in the lock order), schema
/// (immutable, readable without any lock) and its rows.
#[derive(Debug)]
pub(crate) struct Table {
    /// The table's place in creation order: what the item write queue
    /// tells one table's items from another's by.
    pub(crate) id: usize,
    name: Arc<str>,
    pub(crate) schema: TableSchema,
    data: Mutex<TableData>,
}

thread_local! {
    /// The table locks this thread holds (debug builds).
    static HELD: RefCell<Vec<Arc<str>>> = const { RefCell::new(Vec::new()) };
}

/// A held table lock. In debug builds it is also an entry in this
/// thread's held set until it drops.
pub(crate) struct TableGuard<'a> {
    guard: MutexGuard<'a, TableData>,
    table: &'a Arc<str>,
}

impl Deref for TableGuard<'_> {
    type Target = TableData;
    fn deref(&self) -> &TableData {
        &self.guard
    }
}

impl DerefMut for TableGuard<'_> {
    fn deref_mut(&mut self) -> &mut TableData {
        &mut self.guard
    }
}

impl Drop for TableGuard<'_> {
    fn drop(&mut self) {
        if cfg!(debug_assertions) {
            // A drop must not panic: `try_with` for a thread being torn
            // down, `try_borrow_mut` for one unwinding out of the check.
            let _ = HELD.try_with(|held| {
                let Ok(mut held) = held.try_borrow_mut() else {
                    return;
                };
                if let Some(i) = held.iter().rposition(|t| t == self.table) {
                    held.remove(i);
                }
            });
        }
    }
}

impl Table {
    /// Creates an empty table named `name`, the `id`-th created.
    pub(crate) fn new(id: usize, name: &str, schema: TableSchema) -> Self {
        let data = Mutex::new(TableData::new(&schema));
        Table {
            id,
            name: name.into(),
            schema,
            data,
        }
    }

    /// The table's name.
    pub(crate) fn name(&self) -> &Arc<str> {
        &self.name
    }

    /// Locks the table's rows.
    ///
    /// # Panics
    ///
    /// In debug builds, if this thread already holds this table or one
    /// whose name sorts above it: only `Database::transact_write` holds
    /// more than one, in name order.
    pub(crate) fn lock(&self) -> TableGuard<'_> {
        if cfg!(debug_assertions) {
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                if let Some(t) = held.iter().find(|t| ***t >= *self.name) {
                    panic!(
                        "table lock order: this thread holds {t} and asks for {}",
                        self.name
                    );
                }
                held.push(self.name.clone());
            });
        }
        TableGuard {
            guard: self.data.lock(),
            table: &self.name,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(name: &str) -> Table {
        Table::new(0, name, TableSchema::hash_and_sort("Key", "RowId"))
    }

    /// The lock-order canary: table `b`, then table `a`, is the order two
    /// crossing transactions would deadlock on.
    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "this thread holds b and asks for a")
    )]
    fn a_lower_table_after_a_higher_one_panics() {
        let (a, b) = (table("a"), table("b"));
        let _high = b.lock();
        let _low = a.lock();
    }

    #[test]
    fn a_released_table_may_be_taken_again() {
        let (a, b) = (table("a"), table("b"));
        drop(b.lock());
        let _low = a.lock();
        let _high = b.lock();
    }
}
