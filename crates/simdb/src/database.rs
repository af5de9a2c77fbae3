//! The public [`Database`] API.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use beldi_simclock::{
    Metric, MetricsSnapshot, SharedClock, SimClock, SimInstant, StoreCall, StoreKind, Telemetry,
};
use beldi_value::{Cond, SizeOf, Update, Value};
use parking_lot::{Mutex, RwLock};

use crate::data::cond_holds;
use crate::error::{DbError, DbResult};
use crate::key::{PrimaryKey, TableSchema};
use crate::latency::{LatencyModel, LatencySampler};
use crate::scan::{Projection, ScanRequest};
use crate::table::{Table, TableGuard};

/// Rows examined per internal lock acquisition during queries and scans.
///
/// Matches DynamoDB's behaviour of serving scans in pages: rows observed in
/// different pages may interleave with concurrent writers, so scans are not
/// atomic — the property §4.1 of the paper reasons about.
const DEFAULT_PAGE_ROWS: usize = 32;

/// One operation of a cross-table transactional write
/// ([`Database::transact_write`]).
#[derive(Debug, Clone)]
pub enum TransactOp {
    /// Conditionally update (or create) the row at `key`.
    Update {
        /// Target table.
        table: String,
        /// Target row.
        key: PrimaryKey,
        /// Condition that must hold for the whole transaction to commit.
        cond: Cond,
        /// Update applied if every condition in the transaction holds.
        update: Update,
    },
    /// Conditionally insert/replace a full item.
    Put {
        /// Target table.
        table: String,
        /// The full item (must contain key attributes).
        item: Value,
        /// Condition that must hold for the whole transaction to commit.
        cond: Cond,
    },
}

impl TransactOp {
    fn table(&self) -> &str {
        match self {
            TransactOp::Update { table, .. } | TransactOp::Put { table, .. } => table,
        }
    }

    fn cond(&self) -> &Cond {
        match self {
            TransactOp::Update { cond, .. } | TransactOp::Put { cond, .. } => cond,
        }
    }
}

/// A table resolved once. [`Database::table`] finds it in the catalogue;
/// a store call through it goes straight to the table, with no catalogue
/// lock and no hash of its name. A name with no table resolves to a ref
/// whose every call fails with [`DbError::TableNotFound`], as a call by
/// that name would.
#[derive(Clone)]
pub struct TableRef(Result<Arc<Table>, Arc<str>>);

impl TableRef {
    /// The table's name.
    pub fn name(&self) -> &Arc<str> {
        match &self.0 {
            Ok(table) => table.name(),
            Err(name) => name,
        }
    }

    fn resolve(&self) -> DbResult<&Arc<Table>> {
        let missing = |name: &Arc<str>| DbError::TableNotFound(name.to_string());
        self.0.as_ref().map_err(missing)
    }
}

/// The table a store call names: a [`TableRef`], or a table name that
/// the call looks up in the catalogue first.
pub trait AsTable {
    /// The table, as a ref.
    fn as_table(&self, db: &Database) -> Cow<'_, TableRef>;
}

impl AsTable for TableRef {
    fn as_table(&self, _: &Database) -> Cow<'_, TableRef> {
        Cow::Borrowed(self)
    }
}

impl AsTable for str {
    fn as_table(&self, db: &Database) -> Cow<'_, TableRef> {
        Cow::Owned(db.table(self))
    }
}

impl AsTable for String {
    fn as_table(&self, db: &Database) -> Cow<'_, TableRef> {
        self.as_str().as_table(db)
    }
}

impl<T: AsTable + ?Sized> AsTable for &T {
    fn as_table(&self, db: &Database) -> Cow<'_, TableRef> {
        (**self).as_table(db)
    }
}

impl std::fmt::Debug for TableRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("TableRef").field(self.name()).finish()
    }
}

/// A stored row as a read returns it, projected off the borrowed row
/// under the table lock: what the projection drops is never copied.
fn read(row: &Value, projection: Option<&Projection>) -> Value {
    match projection {
        Some(p) => p.apply(row),
        None => row.clone(),
    }
}

/// The writes in flight, per item: for each item a write occupies, the
/// virtual instant until which it is busy.
///
/// Real DynamoDB serializes writes to a single item (the per-item
/// write-capacity limit that makes hot keys a throughput cliff — the
/// contention §2 of the paper designs the DAAL around), so modelled
/// write latencies against the *same* `(table, key)` must queue behind
/// each other rather than overlap. Writes to distinct items, and all
/// reads, still proceed fully in parallel.
///
/// An entry lives while its write does: the writer that set an item's
/// deadline removes it when its sleep returns, or unwinds
/// ([`InFlight`]). A writer that queued behind it set a later deadline,
/// so the entry is then its to remove.
#[derive(Default)]
struct ItemWriteQueue {
    /// One entry per busy item, in no order: its table's [`Table::id`],
    /// its key and its busy-until instant. It holds no more entries than
    /// sleeping writers occupy items, so a scan of it is cheaper than
    /// hashing the key; and it keeps its capacity when it empties, so a
    /// steady state of writes allocates nothing here.
    busy: Vec<(usize, PrimaryKey, SimInstant)>,
}

impl ItemWriteQueue {
    /// The position of the entry of `table`'s item `key`, if it is busy.
    fn find(&self, table: usize, key: &PrimaryKey) -> Option<usize> {
        self.busy
            .iter()
            .position(|(t, k, _)| *t == table && k == key)
    }
}

/// One write's hold on its items until `deadline`. Dropping it — when
/// the write's sleep returns or unwinds — frees each item whose deadline
/// is still this write's.
struct InFlight<'a> {
    queue: &'a Mutex<ItemWriteQueue>,
    items: &'a [(&'a Table, &'a PrimaryKey)],
    deadline: SimInstant,
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        let mut queue = self.queue.lock();
        for (t, k) in self.items {
            if let Some(i) = queue.find(t.id, k) {
                if queue.busy[i].2 == self.deadline {
                    queue.busy.swap_remove(i);
                }
            }
        }
    }
}

/// The bytes one store call moved: those its kind reads or writes, and
/// those a write returned ([`Database::update_returning`]), which count as
/// read. Its modelled latency and its run-record entry take both.
#[derive(Clone, Copy)]
struct Moved {
    bytes: usize,
    returned: usize,
}

impl From<usize> for Moved {
    fn from(bytes: usize) -> Self {
        Moved { bytes, returned: 0 }
    }
}

/// A simulated strongly consistent NoSQL database.
///
/// Each table has one lock over its rows and indexes. All methods are
/// safe to call from many threads; single-row conditional updates are
/// atomic and linearizable, and [`Database::transact_write`] commits
/// across tables by locking the tables its ops touch, in name order (no
/// global transaction lock).
///
/// Modelled latency is charged *per operation* and overlaps freely across
/// threads, with one exception: writes to the same item serialize their
/// modelled latency (the item write queue), reproducing DynamoDB's
/// hot-item write ceiling.
///
/// Every operation it bills is counted in its registry and, while a
/// reader has the run record started, recorded there as one
/// [`StoreCall`].
pub struct Database {
    tables: RwLock<HashMap<String, Arc<Table>>>,
    clock: SharedClock,
    sampler: LatencySampler,
    /// The registry the store's counters live in.
    telemetry: Arc<Telemetry>,
    /// Table-lock acquisitions, across tables.
    lock_ops: AtomicU64,
    item_writes: Mutex<ItemWriteQueue>,
    page_rows: usize,
}

impl Database {
    /// Creates a database with the given clock and latency model and a
    /// registry of its own.
    pub fn new(clock: SharedClock, latency: LatencyModel, seed: u64) -> Arc<Self> {
        Database::with_telemetry(clock, latency, seed, Arc::default())
    }

    /// [`Database::new`], counting into `telemetry`.
    pub fn with_telemetry(
        clock: SharedClock,
        latency: LatencyModel,
        seed: u64,
        telemetry: Arc<Telemetry>,
    ) -> Arc<Self> {
        Arc::new(Database {
            tables: RwLock::new(HashMap::new()),
            clock,
            sampler: LatencySampler::new(latency, seed),
            telemetry,
            lock_ops: AtomicU64::new(0),
            item_writes: Mutex::new(ItemWriteQueue::default()),
            page_rows: DEFAULT_PAGE_ROWS,
        })
    }

    /// Creates a zero-latency database on a [`SimClock`], for tests. No
    /// operation waits on the clock, so any thread may use it.
    pub fn for_tests() -> Arc<Self> {
        Database::new(SimClock::shared(0), LatencyModel::zero(), 0)
    }

    /// Returns the database clock.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// The store's counters so far. A measurement window is the
    /// [`MetricsSnapshot::delta`] of two of these.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.telemetry.db(&self.lock_ops)
    }

    /// The registry the store counts into.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    fn count(&self, m: Metric, n: usize) {
        self.telemetry.add(m, n as u64);
    }

    /// Counts one store call of `kind` on `table` — its op counter, the
    /// bytes it read, wrote or returned ([`Moved`]), the rows a query or scan page examined (a
    /// transaction's items), a condition that failed (`cond` is whether it
    /// held, `None` for no condition) — samples its modelled latency, and
    /// records it in the run record if a reader started one (`key` is
    /// formatted only then). Returns the latency, for the caller to wait.
    fn bill(
        &self,
        kind: StoreKind,
        table: &str,
        key: Option<&dyn fmt::Display>,
        cond: Option<bool>,
        rows: usize,
        bytes: impl Into<Moved>,
    ) -> Duration {
        let Moved { bytes, returned } = bytes.into();
        let (op, moved) = match kind {
            StoreKind::Get => (Metric::DbGets, Metric::DbBytesRead),
            StoreKind::Write => (Metric::DbWrites, Metric::DbBytesWritten),
            StoreKind::Delete => (Metric::DbDeletes, Metric::DbBytesWritten),
            StoreKind::Query => (Metric::DbQueries, Metric::DbBytesRead),
            StoreKind::Scan => (Metric::DbScans, Metric::DbBytesRead),
            StoreKind::TransactWrite => (Metric::DbTransactWrites, Metric::DbBytesWritten),
        };
        self.count(op, 1);
        for (metric, n) in [(moved, bytes), (Metric::DbBytesRead, returned)] {
            if n > 0 {
                self.count(metric, n);
            }
        }
        let bytes_total = bytes + returned;
        if matches!(kind, StoreKind::Query | StoreKind::Scan) {
            self.count(Metric::DbRowsScanned, rows);
        }
        if cond == Some(false) {
            self.count(Metric::DbCondFailures, 1);
        }
        let latency = self.sampler.sample(kind, rows, bytes_total);
        self.telemetry.log_store(|issuer, step| StoreCall {
            kind,
            table: table.into(),
            key: key.map(ToString::to_string),
            cond,
            rows: rows as u64,
            bytes: bytes_total as u64,
            latency,
            issuer,
            step,
        });
        latency
    }

    /// Creates a table.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::TableExists`] if the name is taken.
    pub fn create_table(&self, name: impl Into<String>, schema: TableSchema) -> DbResult<()> {
        let name = name.into();
        let mut tables = self.tables.write();
        if tables.contains_key(&name) {
            return Err(DbError::TableExists(name));
        }
        let table = Table::new(tables.len(), &name, schema);
        tables.insert(name, Arc::new(table));
        Ok(())
    }

    /// Returns the names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        #[expect(clippy::disallowed_methods, reason = "sorted on the next line")]
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Resolves table `name` once. A store call by name resolves it here
    /// on each call.
    pub fn table(&self, name: &str) -> TableRef {
        let found = self.tables.read().get(name).cloned();
        TableRef(found.ok_or_else(|| name.into()))
    }

    /// Locks a table, counting the acquisition.
    fn lock<'a>(&self, table: &'a Table) -> TableGuard<'a> {
        self.lock_ops.fetch_add(1, Ordering::Relaxed);
        table.lock()
    }

    /// Sleeps one write's modelled latency `d`, serialized per item:
    /// concurrent writes to the same `(table, key)` queue behind each
    /// other (see [`ItemWriteQueue`]), writes to distinct items overlap.
    /// A multi-item write (transaction) starts after *every* involved
    /// item is free and occupies all of them until it completes.
    ///
    /// A write that must start later than now, because an earlier write
    /// still occupies one of its items, counts one
    /// [`MetricsSnapshot::lock_waits`].
    ///
    /// Zero-cost samples return immediately, so zero-latency test
    /// databases never touch the queue.
    fn serial_write_sleep(&self, items: &[(&Table, &PrimaryKey)], d: Duration) {
        if d.is_zero() {
            return;
        }
        let deadline = {
            let mut queue = self.item_writes.lock();
            let now = self.clock.now();
            let start = items
                .iter()
                .filter_map(|(t, k)| queue.find(t.id, k).map(|i| queue.busy[i].2))
                .max()
                .map_or(now, |busy| busy.max(now));
            if start > now {
                self.count(Metric::DbLockWaits, 1);
            }
            let deadline = start.plus(d);
            for (t, k) in items {
                match queue.find(t.id, k) {
                    Some(i) => queue.busy[i].2 = deadline,
                    None => queue.busy.push((t.id, (*k).clone(), deadline)),
                }
            }
            deadline
        };
        let _held = InFlight {
            queue: &self.item_writes,
            items,
            deadline,
        };
        self.clock.sleep_until(deadline);
    }

    /// The items writes occupy now, across tables.
    #[cfg(test)]
    fn writes_in_flight(&self) -> usize {
        self.item_writes.lock().busy.len()
    }

    /// Point read of a row, optionally projected.
    pub fn get(
        &self,
        table: &(impl AsTable + ?Sized),
        key: &PrimaryKey,
        projection: Option<&Projection>,
    ) -> DbResult<Option<Value>> {
        let table = table.as_table(self);
        let t = table.resolve()?;
        let item = self.lock(t).rows.get(key).map(|row| read(row, projection));
        let bytes = item.as_ref().map(SizeOf::size_bytes).unwrap_or(0);
        let rows = usize::from(item.is_some());
        let latency = self.bill(StoreKind::Get, t.name(), Some(key), None, rows, bytes);
        self.clock.sleep(latency);
        Ok(item)
    }

    /// Unconditional insert/replace of a full item.
    pub fn put(&self, table: &(impl AsTable + ?Sized), item: Value) -> DbResult<()> {
        let table = table.as_table(self);
        let t = table.resolve()?;
        let key = t.schema.key_of(&item)?;
        let size = self
            .lock(t)
            .put_row(key.clone(), item, t.schema.max_row_bytes)?;
        let latency = self.bill(StoreKind::Write, t.name(), Some(&key), None, 1, size);
        self.serial_write_sleep(&[(&**t, &key)], latency);
        Ok(())
    }

    /// Atomic conditional update (upsert) of one row.
    ///
    /// The condition is evaluated against the current row — or against an
    /// empty item if the row does not exist (so `not_exists(attr)` holds
    /// for absent rows, matching DynamoDB). On success the update is
    /// applied to the existing row, or to a fresh row containing only the
    /// key attributes.
    ///
    /// # Errors
    ///
    /// [`DbError::ConditionFailed`] when the condition is false — the
    /// signal Beldi's write protocol dispatches on.
    pub fn update(
        &self,
        table: &(impl AsTable + ?Sized),
        key: &PrimaryKey,
        cond: &Cond,
        update: &Update,
    ) -> DbResult<()> {
        self.update_projected(table, key, cond, update, None)
            .map(drop)
    }

    /// [`Database::update`], returning the updated row through
    /// `projection` — DynamoDB's `UpdateItem` with `ReturnValues` set to
    /// the new item, projected. One write, under the same condition and
    /// with the same effect; the returned bytes are billed as read, and
    /// what `projection` leaves out stays in the store.
    ///
    /// # Errors
    ///
    /// As [`Database::update`]; a failed update returns nothing.
    pub fn update_returning(
        &self,
        table: &(impl AsTable + ?Sized),
        key: &PrimaryKey,
        cond: &Cond,
        update: &Update,
        projection: &Projection,
    ) -> DbResult<Value> {
        let returned = self.update_projected(table, key, cond, update, Some(projection))?;
        Ok(returned.unwrap_or_default())
    }

    /// The one conditional update: with a projection, the updated row
    /// through it.
    fn update_projected(
        &self,
        table: &(impl AsTable + ?Sized),
        key: &PrimaryKey,
        cond: &Cond,
        update: &Update,
        projection: Option<&Projection>,
    ) -> DbResult<Option<Value>> {
        let table = table.as_table(self);
        let t = table.resolve()?;
        let result = {
            let mut data = self.lock(t);
            let updated = data.update_row(key, cond, update, &t.schema);
            updated.map(|(size, row)| (size, projection.map(|p| p.apply(row))))
        };
        let conditional = !matches!(cond, Cond::True);
        match result {
            Ok((size, returned)) => {
                let held = conditional.then_some(true);
                let bytes = Moved {
                    bytes: size,
                    returned: returned.as_ref().map_or(0, SizeOf::size_bytes),
                };
                let latency = self.bill(StoreKind::Write, t.name(), Some(key), held, 1, bytes);
                self.serial_write_sleep(&[(&**t, key)], latency);
                Ok(returned)
            }
            Err(DbError::ConditionFailed) => {
                // A failed conditional write still costs a round trip —
                // and still occupies the item's write capacity.
                let failed = Some(false);
                let latency = self.bill(StoreKind::Write, t.name(), Some(key), failed, 0, 0);
                self.serial_write_sleep(&[(&**t, key)], latency);
                Err(DbError::ConditionFailed)
            }
            Err(e) => Err(e),
        }
    }

    /// Conditionally deletes a row.
    ///
    /// Deleting an absent row succeeds if the condition holds against the
    /// empty item (DynamoDB semantics).
    pub fn delete(
        &self,
        table: &(impl AsTable + ?Sized),
        key: &PrimaryKey,
        cond: &Cond,
    ) -> DbResult<()> {
        let table = table.as_table(self);
        let t = table.resolve()?;
        let deleted = self.lock(t).delete_row(key, cond);
        let (result, rows) = match deleted {
            Ok(row) => (Ok(()), usize::from(row.is_some())),
            Err(DbError::ConditionFailed) => (Err(DbError::ConditionFailed), 0),
            Err(e) => return Err(e),
        };
        let held = (!matches!(cond, Cond::True)).then_some(result.is_ok());
        let latency = self.bill(StoreKind::Delete, t.name(), Some(key), held, rows, 0);
        self.serial_write_sleep(&[(&**t, key)], latency);
        result
    }

    /// Queries every row sharing a hash key, in sort-key order.
    ///
    /// The query locks the table page by page (`DEFAULT_PAGE_ROWS` rows
    /// each), with the lock released between pages, so the result is
    /// **not** an atomic snapshot — exactly the behaviour Beldi's DAAL
    /// traversal must (and does) tolerate (§4.1).
    pub fn query(
        &self,
        table: &(impl AsTable + ?Sized),
        hash: &Value,
        req: &ScanRequest,
    ) -> DbResult<Vec<Value>> {
        let table = table.as_table(self);
        let t = table.resolve()?;
        let mut out = Vec::new();
        let mut after = self.page(t, Some(hash), None, req, &mut out);
        while let Some(key) = after {
            after = self.page(t, Some(hash), Some(&key), req, &mut out);
        }
        Ok(out)
    }

    /// Scans the whole table in key order, page by page as
    /// [`Database::query`] reads, so a scan is not atomic either.
    pub fn scan_all(
        &self,
        table: &(impl AsTable + ?Sized),
        req: &ScanRequest,
    ) -> DbResult<Vec<Value>> {
        let table = table.as_table(self);
        let t = table.resolve()?;
        let mut out = Vec::new();
        let mut after = self.page(t, None, None, req, &mut out);
        while let Some(key) = after {
            after = self.page(t, None, Some(&key), req, &mut out);
        }
        Ok(out)
    }

    /// Reads one page under one table lock and bills it: up to
    /// `page_rows` rows after `after` — of hash key `hash` for a query
    /// page, of the whole table for a scan page (`hash` is `None`) —
    /// appended to `out` in key order, projected. Returns the key to
    /// resume after, by each op's stop rule: a query page that came back
    /// full is followed by one more (the reader cannot know the hash key
    /// ended there); a scan page ends when it meets a row it has not
    /// examined.
    fn page(
        &self,
        t: &Table,
        hash: Option<&Value>,
        after: Option<&PrimaryKey>,
        req: &ScanRequest,
        out: &mut Vec<Value>,
    ) -> Option<PrimaryKey> {
        // The first key of `hash`: no sort value orders before every one.
        let first = hash.map(|hash| PrimaryKey::new(hash.clone(), None));
        let lo = match (after, &first) {
            (Some(key), _) => Bound::Excluded(key),
            (None, Some(first)) => Bound::Included(first),
            (None, None) => Bound::Unbounded,
        };
        let (mut rows, mut bytes, mut last, mut unexamined) = (0, 0, None, false);
        let data = self.lock(t);
        for (key, row) in data.rows.range((lo, Bound::Unbounded)) {
            if hash.is_some_and(|hash| hash != key.hash_value()) {
                break;
            }
            if rows == self.page_rows {
                unexamined = true;
                break;
            }
            rows += 1;
            last = Some(key);
            let item = read(row, req.projection.as_ref());
            bytes += item.size_bytes();
            out.push(item);
        }
        let (kind, again) = match hash {
            Some(_) => (StoreKind::Query, rows == self.page_rows),
            None => (StoreKind::Scan, unexamined),
        };
        let resume = last.filter(|_| again).cloned();
        drop(data);
        let key = hash.map(|hash| hash as &dyn fmt::Display);
        self.bill_read(kind, t.name(), key, rows, bytes);
        resume
    }

    /// Bills one `Query` or `Scan` page of `table` over `rows` rows that
    /// returned `bytes`, and sleeps its modelled latency.
    fn bill_read(
        &self,
        kind: StoreKind,
        table: &str,
        key: Option<&dyn fmt::Display>,
        rows: usize,
        bytes: usize,
    ) {
        let latency = self.bill(kind, table, key, None, rows, bytes);
        self.clock.sleep(latency);
    }

    /// Exact-match lookup through a secondary index, in key order.
    ///
    /// `req.projection` applies as in [`Database::query`] — a `Key`-only
    /// projection is DynamoDB's `KEYS_ONLY` index read. The read takes
    /// the table lock once and is billed the way `query` is, one `Query`
    /// op per `page_rows` index entries, and a page that comes back full
    /// is followed by one more (the reader cannot know the list ended
    /// there), so a read of fewer than `page_rows` entries is one op.
    pub fn index_query(
        &self,
        table: &(impl AsTable + ?Sized),
        attr: &str,
        value: &Value,
        req: &ScanRequest,
    ) -> DbResult<Vec<Value>> {
        let table = table.as_table(self);
        let t = table.resolve()?;
        let items: Vec<Value> = {
            let data = self.lock(t);
            data.index_lookup(attr, value)?
                .iter()
                .filter_map(|key| data.rows.get(key))
                .map(|row| read(row, req.projection.as_ref()))
                .collect()
        };
        let mut pages = items.chunks(self.page_rows);
        loop {
            let page = pages.next().unwrap_or_default();
            let bytes = page.iter().map(SizeOf::size_bytes).sum();
            let key = format_args!("{attr}={value}");
            self.bill_read(StoreKind::Query, t.name(), Some(&key), page.len(), bytes);
            if page.len() < self.page_rows {
                return Ok(items);
            }
        }
    }

    /// Returns the distinct hash-key values of a table, sorted
    /// (verification walks).
    pub fn distinct_hash_keys(&self, table: &(impl AsTable + ?Sized)) -> DbResult<Vec<Value>> {
        let table = table.as_table(self);
        let t = table.resolve()?;
        let keys = self.lock(t).distinct_hash_keys();
        self.bill_read(StoreKind::Scan, t.name(), None, keys.len(), 0);
        Ok(keys)
    }

    /// The number of rows currently stored in a table.
    ///
    /// Out-of-band observability (storage-growth tracking for the
    /// workload driver and GC experiments): it reads the table's size
    /// under its lock, atomically, bypassing the latency model and the
    /// operation metrics.
    pub fn row_count(&self, table: &str) -> DbResult<usize> {
        Ok(self.table(table).resolve()?.lock().rows.len())
    }

    /// Per-table row counts for every table, sorted by name (each count
    /// atomic, the set not: see [`Database::row_count`]).
    pub fn table_row_counts(&self) -> Vec<(String, usize)> {
        self.table_names()
            .into_iter()
            .map(|name| {
                let rows = self.row_count(&name).unwrap_or(0);
                (name, rows)
            })
            .collect()
    }

    /// Takes a deterministic logical snapshot of every table
    /// ([`crate::DbSnapshot`]).
    ///
    /// Rows are collected per table in primary-key order, so two
    /// databases holding the same logical rows snapshot identically.
    /// This is out-of-band verification tooling: it bypasses the latency
    /// model and the operation metrics, and each table is copied
    /// atomically but the set of tables is not (snapshot a quiescent
    /// database).
    pub fn snapshot(&self) -> crate::DbSnapshot {
        let handles: Vec<(String, Arc<Table>)> = {
            let tables = self.tables.read();
            #[expect(clippy::disallowed_methods, reason = "sorted by name below")]
            let mut v: Vec<(String, Arc<Table>)> = tables
                .iter()
                .map(|(name, t)| (name.clone(), t.clone()))
                .collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        };
        let mut out: BTreeMap<String, BTreeMap<PrimaryKey, Value>> = BTreeMap::new();
        for (name, t) in handles {
            let rows = t.lock().rows.clone();
            out.insert(name, rows);
        }
        crate::DbSnapshot::new(out)
    }

    /// Atomically applies a batch of conditional writes across tables.
    ///
    /// All condition checks are evaluated first; if any fails the whole
    /// batch is rejected with [`DbError::TransactionCanceled`] and nothing
    /// is applied. This is the DynamoDB `TransactWriteItems` the paper's
    /// cross-table-transaction comparator uses (Figs. 13, 16, 25).
    ///
    /// There is no global transaction lock: the transaction locks the
    /// tables its ops touch in name order — a total order shared by every
    /// transaction, so lock acquisition cannot deadlock — validates every
    /// condition, and applies all ops while still holding the locks.
    ///
    /// # Errors
    ///
    /// - [`DbError::DuplicateTransactionItem`] when two ops target the
    ///   same row (DynamoDB's restriction — and a semantic necessity here,
    ///   since conditions are validated against the pre-state only).
    pub fn transact_write(&self, ops: &[TransactOp]) -> DbResult<()> {
        // Resolve the tables in op order, so `TableNotFound` names the
        // first missing one and beats `TransactionCanceled`, then each
        // op's key (a Put derives its own from the schema, which lives
        // outside the table locks).
        let mut tables: BTreeMap<&str, Arc<Table>> = BTreeMap::new();
        for op in ops {
            if !tables.contains_key(op.table()) {
                let table = self.table(op.table());
                tables.insert(op.table(), table.resolve()?.clone());
            }
        }
        let mut keys: Vec<PrimaryKey> = Vec::with_capacity(ops.len());
        let mut seen_rows: BTreeSet<(&str, PrimaryKey)> = BTreeSet::new();
        for op in ops {
            let key = match op {
                TransactOp::Update { key, .. } => key.clone(),
                TransactOp::Put { item, .. } => tables[op.table()].schema.key_of(item)?,
            };
            // DynamoDB rejects transactions with multiple operations on
            // one item; conditions here are validated against the
            // pre-state only, so allowing duplicates would let a later
            // op's condition ignore an earlier op's effect.
            if !seen_rows.insert((op.table(), key.clone())) {
                return Err(DbError::DuplicateTransactionItem {
                    item: format!("{}/{}", op.table(), key),
                });
            }
            keys.push(key);
        }
        let items: Vec<(&Table, &PrimaryKey)> = ops
            .iter()
            .map(|op| &*tables[op.table()])
            .zip(&keys)
            .collect();

        // The one place a thread holds more than one table lock: in name
        // order (debug builds check it, see `Table::lock`). An op's guard
        // is its table's place in that order.
        let names: Vec<&str> = tables.keys().copied().collect();
        let billed = |cond, bytes| {
            let first = ops.first().map_or("", TransactOp::table);
            let items = fmt::from_fn(|f| {
                let mut items = ops.iter().zip(&keys);
                items.try_for_each(|(op, key)| write!(f, "{}/{key} ", op.table()))
            });
            let kind = StoreKind::TransactWrite;
            self.bill(kind, first, Some(&items), cond, ops.len(), bytes)
        };
        let slot = |op: &TransactOp| names.partition_point(|name| *name < op.table());
        let mut guards: Vec<TableGuard<'_>> = tables.values().map(|t| self.lock(t)).collect();

        // Validate every condition against the pre-state. All touched
        // tables are locked, so this is one atomic validation point — no
        // re-check or rollback dance against racing single-row writers.
        for (i, (op, key)) in ops.iter().zip(&keys).enumerate() {
            if !cond_holds(op.cond(), guards[slot(op)].rows.get(key))? {
                drop(guards);
                let latency = billed(Some(false), 0);
                self.serial_write_sleep(&items, latency);
                return Err(DbError::TransactionCanceled { failed_op: i });
            }
        }

        // Apply. A structural failure (e.g. a row outgrowing the size cap)
        // restores the rows the earlier ops replaced under the still-held
        // locks, so even the failure path is atomic.
        let mut priors: Vec<Option<Value>> = Vec::with_capacity(ops.len());
        let mut bytes = 0usize;
        for (op, key) in ops.iter().zip(&keys) {
            let schema = &tables[op.table()].schema;
            let data = &mut guards[slot(op)];
            let prior = data.rows.get(key).cloned();
            let result = match op {
                TransactOp::Update { update, .. } => data
                    .update_row(key, &Cond::True, update, schema)
                    .map(|(size, _)| size),
                TransactOp::Put { item, .. } => {
                    data.put_row(key.clone(), item.clone(), schema.max_row_bytes)
                }
            };
            match result {
                Ok(n) => {
                    bytes += n;
                    priors.push(prior);
                }
                Err(e) => {
                    for (j, prior) in priors.into_iter().enumerate().rev() {
                        let (op, key) = (&ops[j], &keys[j]);
                        let data = &mut guards[slot(op)];
                        match prior {
                            // Restoring a row that previously fit cannot
                            // overflow.
                            Some(row) => {
                                let max = tables[op.table()].schema.max_row_bytes;
                                let _ = data.put_row(key.clone(), row, max);
                            }
                            None => {
                                let _ = data.delete_row(key, &Cond::True);
                            }
                        }
                    }
                    return Err(e);
                }
            }
        }
        drop(guards);
        let latency = billed(Some(true), bytes);
        self.serial_write_sleep(&items, latency);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beldi_value::vmap;

    fn db_with_table() -> Arc<Database> {
        let db = Database::for_tests();
        db.create_table("t", TableSchema::hash_and_sort("Key", "RowId"))
            .unwrap();
        db
    }

    #[test]
    fn hot_item_writes_serialize_but_distinct_items_overlap() {
        use std::time::Duration;
        // Constant 20 ms virtual writes (zero() has no jitter or tail).
        let model = LatencyModel {
            write_base: Duration::from_millis(20),
            ..LatencyModel::zero()
        };
        let clock: SharedClock = beldi_simclock::SimClock::shared(1);
        let db = Database::new(clock.clone(), model, 0);
        db.create_table("t", TableSchema::hash_only("Id")).unwrap();
        // Four writers, four writes each.
        let run = |pick: fn(usize) -> PrimaryKey| {
            let t0 = clock.now();
            let writers: Vec<_> = (0..4)
                .map(|w| {
                    let db = Arc::clone(&db);
                    let body = move || {
                        let key = pick(w);
                        for _ in 0..4 {
                            db.update("t", &key, &Cond::True, &Update::new().inc("N", 1))
                                .unwrap();
                        }
                    };
                    clock.spawn(format!("writer-{w}"), Box::new(body))
                })
                .collect();
            for writer in writers {
                writer.join().expect("a writer panicked");
            }
            clock.now().since(t0)
        };
        // 16 writes to one item may not overlap; four distinct items are
        // written in parallel, so only a writer's own four add up.
        let hot = run(|_| PrimaryKey::hash("hot"));
        assert_eq!(hot, Duration::from_millis(16 * 20));
        let distinct = run(|w| PrimaryKey::hash(format!("k{w}")));
        assert_eq!(distinct, Duration::from_millis(4 * 20));
    }

    /// Every write, transactions too, occupies its items for a while.
    fn slow_model() -> LatencyModel {
        LatencyModel {
            write_base: std::time::Duration::from_millis(20),
            transact_base: std::time::Duration::from_millis(20),
            ..LatencyModel::zero()
        }
    }

    /// A database of [`slow_model`] on a fresh `SimClock`, with tables `t`
    /// (hash and sort key) and `u` (hash key).
    fn slow_db() -> (SharedClock, Arc<Database>) {
        let clock: SharedClock = beldi_simclock::SimClock::shared(1);
        let db = Database::new(clock.clone(), slow_model(), 0);
        db.create_table("t", TableSchema::hash_and_sort("Key", "RowId"))
            .unwrap();
        db.create_table("u", TableSchema::hash_only("Id")).unwrap();
        (clock, db)
    }

    /// Each kind of write leaves the queue empty once it returns: the
    /// writer that set an item's deadline took its entry out.
    #[test]
    fn the_write_queue_is_empty_at_quiescence() {
        let (_clock, db) = slow_db();
        let k = PrimaryKey::hash_sort("a", 0i64);
        let inc = Update::new().inc("N", 1);
        db.put("t", vmap! { "Key" => "a", "RowId" => 0i64 })
            .unwrap();
        assert_eq!(db.writes_in_flight(), 0, "put");
        db.update("t", &k, &Cond::True, &inc).unwrap();
        assert_eq!(db.writes_in_flight(), 0, "update");
        let refused = db.update("t", &k, &Cond::not_exists("Key"), &inc);
        assert!(matches!(refused, Err(DbError::ConditionFailed)));
        assert_eq!(db.writes_in_flight(), 0, "failed update");
        db.delete("t", &k, &Cond::True).unwrap();
        assert_eq!(db.writes_in_flight(), 0, "delete");
        let both = |cond: Cond| {
            db.transact_write(&[
                TransactOp::Put {
                    table: "t".into(),
                    item: vmap! { "Key" => "b", "RowId" => 0i64 },
                    cond,
                },
                TransactOp::Update {
                    table: "u".into(),
                    key: PrimaryKey::hash("b"),
                    cond: Cond::True,
                    update: Update::new().inc("N", 1),
                },
            ])
        };
        both(Cond::True).unwrap();
        assert_eq!(db.writes_in_flight(), 0, "two-table transaction");
        let canceled = both(Cond::not_exists("Key"));
        assert!(matches!(
            canceled,
            Err(DbError::TransactionCanceled { failed_op: 0 })
        ));
        assert_eq!(db.writes_in_flight(), 0, "canceled transaction");
        assert_eq!(db.metrics().lock_waits, 0, "no write waited");
    }

    /// While writers queue on a hot item the queue holds their entries;
    /// once the last of them returns it holds none.
    #[test]
    fn queued_writes_leave_no_entry_behind() {
        let (clock, db) = slow_db();
        let writers: Vec<_> = (0..3)
            .map(|w| {
                let db = Arc::clone(&db);
                let body = move || {
                    let hot = PrimaryKey::hash("hot");
                    db.update("u", &hot, &Cond::True, &Update::new().inc("N", 1))
                        .unwrap();
                    db.transact_write(&[
                        TransactOp::Update {
                            table: "t".into(),
                            key: PrimaryKey::hash_sort("w", w),
                            cond: Cond::True,
                            update: Update::new().inc("N", 1),
                        },
                        TransactOp::Update {
                            table: "u".into(),
                            key: hot,
                            cond: Cond::True,
                            update: Update::new().inc("N", 1),
                        },
                    ])
                    .unwrap();
                };
                clock.spawn(format!("writer-{w}"), Box::new(body))
            })
            .collect();
        clock.sleep(std::time::Duration::from_millis(10));
        assert!(db.writes_in_flight() > 0, "the writers are queued");
        for writer in writers {
            writer.join().expect("a writer panicked");
        }
        assert_eq!(db.writes_in_flight(), 0);
        assert_eq!(db.metrics().lock_waits, 5, "all but the first queued");
    }

    /// Each recorded store call carries the latency its caller waited:
    /// on one thread, with no write queued behind another, the recorded
    /// latencies of a call of every kind sum to the clock's advance.
    #[test]
    fn recorded_latencies_sum_to_the_clock_advance() {
        use beldi_simclock::EventKind;
        let clock: SharedClock = beldi_simclock::SimClock::shared(1);
        let db = Database::new(clock.clone(), LatencyModel::dynamo(), 3);
        db.create_table(
            "t",
            TableSchema::hash_and_sort("Key", "RowId").with_index("Tag"),
        )
        .unwrap();
        db.create_table("u", TableSchema::hash_only("Id")).unwrap();
        let t0 = clock.now();
        db.telemetry().start_record(clock.clone());
        let key = PrimaryKey::hash_sort("k", "r");
        let set = Update::new().set("Tag", true);
        db.put("t", vmap! { "Key" => "k", "RowId" => "r0", "Tag" => true })
            .unwrap();
        db.update("t", &key, &Cond::not_exists("Tag"), &set)
            .unwrap();
        let held = db.update("t", &key, &Cond::not_exists("Tag"), &set);
        assert_eq!(held, Err(DbError::ConditionFailed));
        db.get("t", &key, None).unwrap();
        db.query("t", &Value::from("k"), &ScanRequest::all())
            .unwrap();
        db.index_query("t", "Tag", &Value::Bool(true), &ScanRequest::all())
            .unwrap();
        db.scan_all("t", &ScanRequest::all()).unwrap();
        db.distinct_hash_keys("t").unwrap();
        let bump = |cond| TransactOp::Update {
            table: "u".into(),
            key: PrimaryKey::hash("x"),
            cond,
            update: Update::new().inc("N", 1),
        };
        db.transact_write(&[bump(Cond::True)]).unwrap();
        db.transact_write(&[bump(Cond::not_exists("N"))])
            .unwrap_err();
        db.delete("t", &key, &Cond::True).unwrap();
        let record = db.telemetry().take_record();
        let calls: Vec<&StoreCall> = record
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Store(call) => Some(call),
                _ => None,
            })
            .collect();
        assert_eq!(calls.len(), 11);
        let kinds = [
            StoreKind::Get,
            StoreKind::Write,
            StoreKind::Delete,
            StoreKind::Query,
            StoreKind::Scan,
            StoreKind::TransactWrite,
        ];
        for kind in kinds {
            assert!(calls.iter().any(|c| c.kind == kind), "no {kind:?} call");
        }
        assert!(calls.iter().all(|c| !c.latency.is_zero()));
        let recorded: Duration = calls.iter().map(|c| c.latency).sum();
        let advance = clock.now().since(t0);
        assert_eq!(
            advance.checked_sub(recorded),
            Some(Duration::ZERO),
            "the residue"
        );
    }

    /// An item is its table's and its key's: one key written in two
    /// tables at once is two items, so the writes overlap and neither
    /// waits. A queue that matched by key alone would serialize them.
    #[test]
    fn one_key_in_two_tables_is_two_items() {
        let clock: SharedClock = beldi_simclock::SimClock::shared(1);
        let db = Database::new(clock.clone(), slow_model(), 0);
        db.create_table("a", TableSchema::hash_only("Id")).unwrap();
        db.create_table("b", TableSchema::hash_only("Id")).unwrap();
        let t0 = clock.now();
        let writers: Vec<_> = ["a", "b"]
            .into_iter()
            .map(|table| {
                let db = Arc::clone(&db);
                let body = move || {
                    let key = PrimaryKey::hash("k");
                    db.update(table, &key, &Cond::True, &Update::new().inc("N", 1))
                        .unwrap();
                };
                clock.spawn(format!("writer-{table}"), Box::new(body))
            })
            .collect();
        clock.sleep(std::time::Duration::from_millis(10));
        assert_eq!(db.writes_in_flight(), 2, "both writes are in flight");
        for writer in writers {
            writer.join().expect("a writer panicked");
        }
        assert_eq!(clock.now().since(t0), std::time::Duration::from_millis(20));
        assert_eq!(db.metrics().lock_waits, 0, "no write waited");
        assert_eq!(db.writes_in_flight(), 0);
    }

    /// A clock whose every wait panics: a writer dies inside its sleep.
    struct DiesInSleep;

    impl beldi_simclock::Clock for DiesInSleep {
        fn now(&self) -> SimInstant {
            SimInstant::EPOCH
        }
        fn sleep(&self, _: std::time::Duration) {
            panic!("the writer dies in its sleep");
        }
        fn sleep_until(&self, _: SimInstant) {
            panic!("the writer dies in its sleep");
        }
    }

    #[test]
    fn a_writer_unwound_in_its_sleep_leaves_no_entry() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let db = Database::new(Arc::new(DiesInSleep), slow_model(), 0);
        db.create_table("t", TableSchema::hash_only("Id")).unwrap();
        db.create_table("u", TableSchema::hash_only("Id")).unwrap();
        let write = catch_unwind(AssertUnwindSafe(|| {
            db.update("t", &PrimaryKey::hash("a"), &Cond::True, &Update::new())
        }));
        assert!(write.is_err(), "the clock panicked");
        assert_eq!(db.writes_in_flight(), 0, "update");
        let txn = catch_unwind(AssertUnwindSafe(|| {
            db.transact_write(&[
                TransactOp::Put {
                    table: "t".into(),
                    item: vmap! { "Id" => "a" },
                    cond: Cond::True,
                },
                TransactOp::Put {
                    table: "u".into(),
                    item: vmap! { "Id" => "a" },
                    cond: Cond::True,
                },
            ])
        }));
        assert!(txn.is_err(), "the clock panicked");
        assert_eq!(db.writes_in_flight(), 0, "transaction");
    }

    #[test]
    fn put_get_roundtrip() {
        let db = db_with_table();
        db.put("t", vmap! { "Key" => "a", "RowId" => 0i64, "V" => 1i64 })
            .unwrap();
        let got = db
            .get("t", &PrimaryKey::hash_sort("a", 0i64), None)
            .unwrap()
            .unwrap();
        assert_eq!(got.get_int("V"), Some(1));
        assert!(db
            .get("t", &PrimaryKey::hash_sort("a", 1i64), None)
            .unwrap()
            .is_none());
    }

    #[test]
    fn get_with_projection() {
        let db = db_with_table();
        db.put(
            "t",
            vmap! { "Key" => "a", "RowId" => 0i64, "V" => 1i64, "W" => 2i64 },
        )
        .unwrap();
        let got = db
            .get(
                "t",
                &PrimaryKey::hash_sort("a", 0i64),
                Some(&Projection::attrs(["V"])),
            )
            .unwrap()
            .unwrap();
        assert_eq!(got.get_int("V"), Some(1));
        assert!(got.get_attr("W").is_none());
        assert!(got.get_attr("Key").is_none());
    }

    #[test]
    fn conditional_update_success_and_failure() {
        let db = db_with_table();
        let key = PrimaryKey::hash_sort("a", 0i64);
        db.put("t", vmap! { "Key" => "a", "RowId" => 0i64, "N" => 1i64 })
            .unwrap();
        db.update("t", &key, &Cond::eq("N", 1i64), &Update::new().inc("N", 1))
            .unwrap();
        assert_eq!(
            db.get("t", &key, None).unwrap().unwrap().get_int("N"),
            Some(2)
        );
        let err = db
            .update("t", &key, &Cond::eq("N", 1i64), &Update::new().inc("N", 1))
            .unwrap_err();
        assert_eq!(err, DbError::ConditionFailed);
        assert_eq!(db.metrics().cond_failures, 1);
    }

    #[test]
    fn update_upserts_row_with_key_attrs() {
        let db = db_with_table();
        let key = PrimaryKey::hash_sort("new", 3i64);
        db.update(
            "t",
            &key,
            &Cond::not_exists("Key"),
            &Update::new().set("V", "hello"),
        )
        .unwrap();
        let row = db.get("t", &key, None).unwrap().unwrap();
        assert_eq!(row.get_str("Key"), Some("new"));
        assert_eq!(row.get_int("RowId"), Some(3));
        assert_eq!(row.get_str("V"), Some("hello"));
    }

    #[test]
    fn an_update_cannot_re_file_a_row() {
        let db = Database::for_tests();
        db.create_table(
            "t",
            TableSchema::hash_and_sort("Key", "RowId").with_index("Done"),
        )
        .unwrap();
        let key = PrimaryKey::hash_sort("a", 0i64);
        db.put(
            "t",
            vmap! { "Key" => "a", "RowId" => 0i64, "Done" => false, "N" => 1i64 },
        )
        .unwrap();
        let stored = || db.get("t", &key, None).unwrap();
        let done = |v: bool| {
            db.index_query("t", "Done", &Value::Bool(v), &ScanRequest::all())
                .unwrap()
        };
        let before = (stored(), done(false), db.row_count("t").unwrap());
        let refiles = [
            Update::new().set("Done", true).set("Key", "b"),
            Update::new().inc("N", 1).set("RowId", 1i64),
            Update::new().remove("Key"),
            Update::new().set(beldi_value::Path::new(Vec::new()), vmap! { "Done" => true }),
        ];
        for update in &refiles {
            let err = db.update("t", &key, &Cond::True, update).unwrap_err();
            assert!(matches!(err, DbError::BadKey(_)), "{update}: {err}");
            // Refused in a transaction too, and all of it taken back.
            let ops = [
                TransactOp::Update {
                    table: "t".into(),
                    key: PrimaryKey::hash_sort("other", 0i64),
                    cond: Cond::True,
                    update: Update::new().set("N", 9i64),
                },
                TransactOp::Update {
                    table: "t".into(),
                    key: key.clone(),
                    cond: Cond::True,
                    update: update.clone(),
                },
            ];
            let err = db.transact_write(&ops).unwrap_err();
            assert!(matches!(err, DbError::BadKey(_)), "{update}: {err}");
            assert_eq!(
                (stored(), done(false), db.row_count("t").unwrap()),
                before,
                "{update}"
            );
            assert!(done(true).is_empty(), "{update}");
        }
        // An upsert is seeded with its key and may not change it either.
        let fresh = PrimaryKey::hash_sort("new", 0i64);
        for update in &refiles[..2] {
            let err = db.update("t", &fresh, &Cond::True, update).unwrap_err();
            assert!(matches!(err, DbError::BadKey(_)), "{update}: {err}");
        }
        assert!(db.get("t", &fresh, None).unwrap().is_none());
        assert_eq!(db.row_count("t").unwrap(), 1);
        assert!(done(true).is_empty());
        // Setting a key attribute to the value it has is no change.
        db.update("t", &key, &Cond::True, &Update::new().set("Key", "a"))
            .unwrap();
    }

    #[test]
    fn update_on_missing_row_condition_sees_empty_item() {
        let db = db_with_table();
        let key = PrimaryKey::hash_sort("x", 0i64);
        // Comparison against missing attr fails...
        assert_eq!(
            db.update(
                "t",
                &key,
                &Cond::eq("N", 0i64),
                &Update::new().set("N", 1i64)
            ),
            Err(DbError::ConditionFailed)
        );
        // ...but not_exists succeeds.
        db.update(
            "t",
            &key,
            &Cond::not_exists("N"),
            &Update::new().set("N", 1i64),
        )
        .unwrap();
    }

    #[test]
    fn delete_with_condition() {
        let db = db_with_table();
        let key = PrimaryKey::hash_sort("a", 0i64);
        db.put("t", vmap! { "Key" => "a", "RowId" => 0i64, "N" => 5i64 })
            .unwrap();
        assert_eq!(
            db.delete("t", &key, &Cond::eq("N", 4i64)),
            Err(DbError::ConditionFailed)
        );
        db.delete("t", &key, &Cond::eq("N", 5i64)).unwrap();
        assert!(db.get("t", &key, None).unwrap().is_none());
    }

    #[test]
    fn query_returns_hash_rows_in_sort_order() {
        let db = db_with_table();
        for i in [2i64, 0, 1] {
            db.put("t", vmap! { "Key" => "a", "RowId" => i, "V" => i })
                .unwrap();
        }
        db.put("t", vmap! { "Key" => "b", "RowId" => 0i64, "V" => 99i64 })
            .unwrap();
        let rows = db
            .query("t", &Value::from("a"), &ScanRequest::all())
            .unwrap();
        assert_eq!(rows.len(), 3);
        let ids: Vec<i64> = rows.iter().map(|r| r.get_int("RowId").unwrap()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn query_spans_multiple_pages() {
        let db = db_with_table();
        let n = DEFAULT_PAGE_ROWS * 3 + 5;
        for i in 0..n {
            db.put("t", vmap! { "Key" => "a", "RowId" => i as i64 })
                .unwrap();
        }
        let rows = db
            .query("t", &Value::from("a"), &ScanRequest::all())
            .unwrap();
        assert_eq!(rows.len(), n);
    }

    #[test]
    fn query_with_projection() {
        let db = db_with_table();
        for i in 0..10i64 {
            db.put(
                "t",
                vmap! { "Key" => "a", "RowId" => i, "V" => i, "Junk" => "x".repeat(50) },
            )
            .unwrap();
        }
        let req = ScanRequest::all().with_projection(Projection::attrs(["RowId"]));
        let rows = db.query("t", &Value::from("a"), &req).unwrap();
        let ids: Vec<i64> = rows.iter().map(|r| r.get_int("RowId").unwrap()).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
        assert!(rows.iter().all(|r| r.as_map().unwrap().len() == 1));
    }

    #[test]
    fn scan_all_pages_through_everything() {
        let db = db_with_table();
        let n = DEFAULT_PAGE_ROWS * 2 + 7;
        for i in 0..n {
            db.put("t", vmap! { "Key" => format!("k{i:04}"), "RowId" => 0i64 })
                .unwrap();
        }
        let rows = db.scan_all("t", &ScanRequest::all()).unwrap();
        assert_eq!(rows.len(), n);
    }

    /// A table of `keys` hash keys × `rows` sort keys, put in an order
    /// that is not key order; `Id/Row` of each row, in key order.
    fn grid(keys: i64, rows: i64) -> (Arc<Database>, Vec<String>) {
        let db = Database::for_tests();
        db.create_table("g", TableSchema::hash_and_sort("Id", "Row"))
            .unwrap();
        for row in 0..rows {
            for k in (0..keys).rev() {
                db.put("g", vmap! { "Id" => format!("k{k:03}"), "Row" => row })
                    .unwrap();
            }
        }
        let in_key_order = (0..keys)
            .flat_map(|k| (0..rows).map(move |row| format!("k{k:03}/{row}")))
            .collect();
        (db, in_key_order)
    }

    fn ids(items: &[Value]) -> Vec<String> {
        let id = |v: &Value| format!("{}/{}", v.get_str("Id").unwrap(), v.get_int("Row").unwrap());
        items.iter().map(id).collect()
    }

    /// Pages through `hash`'s rows (the table's, when `None`), calling
    /// `between` with each resume key before the next page is read.
    fn paged(
        db: &Database,
        hash: Option<&Value>,
        mut between: impl FnMut(&PrimaryKey),
    ) -> (Vec<Value>, usize) {
        let g = db.table("g");
        let t = g.resolve().unwrap();
        let (mut out, mut pages) = (Vec::new(), 1);
        let mut after = db.page(t, hash, None, &ScanRequest::all(), &mut out);
        while let Some(key) = after {
            between(&key);
            pages += 1;
            after = db.page(t, hash, Some(&key), &ScanRequest::all(), &mut out);
        }
        (out, pages)
    }

    /// A query and a scan that span several pages return every row once,
    /// in key order, each page resuming after the last key the one
    /// before examined.
    #[test]
    fn pages_cover_each_row_exactly_once() {
        let (db, in_key_order) = grid(3, 70);
        let (scanned, pages) = paged(&db, None, |_| {});
        assert_eq!(ids(&scanned), in_key_order);
        assert_eq!(pages, 7, "210 rows");
        assert_eq!(db.scan_all("g", &ScanRequest::all()).unwrap(), scanned);
        let hash = Value::from("k001");
        let (queried, pages) = paged(&db, Some(&hash), |_| {});
        assert_eq!(ids(&queried), in_key_order[70..140]);
        assert_eq!(pages, 3, "70 rows of one hash key");
        assert_eq!(db.query("g", &hash, &ScanRequest::all()).unwrap(), queried);
    }

    /// A scan resumes after its resume key even when that row was
    /// deleted between pages: it neither skips a row nor repeats one.
    #[test]
    fn scan_page_resumption() {
        let (db, in_key_order) = grid(20, 5);
        let mut deleted = Vec::new();
        let (seen, _) = paged(&db, None, |last| {
            db.delete("g", last, &Cond::True).unwrap();
            deleted.push(last.clone());
        });
        assert_eq!(ids(&seen), in_key_order, "each row once, in key order");
        assert_eq!(deleted.len(), in_key_order.len() / DEFAULT_PAGE_ROWS);
        assert_eq!(
            db.row_count("g").unwrap(),
            in_key_order.len() - deleted.len()
        );
        // A query resumes after a deleted sort key the same way.
        let g = db.table("g");
        let t = g.resolve().unwrap();
        let after = PrimaryKey::hash_sort("k000", 2i64);
        db.delete("g", &after, &Cond::True).unwrap();
        let mut out = Vec::new();
        let hash = Value::from("k000");
        let again = db.page(t, Some(&hash), Some(&after), &ScanRequest::all(), &mut out);
        assert_eq!(ids(&out), ["k000/3", "k000/4"]);
        assert_eq!(again, None, "a page short of full ends the query");
    }

    /// The pages each read op bills at the page boundaries: a query or
    /// an index read ⌊n/32⌋ + 1 (a full page is followed by one more), a
    /// scan max(1, ⌈n/32⌉) (a page ends at a row it has not examined).
    #[test]
    fn pages_billed_at_the_page_boundaries() {
        assert_eq!(DEFAULT_PAGE_ROWS, 32);
        for (n, query_pages, scan_pages) in
            [(0, 1, 1), (31, 1, 1), (32, 2, 1), (33, 2, 2), (64, 3, 2)]
        {
            let db = Database::for_tests();
            db.create_table(
                "t",
                TableSchema::hash_and_sort("Key", "RowId").with_index("Tag"),
            )
            .unwrap();
            for i in 0..n {
                db.put(
                    "t",
                    vmap! { "Key" => "a", "RowId" => i as i64, "Tag" => "x" },
                )
                .unwrap();
            }
            let all = ScanRequest::all();
            let billed = |read: &dyn Fn() -> Vec<Value>| {
                let before = db.metrics();
                assert_eq!(read().len(), n);
                let d = db.metrics().delta(&before);
                assert_eq!(d.rows_scanned, n as u64);
                (d.queries, d.scans)
            };
            let query = billed(&|| db.query("t", &Value::from("a"), &all).unwrap());
            assert_eq!(query, (query_pages, 0), "query of {n} rows");
            let index = billed(&|| db.index_query("t", "Tag", &Value::from("x"), &all).unwrap());
            assert_eq!(index, (query_pages, 0), "index read of {n} entries");
            let scan = billed(&|| db.scan_all("t", &all).unwrap());
            assert_eq!(scan, (0, scan_pages), "scan of {n} rows");
        }
    }

    #[test]
    fn secondary_index_query() {
        let db = Database::for_tests();
        db.create_table("intents", TableSchema::hash_only("Id").with_index("Done"))
            .unwrap();
        db.put("intents", vmap! { "Id" => "i1", "Done" => false })
            .unwrap();
        db.put("intents", vmap! { "Id" => "i2", "Done" => true })
            .unwrap();
        db.put("intents", vmap! { "Id" => "i3", "Done" => false })
            .unwrap();
        let unfinished = db
            .index_query("intents", "Done", &Value::Bool(false), &ScanRequest::all())
            .unwrap();
        assert_eq!(unfinished.len(), 2);
    }

    /// A table indexed on `Tag` holding `matches` rows tagged `"hit"`
    /// (ids in key order, `V` = position), three tagged otherwise and two
    /// untagged — the last five must never be examined or billed.
    fn tagged_db(matches: usize) -> Arc<Database> {
        let db = Database::for_tests();
        db.create_table("ix", TableSchema::hash_only("Id").with_index("Tag"))
            .unwrap();
        for i in 0..matches {
            db.put(
                "ix",
                vmap! { "Id" => format!("m{i:03}"), "Tag" => "hit", "V" => i as i64, "Pad" => "x".repeat(40) },
            )
            .unwrap();
        }
        for i in 0..3 {
            db.put("ix", vmap! { "Id" => format!("o{i}"), "Tag" => "other" })
                .unwrap();
        }
        for i in 0..2 {
            db.put("ix", vmap! { "Id" => format!("u{i}") }).unwrap();
        }
        db
    }

    #[test]
    fn index_query_is_billed_per_page_of_entries_examined() {
        let page = DEFAULT_PAGE_ROWS;
        for (matches, ops) in [
            (0, 1),
            (1, 1),
            (page - 1, 1),
            (page, 2), // A full page is followed by an (empty) one, as in `query`.
            (2 * page + 5, 3),
        ] {
            let db = tagged_db(matches);
            let hit = Value::from("hit");
            let row_bytes =
                vmap! { "Id" => "m000", "Tag" => "hit", "V" => 0i64, "Pad" => "x".repeat(40) }
                    .size_bytes();
            let key_bytes = vmap! { "Id" => "m000" }.size_bytes();

            let before = db.metrics();
            let full = db
                .index_query("ix", "Tag", &hit, &ScanRequest::all())
                .unwrap();
            let d = db.metrics().delta(&before);
            assert_eq!(full.len(), matches);
            assert_eq!(d.total_ops(), ops, "{matches} matches");
            assert_eq!(d.queries, ops, "{matches} matches");
            assert_eq!(d.rows_scanned, matches as u64);
            assert_eq!(d.bytes_read, (matches * row_bytes) as u64);

            // Keys only: the same pages, a fraction of the bytes.
            let before = db.metrics();
            let keys = db
                .index_query(
                    "ix",
                    "Tag",
                    &hit,
                    &ScanRequest::all().with_projection(Projection::attrs(["Id"])),
                )
                .unwrap();
            let d = db.metrics().delta(&before);
            assert_eq!(keys.len(), matches);
            assert!(keys.iter().all(|k| k.as_map().unwrap().len() == 1));
            assert_eq!(d.queries, ops, "{matches} matches, keys only");
            assert_eq!(d.rows_scanned, matches as u64);
            assert_eq!(d.bytes_read, (matches * key_bytes) as u64);
        }
    }

    #[test]
    fn index_query_projects_like_query() {
        let db = tagged_db(10);
        let req = ScanRequest::all().with_projection(Projection::attrs(["Id", "V"]));
        let before = db.metrics();
        let rows = db
            .index_query("ix", "Tag", &Value::from("hit"), &req)
            .unwrap();
        let d = db.metrics().delta(&before);
        // Whole rows examined, projected rows returned and billed.
        let expected: Vec<Value> = (0..10i64)
            .map(|i| vmap! { "Id" => format!("m{i:03}"), "V" => i })
            .collect();
        assert_eq!(rows, expected);
        assert_eq!(d.rows_scanned, 10);
        let bytes: usize = expected.iter().map(SizeOf::size_bytes).sum();
        assert_eq!(d.bytes_read, bytes as u64);
    }

    #[test]
    fn delete_of_an_absent_row_sees_the_empty_item() {
        let db = db_with_table();
        let absent = PrimaryKey::hash_sort("zz", 0i64);
        assert_eq!(
            db.delete("t", &absent, &Cond::exists("Key")),
            Err(DbError::ConditionFailed)
        );
        db.delete("t", &absent, &Cond::not_exists("Key")).unwrap();
        assert!(db.get("t", &absent, None).unwrap().is_none());
    }

    #[test]
    fn transact_write_applies_all_or_nothing() {
        let db = Database::for_tests();
        db.create_table("a", TableSchema::hash_only("Id")).unwrap();
        db.create_table("b", TableSchema::hash_only("Id")).unwrap();
        db.put("a", vmap! { "Id" => "x", "N" => 1i64 }).unwrap();

        // Succeeds: both conditions hold.
        db.transact_write(&[
            TransactOp::Update {
                table: "a".into(),
                key: PrimaryKey::hash("x"),
                cond: Cond::eq("N", 1i64),
                update: Update::new().inc("N", 1),
            },
            TransactOp::Put {
                table: "b".into(),
                item: vmap! { "Id" => "y", "V" => 7i64 },
                cond: Cond::not_exists("Id"),
            },
        ])
        .unwrap();
        assert_eq!(
            db.get("a", &PrimaryKey::hash("x"), None)
                .unwrap()
                .unwrap()
                .get_int("N"),
            Some(2)
        );

        // Fails atomically: second condition false, first must not apply.
        let err = db
            .transact_write(&[
                TransactOp::Update {
                    table: "a".into(),
                    key: PrimaryKey::hash("x"),
                    cond: Cond::eq("N", 2i64),
                    update: Update::new().inc("N", 1),
                },
                TransactOp::Put {
                    table: "b".into(),
                    item: vmap! { "Id" => "y" },
                    cond: Cond::not_exists("Id"),
                },
            ])
            .unwrap_err();
        assert_eq!(err, DbError::TransactionCanceled { failed_op: 1 });
        assert_eq!(
            db.get("a", &PrimaryKey::hash("x"), None)
                .unwrap()
                .unwrap()
                .get_int("N"),
            Some(2),
            "first op must not have been applied"
        );
    }

    #[test]
    fn transact_write_rolls_back_structural_failures() {
        let db = Database::for_tests();
        db.create_table("a", TableSchema::hash_only("Id").with_max_row_bytes(64))
            .unwrap();
        db.put("a", vmap! { "Id" => "x", "N" => 1i64 }).unwrap();
        // Op 0 applies, op 1 overflows the row cap: op 0 must be rolled
        // back under the still-held table lock.
        let err = db
            .transact_write(&[
                TransactOp::Update {
                    table: "a".into(),
                    key: PrimaryKey::hash("x"),
                    cond: Cond::True,
                    update: Update::new().inc("N", 1),
                },
                TransactOp::Put {
                    table: "a".into(),
                    item: vmap! { "Id" => "big", "V" => "x".repeat(200) },
                    cond: Cond::True,
                },
            ])
            .unwrap_err();
        assert!(matches!(err, DbError::RowTooLarge { .. }));
        assert_eq!(
            db.get("a", &PrimaryKey::hash("x"), None)
                .unwrap()
                .unwrap()
                .get_int("N"),
            Some(1),
            "applied op must have been rolled back"
        );
        assert!(db
            .get("a", &PrimaryKey::hash("big"), None)
            .unwrap()
            .is_none());
    }

    #[test]
    fn transact_write_with_multiple_ops_in_one_table() {
        // Two ops on one table: it is locked once, not twice
        // (a self-deadlock).
        let db = Database::for_tests();
        db.create_table("a", TableSchema::hash_only("Id")).unwrap();
        db.transact_write(&[
            TransactOp::Put {
                table: "a".into(),
                item: vmap! { "Id" => "x", "N" => 1i64 },
                cond: Cond::True,
            },
            TransactOp::Put {
                table: "a".into(),
                item: vmap! { "Id" => "y", "N" => 2i64 },
                cond: Cond::True,
            },
        ])
        .unwrap();
        assert_eq!(
            db.get("a", &PrimaryKey::hash("y"), None)
                .unwrap()
                .unwrap()
                .get_int("N"),
            Some(2)
        );
    }

    #[test]
    fn transact_write_rejects_duplicate_items() {
        let db = Database::for_tests();
        db.create_table("a", TableSchema::hash_only("Id")).unwrap();
        // Two ops on the same row: the second op's condition would be
        // validated against the pre-state, blind to the first op's Put —
        // DynamoDB rejects such transactions, and so do we.
        let err = db
            .transact_write(&[
                TransactOp::Put {
                    table: "a".into(),
                    item: vmap! { "Id" => "x" },
                    cond: Cond::True,
                },
                TransactOp::Update {
                    table: "a".into(),
                    key: PrimaryKey::hash("x"),
                    cond: Cond::not_exists("Id"),
                    update: Update::new().set("N", 1i64),
                },
            ])
            .unwrap_err();
        assert!(matches!(err, DbError::DuplicateTransactionItem { .. }));
        assert!(
            db.get("a", &PrimaryKey::hash("x"), None).unwrap().is_none(),
            "rejected transaction must not apply anything"
        );
        // Same key in different tables is fine.
        db.create_table("b", TableSchema::hash_only("Id")).unwrap();
        db.transact_write(&[
            TransactOp::Put {
                table: "a".into(),
                item: vmap! { "Id" => "x" },
                cond: Cond::True,
            },
            TransactOp::Put {
                table: "b".into(),
                item: vmap! { "Id" => "x" },
                cond: Cond::True,
            },
        ])
        .unwrap();
    }

    #[test]
    fn missing_table_errors() {
        let db = Database::for_tests();
        assert!(matches!(
            db.get("nope", &PrimaryKey::hash("x"), None),
            Err(DbError::TableNotFound(_))
        ));
        assert!(matches!(
            db.query("nope", &Value::from("x"), &ScanRequest::all()),
            Err(DbError::TableNotFound(_))
        ));
    }

    #[test]
    fn create_table_twice_fails() {
        let db = db_with_table();
        assert!(matches!(
            db.create_table("t", TableSchema::hash_only("Id")),
            Err(DbError::TableExists(_))
        ));
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a stress test of real parallelism over a zero-latency store: nothing in it waits on a clock"
    )]
    fn concurrent_conditional_increments_never_lose_updates() {
        let db = db_with_table();
        let key = PrimaryKey::hash_sort("ctr", 0i64);
        db.put("t", vmap! { "Key" => "ctr", "RowId" => 0i64, "N" => 0i64 })
            .unwrap();
        let threads = 8;
        let per_thread = 50;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..per_thread {
                        // CAS loop: read then conditional increment.
                        loop {
                            let cur = db
                                .get("t", &key, None)
                                .unwrap()
                                .unwrap()
                                .get_int("N")
                                .unwrap();
                            let r = db.update(
                                "t",
                                &key,
                                &Cond::eq("N", cur),
                                &Update::new().inc("N", 1),
                            );
                            match r {
                                Ok(()) => break,
                                Err(DbError::ConditionFailed) => continue,
                                Err(e) => panic!("unexpected: {e}"),
                            }
                        }
                    }
                });
            }
        });
        let n = db.get("t", &key, None).unwrap().unwrap().get_int("N");
        assert_eq!(n, Some((threads * per_thread) as i64));
    }

    #[test]
    fn metrics_count_reads_and_bytes() {
        let db = db_with_table();
        db.put("t", vmap! { "Key" => "a", "RowId" => 0i64, "V" => "hello" })
            .unwrap();
        let before = db.metrics();
        db.get("t", &PrimaryKey::hash_sort("a", 0i64), None)
            .unwrap();
        let d = db.metrics().delta(&before);
        assert_eq!(d.gets, 1);
        assert!(d.bytes_read > 0);
    }

    /// A started run record holds one call per op billed, with its key,
    /// condition outcome, rows and bytes; the calls' bytes are the
    /// counters'.
    #[test]
    fn the_run_record_holds_each_billed_call() {
        use beldi_simclock::EventKind;
        let db = db_with_table();
        let (k0, k1) = (
            PrimaryKey::hash_sort("a", 0i64),
            PrimaryKey::hash_sort("a", 1i64),
        );
        let before = db.metrics();
        db.telemetry().start_record(db.clock().clone());
        db.put("t", vmap! { "Key" => "a", "RowId" => 0i64, "V" => 1i64 })
            .unwrap();
        let never = Update::new().set("V", 2i64);
        assert!(db.update("t", &k1, &Cond::False, &never).is_err());
        db.delete("t", &k1, &Cond::True).unwrap();
        db.query("t", &Value::from("a"), &ScanRequest::all())
            .unwrap();
        let record = db.telemetry().take_record();
        let d = db.metrics().delta(&before);
        let calls: Vec<_> = record
            .iter()
            .map(|e| match &e.kind {
                EventKind::Store(c) => (c.kind, c.key.clone(), c.cond, c.rows),
                other => panic!("{other:?}"),
            })
            .collect();
        let key = |k: &dyn fmt::Display| Some(k.to_string());
        assert_eq!(
            calls,
            [
                (StoreKind::Write, key(&k0), None, 1),
                (StoreKind::Write, key(&k1), Some(false), 0),
                (StoreKind::Delete, key(&k1), None, 0),
                (StoreKind::Query, key(&Value::from("a")), None, 1),
            ]
        );
        assert_eq!(record.len() as u64, d.total_ops());
        let bytes: u64 = record
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Store(c) => Some(c.bytes),
                _ => None,
            })
            .sum();
        assert_eq!(bytes, d.bytes_read + d.bytes_written);
    }

    #[test]
    fn metrics_count_lock_acquisitions() {
        let db = db_with_table();
        db.create_table("u", TableSchema::hash_only("Id")).unwrap();
        assert_eq!(db.metrics().partition_ops, [0]);
        for i in 0..20i64 {
            db.put("t", vmap! { "Key" => format!("k{i}"), "RowId" => 0i64 })
                .unwrap();
        }
        assert_eq!(
            db.metrics().partition_ops,
            [20],
            "a put locks its table once"
        );
        db.transact_write(&[
            TransactOp::Put {
                table: "t".into(),
                item: vmap! { "Key" => "x", "RowId" => 0i64 },
                cond: Cond::True,
            },
            TransactOp::Put {
                table: "t".into(),
                item: vmap! { "Key" => "y", "RowId" => 0i64 },
                cond: Cond::True,
            },
            TransactOp::Put {
                table: "u".into(),
                item: vmap! { "Id" => "x" },
                cond: Cond::True,
            },
        ])
        .unwrap();
        assert_eq!(
            db.metrics().partition_ops,
            [22],
            "a transaction locks each table it touches once"
        );
    }

    /// A lock wait is a write that must start later than now because an
    /// earlier write to the same item still occupies it.
    #[test]
    fn lock_waits_count_writes_queued_behind_their_item() {
        use std::time::Duration;
        // Two clock participants, one write each, to the keys `pick` gives.
        let waits = |model: LatencyModel, pick: fn(usize) -> PrimaryKey| {
            let clock: SharedClock = beldi_simclock::SimClock::shared(1);
            let db = Database::new(clock.clone(), model, 0);
            db.create_table("t", TableSchema::hash_only("Id")).unwrap();
            let writers: Vec<_> = (0..2)
                .map(|w| {
                    let db = Arc::clone(&db);
                    let body = move || {
                        db.update("t", &pick(w), &Cond::True, &Update::new().inc("N", 1))
                            .unwrap();
                    };
                    clock.spawn(format!("writer-{w}"), Box::new(body))
                })
                .collect();
            for writer in writers {
                writer.join().expect("a writer panicked");
            }
            db.metrics().lock_waits
        };
        let model = LatencyModel {
            write_base: Duration::from_millis(20),
            ..LatencyModel::zero()
        };
        let hot = |_| PrimaryKey::hash("hot");
        assert_eq!(waits(model.clone(), hot), 1, "one item");
        let distinct = |w| PrimaryKey::hash(format!("k{w}"));
        assert_eq!(waits(model, distinct), 0, "distinct items");
        // With zero latency no write occupies its item.
        assert_eq!(waits(LatencyModel::zero(), hot), 0, "zero latency");
    }
}
