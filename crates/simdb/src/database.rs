//! The public [`Database`] API.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use beldi_simclock::{ScaledClock, SharedClock, SimInstant};
use beldi_value::{Cond, SizeOf, Update, Value};
use parking_lot::{Mutex, RwLock};

use crate::error::{DbError, DbResult};
use crate::key::{PrimaryKey, TableSchema};
use crate::latency::{LatencyModel, LatencySampler, OpKind};
use crate::metrics::{DbMetrics, MetricsSnapshot};
use crate::partition::{PartitionData, DEFAULT_PARTITIONS};
use crate::scan::{ScanCursor, ScanPage, ScanRequest};
use crate::table::{PartitionGuard, Table};

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
    /// Conditionally delete the row at `key`.
    Delete {
        /// Target table.
        table: String,
        /// Target row.
        key: PrimaryKey,
        /// Condition that must hold for the whole transaction to commit.
        cond: Cond,
    },
}

impl TransactOp {
    fn table(&self) -> &str {
        match self {
            TransactOp::Update { table, .. }
            | TransactOp::Put { table, .. }
            | TransactOp::Delete { table, .. } => table,
        }
    }

    fn cond(&self) -> &Cond {
        match self {
            TransactOp::Update { cond, .. }
            | TransactOp::Put { cond, .. }
            | TransactOp::Delete { cond, .. } => cond,
        }
    }
}

/// Evaluates a write condition against the stored row, or against an
/// empty item when the row is absent (so `not_exists(attr)` holds for
/// absent rows, matching DynamoDB).
fn cond_holds(cond: &Cond, row: Option<&Value>) -> DbResult<bool> {
    Ok(match row {
        Some(row) => cond.eval(row)?,
        None => cond.eval(&Value::Map(beldi_value::Map::new()))?,
    })
}

/// Entry-count threshold above which [`ItemWriteQueue`] drops entries
/// whose busy deadline has already passed.
const ITEM_QUEUE_PRUNE_LEN: usize = 4096;

/// Per-item write admission state: for each recently written item, the
/// virtual instant until which its write capacity is occupied.
///
/// Real DynamoDB serializes writes to a single item (the per-item
/// write-capacity limit that makes hot keys a throughput cliff — the
/// contention §2 of the paper designs the DAAL around), so modelled
/// write latencies against the *same* `(table, key)` must queue behind
/// each other rather than overlap. Writes to distinct items, and all
/// reads, still proceed fully in parallel.
#[derive(Default)]
struct ItemWriteQueue {
    /// table name → key → busy-until instant.
    busy: HashMap<String, HashMap<PrimaryKey, SimInstant>>,
    /// Total entries across all tables (prune trigger).
    entries: usize,
}

/// A simulated strongly consistent NoSQL database.
///
/// Tables are hash-partitioned: each row lives in the partition selected by
/// hashing its hash-key value, and each partition has its own lock. All
/// methods are safe to call from many threads; single-row conditional
/// updates are atomic and linearizable, and [`Database::transact_write`]
/// commits across partitions by acquiring exactly the partition locks its
/// ops touch, in a deterministic global order (no global transaction lock).
///
/// Modelled latency is charged *per operation* and overlaps freely across
/// threads, with one exception: writes to the same item serialize their
/// modelled latency (see [`ItemWriteQueue`]), reproducing DynamoDB's
/// hot-item write ceiling.
pub struct Database {
    tables: RwLock<HashMap<String, Arc<Table>>>,
    clock: SharedClock,
    sampler: LatencySampler,
    metrics: DbMetrics,
    item_writes: Mutex<ItemWriteQueue>,
    page_rows: usize,
    partitions: usize,
}

impl Database {
    /// Creates a database with the given clock and latency model and the
    /// default partition count ([`DEFAULT_PARTITIONS`]).
    pub fn new(clock: SharedClock, latency: LatencyModel, seed: u64) -> Arc<Self> {
        Database::with_partitions(clock, latency, seed, DEFAULT_PARTITIONS)
    }

    /// Creates a database whose tables are split into `partitions`
    /// independently locked hash partitions.
    pub fn with_partitions(
        clock: SharedClock,
        latency: LatencyModel,
        seed: u64,
        partitions: usize,
    ) -> Arc<Self> {
        assert!(partitions >= 1, "a database needs at least one partition");
        Arc::new(Database {
            tables: RwLock::new(HashMap::new()),
            clock,
            sampler: LatencySampler::new(latency, seed),
            metrics: DbMetrics::new(partitions),
            item_writes: Mutex::new(ItemWriteQueue::default()),
            page_rows: DEFAULT_PAGE_ROWS,
            partitions,
        })
    }

    /// Creates a zero-latency database on a real-time clock, for tests.
    pub fn for_tests() -> Arc<Self> {
        Database::new(ScaledClock::shared(1.0), LatencyModel::zero(), 0)
    }

    /// [`Database::for_tests`] with an explicit partition count.
    pub fn for_tests_with_partitions(partitions: usize) -> Arc<Self> {
        Database::with_partitions(
            ScaledClock::shared(1.0),
            LatencyModel::zero(),
            0,
            partitions,
        )
    }

    /// Returns the database clock.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// Returns the number of partitions per table.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Returns the live metrics counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Zeroes the metrics counters, returning the values swapped out —
    /// how harnesses open a clean measurement window after setup/seeding
    /// (see [`crate::DbMetrics::reset`] for the consistency contract).
    pub fn reset_metrics(&self) -> MetricsSnapshot {
        self.metrics.reset()
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
        let table = Table::new(&name, schema, self.partitions);
        tables.insert(name, Arc::new(table));
        Ok(())
    }

    /// Drops a table and all its rows.
    pub fn delete_table(&self, name: &str) -> DbResult<()> {
        self.tables
            .write()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| DbError::TableNotFound(name.to_owned()))
    }

    /// Returns the names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        #[expect(clippy::disallowed_methods, reason = "sorted on the next line")]
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    fn handle(&self, table: &str) -> DbResult<Arc<Table>> {
        self.tables
            .read()
            .get(table)
            .cloned()
            .ok_or_else(|| DbError::TableNotFound(table.to_owned()))
    }

    /// Locks one partition, recording the access (and any lock wait) in
    /// the metrics.
    fn lock_partition<'a>(&self, table: &'a Table, p: usize) -> PartitionGuard<'a> {
        let (guard, waited) = table.lock_partition(p);
        self.metrics.record_partition_access(p, waited);
        guard
    }

    /// Locks every partition in `set`, in its ascending `(table,
    /// partition)` order: a total order every transaction shares, so no
    /// two can deadlock. The one place a thread holds more than one
    /// partition (debug builds check the order, see `Table::lock_partition`).
    fn lock_sorted<'k, 't>(
        &self,
        handles: &'t HashMap<String, Arc<Table>>,
        set: &BTreeSet<(&'k str, usize)>,
    ) -> BTreeMap<(&'k str, usize), PartitionGuard<'t>> {
        let mut guards = BTreeMap::new();
        for &(table, part) in set {
            guards.insert((table, part), self.lock_partition(&handles[table], part));
        }
        guards
    }

    /// Sleeps one write's modelled latency `d`, serialized per item:
    /// concurrent writes to the same `(table, key)` queue behind each
    /// other (see [`ItemWriteQueue`]), writes to distinct items overlap.
    /// A multi-item write (transaction) starts after *every* involved
    /// item is free and occupies all of them until it completes.
    ///
    /// Zero-cost samples return immediately, so zero-latency test
    /// databases never touch (or populate) the queue. Sequential callers
    /// are also unaffected: a writer that slept through its own deadline
    /// always finds the item idle on its next write.
    fn serial_write_sleep(&self, items: &[(&str, &PrimaryKey)], d: std::time::Duration) {
        if d.is_zero() {
            return;
        }
        let deadline = {
            let mut queue = self.item_writes.lock();
            let now = self.clock.now();
            #[expect(
                clippy::disallowed_methods,
                clippy::iter_over_hash_type,
                reason = "each table is pruned on its own and the count is a sum: no order leaks"
            )]
            if queue.entries >= ITEM_QUEUE_PRUNE_LEN {
                for table in queue.busy.values_mut() {
                    table.retain(|_, busy| *busy > now);
                }
                queue.busy.retain(|_, table| !table.is_empty());
                queue.entries = queue.busy.values().map(HashMap::len).sum();
            }
            let start = items
                .iter()
                .filter_map(|(t, k)| queue.busy.get(*t).and_then(|m| m.get(*k)))
                .max()
                .map_or(now, |&busy| busy.max(now));
            let deadline = start.plus(d);
            for (t, k) in items {
                // Looked up before inserted: the table name and the key
                // are copied only the first time they are seen.
                if !queue.busy.contains_key(*t) {
                    queue.busy.insert((*t).to_owned(), HashMap::new());
                }
                let table = queue.busy.get_mut(*t).expect("just ensured");
                match table.get_mut(*k) {
                    Some(busy) => *busy = deadline,
                    None => {
                        table.insert((*k).clone(), deadline);
                        queue.entries += 1;
                    }
                }
            }
            deadline
        };
        self.clock.sleep_until(deadline);
    }

    /// Point read of a row, optionally projected.
    pub fn get(
        &self,
        table: &str,
        key: &PrimaryKey,
        projection: Option<&crate::scan::Projection>,
    ) -> DbResult<Option<Value>> {
        let t = self.handle(table)?;
        // Projected under the lock, off the stored row: what the
        // projection drops is never copied.
        let item = {
            let data = self.lock_partition(&t, t.route(&key.hash));
            data.rows.get(key).map(|row| match projection {
                Some(p) => p.apply(row),
                None => row.clone(),
            })
        };
        let bytes = item.as_ref().map(SizeOf::size_bytes).unwrap_or(0);
        self.metrics.record_op(OpKind::Get);
        self.metrics.record_read_bytes(bytes);
        self.clock.sleep(self.sampler.sample(OpKind::Get, 1, bytes));
        Ok(item)
    }

    /// Unconditional insert/replace of a full item.
    pub fn put(&self, table: &str, item: Value) -> DbResult<()> {
        let t = self.handle(table)?;
        let key = t.schema.key_of(&item)?;
        let size = {
            let mut data = self.lock_partition(&t, t.route(&key.hash));
            data.put_row(key.clone(), item, t.schema.max_row_bytes)?
        };
        self.metrics.record_op(OpKind::Write);
        self.metrics.record_written_bytes(size);
        self.serial_write_sleep(
            &[(table, &key)],
            self.sampler.sample(OpKind::Write, 1, size),
        );
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
        table: &str,
        key: &PrimaryKey,
        cond: &Cond,
        update: &Update,
    ) -> DbResult<()> {
        let t = self.handle(table)?;
        let result = {
            let mut data = self.lock_partition(&t, t.route(&key.hash));
            Self::apply_update(&mut data, &t.schema, key, cond, update)
        };
        match result {
            Ok(size) => {
                self.metrics.record_op(OpKind::Write);
                self.metrics.record_written_bytes(size);
                self.serial_write_sleep(
                    &[(table, key)],
                    self.sampler.sample(OpKind::Write, 1, size),
                );
                Ok(())
            }
            Err(DbError::ConditionFailed) => {
                self.metrics.record_op(OpKind::Write);
                self.metrics.record_cond_failure();
                // A failed conditional write still costs a round trip —
                // and still occupies the item's write capacity.
                self.serial_write_sleep(&[(table, key)], self.sampler.sample(OpKind::Write, 1, 0));
                Err(DbError::ConditionFailed)
            }
            Err(e) => Err(e),
        }
    }

    /// Applies a conditional update under a partition lock; returns the
    /// new row size. An existing row is updated where it is stored
    /// ([`PartitionData::update_row`]), never through a copy.
    ///
    /// An update that changes a key attribute, of the stored row or a fresh
    /// one, is refused ([`DbError::BadKey`]) and leaves the partition as it was.
    fn apply_update(
        data: &mut PartitionData,
        schema: &TableSchema,
        key: &PrimaryKey,
        cond: &Cond,
        update: &Update,
    ) -> DbResult<usize> {
        let existing = data.rows.get(key);
        if !cond_holds(cond, existing)? {
            return Err(DbError::ConditionFailed);
        }
        if existing.is_some() {
            return data.update_row(key, update, schema);
        }
        // Fresh row: seed it with the key attributes (the schema's names
        // and the key's values are shared handles, so this copies nothing).
        let mut m = beldi_value::Map::new();
        m.insert(schema.hash_attr.clone(), key.hash.clone());
        if let (Some(attr), Some(sort)) = (&schema.sort_attr, &key.sort) {
            m.insert(attr.clone(), sort.clone());
        }
        let mut new_row = Value::Map(m);
        update.apply(&mut new_row)?;
        schema.check_key(&new_row, key)?;
        data.put_row(key.clone(), new_row, schema.max_row_bytes)
    }

    /// Conditionally deletes a row.
    ///
    /// Deleting an absent row succeeds if the condition holds against the
    /// empty item (DynamoDB semantics).
    pub fn delete(&self, table: &str, key: &PrimaryKey, cond: &Cond) -> DbResult<()> {
        let t = self.handle(table)?;
        let result = {
            let mut data = self.lock_partition(&t, t.route(&key.hash));
            if !cond_holds(cond, data.rows.get(key))? {
                Err(DbError::ConditionFailed)
            } else {
                data.remove_row(key);
                Ok(())
            }
        };
        self.metrics.record_op(OpKind::Delete);
        if matches!(result, Err(DbError::ConditionFailed)) {
            self.metrics.record_cond_failure();
        }
        self.serial_write_sleep(&[(table, key)], self.sampler.sample(OpKind::Delete, 1, 0));
        result
    }

    /// Queries every row sharing a hash key, in sort-key order.
    ///
    /// All rows of one hash key live in a single partition, so the query
    /// locks exactly that partition — and only page by page
    /// (`DEFAULT_PAGE_ROWS` rows each), with the lock released between
    /// pages, so the result is **not** an atomic snapshot — exactly the
    /// behaviour Beldi's DAAL traversal must (and does) tolerate (§4.1).
    pub fn query(&self, table: &str, hash: &Value, req: &ScanRequest) -> DbResult<Vec<Value>> {
        let t = self.handle(table)?;
        let part = t.route(hash);
        let mut out = Vec::new();
        let mut resume: Option<PrimaryKey> = req.start_after.clone();
        loop {
            let mut page_rows = 0usize;
            let mut page_bytes = 0usize;
            let mut last: Option<PrimaryKey> = None;
            {
                let data = self.lock_partition(&t, part);
                let lo = match &resume {
                    Some(k) => std::ops::Bound::Excluded(k.clone()),
                    None => std::ops::Bound::Included(PrimaryKey {
                        hash: hash.clone(),
                        sort: None,
                    }),
                };
                for (k, row) in data.rows.range((lo, std::ops::Bound::Unbounded)) {
                    if &k.hash != hash {
                        break;
                    }
                    page_rows += 1;
                    last = Some(k.clone());
                    let keep = match &req.filter {
                        Some(f) => f.eval(row)?,
                        None => true,
                    };
                    if keep {
                        let item = match &req.projection {
                            Some(p) => p.apply(row),
                            None => row.clone(),
                        };
                        page_bytes += item.size_bytes();
                        out.push(item);
                        if let Some(limit) = req.limit {
                            if out.len() >= limit {
                                break;
                            }
                        }
                    }
                    if page_rows >= self.page_rows {
                        break;
                    }
                }
            }
            self.metrics.record_op(OpKind::Query);
            self.metrics.record_rows_scanned(page_rows);
            self.metrics.record_read_bytes(page_bytes);
            self.clock
                .sleep(self.sampler.sample(OpKind::Query, page_rows, page_bytes));
            if page_rows < self.page_rows {
                break;
            }
            if let Some(limit) = req.limit {
                if out.len() >= limit {
                    break;
                }
            }
            resume = last;
        }
        Ok(out)
    }

    /// Serves one page of a full-table scan.
    ///
    /// Partitions are visited in index order, each in key order; one page
    /// may span a partition boundary but never holds more than one
    /// partition lock at a time. Resume via [`ScanPage::cursor`].
    pub fn scan_page(&self, table: &str, req: &ScanRequest) -> DbResult<ScanPage> {
        let t = self.handle(table)?;
        let limit = req.limit.unwrap_or(self.page_rows).min(self.page_rows);
        let (mut part, mut after) = match &req.cursor {
            Some(c) => (c.partition, Some(c.key.clone())),
            None => (0, None),
        };
        let mut items = Vec::new();
        let mut cursor: Option<ScanCursor> = None;
        let mut rows_examined = 0usize;
        let mut bytes = 0usize;
        'partitions: while part < t.partition_count() {
            let data = self.lock_partition(&t, part);
            let lo = match after.take() {
                Some(k) => std::ops::Bound::Excluded(k),
                None => std::ops::Bound::Unbounded,
            };
            for (k, row) in data.rows.range((lo, std::ops::Bound::Unbounded)) {
                if items.len() >= limit || rows_examined >= self.page_rows {
                    // Page full with this row still unexamined: resume here.
                    break 'partitions;
                }
                rows_examined += 1;
                cursor = Some(ScanCursor {
                    partition: part,
                    key: k.clone(),
                });
                let keep = match &req.filter {
                    Some(f) => f.eval(row)?,
                    None => true,
                };
                if keep {
                    let item = match &req.projection {
                        Some(p) => p.apply(row),
                        None => row.clone(),
                    };
                    bytes += item.size_bytes();
                    items.push(item);
                }
            }
            drop(data);
            part += 1;
            if part >= t.partition_count() {
                // Walked every partition to its end: the scan is complete.
                cursor = None;
            }
        }
        self.metrics.record_op(OpKind::Scan);
        self.metrics.record_rows_scanned(rows_examined);
        self.metrics.record_read_bytes(bytes);
        self.clock
            .sleep(self.sampler.sample(OpKind::Scan, rows_examined, bytes));
        Ok(ScanPage { items, cursor })
    }

    /// Scans the whole table, following pages to completion.
    pub fn scan_all(&self, table: &str, req: &ScanRequest) -> DbResult<Vec<Value>> {
        let mut out = Vec::new();
        let mut page_req = req.clone();
        page_req.limit = None;
        loop {
            let page = self.scan_page(table, &page_req)?;
            out.extend(page.items);
            match page.cursor {
                Some(c) => page_req.cursor = Some(c),
                None => break,
            }
        }
        Ok(out)
    }

    /// Exact-match lookup through a secondary index, in key order (the
    /// per-partition index shards are merged on read).
    ///
    /// `req.filter` and `req.projection` apply as in [`Database::query`]
    /// — a `Key`-only projection is DynamoDB's `KEYS_ONLY` index read;
    /// the paging fields (`limit`, `start_after`, `cursor`) do not: an
    /// index read always runs to the end of its match list. It is billed
    /// the way `query` is, one `Query` op per `page_rows` index entries
    /// examined, and a page that comes back full is followed by one more
    /// (the reader cannot know the list ended there), so a read of fewer
    /// than `page_rows` entries is one op whatever it returns.
    pub fn index_query(
        &self,
        table: &str,
        attr: &str,
        value: &Value,
        req: &ScanRequest,
    ) -> DbResult<Vec<Value>> {
        let t = self.handle(table)?;
        // Every index entry examined, with the item it yields (`None`
        // when the filter rejects the row).
        let mut entries: Vec<(PrimaryKey, Option<Value>)> = Vec::new();
        for part in 0..t.partition_count() {
            let data = self.lock_partition(&t, part);
            for k in data.index_lookup(attr, value)? {
                let Some(row) = data.rows.get(&k) else {
                    continue;
                };
                let keep = match &req.filter {
                    Some(f) => f.eval(row)?,
                    None => true,
                };
                let item = keep.then(|| match &req.projection {
                    Some(p) => p.apply(row),
                    None => row.clone(),
                });
                entries.push((k, item));
            }
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut items = Vec::with_capacity(entries.len());
        let mut entries = entries.into_iter();
        loop {
            let mut page_rows = 0usize;
            let mut page_bytes = 0usize;
            for (_, item) in entries.by_ref().take(self.page_rows) {
                page_rows += 1;
                if let Some(item) = item {
                    page_bytes += item.size_bytes();
                    items.push(item);
                }
            }
            self.metrics.record_op(OpKind::Query);
            self.metrics.record_rows_scanned(page_rows);
            self.metrics.record_read_bytes(page_bytes);
            self.clock
                .sleep(self.sampler.sample(OpKind::Query, page_rows, page_bytes));
            if page_rows < self.page_rows {
                break;
            }
        }
        Ok(items)
    }

    /// Returns the distinct hash-key values of a table, sorted (the GC's
    /// shadow-table walk and verification walks; per-partition listings
    /// are merged on read).
    pub fn distinct_hash_keys(&self, table: &str) -> DbResult<Vec<Value>> {
        let t = self.handle(table)?;
        let mut keys: Vec<Value> = Vec::new();
        for part in 0..t.partition_count() {
            let data = self.lock_partition(&t, part);
            keys.extend(data.distinct_hash_keys());
        }
        keys.sort();
        keys.dedup();
        self.metrics.record_op(OpKind::Scan);
        self.metrics.record_rows_scanned(keys.len());
        self.clock
            .sleep(self.sampler.sample(OpKind::Scan, keys.len(), 0));
        Ok(keys)
    }

    /// The number of rows currently stored in a table.
    ///
    /// Out-of-band observability (storage-growth tracking for the
    /// workload driver and GC experiments): it sums the partition map
    /// sizes directly, bypassing the latency model and the operation
    /// metrics, and is not atomic across partitions — a concurrent
    /// writer may be counted in one partition and not yet in another.
    pub fn row_count(&self, table: &str) -> DbResult<usize> {
        let t = self.handle(table)?;
        let mut rows = 0;
        for p in 0..t.partition_count() {
            let (data, _) = t.lock_partition(p);
            rows += data.rows.len();
        }
        Ok(rows)
    }

    /// Per-table row counts for every table, sorted by name (see
    /// [`Database::row_count`] for the consistency caveats).
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
    /// Rows are collected per table in primary-key order, so the result is
    /// independent of the partition count and of partition visit order —
    /// two databases holding the same logical rows snapshot identically.
    /// This is out-of-band verification tooling: it bypasses the latency
    /// model and the operation metrics, and it is not atomic across
    /// partitions (snapshot a quiescent database).
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
            let mut rows = BTreeMap::new();
            for p in 0..t.partition_count() {
                let (data, _) = t.lock_partition(p);
                for (k, v) in &data.rows {
                    rows.insert(k.clone(), v.clone());
                }
            }
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
    /// There is no global transaction lock: the transaction determines the
    /// `(table, partition)` pairs its ops touch, acquires exactly those
    /// partition locks in ascending `(table, partition)` order — a total
    /// order shared by every transaction, so lock acquisition cannot
    /// deadlock — validates every condition, and applies all ops while
    /// still holding the locks. Transactions touching disjoint partitions
    /// proceed fully in parallel.
    ///
    /// # Errors
    ///
    /// - [`DbError::DuplicateTransactionItem`] when two ops target the
    ///   same row (DynamoDB's restriction — and a semantic necessity here,
    ///   since conditions are validated against the pre-state only).
    pub fn transact_write(&self, ops: &[TransactOp]) -> DbResult<()> {
        // Resolve handles first so TableNotFound beats TransactionCanceled,
        // then extract per-op keys (Puts derive theirs from the schema,
        // which lives outside the partition locks) and the lock set.
        let mut handles: HashMap<String, Arc<Table>> = HashMap::new();
        for op in ops {
            if !handles.contains_key(op.table()) {
                handles.insert(op.table().to_owned(), self.handle(op.table())?);
            }
        }
        let mut op_keys: Vec<(PrimaryKey, usize)> = Vec::with_capacity(ops.len());
        let mut lock_set: BTreeSet<(&str, usize)> = BTreeSet::new();
        let mut seen_rows: BTreeSet<(&str, PrimaryKey)> = BTreeSet::new();
        for op in ops {
            let t = &handles[op.table()];
            let key = match op {
                TransactOp::Update { key, .. } | TransactOp::Delete { key, .. } => key.clone(),
                TransactOp::Put { item, .. } => t.schema.key_of(item)?,
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
            let part = t.route(&key.hash);
            lock_set.insert((op.table(), part));
            op_keys.push((key, part));
        }

        let mut guards = self.lock_sorted(&handles, &lock_set);

        // Validate every condition against the pre-state. All touched
        // partitions are locked, so this is one atomic validation point —
        // no re-check or rollback dance against racing single-row writers.
        for (i, op) in ops.iter().enumerate() {
            let (key, part) = &op_keys[i];
            let data = &guards[&(op.table(), *part)];
            if !cond_holds(op.cond(), data.rows.get(key))? {
                drop(guards);
                self.metrics.record_op(OpKind::TransactWrite);
                self.metrics.record_cond_failure();
                let items: Vec<(&str, &PrimaryKey)> = ops
                    .iter()
                    .zip(&op_keys)
                    .map(|(op, (key, _))| (op.table(), key))
                    .collect();
                self.serial_write_sleep(
                    &items,
                    self.sampler.sample(OpKind::TransactWrite, ops.len(), 0),
                );
                return Err(DbError::TransactionCanceled { failed_op: i });
            }
        }

        // Apply. Structural failures (e.g. a row outgrowing the size cap)
        // roll the already-applied ops back under the still-held locks, so
        // even the failure path is atomic.
        let mut applied: Vec<(usize, PrimaryKey, usize, Option<Value>)> = Vec::new();
        let mut bytes = 0usize;
        for (i, op) in ops.iter().enumerate() {
            let (key, part) = &op_keys[i];
            let t = &handles[op.table()];
            let data = guards
                .get_mut(&(op.table(), *part))
                .expect("partition locked above");
            let prior = data.rows.get(key).cloned();
            let result = match op {
                TransactOp::Update { update, .. } => {
                    Self::apply_update(data, &t.schema, key, &Cond::True, update)
                }
                TransactOp::Put { item, .. } => {
                    data.put_row(key.clone(), item.clone(), t.schema.max_row_bytes)
                }
                TransactOp::Delete { .. } => {
                    data.remove_row(key);
                    Ok(0)
                }
            };
            match result {
                Ok(n) => {
                    bytes += n;
                    applied.push((i, key.clone(), *part, prior));
                }
                Err(e) => {
                    for (j, key, part, prior) in applied.iter().rev() {
                        let t = &handles[ops[*j].table()];
                        let data = guards
                            .get_mut(&(ops[*j].table(), *part))
                            .expect("partition locked above");
                        match prior {
                            // Restoring a row that previously fit cannot
                            // overflow.
                            Some(row) => {
                                let _ =
                                    data.put_row(key.clone(), row.clone(), t.schema.max_row_bytes);
                            }
                            None => {
                                data.remove_row(key);
                            }
                        }
                    }
                    return Err(e);
                }
            }
        }
        drop(guards);
        self.metrics.record_op(OpKind::TransactWrite);
        self.metrics.record_written_bytes(bytes);
        let items: Vec<(&str, &PrimaryKey)> = ops
            .iter()
            .zip(&op_keys)
            .map(|(op, (key, _))| (op.table(), key))
            .collect();
        self.serial_write_sleep(
            &items,
            self.sampler.sample(OpKind::TransactWrite, ops.len(), bytes),
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::Projection;
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
        let db = Database::with_partitions(clock.clone(), model, 0, 8);
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
    fn query_with_filter_and_projection() {
        let db = db_with_table();
        for i in 0..10i64 {
            db.put(
                "t",
                vmap! { "Key" => "a", "RowId" => i, "V" => i, "Junk" => "x".repeat(50) },
            )
            .unwrap();
        }
        let req = ScanRequest::all()
            .with_filter(Cond::ge("V", 7i64))
            .with_projection(Projection::attrs(["RowId"]));
        let rows = db.query("t", &Value::from("a"), &req).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.get_attr("Junk").is_none()));
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

    #[test]
    fn scan_page_resumption() {
        let db = db_with_table();
        for i in 0..10i64 {
            db.put("t", vmap! { "Key" => format!("k{i}"), "RowId" => 0i64 })
                .unwrap();
        }
        let page1 = db
            .scan_page("t", &ScanRequest::all().with_limit(4))
            .unwrap();
        assert_eq!(page1.items.len(), 4);
        let page2 = db
            .scan_page(
                "t",
                &ScanRequest::all()
                    .with_limit(100)
                    .with_cursor(page1.cursor.unwrap()),
            )
            .unwrap();
        assert_eq!(page2.items.len(), 6);
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
    fn index_query_filters_then_projects_like_query() {
        let db = tagged_db(10);
        let req = ScanRequest::all()
            .with_filter(Cond::ge("V", 7i64))
            .with_projection(Projection::attrs(["Id"]));
        let before = db.metrics();
        let rows = db
            .index_query("ix", "Tag", &Value::from("hit"), &req)
            .unwrap();
        let d = db.metrics().delta(&before);
        // The filter sees the whole row (`V` is not projected); rejected
        // entries are examined but not returned or charged bytes.
        let ids: Vec<&str> = rows.iter().map(|r| r.get_str("Id").unwrap()).collect();
        assert_eq!(ids, ["m007", "m008", "m009"]);
        assert!(rows.iter().all(|r| r.get_attr("V").is_none()));
        assert_eq!(d.rows_scanned, 10);
        assert_eq!(
            d.bytes_read,
            3 * vmap! { "Id" => "m007" }.size_bytes() as u64
        );
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
        // back under the still-held partition locks.
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
    fn transact_write_with_multiple_ops_in_one_partition() {
        // P = 1 forces every op into the same partition: the lock set must
        // deduplicate rather than self-deadlock.
        let db = Database::for_tests_with_partitions(1);
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
    fn create_table_twice_fails_and_delete_works() {
        let db = db_with_table();
        assert!(matches!(
            db.create_table("t", TableSchema::hash_only("Id")),
            Err(DbError::TableExists(_))
        ));
        db.delete_table("t").unwrap();
        assert!(matches!(
            db.delete_table("t"),
            Err(DbError::TableNotFound(_))
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

    #[test]
    fn metrics_track_partition_accesses() {
        let db = db_with_table();
        assert_eq!(db.metrics().partition_ops.len(), db.partitions());
        for i in 0..20i64 {
            db.put("t", vmap! { "Key" => format!("k{i}"), "RowId" => 0i64 })
                .unwrap();
        }
        let s = db.metrics();
        assert_eq!(
            s.partition_ops.iter().sum::<u64>(),
            20,
            "each put locks exactly one partition"
        );
        assert!(
            s.partition_ops.iter().filter(|&&n| n > 0).count() > 1,
            "uniform keys should spread over partitions: {:?}",
            s.partition_ops
        );
    }
}
