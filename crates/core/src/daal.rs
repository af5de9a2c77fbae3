//! The linked DAAL (§4.1): a non-blocking linked list of database rows.
//!
//! Olive's DAAL collocates an item's value and its operation log inside one
//! atomicity scope, but assumes that scope is large (a Cosmos DB partition).
//! DynamoDB's scope is a single 400 KB row, so Beldi generalizes the DAAL
//! to a *linked list of rows*: every row carries the item's key, a value,
//! lock metadata, a bounded write log (`RecentWrites`, at most `N` entries),
//! and a `NextRow` pointer. The tail holds the current value; full rows are
//! immutable except for their `NextRow` pointer and GC metadata.
//!
//! This module implements:
//!
//! - **traversal** by a single scan + projection (the paper's optimization
//!   that downloads only row ids, pointers, and the one interesting log
//!   entry instead of whole rows);
//! - the **write protocol** of Figs. 6–7 (cases A–D) and its conditional
//!   variant of Figs. 17–18 (cases A, B1, B2, C, D), generalized so the
//!   same lock-free loop also serves lock acquisition and release (§6.1),
//!   which the paper describes as "writes to the item" that update the
//!   lock-owner column instead of the value;
//! - **row appending** (case D), which copies the current value and lock
//!   owner into a fresh row before linking it, so concurrent readers never
//!   observe a tail without a value.
//!
//! Functions here take a [`DaalParams`] handle instead of a full
//! [`crate::SsfContext`] so they can be unit-tested against a bare
//! database. An item key, a row id and a log key are shared strings: the
//! one a caller passes in, or the one a scan returned, is the one every
//! row key, path and cache entry below holds.

use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use beldi_simdb::{Database, DbError, PrimaryKey, Projection, ScanRequest};
use beldi_value::{Cond, Path, Update, Value};
use parking_lot::Mutex;

use crate::error::{BeldiError, BeldiResult};
use crate::schema::{
    A_APPENDED, A_CREATED, A_DANGLE, A_KEY, A_LOCK, A_LOG_SIZE, A_NEXT_ROW, A_ROW_ID, A_VALUE,
    A_WRITES, ROW_HEAD,
};
use crate::Label;

/// Attributes carried over from a full tail to a freshly appended row.
///
/// `Value` and `LockOwner` are the paper's columns (Fig. 4); the remainder
/// are shadow-table metadata (§6.2) that must follow the tail as well —
/// `TxnId` puts every row of a shadow chain in the index whose answer
/// finalize walks to the tail.
const CARRY_ATTRS: [&str; 6] = [
    A_VALUE,
    A_LOCK,
    crate::schema::A_TXN_ID,
    crate::schema::A_ORIG_KEY,
    crate::schema::A_ORIG_TABLE,
    crate::schema::A_WRITTEN,
];

/// Everything a DAAL operation needs from its caller.
pub(crate) struct DaalParams<'a> {
    /// The backing database.
    pub db: &'a Database,
    /// Maximum write-log entries per row (the paper's `N`).
    pub capacity: usize,
    /// Current virtual time in milliseconds (stamped on created rows so
    /// the GC can age orphans).
    pub now_ms: u64,
    /// Crash-point hook; called with a label before/after every externally
    /// visible effect. Panics (with a `CrashSignal`) to model a crash.
    pub crash: &'a dyn Fn(Label),
    /// Fresh unique row-id generator (never returns `HEAD`).
    pub new_row_id: &'a dyn Fn() -> Arc<str>,
}

/// One row of the locally reconstructed DAAL skeleton.
#[derive(Debug, Clone)]
pub(crate) struct SkelRow {
    /// The row id.
    pub row_id: Arc<str>,
    /// `NextRow` pointer, if any.
    pub next: Option<Arc<str>>,
    /// The projected `RecentWrites.{log_key}` flag, if the scan requested
    /// one and this row has it.
    pub logged: Option<Value>,
}

/// A locally reconstructed DAAL for one key: the chain of rows reachable
/// from `HEAD`, in order. Orphaned rows returned by the scan are dropped
/// during reconstruction, exactly as §4.1 prescribes.
#[derive(Debug, Clone, Default)]
pub(crate) struct Skeleton {
    /// Chain rows, head first. Empty when the DAAL does not exist yet.
    pub chain: Vec<SkelRow>,
}

impl Skeleton {
    /// Row id of the tail (the last reachable row).
    pub fn tail_row_id(&self) -> Option<&Arc<str>> {
        self.chain.last().map(|r| &r.row_id)
    }

    /// The logged flag for the scanned log key, searching every chain row
    /// (a write may have landed in a row that filled up afterwards).
    pub fn logged_flag(&self) -> Option<&Value> {
        self.chain.iter().find_map(|r| r.logged.as_ref())
    }
}

/// Scans every row of `key`'s DAAL and reconstructs the chain locally.
///
/// Issues one projected query per the paper's traversal optimization: only
/// `RowId`, `NextRow` (256 bits per row), and — when `log_key` is given —
/// the single `RecentWrites.{log_key}` entry are downloaded.
///
/// The scan is not atomic across rows, but because rows are append-only
/// (a full row's `NextRow` never changes once set, and values of non-tail
/// rows are immutable), the chain from `HEAD` to the first missing
/// `NextRow` is a consistent snapshot (§4.1).
pub(crate) fn traverse(
    db: &Database,
    table: &str,
    key: &Arc<str>,
    log_key: Option<&Arc<str>>,
) -> BeldiResult<Skeleton> {
    let mut proj = Projection::attrs([A_ROW_ID, A_NEXT_ROW]);
    if let Some(lk) = log_key {
        proj = proj.with_path(Path::attr(A_WRITES).then_attr(lk.clone()));
    }
    let req = ScanRequest::all().with_projection(proj);
    let rows = db.query(table, &Value::from(key), &req)?;

    // The projected rows are ours: their row ids move into the skeleton,
    // still the strings the store holds.
    let mut skel: Vec<SkelRow> = Vec::with_capacity(rows.len());
    for mut row in rows {
        let Some(row_id) = row.take_str(A_ROW_ID) else {
            continue;
        };
        let logged = log_key.and_then(|lk| row.take_attr(A_WRITES)?.take_attr(lk));
        skel.push(SkelRow {
            row_id,
            next: row.take_str(A_NEXT_ROW),
            logged,
        });
    }
    let order = chain_order(&mut skel, |r| &r.row_id, |r| r.next.as_deref(), table, key)?;
    let chain = order.into_iter().map(|i| skel[i].clone()).collect();
    Ok(Skeleton { chain })
}

/// Orders one key's DAAL rows, as a query or index query returned them,
/// into the chain reachable from `HEAD`: the positions in `rows` of the
/// chain's rows, head first. Rows off the chain — orphans of lost or
/// crashed appends — are left out. `rows` is sorted by row id on the way.
pub(crate) fn chain_order<R>(
    rows: &mut [R],
    row_id: impl Fn(&R) -> &str,
    next: impl Fn(&R) -> Option<&str>,
    table: &str,
    key: &str,
) -> BeldiResult<Vec<usize>> {
    // A query answers in sort-key order, which is row-id order, so a
    // pointer is resolved by binary search (the sort is a no-op pass
    // unless a row's `RowId` attribute disagrees with its key).
    rows.sort_unstable_by(|a, b| row_id(a).cmp(row_id(b)));
    let rows = &*rows;
    let find = |id: &str| rows.binary_search_by(|r| row_id(r).cmp(id)).ok();

    // Walk the pointers from HEAD.
    let mut order = Vec::with_capacity(rows.len());
    let mut cursor = find(ROW_HEAD);
    while let Some(i) = cursor {
        // Defensive bound: the chain cannot be longer than the answer.
        if order.len() == rows.len() {
            return Err(BeldiError::Protocol(format!(
                "linked DAAL for {table}/{key} contains a cycle"
            )));
        }
        order.push(i);
        // A pointer to a row the answer does not hold: the append that
        // created it had not completed when the read started. Its
        // predecessor still holds the current value, so it is the tail
        // of our consistent snapshot.
        cursor = next(&rows[i]).and_then(find);
    }
    Ok(order)
}

/// Reads the tail row of `key`'s DAAL through `proj`, or `None` when the
/// key has never been written. What `proj` leaves out — the write log
/// above all — stays in the store.
///
/// This is the first half of the paper's `read` wrapper (Fig. 5): traverse
/// to the tail via scan + projection, then point-read the tail row.
pub(crate) fn read_tail_row(
    db: &Database,
    table: &str,
    key: &Arc<str>,
    proj: &Projection,
) -> BeldiResult<Option<Value>> {
    let skel = traverse(db, table, key, None)?;
    let Some(tail) = skel.tail_row_id() else {
        return Ok(None);
    };
    let pk = PrimaryKey::hash_sort(key, tail);
    Ok(db.get(table, &pk, Some(proj))?)
}

/// Number of independently locked [`TailCache`] shards.
const TAIL_CACHE_SHARDS: usize = 16;

/// A shared cache of the last known tail row id per `(table, key)` — the
/// hot-path optimization behind [`crate::BeldiConfig::daal_tail_cache`].
///
/// Every Beldi read traverses the key's DAAL (a projected scan) just to
/// locate the tail before point-reading it. Under steady load the tail
/// moves only when a row fills up (every `N` writes), so the scan almost
/// always rediscovers the row it found last time. The cache remembers
/// that row id; a read validates a hit with the point read it had to issue
/// anyway:
///
/// - the row is **present** and has **no `NextRow`** ⇒ it is the current
///   tail (see the safety argument below) and its `Value` is returned —
///   the traversal scan is skipped entirely;
/// - otherwise the entry is dropped and the read falls back to the full
///   traversal, which refreshes the entry.
///
/// # Why a validated hit is sound
///
/// Chain rows move through a one-way lifecycle: created unlinked → linked
/// as tail → `NextRow` set (now interior, immutable) → possibly
/// disconnected by the GC (interior rows only) → deleted. A row that was
/// *ever* the reachable tail and still has no `NextRow` is still the
/// reachable tail: appends only set `NextRow` on the old tail, the GC
/// unlinks only interior rows (which have `NextRow`) and never deletes
/// the head or a reachable row, so no step can make a tail unreachable
/// without first giving it a successor. Entries only enter the cache from
/// a completed traversal (reachable tails by construction), hence a
/// validated hit reads exactly the row a fresh traversal would have
/// found. Shadow tables are *not* cached: finished shadow chains are
/// deleted wholesale, tail included, and their reads happen on the cold
/// transaction-recovery path anyway.
///
/// The cache is deliberately never authoritative — dropping any entry at
/// any time is correct — so sizing and invalidation need no precision.
/// That same property makes the **capacity bound** trivial to enforce:
/// each shard holds at most `capacity_per_shard` entries, and an insert
/// into a full shard evicts one arbitrary resident entry first (O(1);
/// an evicted key simply pays one traversal on its next read). Without
/// the bound, production key cardinality — millions of users — would
/// grow the map monotonically for the life of the process.
pub(crate) struct TailCache {
    shards: Vec<Mutex<TailShard>>,
    capacity_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// One shard: table → key → tail row id. Two levels, so that a probe
/// with a `(&str, &str)` builds no owned key; the key and the row id are
/// the shared strings the read already held.
#[derive(Default)]
struct TailShard {
    tables: BTreeMap<String, TailKeys>,
    /// Entries across all tables.
    len: usize,
}

/// A table's cached tails. FNV-hashed, so the order the map keeps — and
/// so which entry a full shard evicts — is a function of the `put`s, the
/// same in every process.
type TailKeys = HashMap<Arc<str>, Arc<str>, BuildHasherDefault<beldi_value::Fnv1a>>;

/// Total capacity of the DAAL tail cache (entries across all shards).
/// An entry is a `(table, key) → row id` triple of short strings, so
/// this bounds the cache to a few megabytes while comfortably holding
/// benchmark-scale working sets.
const TAIL_CACHE_CAPACITY: usize = 65_536;

impl TailCache {
    /// Creates an empty cache of [`TAIL_CACHE_CAPACITY`] entries.
    pub fn new() -> Self {
        TailCache::with_capacity(TAIL_CACHE_CAPACITY)
    }

    /// Creates an empty cache holding at most `capacity` entries in
    /// total (split evenly across shards, at least one per shard).
    fn with_capacity(capacity: usize) -> Self {
        TailCache {
            shards: (0..TAIL_CACHE_SHARDS)
                .map(|_| Mutex::new(TailShard::default()))
                .collect(),
            capacity_per_shard: (capacity / TAIL_CACHE_SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// FNV-1a shard routing over table and key.
    fn shard(&self, table: &str, key: &str) -> &Mutex<TailShard> {
        use std::hash::Hasher;
        let mut h = beldi_value::Fnv1a::new();
        h.write(table.as_bytes());
        h.write(key.as_bytes());
        &self.shards[(h.finish() as usize) % TAIL_CACHE_SHARDS]
    }

    fn get(&self, table: &str, key: &str) -> Option<Arc<str>> {
        let shard = self.shard(table, key).lock();
        shard.tables.get(table)?.get(key).cloned()
    }

    fn put(&self, table: &str, key: &Arc<str>, row_id: &Arc<str>) {
        let mut shard = self.shard(table, key).lock();
        if let Some(cached) = shard.tables.get_mut(table).and_then(|t| t.get_mut(&**key)) {
            cached.clone_from(row_id);
            return;
        }
        if shard.len >= self.capacity_per_shard {
            // Evict an arbitrary resident of the fullest table. Any choice
            // is sound (the cache is validated at use); arbitrary needs no
            // recency bookkeeping on the hit path.
            let fullest = shard.tables.values_mut().max_by_key(|keys| keys.len());
            if let Some(keys) = fullest {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "an FNV-hashed map: its first key is a function of the puts"
                )]
                if let Some(victim) = keys.keys().next().cloned() {
                    keys.remove(&victim);
                    shard.len -= 1;
                }
            }
        }
        if !shard.tables.contains_key(table) {
            shard.tables.insert(table.to_owned(), TailKeys::default());
        }
        let keys = shard.tables.get_mut(table).expect("just ensured");
        keys.insert(key.clone(), row_id.clone());
        shard.len += 1;
    }

    fn invalidate(&self, table: &str, key: &str) {
        let mut shard = self.shard(table, key).lock();
        if let Some(keys) = shard.tables.get_mut(table) {
            if keys.remove(key).is_some() {
                shard.len -= 1;
            }
        }
    }

    /// Resident entries across all shards.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len).sum()
    }

    /// `(validated hits, misses)` since creation. A hit is a cached row
    /// id whose point read confirmed it is still the tail; everything
    /// else — absent entry or failed validation — is a miss.
    #[cfg(test)]
    fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// The current value of `key` — [`read_value`] — with an optional
/// [`TailCache`]: one point get on a validated hit, scan + get (and a
/// refreshed entry) otherwise. Absent keys and value-less tails read as
/// `Null`.
///
/// The validating get asks for `Value` and `NextRow` only: the row's
/// write log — up to `N` entries — stays in the store.
pub(crate) fn read_value_cached(
    db: &Database,
    cache: Option<&TailCache>,
    table: &str,
    key: &Arc<str>,
) -> BeldiResult<Value> {
    if let Some(cache) = cache {
        if let Some(row_id) = cache.get(table, key) {
            let pk = PrimaryKey::hash_sort(key, row_id);
            let tail_probe = Projection::attrs([A_VALUE, A_NEXT_ROW]);
            match db.get(table, &pk, Some(&tail_probe))? {
                // Present (with or without a value) and no successor.
                Some(mut row) if row.get_str(A_NEXT_ROW).is_none() => {
                    cache.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(row.take_attr(A_VALUE).unwrap_or(Value::Null));
                }
                // The cached row filled up (has a successor) or was
                // GC-deleted: stale entry, take the slow path.
                _ => cache.invalidate(table, key),
            }
        }
        cache.misses.fetch_add(1, Ordering::Relaxed);
    }
    let skel = traverse(db, table, key, None)?;
    let Some(tail) = skel.tail_row_id() else {
        return Ok(Value::Null);
    };
    if let Some(cache) = cache {
        cache.put(table, key, tail);
    }
    let pk = PrimaryKey::hash_sort(key, tail);
    // A whole row shares its map with the stored one: read, don't take.
    let row = db.get(table, &pk, None)?;
    Ok(row
        .and_then(|row| row.get_attr(A_VALUE).cloned())
        .unwrap_or(Value::Null))
}

/// The current value of `key`, i.e. the `Value` column of its tail row.
///
/// Absent keys and keys whose tail carries no value read as `Null`.
pub(crate) fn read_value(db: &Database, table: &str, key: &Arc<str>) -> BeldiResult<Value> {
    read_value_cached(db, None, table, key)
}

/// What a successful DAAL write applies to the target row, beyond logging.
///
/// The same lock-free loop serves plain writes (set `Value`), lock
/// operations (set `LockOwner`), and shadow-table writes (set `Value` plus
/// shadow metadata), so the payload is an arbitrary update fragment.
#[derive(Debug, Clone)]
pub(crate) struct WritePayload {
    /// Update actions applied on success (e.g. `SET Value = v`).
    pub apply: Update,
}

#[cfg_attr(
    not(test),
    allow(dead_code, reason = "constructors exercised by unit tests")
)]
impl WritePayload {
    /// Payload of a plain value write.
    pub fn set_value(value: Value) -> Self {
        WritePayload {
            apply: Update::new().set(A_VALUE, value),
        }
    }

    /// Payload that sets the lock owner (see [`crate::SsfContext::lock`]).
    pub fn set_lock(owner: Value) -> Self {
        WritePayload {
            apply: Update::new().set(A_LOCK, owner),
        }
    }
}

/// Outcome of [`try_write`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteOutcome {
    /// The payload was applied (now, or by a previous execution of the
    /// same step).
    Applied,
    /// The user condition evaluated to false (now, or previously); the
    /// payload was not applied but the outcome was logged.
    ConditionFalse,
}

impl WriteOutcome {
    /// The boolean the paper's `condWrite` returns.
    pub fn as_bool(self) -> bool {
        matches!(self, WriteOutcome::Applied)
    }

    /// Decodes a `RecentWrites` flag back into an outcome.
    fn from_flag(flag: &Value) -> Self {
        match flag {
            // Plain writes log `true` (Fig. 3); conditional writes log the
            // condition outcome.
            Value::Bool(false) => WriteOutcome::ConditionFalse,
            _ => WriteOutcome::Applied,
        }
    }
}

/// Executes one exactly-once DAAL write step (Figs. 6/7 and 17/18).
///
/// Scans the DAAL for a prior record of `log_key` (case A anywhere in the
/// chain), then runs the lock-free tail protocol: attempt the conditional
/// update at the tail candidate (case B, split into B1/B2 when `user_cond`
/// is present), re-read on failure and dispatch to case A (already done),
/// C (follow `NextRow`), or D (append a fresh row and advance).
///
/// `user_cond` is evaluated *inside the database's atomicity scope* against
/// the tail row, so callers may gate on `Value` or `LockOwner` paths.
///
/// Returns whether the payload was applied. Exactly-once: re-executions
/// find the logged flag and return the original outcome without touching
/// the row again.
pub(crate) fn try_write(
    p: &DaalParams<'_>,
    table: &str,
    key: &Arc<str>,
    log_key: &Arc<str>,
    payload: WritePayload,
    user_cond: Option<&Cond>,
) -> BeldiResult<WriteOutcome> {
    (p.crash)(Label::DaalWriteEnter);
    // What case B applies: the payload, then the log entry. Built once,
    // around the payload itself, however often the loop retries.
    let apply = log_actions(p, log_key, true, payload.apply);
    // Bound the retry loop defensively; every iteration either makes
    // progress along the chain or observes a concurrent writer's progress,
    // so this bound is never hit in practice.
    for _ in 0..MAX_WRITE_ROUNDS {
        let skel = traverse(p.db, table, key, Some(log_key))?;
        if let Some(flag) = skel.logged_flag() {
            // Case A (found during the scan): the operation already
            // executed in some chain row; replay its outcome.
            return Ok(WriteOutcome::from_flag(flag));
        }
        // Fresh DAALs start at HEAD (the conditional update creates it).
        let start = skel
            .tail_row_id()
            .cloned()
            .unwrap_or_else(|| ROW_HEAD.into());
        match write_at(p, table, key, start, log_key, &apply, user_cond)? {
            Some(outcome) => return Ok(outcome),
            // The local view went stale (e.g. the GC deleted the candidate
            // row under us); rebuild it and retry.
            None => continue,
        }
    }
    Err(BeldiError::Protocol(format!(
        "DAAL write on {table}/{key} did not converge"
    )))
}

const MAX_WRITE_ROUNDS: usize = 64;
/// Bound on tail-chasing within one scan round. Concurrent writers can
/// legitimately extend the chain a handful of rows while we chase; a long
/// chase simply re-scans.
const MAX_CHASE: usize = 128;

/// The condition of case B / B1: this step is not yet logged in the row,
/// the log has room, and the row is still the tail.
fn case_b_cond(p: &DaalParams<'_>, log_key: &Arc<str>) -> Cond {
    Cond::not_exists(Path::attr(A_WRITES).then_attr(log_key.clone()))
        .and(Cond::not_exists(A_LOG_SIZE).or(Cond::lt(A_LOG_SIZE, Value::Int(p.capacity as i64))))
        .and(Cond::not_exists(A_NEXT_ROW))
}

/// Appends to `update` the bookkeeping every successful log append
/// performs.
fn log_actions(p: &DaalParams<'_>, log_key: &Arc<str>, flag: bool, update: Update) -> Update {
    update
        .inc(A_LOG_SIZE, 1)
        .set(
            Path::attr(A_WRITES).then_attr(log_key.clone()),
            Value::Bool(flag),
        )
        .set_if_absent(A_CREATED, Value::Int(p.now_ms as i64))
}

/// Runs the tail protocol starting from row `row_id`.
///
/// Returns `Ok(Some(outcome))` when the step resolved, and `Ok(None)` when
/// the local view proved stale and the caller should re-scan.
fn write_at(
    p: &DaalParams<'_>,
    table: &str,
    key: &Arc<str>,
    mut row_id: Arc<str>,
    log_key: &Arc<str>,
    apply: &Update,
    user_cond: Option<&Cond>,
) -> BeldiResult<Option<WriteOutcome>> {
    // The row whose `NextRow` pointer we last chased, for pointer repair
    // (see below).
    let mut chased_from: Option<Arc<str>> = None;
    for _ in 0..MAX_CHASE {
        let pk = PrimaryKey::hash_sort(key, &row_id);
        // Rows other than HEAD must already exist: a conditional update
        // that "succeeds" against a row the GC deleted would resurrect it
        // as an unreachable orphan, silently losing the write. HEAD is the
        // one row the write path is allowed to create.
        let existence = if &*row_id == ROW_HEAD {
            Cond::True
        } else {
            Cond::exists(A_KEY)
        };

        // Case B1 (or plain B): apply payload + log, gated on the user
        // condition when present.
        let mut cond = case_b_cond(p, log_key).and(existence.clone());
        if let Some(uc) = user_cond {
            cond = cond.and(uc.clone());
        }
        (p.crash)(Label::DaalWritePreApply);
        #[expect(
            clippy::disallowed_methods,
            reason = "between Label::DaalWritePreApply and Label::DaalWritePostApply"
        )]
        match p.db.update(table, &pk, &cond, apply) {
            Ok(()) => {
                (p.crash)(Label::DaalWritePostApply);
                return Ok(Some(WriteOutcome::Applied));
            }
            Err(DbError::ConditionFailed) => {}
            Err(e) => return Err(e.into()),
        }

        // Case B2 (conditional writes only): the user condition was false
        // at the serialization point; log the failed outcome.
        #[expect(
            clippy::disallowed_methods,
            reason = "between Label::DaalWritePreLogFalse and Label::DaalWritePostLogFalse"
        )]
        if user_cond.is_some() {
            let cond = case_b_cond(p, log_key).and(existence);
            let update = log_actions(p, log_key, false, Update::new());
            (p.crash)(Label::DaalWritePreLogFalse);
            match p.db.update(table, &pk, &cond, &update) {
                Ok(()) => {
                    (p.crash)(Label::DaalWritePostLogFalse);
                    return Ok(Some(WriteOutcome::ConditionFalse));
                }
                Err(DbError::ConditionFailed) => {}
                Err(e) => return Err(e.into()),
            }
        }

        // The conditional writes failed: re-read the row and dispatch on
        // the remaining cases (their order is safe because B has no
        // incoming transitions, Fig. 7b).
        let Some(row) = p.db.get(table, &pk, None)? else {
            // Stale view: the candidate row is gone (GC) or was never
            // created (we are past the end). If we *chased a pointer*
            // here, the chain itself is damaged: rows are created before
            // they are linked, so a point-read pointer whose target is
            // absent means the GC deleted the target (possible only when
            // the `T` synchrony assumption was violated — e.g. a
            // collector outliving stragglers under extreme time
            // compression). Left alone, the dangling pointer livelocks
            // every future write to this key (the tail can never be
            // reached); deleted row ids are never recreated, so
            // CAS-clearing the pointer is a safe repair that restores
            // liveness. Then re-scan from scratch either way.
            #[expect(
                clippy::disallowed_methods,
                reason = "between Label::DaalWritePreApply and the re-scan's: an idempotent \
                          repair that only a violated `T` makes necessary"
            )]
            if let Some(prev) = &chased_from {
                let prev_pk = PrimaryKey::hash_sort(key, prev);
                let cond = Cond::eq(A_NEXT_ROW, &row_id);
                let update = Update::new().remove(A_NEXT_ROW);
                match p.db.update(table, &prev_pk, &cond, &update) {
                    Ok(()) | Err(DbError::ConditionFailed) => {}
                    Err(e) => return Err(e.into()),
                }
            }
            return Ok(None);
        };
        if let Some(flag) = row.get_attr(A_WRITES).and_then(|w| w.get_attr(log_key)) {
            // Case A: a concurrent re-execution of this very step (the IC
            // racing the original instance) already performed it.
            return Ok(Some(WriteOutcome::from_flag(flag)));
        }
        match row.get_shared_str(A_NEXT_ROW) {
            // Case C: the row filled up and points onward; chase the tail.
            Some(next) => {
                chased_from = Some(row_id);
                row_id = next.clone();
            }
            // Case D: full tail. Append a fresh row and advance to it.
            // (The row may instead still have space if only the user
            // condition raced; looping retries case B1 on it.)
            None => {
                let full = row
                    .get_int(A_LOG_SIZE)
                    .map(|s| s >= p.capacity as i64)
                    .unwrap_or(false);
                if full {
                    let appended = append_row(p, table, key, &row)?;
                    chased_from = Some(row_id);
                    row_id = appended;
                }
            }
        }
    }
    // Too much concurrent churn for one local view; rebuild it.
    Ok(None)
}

/// Appends a fresh row after the full row `prev` (case D).
///
/// Creates the new row first — carrying over the current `Value`, the
/// `LockOwner`, and shadow metadata so a concurrent reader that lands on
/// the new tail still observes the item's state — and only then links
/// `prev.NextRow` to it. If linking fails because a concurrent writer
/// appended first, the fresh row is abandoned as an orphan (the GC ages it
/// out) and the winner's row is followed instead.
///
/// Returns the row id the caller should advance to.
fn append_row(
    p: &DaalParams<'_>,
    table: &str,
    key: &Arc<str>,
    prev: &Value,
) -> BeldiResult<Arc<str>> {
    let prev_id = prev
        .get_shared_str(A_ROW_ID)
        .ok_or_else(|| BeldiError::Protocol("DAAL row without RowId".into()))?;
    let new_id = (p.new_row_id)();
    debug_assert_ne!(&*new_id, ROW_HEAD);

    // 1. Create the new row with the carried-over state. This is the only
    // place a non-head row comes into being, so the marker set here is on
    // every one of them — linked, orphaned by a lost race, or orphaned by
    // a crash before step 2.
    let mut update = Update::new()
        .set(A_LOG_SIZE, Value::Int(0))
        .set(A_CREATED, Value::Int(p.now_ms as i64))
        .set(A_APPENDED, Value::Bool(true));
    for attr in CARRY_ATTRS {
        if let Some(v) = prev.get_attr(attr) {
            update = update.set(attr, v.clone());
        }
    }
    let new_pk = PrimaryKey::hash_sort(key, &new_id);
    (p.crash)(Label::DaalAppendPreCreate);
    #[expect(
        clippy::disallowed_methods,
        reason = "between Label::DaalAppendPreCreate and Label::DaalAppendPostCreate"
    )]
    p.db.update(table, &new_pk, &Cond::not_exists(A_KEY), &update)?;
    (p.crash)(Label::DaalAppendPostCreate);

    // 2. Link it, only if no one else appended in the meantime.
    let prev_pk = PrimaryKey::hash_sort(key, prev_id);
    #[expect(
        clippy::disallowed_methods,
        reason = "between Label::DaalAppendPostCreate and Label::DaalAppendPostLink"
    )]
    let link = p.db.update(
        table,
        &prev_pk,
        &Cond::not_exists(A_NEXT_ROW).and(Cond::exists(A_KEY)),
        &Update::new().set(A_NEXT_ROW, &new_id),
    );
    (p.crash)(Label::DaalAppendPostLink);
    match link {
        Ok(()) => Ok(new_id),
        Err(DbError::ConditionFailed) => {
            // Lost the race; our row is an orphan. Follow the winner.
            let row =
                p.db.get(table, &prev_pk, None)?
                    .ok_or_else(|| BeldiError::Protocol("DAAL row vanished mid-append".into()))?;
            row.get_shared_str(A_NEXT_ROW)
                .cloned()
                .ok_or_else(|| BeldiError::Protocol("link lost but NextRow absent".into()))
        }
        Err(e) => Err(e.into()),
    }
}

/// Seeds the head row of a DAAL with an initial value, bypassing logging.
///
/// A data-loading convenience (used by application seeders and tests); not
/// part of the exactly-once API.
pub(crate) fn seed(
    db: &Database,
    table: &str,
    key: &str,
    value: Value,
    now_ms: u64,
) -> BeldiResult<()> {
    let pk = PrimaryKey::hash_sort(key, ROW_HEAD);
    #[expect(
        clippy::disallowed_methods,
        reason = "no probe: seeding loads data before any instance runs, outside the exactly-once API"
    )]
    db.update(
        table,
        &pk,
        &Cond::True,
        &Update::new()
            .set(A_VALUE, value)
            .set_if_absent(A_LOG_SIZE, Value::Int(0))
            .set_if_absent(A_CREATED, Value::Int(now_ms as i64)),
    )?;
    Ok(())
}

/// The lock owner recorded on `key`'s tail row, if any.
pub(crate) fn lock_owner(db: &Database, table: &str, key: &Arc<str>) -> BeldiResult<Option<Value>> {
    Ok(read_tail_row(db, table, key, &Projection::attrs([A_LOCK]))?
        .and_then(|mut row| row.take_attr(A_LOCK))
        .filter(|v| !v.is_null()))
}

/// True when `row`'s `DangleTime` is older than `t_ms` (GC helper).
pub(crate) fn dangling_expired(row: &Value, now_ms: u64, t_ms: u64) -> bool {
    row.get_int(A_DANGLE)
        .map(|d| now_ms.saturating_sub(d as u64) > t_ms)
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::daal_schema;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn no_crash(_: Label) {}

    struct Fixture {
        db: std::sync::Arc<Database>,
        counter: AtomicU64,
    }

    impl Fixture {
        fn new() -> Self {
            let db = Database::for_tests();
            db.create_table("t", daal_schema()).unwrap();
            Fixture {
                db,
                counter: AtomicU64::new(0),
            }
        }

        fn params(&self) -> DaalParams<'_> {
            DaalParams {
                db: &self.db,
                capacity: 3,
                now_ms: 0,
                crash: &no_crash,
                new_row_id: &|| unreachable!("row-id generator not wired"),
            }
        }

        fn write(&self, key: &str, log_key: &str, v: i64) -> WriteOutcome {
            let ids = &self.counter;
            let gen = move || format!("R{}", ids.fetch_add(1, Ordering::Relaxed)).into();
            let p = DaalParams {
                new_row_id: &gen,
                ..self.params()
            };
            try_write(
                &p,
                "t",
                &key.into(),
                &log_key.into(),
                WritePayload::set_value(Value::Int(v)),
                None,
            )
            .unwrap()
        }

        fn cond_write(&self, key: &str, log_key: &str, v: i64, cond: Cond) -> WriteOutcome {
            let ids = &self.counter;
            let gen = move || format!("R{}", ids.fetch_add(1, Ordering::Relaxed)).into();
            let p = DaalParams {
                new_row_id: &gen,
                ..self.params()
            };
            try_write(
                &p,
                "t",
                &key.into(),
                &log_key.into(),
                WritePayload::set_value(Value::Int(v)),
                Some(&cond),
            )
            .unwrap()
        }

        fn value(&self, key: &str) -> Value {
            read_value(&self.db, "t", &key.into()).unwrap()
        }

        fn chain_len(&self, key: &str) -> usize {
            traverse(&self.db, "t", &key.into(), None)
                .unwrap()
                .chain
                .len()
        }
    }

    #[test]
    fn first_write_creates_head() {
        let f = Fixture::new();
        assert_eq!(f.write("k", "i#0", 7), WriteOutcome::Applied);
        assert_eq!(f.value("k"), Value::Int(7));
        assert_eq!(f.chain_len("k"), 1);
    }

    #[test]
    fn read_of_absent_key_is_null() {
        let f = Fixture::new();
        assert_eq!(f.value("nope"), Value::Null);
    }

    #[test]
    fn rewrite_of_same_step_is_idempotent() {
        let f = Fixture::new();
        assert_eq!(f.write("k", "i#0", 1), WriteOutcome::Applied);
        // Re-execution of the same step: outcome replayed, value untouched.
        assert_eq!(f.write("k", "i#0", 999), WriteOutcome::Applied);
        assert_eq!(f.value("k"), Value::Int(1));
    }

    #[test]
    fn chain_extends_when_row_fills() {
        let f = Fixture::new();
        for step in 0..10 {
            f.write("k", &format!("i#{step}"), step);
        }
        assert_eq!(f.value("k"), Value::Int(9));
        // Capacity 3 → 10 writes span 4 rows.
        assert_eq!(f.chain_len("k"), 4);
        // The three appended rows are in the sparse index; the head is not.
        let appended =
            f.db.index_query("t", A_APPENDED, &Value::Bool(true), &ScanRequest::all())
                .unwrap();
        assert_eq!(appended.len(), 3);
        assert!(appended
            .iter()
            .all(|r| r.get_str(A_ROW_ID) != Some(ROW_HEAD)));
    }

    #[test]
    fn idempotence_survives_chain_growth() {
        let f = Fixture::new();
        f.write("k", "early#0", 42);
        for step in 0..7 {
            f.write("k", &format!("later#{step}"), step);
        }
        // The early write's record now lives in a non-tail row; replaying
        // it must find the record there (case A during the scan).
        assert_eq!(f.write("k", "early#0", 0), WriteOutcome::Applied);
        assert_eq!(f.value("k"), Value::Int(6));
    }

    #[test]
    fn cond_write_false_is_logged_and_replayed() {
        let f = Fixture::new();
        f.write("k", "a#0", 5);
        let cond = Cond::ge(A_VALUE, Value::Int(100));
        assert_eq!(
            f.cond_write("k", "a#1", 1, cond.clone()),
            WriteOutcome::ConditionFalse
        );
        assert_eq!(f.value("k"), Value::Int(5));
        // Replay returns the logged false outcome even though the
        // condition would now... still be false; flip the state to prove
        // the log (not a re-evaluation) answers.
        f.write("k", "a#2", 200);
        assert_eq!(
            f.cond_write("k", "a#1", 1, cond),
            WriteOutcome::ConditionFalse
        );
        assert_eq!(f.value("k"), Value::Int(200));
    }

    #[test]
    fn cond_write_true_applies() {
        let f = Fixture::new();
        f.write("k", "a#0", 5);
        let ok = f.cond_write("k", "a#1", 6, Cond::eq(A_VALUE, Value::Int(5)));
        assert_eq!(ok, WriteOutcome::Applied);
        assert_eq!(f.value("k"), Value::Int(6));
    }

    #[test]
    fn append_carries_value_forward() {
        let f = Fixture::new();
        for step in 0..3 {
            f.write("k", &format!("i#{step}"), step);
        }
        // Row is now full. A failed cond write must extend the chain and
        // still see the carried value in the new tail.
        let out = f.cond_write("k", "i#3", 99, Cond::eq(A_VALUE, Value::Int(2)));
        assert_eq!(out, WriteOutcome::Applied);
        assert_eq!(f.value("k"), Value::Int(99));
        assert_eq!(f.chain_len("k"), 2);
    }

    #[test]
    fn lock_payload_sets_owner() {
        let f = Fixture::new();
        f.write("k", "a#0", 1);
        let ids = &f.counter;
        let gen = move || format!("R{}", ids.fetch_add(1, Ordering::Relaxed)).into();
        let p = DaalParams {
            new_row_id: &gen,
            ..f.params()
        };
        let owner = crate::txn::lock_owner_value(&"txn-1".into(), 17);
        let free = Cond::not_exists(A_LOCK).or(Cond::eq(A_LOCK, Value::Null));
        let out = try_write(
            &p,
            "t",
            &"k".into(),
            &"a#1".into(),
            WritePayload::set_lock(owner.clone()),
            Some(&free),
        )
        .unwrap();
        assert_eq!(out, WriteOutcome::Applied);
        assert_eq!(lock_owner(&f.db, "t", &"k".into()).unwrap(), Some(owner));
        // A second transaction fails to acquire.
        let out = try_write(
            &p,
            "t",
            &"k".into(),
            &"b#0".into(),
            WritePayload::set_lock(crate::txn::lock_owner_value(&"txn-2".into(), 30)),
            Some(&free),
        )
        .unwrap();
        assert_eq!(out, WriteOutcome::ConditionFalse);
    }

    /// A projected tail read leaves the row's write log in the store.
    #[test]
    fn tail_row_read_bills_what_it_projects() {
        let f = Fixture::new();
        f.write("k", "a#0", 1);
        let probe = || {
            let before = f.db.metrics().bytes_read;
            let row =
                read_tail_row(&f.db, "t", &"k".into(), &Projection::attrs([A_VALUE])).unwrap();
            (row, f.db.metrics().bytes_read - before)
        };
        let lean = probe();
        assert_eq!(lean.0, Some(beldi_value::vmap! { A_VALUE => 1i64 }));
        // Two more entries in the same row's log: the read costs the same.
        f.write("k", "a#1", 1);
        f.write("k", "a#2", 1);
        assert_eq!(f.chain_len("k"), 1);
        assert_eq!(probe(), lean);
    }

    #[test]
    fn traversal_ignores_orphan_rows() {
        let f = Fixture::new();
        f.write("k", "a#0", 1);
        // Plant an orphan (as a failed append would leave behind).
        #[expect(clippy::disallowed_methods, reason = "the test plants a row")]
        f.db.put(
            "t",
            beldi_value::vmap! {
                A_KEY => "k", A_ROW_ID => "Rorphan", A_VALUE => 777i64,
                A_LOG_SIZE => 0i64, A_APPENDED => true
            },
        )
        .unwrap();
        assert_eq!(f.chain_len("k"), 1);
        assert_eq!(f.value("k"), Value::Int(1));
    }

    #[test]
    fn seed_then_read() {
        let f = Fixture::new();
        seed(&f.db, "t", "k", Value::Int(10), 0).unwrap();
        assert_eq!(f.value("k"), Value::Int(10));
        f.write("k", "a#0", 11);
        assert_eq!(f.value("k"), Value::Int(11));
    }

    #[test]
    fn cached_read_tracks_value_across_chain_growth() {
        let f = Fixture::new();
        let cache = TailCache::new();
        // 10 writes with capacity 3 span 4 rows; after every write the
        // cached read must agree with the scan-based read.
        for step in 0..10 {
            f.write("k", &format!("i#{step}"), step);
            let cached = read_value_cached(&f.db, Some(&cache), "t", &"k".into()).unwrap();
            assert_eq!(cached, f.value("k"), "after step {step}");
        }
        // A second cached read is a pure hit and still agrees.
        let q_before = f.db.metrics().queries;
        let hit = read_value_cached(&f.db, Some(&cache), "t", &"k".into()).unwrap();
        assert_eq!(hit, Value::Int(9));
        assert_eq!(f.db.metrics().queries, q_before, "hit must not scan");
    }

    #[test]
    fn cached_read_of_absent_key_is_null_and_uncached() {
        let f = Fixture::new();
        let cache = TailCache::new();
        assert_eq!(
            read_value_cached(&f.db, Some(&cache), "t", &"nope".into()).unwrap(),
            Value::Null
        );
        assert!(cache.get("t", "nope").is_none(), "no negative caching");
    }

    #[test]
    fn cached_row_without_value_or_successor_is_a_valid_hit() {
        // The validating get asks for `Value` and `NextRow`; a tail that
        // has neither comes back empty, not absent.
        let f = Fixture::new();
        let cache = TailCache::new();
        #[expect(clippy::disallowed_methods, reason = "the test plants a row")]
        f.db.put(
            "t",
            beldi_value::vmap! { A_KEY => "k", A_ROW_ID => ROW_HEAD, A_LOG_SIZE => 0i64 },
        )
        .unwrap();
        cache.put("t", &"k".into(), &ROW_HEAD.into());
        let before = f.db.metrics();
        assert_eq!(
            read_value_cached(&f.db, Some(&cache), "t", &"k".into()).unwrap(),
            Value::Null
        );
        let d = f.db.metrics().delta(&before);
        assert_eq!((d.gets, d.queries), (1, 0), "one get, no traversal");
        assert_eq!(cache.stats(), (1, 0));
        assert_eq!(cache.get("t", "k").as_deref(), Some(ROW_HEAD));
    }

    #[test]
    fn stale_cache_entry_falls_back_to_traversal() {
        let f = Fixture::new();
        let cache = TailCache::new();
        f.write("k", "a#0", 1);
        read_value_cached(&f.db, Some(&cache), "t", &"k".into()).unwrap();
        let cached_row = cache.get("t", "k").unwrap();
        // Fill the row so the chain extends past the cached tail.
        for step in 1..5 {
            f.write("k", &format!("a#{step}"), step);
        }
        assert!(f.chain_len("k") > 1);
        let v = read_value_cached(&f.db, Some(&cache), "t", &"k".into()).unwrap();
        assert_eq!(v, Value::Int(4));
        assert_ne!(cache.get("t", "k").unwrap(), cached_row, "entry refreshed");
        // A deleted cached row (GC) also falls back cleanly.
        cache.put("t", &"k".into(), &"R-gone".into());
        assert_eq!(
            read_value_cached(&f.db, Some(&cache), "t", &"k".into()).unwrap(),
            Value::Int(4)
        );
    }

    #[test]
    fn tail_cache_capacity_is_bounded_with_arbitrary_eviction() {
        let f = Fixture::new();
        // 16 shards × 2 entries per shard.
        let cache = TailCache::with_capacity(32);
        for i in 0..500 {
            let key = format!("k{i}");
            f.write(&key, "a#0", i);
            read_value_cached(&f.db, Some(&cache), "t", &key.as_str().into()).unwrap();
        }
        assert!(
            cache.len() <= 32,
            "cache exceeded its bound: {} entries",
            cache.len()
        );
        // Evicted keys still read correctly (traversal fallback + refresh).
        for i in 0..500 {
            let key = format!("k{i}");
            assert_eq!(
                read_value_cached(&f.db, Some(&cache), "t", &key.as_str().into()).unwrap(),
                Value::Int(i),
            );
        }
        assert!(cache.len() <= 32);
    }

    /// Which tails a full cache keeps decides which reads pay a traversal,
    /// so it must be a function of the run: two caches given the same
    /// `put`s keep the same survivors (with a per-map random hash seed
    /// they disagree).
    #[test]
    fn eviction_is_the_same_in_every_cache() {
        let survivors = || {
            let cache = TailCache::with_capacity(32);
            for i in 0..500 {
                cache.put("t", &format!("k{i}").into(), &format!("R{i}").into());
            }
            (0..500)
                .filter(|i| cache.get("t", &format!("k{i}")).is_some())
                .collect::<Vec<_>>()
        };
        let first = survivors();
        assert_eq!(first.len(), 32);
        assert_eq!(first, survivors());
    }

    #[test]
    fn bounded_cache_preserves_hit_rate_when_working_set_fits() {
        // The A/B the capacity satellite demands: for a working set that
        // fits (the smoke-scale case), the bounded cache behaves
        // *identically* to an effectively unbounded one — same hits, same
        // misses, same issued scans.
        let run = |capacity: usize| {
            let f = Fixture::new();
            let cache = TailCache::with_capacity(capacity);
            for i in 0..40 {
                f.write(&format!("k{i}"), "a#0", i);
            }
            for round in 0..5 {
                for i in 0..40 {
                    let v = read_value_cached(&f.db, Some(&cache), "t", &format!("k{i}").into())
                        .unwrap();
                    assert_eq!(v, Value::Int(i), "round {round}");
                }
            }
            let (hits, misses) = cache.stats();
            (hits, misses, f.db.metrics().queries)
        };
        let bounded = run(1_024);
        let unbounded = run(1 << 20);
        assert_eq!(bounded, unbounded, "(hits, misses, scans) must match");
        let (hits, misses, _) = bounded;
        assert!(
            hits >= 4 * misses,
            "a fitting working set should be hit-dominated: {hits} hits / {misses} misses"
        );
    }

    #[test]
    fn tight_cache_keeps_semantics_while_losing_hits() {
        // Under severe pressure (capacity << working set) reads stay
        // correct; only the hit rate degrades.
        let f = Fixture::new();
        let cache = TailCache::with_capacity(1); // 1 entry per shard.
        for i in 0..60 {
            f.write(&format!("k{i}"), "a#0", i);
        }
        for i in 0..60 {
            assert_eq!(
                read_value_cached(&f.db, Some(&cache), "t", &format!("k{i}").into()).unwrap(),
                Value::Int(i),
            );
        }
        assert!(cache.len() <= TAIL_CACHE_SHARDS);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a stress test of real parallelism over a zero-latency store: nothing in it waits on a clock"
    )]
    fn concurrent_cached_readers_see_writer_progress() {
        use std::sync::Arc;
        let f = Arc::new(Fixture::new());
        let cache = Arc::new(TailCache::new());
        f.write("hot", "w#init", 0);
        let writer = {
            let f = Arc::clone(&f);
            std::thread::spawn(move || {
                for s in 1..=60 {
                    f.write("hot", &format!("w#{s}"), s);
                }
            })
        };
        let mut readers = Vec::new();
        for _ in 0..4 {
            let f = Arc::clone(&f);
            let cache = Arc::clone(&cache);
            readers.push(std::thread::spawn(move || {
                let mut last = -1i64;
                for _ in 0..200 {
                    let v = read_value_cached(&f.db, Some(&cache), "t", &"hot".into())
                        .unwrap()
                        .as_int()
                        .expect("value is always an int");
                    // Values only move forward (writes are ordered by one
                    // writer); a cached read must never resurrect an old
                    // tail.
                    assert!(v >= last, "read went backwards: {v} < {last}");
                    last = v;
                }
            }));
        }
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(
            read_value_cached(&f.db, Some(&cache), "t", &"hot".into()).unwrap(),
            Value::Int(60)
        );
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a stress test of real parallelism over a zero-latency store: nothing in it waits on a clock"
    )]
    fn concurrent_writers_converge() {
        use std::sync::Arc;
        let f = Arc::new(Fixture::new());
        let mut handles = Vec::new();
        for w in 0..8 {
            let f = Arc::clone(&f);
            handles.push(std::thread::spawn(move || {
                for s in 0..20 {
                    f.write("hot", &format!("w{w}#{s}"), (w * 100 + s) as i64);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // All 160 writes logged exactly once across the chain.
        let rows =
            f.db.query("t", &Value::from("hot"), &ScanRequest::all())
                .unwrap();
        let logged: usize = rows
            .iter()
            .filter_map(|r| r.get_attr(A_WRITES))
            .filter_map(|w| w.as_map())
            .map(|m| m.len())
            .sum();
        assert_eq!(logged, 160);
        // And the tail holds one of the written values.
        assert!(matches!(f.value("hot"), Value::Int(_)));
    }
}
