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
//! - **traversal** by a single scan + projection (row ids, pointers and
//!   the one interesting log entry, not whole rows);
//! - the **write protocol** of Figs. 6–7 (cases A–D) and its conditional
//!   variant of Figs. 17–18, which also serves lock acquisition and
//!   release (§6.1: "writes to the item" that set the lock owner);
//! - **row appending** (case D), which copies the current value and lock
//!   owner into a fresh row before linking it;
//! - the **tail cache**, which lets a read or a write of a data table skip
//!   the traversal: a read validates the cached row with its point read,
//!   a write with its own case-B update, guarded by the row's creation
//!   time; a read or a write step of a key with no entry tries `HEAD`
//!   ([`TailCache`] has the soundness arguments).
//!
//! Functions here take a [`DaalParams`] handle instead of a full
//! [`crate::SsfContext`] so they can be unit-tested against a bare
//! database. An item key, a row id and a log key are shared strings: the
//! one a caller passes in, or the one a scan returned, is the one every
//! row key, path and cache entry below holds.

use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::ops::ControlFlow;
use std::sync::Arc;

use beldi_simclock::Metric;
use beldi_simdb::{Database, DbError, PrimaryKey, Projection, ScanRequest, TableRef};
use beldi_value::{Cond, Path, Update, Value};
use parking_lot::Mutex;

use crate::error::{BeldiError, BeldiResult};
use crate::ids;
use crate::schema::{
    self, DaalRow, SkelRow, A_APPENDED, A_CREATED, A_KEY, A_LOCK, A_LOG_SIZE, A_NEXT_ROW, A_ROW_ID,
    A_VALUE, A_WRITES, ROW_HEAD,
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
    /// Reads virtual time in milliseconds. A write stamps the time it
    /// began on a `HEAD` it creates, and a fresh read on a row it appends
    /// (see [`append_row`]); the GC ages orphans by these stamps.
    pub now_ms: &'a dyn Fn() -> u64,
    /// The tail cache whose entry a data-table write tries before it
    /// traverses; `None` for shadow tables, or with the cache off.
    pub tail_cache: Option<&'a TailCache>,
    /// Whether a write step with no cache entry tries `HEAD` before it
    /// traverses: with the cache on, in a data or a shadow table.
    pub head_first: bool,
    /// When the writing intent was created: no execution of it writes
    /// earlier. A cached tail row created before this holds every entry
    /// the intent can have logged in the key's chain (see [`TailCache`]).
    pub intent_created_ms: u64,
    /// Crash-point hook; called with a label before/after every externally
    /// visible effect. Panics (with a `CrashSignal`) to model a crash.
    pub crash: &'a dyn Fn(Label),
    /// Fresh unique row-id generator (never returns `HEAD`).
    pub new_row_id: &'a dyn Fn() -> Arc<str>,
}

/// Scans every row of `key`'s DAAL and reconstructs the chain locally:
/// the rows reachable from `HEAD`, head first (empty when the DAAL does
/// not exist yet). Orphaned rows returned by the scan are dropped, exactly
/// as §4.1 prescribes.
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
    table: &TableRef,
    key: &Arc<str>,
    log_key: Option<&Arc<str>>,
) -> BeldiResult<Vec<SkelRow>> {
    let req = ScanRequest::all().with_projection(SkelRow::projection(log_key));
    let rows = db.query(table, &Value::from(key), &req)?;

    // The projected rows are ours: their row ids move into the skeleton,
    // still the strings the store holds.
    let mut skel: Vec<SkelRow> = Vec::with_capacity(rows.len());
    for row in rows {
        skel.push(SkelRow::decode(
            table.name(),
            key,
            row,
            log_key.map(|lk| &**lk),
        )?);
    }
    let order = chain_order(
        &mut skel,
        |r| &r.row_id,
        |r| r.next.as_deref(),
        table.name(),
        key,
    )?;
    Ok(order.into_iter().map(|i| skel[i].clone()).collect())
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
    table: &TableRef,
    key: &Arc<str>,
    proj: &Projection,
) -> BeldiResult<Option<Value>> {
    let chain = traverse(db, table, key, None)?;
    let Some(tail) = chain.last().map(|r| &r.row_id) else {
        return Ok(None);
    };
    let pk = PrimaryKey::hash_sort(key, tail);
    Ok(db.get(table, &pk, Some(proj))?)
}

/// A shared cache of the last known tail row id per `(table, key)` — the
/// hot-path optimization behind [`crate::BeldiConfig::daal_tail_cache`].
///
/// Every Beldi read and logged write traverses the key's DAAL (a projected
/// scan) just to locate the tail. Under steady load the tail moves only
/// when a row fills up (every `N` writes), so the scan almost always
/// rediscovers the row it found last time. The cache remembers that row
/// id, and each use validates a hit with the one operation it had to
/// issue anyway:
///
/// - a **read** point-reads the row: present and **no `NextRow`** ⇒ it is
///   the current tail (see below) and its `Value` is returned;
/// - a **write** runs case B — one conditional update — on the row, under
///   [`try_write`]'s condition plus, for a non-`HEAD` row, `exists(Key)`
///   and `Created <` the writing intent's creation time; when it fails,
///   one re-read of the row decides the step's next move;
/// - a row that has a successor or is gone drops the entry, and the
///   operation falls back to the full traversal, which refreshes it.
///
/// A key with no entry has an implicit one: `HEAD`, the row every chain
/// starts at, which the GC never deletes from a data table. It is always
/// reachable, so without a `NextRow` it is the whole chain, and the checks
/// above hold on it as on any tail; an absent `HEAD` means the key has no
/// chain, which a read answers with `Null` and a write's case B creates.
/// A miss on a `HEAD`-only key thus costs one get or update, not a scan
/// as well; a miss on a longer chain pays one failed attempt (a write,
/// and its re-read) before it traverses.
///
/// Every kind of write step tries the row alike: a conditional write's
/// B2 and a lock try's refusal are decided there as on any tail. A
/// refused lock try writes nothing and its waiter backs off, so a
/// contender's failed updates on `HEAD` are spaced by its back-off. A
/// refused try on a cached tail is one failed update and one projected
/// get, and keeps the entry.
///
/// # Why a validated read is sound
///
/// Chain rows move through a one-way lifecycle: created unlinked → linked
/// as tail → `NextRow` set (now interior, immutable) → possibly
/// disconnected by the GC (interior rows only) → deleted. A row that was
/// *ever* the reachable tail and still has no `NextRow` is still the
/// reachable tail: appends only set `NextRow` on the old tail, the GC
/// unlinks only interior rows (which have `NextRow`) and never deletes
/// the head or a reachable row, so no step can make a tail unreachable
/// without first giving it a successor. Entries enter the cache only as
/// reachable tails — a completed traversal's, the row case B resolved a
/// write on after one, or a `HEAD` — hence a validated hit reads exactly
/// the row a fresh traversal would have found.
///
/// # Why a validated write is sound
///
/// Case B on the tail is what a traversal would run next; what the scan
/// adds is case A, a record of this step in *any* chain row. The guard
/// stands in for it. A row gets a successor only once it is full, and an
/// appended row's `Created` is a clock read taken after its predecessor
/// was read full ([`append_row`]), so every entry of every row before a
/// non-`HEAD` tail was written no later than the tail's `Created`. Every
/// execution of an intent writes at or after the intent's creation time.
/// So if the tail is older than the intent, no execution of it can have
/// logged this step in an earlier row, and the tail's
/// `not_exists(RecentWrites.{log_key})` checks the whole chain. `HEAD`
/// has no predecessor. A failed attempt writes nothing. Its re-read may
/// answer case A from the row alone, since an entry is a record wherever
/// it is; a refusal or an append needs the row to stand for the chain,
/// so when the row is no older than the intent the traversal checks the
/// rows before it first.
///
/// Shadow tables keep *no* entries: finished shadow chains are deleted
/// wholesale, tail included, and their reads happen on the cold
/// transaction-recovery path anyway. A plain shadow write still tries
/// `HEAD` first ([`DaalParams::head_first`]): the item's lock created it
/// one step earlier, so it is usually the whole chain, and the argument
/// above holds for it unchanged. The GC deletes a shadow chain only once
/// its transaction has finalized in the SSF, when no execution writes
/// there; an absent `HEAD` is created exactly as the traversal would.
///
/// The cache is deliberately never authoritative — dropping any entry at
/// any time is correct — so invalidation needs no precision.
///
/// # Why the size needs no bound
///
/// An entry is made only for a key whose chain exists: an absent `HEAD`
/// caches nothing, and shadow tables cache nothing. A data table's `HEAD`
/// is never deleted, and the SSF API deletes no key. So the cache never
/// holds more entries than its data tables hold keys.
pub(crate) struct TailCache(Mutex<BTreeMap<Arc<str>, TailKeys>>);

/// A table's cached tails, key → tail row id: a probe with a
/// `(&str, &str)` builds no owned key, and the key and the row id are the
/// shared strings the operation already held. FNV-hashed: nothing
/// iterates it, and FNV hashes a short key in fewer steps than SipHash.
type TailKeys = HashMap<Arc<str>, Arc<str>, BuildHasherDefault<beldi_value::Fnv1a>>;

impl TailCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        TailCache(Mutex::new(BTreeMap::new()))
    }

    fn get(&self, table: &str, key: &str) -> Option<Arc<str>> {
        self.0.lock().get(table)?.get(key).cloned()
    }

    fn put(&self, table: &Arc<str>, key: &Arc<str>, row_id: &Arc<str>) {
        let mut tables = self.0.lock();
        let keys = tables.entry(Arc::clone(table)).or_default();
        keys.insert(Arc::clone(key), Arc::clone(row_id));
    }

    fn invalidate(&self, table: &str, key: &str) {
        if let Some(keys) = self.0.lock().get_mut(table) {
            keys.remove(key);
        }
    }

    /// Resident entries across all tables.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.0.lock().values().map(HashMap::len).sum()
    }
}

/// The current value of `key`, the `Value` of its tail row, with an
/// optional [`TailCache`]: one point get when it validates the cached row, or
/// with no entry `HEAD` (see [`TailCache`]); scan + get (and a refreshed
/// entry) otherwise. Absent keys and value-less tails read as `Null`. A
/// hit is a read the point get answered: a row it confirmed is still the
/// tail, or an absent `HEAD` (no chain); a miss is a read that traversed.
/// The store's registry counts both.
///
/// The validating get asks for `Value` and `NextRow` only: the row's
/// write log — up to `N` entries — stays in the store.
pub(crate) fn read_value_cached(
    db: &Database,
    cache: Option<&TailCache>,
    table: &TableRef,
    key: &Arc<str>,
) -> BeldiResult<Value> {
    if let Some(cache) = cache {
        let cached = cache.get(table.name(), key);
        let row_id = cached.clone().unwrap_or_else(|| ROW_HEAD.into());
        let pk = PrimaryKey::hash_sort(key, &row_id);
        let tail_probe = Projection::attrs(schema::TAIL_PROBE);
        let probed = db.get(table, &pk, Some(&tail_probe))?;
        // Present (with or without a value) and no successor: the tail,
        // cached if it was not. An absent `HEAD`: no chain, nothing cached.
        let answer = match probed {
            Some(row) => schema::tail_probe(table.name(), key, row)?.map(|v| (v, true)),
            None if &*row_id == ROW_HEAD => Some((Value::Null, false)),
            None => None,
        };
        if let Some((value, present)) = answer {
            db.telemetry().add(Metric::TailCacheHits, 1);
            if present && cached.is_none() {
                cache.put(table.name(), key, &row_id);
            }
            return Ok(value);
        }
        // The row filled up (has a successor) or was GC-deleted: stale
        // entry, take the slow path.
        if cached.is_some() {
            cache.invalidate(table.name(), key);
        }
        db.telemetry().add(Metric::TailCacheMisses, 1);
    }
    let chain = traverse(db, table, key, None)?;
    let Some(tail) = chain.last().map(|r| &r.row_id) else {
        return Ok(Value::Null);
    };
    if let Some(cache) = cache {
        cache.put(table.name(), key, tail);
    }
    let pk = PrimaryKey::hash_sort(key, tail);
    // A whole row shares its map with the stored one: read, don't take.
    let row = db.get(table, &pk, None)?;
    Ok(schema::data_value(row.as_ref()))
}

/// What a write step does beyond applying its payload.
#[derive(Debug, Clone, Copy)]
pub(crate) enum StepKind<'a> {
    /// A plain write: it applies and logs `true`.
    Write,
    /// A conditional write: it applies under the condition, else logs
    /// `false` (B2), an outcome its caller sees and a replay repeats.
    Cond(&'a Cond),
    /// A lock try: it applies under `free`, else logs nothing and is
    /// [`WriteOutcome::Refused`]; `returning` has B1 return the item's value.
    /// `free` reads only `LockOwner`, which a failed try's re-read holds.
    Lock { free: &'a Cond, returning: bool },
}

impl<'a> StepKind<'a> {
    /// The condition the payload is applied under, if any.
    pub fn cond(self) -> Option<&'a Cond> {
        match self {
            StepKind::Write => None,
            StepKind::Cond(cond) | StepKind::Lock { free: cond, .. } => Some(cond),
        }
    }
}

/// Outcome of [`try_write`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WriteOutcome {
    /// The payload was applied (now, or by a previous execution of the
    /// same step); with the item's value when a returning lock's B1
    /// applied it now.
    Applied(Option<Value>),
    /// The user condition evaluated to false (now, or previously); the
    /// payload was not applied but the outcome was logged.
    ConditionFalse,
    /// A lock try found the lock held: nothing was logged, and this is
    /// the `LockOwner` the refusing row holds (`Null` in cross-table
    /// mode, whose cancelled transaction returns no row).
    Refused(Value),
}

impl WriteOutcome {
    /// The boolean the paper's `condWrite` returns.
    pub fn as_bool(&self) -> bool {
        matches!(self, WriteOutcome::Applied(_))
    }

    /// Decodes a logged flag back into an outcome: plain writes log
    /// `true` (Fig. 3), conditional writes the condition's outcome.
    pub fn from_flag(flag: bool) -> Self {
        match flag {
            true => WriteOutcome::Applied(None),
            false => WriteOutcome::ConditionFalse,
        }
    }
}

/// Executes one exactly-once DAAL write step (Figs. 6/7 and 17/18).
///
/// The step first tries the row it reaches without a traversal: the
/// key's cached tail, or with no entry `HEAD` ([`DaalParams::head_first`]),
/// under a guard that makes the row's own log a check over the whole
/// chain (see [`TailCache`]). With neither, it scans the DAAL for a prior
/// record of `log_key` (case A anywhere in the chain) and tries the tail.
/// Every row then follows one tail rule: case B ([`case_b`]), and when it
/// fails, one re-read of that row, which decides case A (already done), a
/// refused lock try, case C (follow `NextRow`), case D (append a fresh row
/// and advance), or a return to the traversal: the untraversed row is
/// gone, has a successor, or fails its guard. A failed guard leaves the
/// rows before the one read unchecked; when the traversal finds no entry
/// there and ends at that row, the read decides as on any traversed tail.
/// A row that case B or a refusal resolves the step on stays cached.
///
/// The `kind`'s condition is evaluated *inside the database's atomicity
/// scope* against the tail row, so callers may gate on `Value` or
/// `LockOwner` paths; `payload` is what a successful write applies beyond
/// logging (`Value`, `LockOwner`, or a shadow write's metadata).
///
/// Exactly-once: re-executions find the logged flag and return the
/// original outcome without touching the row again; a refused lock try
/// writes nothing, not even on a full tail, and its caller tries the step
/// again. A returning lock's B1 that applies now returns the tail's
/// `Value` ([`Database::update_returning`]); otherwise the caller reads
/// the item.
pub(crate) fn try_write(
    p: &DaalParams<'_>,
    table: &TableRef,
    key: &Arc<str>,
    log_key: &Arc<str>,
    payload: Update,
    kind: StepKind<'_>,
) -> BeldiResult<WriteOutcome> {
    (p.crash)(Label::DaalWriteEnter);
    // What case B writes, built once however often the loop retries.
    let step = &StepWrite::new(p, log_key, payload, kind);
    let mut cached = p.tail_cache.and_then(|cache| cache.get(table.name(), key));
    let mut at = cached
        .clone()
        .or_else(|| p.head_first.then(|| ROW_HEAD.into()));
    let starts_untraversed = at.is_some();
    let remember = |cached: &Option<Arc<str>>, row_id: &Arc<str>| match p.tail_cache {
        Some(cache) if cached.as_ref() != Some(row_id) => cache.put(table.name(), key, row_id),
        _ => {}
    };
    let forget = |cached: &mut Option<Arc<str>>| {
        if let (Some(cache), Some(_)) = (p.tail_cache, cached.take()) {
            cache.invalidate(table.name(), key);
        }
    };
    // The row whose `NextRow` pointer we last followed, for pointer repair.
    let mut chased_from: Option<Arc<str>> = None;
    // Every try resolves the step, moves along the chain or follows a
    // concurrent writer's progress, so this bound is never hit in practice.
    for round in 0..MAX_WRITE_TRIES {
        let row_id = match at.take() {
            Some(row_id) => row_id,
            None => {
                chased_from = None;
                match scan(p, table, key, log_key)? {
                    ControlFlow::Continue(tail) => tail,
                    ControlFlow::Break(replayed) => return Ok(replayed),
                }
            }
        };
        let untraversed = round == 0 && starts_untraversed;
        let on_head = &*row_id == ROW_HEAD;
        // `HEAD` is the one row case B may create; any other must exist, as
        // an update must not resurrect a row the GC deleted. One tried
        // untraversed must also be older than the intent.
        let guard = match on_head {
            true => Cond::True,
            false if untraversed => {
                let created = Value::Int(p.intent_created_ms as i64);
                Cond::exists(A_KEY).and(Cond::lt(A_CREATED, created))
            }
            false => Cond::exists(A_KEY),
        };
        let pk = PrimaryKey::hash_sort(key, &row_id);
        let resolved = case_b(p, table, &pk, step, guard)?;
        if untraversed {
            let metric = match resolved {
                Some(_) => Metric::TailCacheWriteHits,
                None => Metric::TailCacheWriteFallbacks,
            };
            p.db.telemetry().add(metric, 1);
        }
        if let Some(resolved) = resolved {
            remember(&cached, &row_id);
            return Ok(resolved);
        }

        // The one re-read, which decides the remaining cases (their order
        // is safe because B has no incoming transitions, Fig. 7b).
        let Some(read) = p.db.get(table, &pk, Some(&reread(log_key)))? else {
            // Stale view: the row is gone (GC) or was never created (we
            // are past the end). If we *followed a pointer* here, the
            // chain itself is damaged: rows are created before they are
            // linked, so a pointer whose target is absent means the GC
            // deleted the target (possible only when the `T` synchrony
            // assumption was violated — e.g. a collector outliving
            // stragglers under extreme time compression). Left alone, the
            // dangling pointer livelocks every future write to this key;
            // deleted row ids are never recreated, so CAS-clearing the
            // pointer is a safe repair that restores liveness. Then
            // re-scan either way.
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
            forget(&mut cached);
            continue;
        };
        let row = DaalRow::decode(table.name(), key, &read)?;
        if let Some(flag) = row.logged(table.name(), key, log_key)? {
            // Case A: a re-execution of this very step (the IC racing the
            // original instance) already performed it.
            return Ok(WriteOutcome::from_flag(flag));
        }
        // An untraversed row stands for the chain only while it is the tail
        // and passes its guard. Otherwise the traversal checks the rows
        // before it; when the traversal ends at this row, the read decides.
        let too_young = !on_head && row.created_ms >= p.intent_created_ms;
        if untraversed && (row.next.is_some() || too_young) {
            if row.next.is_some() {
                forget(&mut cached);
            }
            match scan(p, table, key, log_key)? {
                ControlFlow::Break(replayed) => return Ok(replayed),
                ControlFlow::Continue(tail) if tail != row_id => {
                    chased_from = None;
                    at = Some(tail);
                    continue;
                }
                ControlFlow::Continue(_) => {}
            }
        }
        let held =
            matches!(step.kind, StepKind::Lock { free, .. } if free.eval(&read) == Ok(false));
        match row.next {
            // Case C: the row filled up and points onward; chase the tail.
            Some(next) => {
                at = Some(next.clone());
                chased_from = Some(row_id);
            }
            // A lock held on the tail: the try is refused and writes
            // nothing, on a full tail too.
            None if held => {
                remember(&cached, &row_id);
                return Ok(WriteOutcome::Refused(schema::lock_value(Some(&read))));
            }
            // Case D: full tail. Append a fresh row and advance to it.
            None if row.log_size >= p.capacity as u64 => {
                at = Some(append_row(p, table, key, &read, row.row_id)?);
                chased_from = Some(row_id);
            }
            // The tail has room: a race failed case B; try it again.
            None => at = Some(row_id),
        }
    }
    Err(BeldiError::Protocol(format!(
        "DAAL write on {}/{key} did not converge",
        table.name()
    )))
}

const MAX_WRITE_TRIES: usize = 1024;

/// The traversal: the step's flag in any chain row (case A, replayed), or
/// else the row case B tries next, the tail (`HEAD` for a fresh key).
fn scan(
    p: &DaalParams<'_>,
    table: &TableRef,
    key: &Arc<str>,
    log_key: &Arc<str>,
) -> BeldiResult<ControlFlow<WriteOutcome, Arc<str>>> {
    let chain = traverse(p.db, table, key, Some(log_key))?;
    // The step's flag in any chain row: a write may have landed in a row
    // that filled up afterwards.
    if let Some(flag) = chain.iter().find_map(|r| r.logged) {
        return Ok(ControlFlow::Break(WriteOutcome::from_flag(flag)));
    }
    let tail = chain.last().map(|r| r.row_id.clone());
    Ok(ControlFlow::Continue(
        tail.unwrap_or_else(|| ROW_HEAD.into()),
    ))
}

/// What a failed case B re-reads of its row: what the tail rule decides
/// on, the step's entry, and what an append carries (not the write log).
fn reread(log_key: &Arc<str>) -> Projection {
    let attrs = [A_ROW_ID, A_NEXT_ROW, A_LOG_SIZE, A_CREATED];
    Projection::attrs(attrs.into_iter().chain(CARRY_ATTRS))
        .with_path(Path::attr(A_WRITES).then_attr(log_key.clone()))
}

/// What one write step writes in case B: the payload with a `true` log
/// entry (B1, or plain B), under its kind's condition.
struct StepWrite<'a> {
    log_key: &'a Arc<str>,
    /// The time the step began, stamped on a `HEAD` it creates.
    now_ms: u64,
    apply: Update,
    kind: StepKind<'a>,
}

impl<'a> StepWrite<'a> {
    fn new(p: &DaalParams<'_>, log_key: &'a Arc<str>, payload: Update, kind: StepKind<'a>) -> Self {
        let now_ms = (p.now_ms)();
        let apply = log_actions(log_key, true, now_ms, payload);
        StepWrite {
            log_key,
            now_ms,
            apply,
            kind,
        }
    }
}

/// The condition of case B / B1: this step is not yet logged in the row,
/// the log has room, and the row is still the tail.
fn case_b_cond(p: &DaalParams<'_>, log_key: &Arc<str>) -> Cond {
    Cond::not_exists(Path::attr(A_WRITES).then_attr(log_key.clone()))
        .and(Cond::not_exists(A_LOG_SIZE).or(Cond::lt(A_LOG_SIZE, Value::Int(p.capacity as i64))))
        .and(Cond::not_exists(A_NEXT_ROW))
}

/// Appends to `update` the bookkeeping every successful log append
/// performs; `now_ms` stamps a `HEAD` the append creates.
fn log_actions(log_key: &Arc<str>, flag: bool, now_ms: u64, update: Update) -> Update {
    update
        .inc(A_LOG_SIZE, 1)
        .set(
            Path::attr(A_WRITES).then_attr(log_key.clone()),
            Value::Bool(flag),
        )
        .set_if_absent(A_CREATED, Value::Int(now_ms as i64))
}

/// Case B at row `pk`, under [`case_b_cond`] and `guard`: B1 (or plain
/// B) applies the payload and logs `true`; when its condition fails, a
/// conditional write tries B2, which logs `false`. `None` when neither
/// held; a lock try has no B2. A returning lock's B1 returns the row's
/// `Value`.
fn case_b(
    p: &DaalParams<'_>,
    table: &TableRef,
    pk: &PrimaryKey,
    step: &StepWrite<'_>,
    guard: Cond,
) -> BeldiResult<Option<WriteOutcome>> {
    let mut b1 = case_b_cond(p, step.log_key).and(guard.clone());
    if let Some(uc) = step.kind.cond() {
        b1 = b1.and(uc.clone());
    }
    (p.crash)(Label::DaalWritePreApply);
    #[expect(
        clippy::disallowed_methods,
        reason = "between Label::DaalWritePreApply and Label::DaalWritePostApply"
    )]
    let applied = ids::logging(step.log_key, || match step.kind {
        StepKind::Lock {
            returning: true, ..
        } => {
            p.db.update_returning(table, pk, &b1, &step.apply, &Projection::attrs([A_VALUE]))
                .map(|row| Some(schema::data_value(Some(&row))))
        }
        _ => p.db.update(table, pk, &b1, &step.apply).map(|()| None),
    });
    match applied {
        Ok(value) => {
            (p.crash)(Label::DaalWritePostApply);
            return Ok(Some(WriteOutcome::Applied(value)));
        }
        Err(DbError::ConditionFailed) => {}
        Err(e) => return Err(refused(p, table, pk, e)),
    }
    let StepKind::Cond(_) = step.kind else {
        return Ok(None);
    };

    // Case B2: the user condition was false at the serialization point;
    // log the failed outcome.
    let cond = case_b_cond(p, step.log_key).and(guard);
    let log_false = log_actions(step.log_key, false, step.now_ms, Update::new());
    (p.crash)(Label::DaalWritePreLogFalse);
    #[expect(
        clippy::disallowed_methods,
        reason = "between Label::DaalWritePreLogFalse and Label::DaalWritePostLogFalse"
    )]
    match ids::logging(step.log_key, || p.db.update(table, pk, &cond, &log_false)) {
        Ok(()) => {
            (p.crash)(Label::DaalWritePostLogFalse);
            Ok(Some(WriteOutcome::ConditionFalse))
        }
        Err(DbError::ConditionFailed) => Ok(None),
        Err(e) => Err(refused(p, table, pk, e)),
    }
}

/// The error for a case-B update the store refused (a `RecentWrites` or
/// `LogSize` its bookkeeping cannot update): the row's decode error, when
/// it breaks a rule, else the store's.
fn refused(p: &DaalParams<'_>, table: &TableRef, pk: &PrimaryKey, e: DbError) -> BeldiError {
    let key = pk.hash_value().as_str().unwrap_or_default();
    match p.db.get(table, pk, None) {
        Ok(Some(row)) => DaalRow::decode(table.name(), key, &row)
            .err()
            .unwrap_or(e.into()),
        _ => e.into(),
    }
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
/// The new row's `Created` is a fresh clock read, taken after `prev` was
/// read full: no entry of `prev`, or of any row before it, was written
/// later than that stamp. The cached write's guard rests on it (see
/// [`TailCache`]).
///
/// Returns the row id the caller should advance to.
fn append_row(
    p: &DaalParams<'_>,
    table: &TableRef,
    key: &Arc<str>,
    prev: &Value,
    prev_id: &Arc<str>,
) -> BeldiResult<Arc<str>> {
    let new_id = (p.new_row_id)();
    debug_assert_ne!(&*new_id, ROW_HEAD);

    // 1. Create the new row with the carried-over state. This is the only
    // place a non-head row comes into being, so the marker set here is on
    // every one of them — linked, orphaned by a lost race, or orphaned by
    // a crash before step 2.
    let mut update = Update::new()
        .set(A_LOG_SIZE, Value::Int(0))
        .set(A_CREATED, Value::Int((p.now_ms)() as i64))
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
            let next = DaalRow::decode(table.name(), key, &row)?.next.cloned();
            next.ok_or_else(|| BeldiError::Protocol("link lost but NextRow absent".into()))
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
    table: &TableRef,
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

/// The `LockOwner` recorded on `key`'s tail row (`Null` if none).
pub(crate) fn lock_owner(db: &Database, table: &TableRef, key: &Arc<str>) -> BeldiResult<Value> {
    let tail = read_tail_row(db, table, key, &Projection::attrs([A_LOCK]))?;
    Ok(schema::lock_value(tail.as_ref()))
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
        /// When the writing intent was created; the clock reads 0, so a
        /// cached non-`HEAD` row passes its guard only when this is above 0.
        intent_created_ms: u64,
    }

    impl Fixture {
        fn new() -> Self {
            let db = Database::for_tests();
            db.create_table("t", daal_schema()).unwrap();
            Fixture {
                db,
                counter: AtomicU64::new(0),
                intent_created_ms: 0,
            }
        }

        /// The tail cache's `(hits, misses)` in the store's registry.
        fn hits_and_misses(&self) -> (u64, u64) {
            let t = self.db.telemetry();
            (t.get(Metric::TailCacheHits), t.get(Metric::TailCacheMisses))
        }

        fn params(&self) -> DaalParams<'_> {
            DaalParams {
                db: &self.db,
                capacity: 3,
                now_ms: &|| 0,
                tail_cache: None,
                head_first: false,
                intent_created_ms: self.intent_created_ms,
                crash: &no_crash,
                new_row_id: &|| unreachable!("row-id generator not wired"),
            }
        }

        /// One write step, uncached unless `cache` is given, with the
        /// store calls it made: `(gets, writes, queries)`.
        fn step(
            &self,
            cache: Option<&TailCache>,
            key: &str,
            log_key: &str,
            payload: Update,
            kind: StepKind<'_>,
        ) -> (WriteOutcome, (u64, u64, u64)) {
            let ids = &self.counter;
            let gen = move || format!("R{}", ids.fetch_add(1, Ordering::Relaxed)).into();
            let p = DaalParams {
                new_row_id: &gen,
                tail_cache: cache,
                head_first: cache.is_some(),
                ..self.params()
            };
            let before = self.db.metrics();
            let table = p.db.table("t");
            let out = try_write(&p, &table, &key.into(), &log_key.into(), payload, kind);
            let d = self.db.metrics().delta(&before);
            (out.unwrap(), (d.gets, d.writes, d.queries))
        }

        /// A lock try of intent `id` on `key`, as [`Fixture::step`] makes it.
        fn lock(
            &self,
            cache: Option<&TailCache>,
            key: &str,
            log_key: &str,
            id: &str,
        ) -> (WriteOutcome, (u64, u64, u64)) {
            let id: Arc<str> = id.into();
            let free = crate::SsfContext::lock_free_cond(&id);
            let payload = Update::new().set(A_LOCK, crate::txn::lock_owner_value(&id, 0));
            let kind = StepKind::Lock {
                free: &free,
                returning: false,
            };
            self.step(cache, key, log_key, payload, kind)
        }

        fn write(&self, key: &str, log_key: &str, v: i64) -> WriteOutcome {
            let payload = Update::new().set(A_VALUE, Value::Int(v));
            self.step(None, key, log_key, payload, StepKind::Write).0
        }

        fn cond_write(&self, key: &str, log_key: &str, v: i64, cond: Cond) -> WriteOutcome {
            let payload = Update::new().set(A_VALUE, Value::Int(v));
            self.step(None, key, log_key, payload, StepKind::Cond(&cond))
                .0
        }

        /// `key`'s value read through `cache`, with the store calls the
        /// read made: `(gets, queries)`.
        fn cached_read(&self, cache: &TailCache, key: &str) -> (Value, (u64, u64)) {
            let before = self.db.metrics();
            let v = read_value_cached(&self.db, Some(cache), &self.db.table("t"), &key.into());
            let d = self.db.metrics().delta(&before);
            (v.unwrap(), (d.gets, d.queries))
        }

        /// The `RecentWrites` map of `key`'s row `row_id`.
        fn log_of(&self, key: &str, row_id: &str) -> Option<Value> {
            let row = self.db.get("t", &PrimaryKey::hash_sort(key, row_id), None);
            row.unwrap()?.get_attr(A_WRITES).cloned()
        }

        fn value(&self, key: &str) -> Value {
            read_value_cached(&self.db, None, &self.db.table("t"), &key.into()).unwrap()
        }

        fn chain_len(&self, key: &str) -> usize {
            traverse(&self.db, &self.db.table("t"), &key.into(), None)
                .unwrap()
                .len()
        }
    }

    /// A write the store refuses on a damaged row — a `RecentWrites` that
    /// is not a map — is that row's `Corrupt`, not a store error; a
    /// damaged pointer is found by the traversal.
    #[test]
    fn a_write_to_a_damaged_row_is_corrupt() {
        let f = Fixture::new();
        f.write("k", "i#0", 1);
        let pk = PrimaryKey::hash_sort("k", ROW_HEAD);
        for (attr, bad) in [(A_WRITES, Value::Int(7)), (A_NEXT_ROW, Value::Int(7))] {
            let mut row = f.db.get("t", &pk, None).unwrap().unwrap();
            row.as_map_mut().unwrap().insert(attr, bad);
            #[expect(clippy::disallowed_methods, reason = "plants corruption")]
            f.db.put("t", row.clone()).unwrap();
            let p = f.params();
            let payload = Update::new().set(A_VALUE, Value::Int(2));
            let out = try_write(
                &p,
                &p.db.table("t"),
                &"k".into(),
                &"i#1".into(),
                payload,
                StepKind::Write,
            );
            assert_eq!(out, Err(schema::corrupt("t", "k", attr)));
            row.as_map_mut().unwrap().remove(attr);
            #[expect(clippy::disallowed_methods, reason = "repairs the row")]
            f.db.put("t", row).unwrap();
        }
    }

    #[test]
    fn first_write_creates_head() {
        let f = Fixture::new();
        assert_eq!(f.write("k", "i#0", 7), WriteOutcome::Applied(None));
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
        assert_eq!(f.write("k", "i#0", 1), WriteOutcome::Applied(None));
        // Re-execution of the same step: outcome replayed, value untouched.
        assert_eq!(f.write("k", "i#0", 999), WriteOutcome::Applied(None));
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
        assert_eq!(f.write("k", "early#0", 0), WriteOutcome::Applied(None));
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
        assert_eq!(ok, WriteOutcome::Applied(None));
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
        assert_eq!(out, WriteOutcome::Applied(None));
        assert_eq!(f.value("k"), Value::Int(99));
        assert_eq!(f.chain_len("k"), 2);
    }

    /// A lock's write sets the owner and, asked to, returns the item's
    /// value; a replay of the step returns none. A refused try is the
    /// traversal, the failed update and the re-read that names the holder,
    /// and writes nothing; tried again once the lock is free, the same
    /// step acquires.
    #[test]
    fn lock_payload_sets_owner() {
        let f = Fixture::new();
        f.write("k", "a#0", 1);
        let free = Cond::not_exists(A_LOCK).or(Cond::eq(A_LOCK, Value::Null));
        let lock = |log_key: &str, owner: &Value| {
            let payload = Update::new().set(A_LOCK, owner.clone());
            let kind = StepKind::Lock {
                free: &free,
                returning: true,
            };
            f.step(None, "k", log_key, payload, kind)
        };
        let owner = crate::txn::lock_owner_value(&"txn-1".into(), 17);
        let applied = WriteOutcome::Applied(Some(Value::Int(1)));
        assert_eq!(lock("a#1", &owner), (applied.clone(), (0, 1, 1)));
        assert_eq!(
            lock_owner(&f.db, &f.db.table("t"), &"k".into()).unwrap(),
            owner.clone()
        );
        // Its replay finds the step logged and returns no value.
        assert_eq!(lock("a#1", &owner).0, WriteOutcome::Applied(None));
        // A second transaction's try is refused.
        let other = crate::txn::lock_owner_value(&"txn-2".into(), 30);
        let before = f.db.snapshot();
        let refused = WriteOutcome::Refused(owner);
        assert_eq!(lock("b#0", &other), (refused, (1, 1, 1)));
        assert_eq!(f.db.snapshot(), before, "a refused try writes nothing");
        let release = Update::new().set(A_LOCK, Value::Null);
        f.step(None, "k", "a#2", release, StepKind::Write);
        assert_eq!(lock("b#0", &other).0, applied);
        let entry = beldi_value::vmap! { "b#0" => true };
        assert_eq!(f.log_of("k", "R0"), Some(entry), "one entry");
    }

    /// A refused lock try on a cached tail with room is one failed update
    /// and one projected get: it names the holder, writes nothing and
    /// keeps the cache entry.
    #[test]
    fn a_refused_lock_try_on_a_cached_tail_keeps_its_entry() {
        let f = Fixture::new();
        let cache = TailCache::new();
        let lock = |log_key: &str, id: &str| f.lock(Some(&cache), "k", log_key, id);
        assert_eq!(lock("a#0", "a").0, WriteOutcome::Applied(None));
        assert_eq!(cache.get("t", "k").as_deref(), Some(ROW_HEAD));
        let before = f.db.snapshot();
        let holder = crate::txn::lock_owner_value(&"a".into(), 0);
        for _ in 0..3 {
            let refused = (WriteOutcome::Refused(holder.clone()), (1, 1, 0));
            assert_eq!(lock("b#0", "b"), refused, "(gets, writes, queries)");
        }
        assert_eq!(f.db.snapshot(), before, "a refused try writes nothing");
        assert_eq!(cache.get("t", "k").as_deref(), Some(ROW_HEAD));
    }

    /// A lock try on a full tail whose lock is held is refused and appends
    /// no row, with the cache on as off. The cached row is no older than
    /// the intent, so its guard fails: the traversal finds no entry and
    /// ends at the row the re-read saw, and that read refuses.
    #[test]
    fn a_lock_refused_on_a_full_tail_appends_no_row() {
        for cached in [false, true] {
            let f = Fixture::new();
            let tail_cache = TailCache::new();
            let cache = cached.then_some(&tail_cache);
            f.lock(cache, "k", "a#0", "a");
            for step in 1..6 {
                let payload = Update::new().set(A_VALUE, Value::Int(step));
                f.step(cache, "k", &format!("a#{step}"), payload, StepKind::Write);
            }
            assert_eq!(f.chain_len("k"), 2, "`HEAD` and `R0`, both full");
            if cached {
                assert_eq!(tail_cache.get("t", "k").as_deref(), Some("R0"));
            }
            let before = f.db.snapshot();
            let holder = crate::txn::lock_owner_value(&"a".into(), 0);
            let refused = (WriteOutcome::Refused(holder), (1, 1, 1));
            assert_eq!(f.lock(cache, "k", "b#0", "b"), refused, "cached: {cached}");
            assert_eq!(f.db.snapshot(), before, "no row appended");
        }
    }

    /// A step whose cached non-`HEAD` tail is full tries case B there once
    /// and reads the row once, then appends: (1, 4, 1) (gets, writes,
    /// queries) for a plain write when the row is no older than the intent
    /// (the traversal checks the rows its guard stood for), and (1, 4, 0)
    /// when it is older. A lock on such a tail whose lock is free makes
    /// that one read, not a second one for a refusal.
    #[test]
    fn a_full_cached_tail_takes_one_try_and_one_read() {
        for (intent_created_ms, queries) in [(0, 1), (1, 0)] {
            let f = Fixture {
                intent_created_ms,
                ..Fixture::new()
            };
            let cache = TailCache::new();
            let write = |step: i64| {
                let payload = Update::new().set(A_VALUE, Value::Int(step));
                f.step(
                    Some(&cache),
                    "k",
                    &format!("w#{step}"),
                    payload,
                    StepKind::Write,
                )
            };
            (0..6).for_each(|step| drop(write(step)));
            assert_eq!(cache.get("t", "k").as_deref(), Some("R0"));
            let appended = (WriteOutcome::Applied(None), (1, 4, queries));
            assert_eq!(write(6), appended, "intent created at {intent_created_ms}");
            (7..9).for_each(|step| drop(write(step)));
            assert_eq!(cache.get("t", "k").as_deref(), Some("R1"));
            let lock = f.lock(Some(&cache), "k", "a#0", "a");
            assert_eq!(lock, appended, "intent created at {intent_created_ms}");
            assert_eq!(f.chain_len("k"), 4);
            assert_eq!(cache.get("t", "k").as_deref(), Some("R2"));
        }
    }

    /// An appended row's `Created` is a clock read taken after its
    /// predecessor was read full, not the time the write began: a cached
    /// write's guard needs every entry of an earlier row to be no younger
    /// than the tail's stamp.
    #[test]
    fn an_appended_row_is_stamped_after_its_predecessor_was_seen_full() {
        let f = Fixture::new();
        for step in 0..3 {
            f.write("k", &format!("i#{step}"), step);
        }
        // The write begins at 10; each case-B attempt moves the clock on
        // by 40, so the failed attempt on the full `HEAD`, and the re-read
        // that finds it full, happen at 50.
        let now = AtomicU64::new(10);
        let clock = || now.load(Ordering::Relaxed);
        let crash = |label: Label| {
            if label == Label::DaalWritePreApply {
                now.fetch_add(40, Ordering::Relaxed);
            }
        };
        let gen = || Arc::from("R-new");
        let p = DaalParams {
            now_ms: &clock,
            crash: &crash,
            new_row_id: &gen,
            ..f.params()
        };
        let out = try_write(
            &p,
            &p.db.table("t"),
            &"k".into(),
            &"i#3".into(),
            Update::new().set(A_VALUE, Value::Int(3)),
            StepKind::Write,
        )
        .unwrap();
        assert_eq!(out, WriteOutcome::Applied(None));
        assert_eq!(f.chain_len("k"), 2);
        let row = f.db.get("t", &PrimaryKey::hash_sort("k", "R-new"), None);
        let created = row.unwrap().unwrap().get_int(A_CREATED);
        assert!(
            created >= Some(50),
            "stamped {created:?}, before its predecessor was seen full at 50"
        );
    }

    /// A projected tail read leaves the row's write log in the store.
    #[test]
    fn tail_row_read_bills_what_it_projects() {
        let f = Fixture::new();
        f.write("k", "a#0", 1);
        let probe = || {
            let before = f.db.metrics().bytes_read;
            let row = read_tail_row(
                &f.db,
                &f.db.table("t"),
                &"k".into(),
                &Projection::attrs([A_VALUE]),
            )
            .unwrap();
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
        seed(&f.db, &f.db.table("t"), "k", Value::Int(10), 0).unwrap();
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
            let cached =
                read_value_cached(&f.db, Some(&cache), &f.db.table("t"), &"k".into()).unwrap();
            assert_eq!(cached, f.value("k"), "after step {step}");
        }
        // A second cached read is a pure hit and still agrees.
        let q_before = f.db.metrics().queries;
        let hit = read_value_cached(&f.db, Some(&cache), &f.db.table("t"), &"k".into()).unwrap();
        assert_eq!(hit, Value::Int(9));
        assert_eq!(f.db.metrics().queries, q_before, "hit must not scan");
    }

    /// An absent `HEAD` means no chain: one get answers `Null`.
    #[test]
    fn cached_read_of_absent_key_is_null_and_uncached() {
        let f = Fixture::new();
        let cache = TailCache::new();
        let (v, calls) = f.cached_read(&cache, "nope");
        assert_eq!(
            (v, calls),
            (Value::Null, (1, 0)),
            "(value, (gets, queries))"
        );
        assert!(cache.get("t", "nope").is_none(), "no negative caching");
    }

    /// A seeded key's chain is its `HEAD`: an uncached read is one get,
    /// and leaves `HEAD` cached.
    #[test]
    fn an_uncached_read_of_a_head_only_key_is_one_get() {
        let f = Fixture::new();
        let cache = TailCache::new();
        seed(&f.db, &f.db.table("t"), "k", Value::Int(10), 0).unwrap();
        let (v, calls) = f.cached_read(&cache, "k");
        assert_eq!(
            (v, calls),
            (Value::Int(10), (1, 0)),
            "(value, (gets, queries))"
        );
        assert_eq!(f.hits_and_misses(), (1, 0));
        assert_eq!(cache.get("t", "k").as_deref(), Some(ROW_HEAD));
    }

    /// A fresh key's uncached write is one update, which creates `HEAD`
    /// and leaves it cached.
    #[test]
    fn an_uncached_write_of_a_fresh_key_is_one_update() {
        let f = Fixture::new();
        let cache = TailCache::new();
        let payload = Update::new().set(A_VALUE, Value::Int(7));
        let (out, calls) = f.step(Some(&cache), "k", "i#0", payload, StepKind::Write);
        assert_eq!(
            (out, calls),
            (WriteOutcome::Applied(None), (0, 1, 0)),
            "(gets, writes, queries)"
        );
        assert_eq!(cache.get("t", "k").as_deref(), Some(ROW_HEAD));
        assert_eq!((f.value("k"), f.chain_len("k")), (Value::Int(7), 1));
        assert_eq!(
            f.log_of("k", ROW_HEAD),
            Some(beldi_value::vmap! { "i#0" => true })
        );
    }

    /// A false conditional write and a lock on a fresh key try `HEAD` as a
    /// plain write does: no query. They log their outcome on `HEAD`, which
    /// they leave cached. B1 fails and B2 logs `false`; the lock applies.
    #[test]
    fn a_false_cond_write_and_a_lock_on_a_fresh_key_are_updates_on_head() {
        let f = Fixture::new();
        let cache = TailCache::new();
        let payload = Update::new().set(A_VALUE, Value::Int(1));
        let never = Cond::eq(A_VALUE, Value::Int(5));
        let (out, calls) = f.step(Some(&cache), "c", "a#0", payload, StepKind::Cond(&never));
        assert_eq!((out, calls), (WriteOutcome::ConditionFalse, (0, 2, 0)));
        assert_eq!(
            f.log_of("c", ROW_HEAD),
            Some(beldi_value::vmap! { "a#0" => false })
        );
        assert_eq!(f.value("c"), Value::Null);

        let owner = crate::txn::lock_owner_value(&"txn-1".into(), 17);
        let free = Cond::not_exists(A_LOCK).or(Cond::eq(A_LOCK, Value::Null));
        let lock = Update::new().set(A_LOCK, owner.clone());
        let (out, calls) = f.step(
            Some(&cache),
            "l",
            "b#0",
            lock,
            StepKind::Lock {
                free: &free,
                returning: false,
            },
        );
        assert_eq!((out, calls), (WriteOutcome::Applied(None), (0, 1, 0)));
        assert_eq!(
            f.log_of("l", ROW_HEAD),
            Some(beldi_value::vmap! { "b#0" => true })
        );
        let table = f.db.table("t");
        assert_eq!(lock_owner(&f.db, &table, &"l".into()).unwrap(), owner);
        for key in ["c", "l"] {
            assert_eq!(cache.get("t", key).as_deref(), Some(ROW_HEAD), "{key}");
        }
        let t = f.db.telemetry();
        let counts = (
            t.get(Metric::TailCacheWriteHits),
            t.get(Metric::TailCacheWriteFallbacks),
        );
        assert_eq!(counts, (2, 0), "both resolved on `HEAD`");
    }

    /// On a key whose `HEAD` has a successor, the uncached read pays one
    /// get more than a traversal, and the write one failed update and the
    /// re-read that finds the successor; both find the tail's value and
    /// cache the tail.
    #[test]
    fn a_head_with_a_successor_falls_back_to_the_traversal() {
        let f = Fixture::new();
        for step in 0..5 {
            f.write("k", &format!("i#{step}"), step);
        }
        assert_eq!(f.chain_len("k"), 2);
        let cache = TailCache::new();
        let (v, calls) = f.cached_read(&cache, "k");
        assert_eq!(
            (v, calls),
            (Value::Int(4), (2, 1)),
            "(value, (gets, queries))"
        );
        assert_eq!(f.hits_and_misses(), (0, 1));
        let tail = cache.get("t", "k").unwrap();
        assert_ne!(&*tail, ROW_HEAD);

        let cache = TailCache::new();
        let payload = Update::new().set(A_VALUE, Value::Int(5));
        let (out, calls) = f.step(Some(&cache), "k", "i#5", payload, StepKind::Write);
        assert_eq!(
            (out, calls),
            (WriteOutcome::Applied(None), (1, 2, 1)),
            "(gets, writes, queries)"
        );
        assert_eq!(f.db.telemetry().get(Metric::TailCacheWriteFallbacks), 1);
        assert_eq!(cache.get("t", "k"), Some(tail));
        assert_eq!((f.value("k"), f.chain_len("k")), (Value::Int(5), 2));
    }

    /// A step logged in `HEAD` and replayed, uncached, after `HEAD` gained
    /// a successor: the plain step's `HEAD` attempt fails, its re-read
    /// finds the entry (case A), and the replay returns the logged outcome
    /// with no traversal and changes nothing; so does the conditional
    /// step's.
    #[test]
    fn a_step_logged_in_head_replays_after_head_gained_a_successor() {
        let f = Fixture::new();
        let cache = TailCache::new();
        let write = |v: i64| Update::new().set(A_VALUE, Value::Int(v));
        let never = Cond::eq(A_VALUE, Value::Int(-1));
        f.step(Some(&cache), "k", "early#0", write(42), StepKind::Write);
        f.step(
            Some(&cache),
            "k",
            "early#1",
            write(43),
            StepKind::Cond(&never),
        );
        for step in 0..4 {
            let log_key = format!("later#{step}");
            f.step(Some(&cache), "k", &log_key, write(step), StepKind::Write);
        }
        assert_eq!(f.chain_len("k"), 2);
        let before = f.db.snapshot();
        for (log_key, kind, logged) in [
            ("early#0", StepKind::Write, WriteOutcome::Applied(None)),
            (
                "early#1",
                StepKind::Cond(&never),
                WriteOutcome::ConditionFalse,
            ),
        ] {
            let (out, (_, _, queries)) =
                f.step(Some(&TailCache::new()), "k", log_key, write(0), kind);
            assert_eq!((out, queries), (logged, 0), "{log_key}");
        }
        assert_eq!(f.db.snapshot(), before, "a replay changes nothing");
        assert_eq!(f.value("k"), Value::Int(3));
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
        cache.put(&"t".into(), &"k".into(), &ROW_HEAD.into());
        let before = f.db.metrics();
        assert_eq!(
            read_value_cached(&f.db, Some(&cache), &f.db.table("t"), &"k".into()).unwrap(),
            Value::Null
        );
        let d = f.db.metrics().delta(&before);
        assert_eq!((d.gets, d.queries), (1, 0), "one get, no traversal");
        assert_eq!(f.hits_and_misses(), (1, 0));
        assert_eq!(cache.get("t", "k").as_deref(), Some(ROW_HEAD));
    }

    #[test]
    fn stale_cache_entry_falls_back_to_traversal() {
        let f = Fixture::new();
        let cache = TailCache::new();
        f.write("k", "a#0", 1);
        read_value_cached(&f.db, Some(&cache), &f.db.table("t"), &"k".into()).unwrap();
        let cached_row = cache.get("t", "k").unwrap();
        // Fill the row so the chain extends past the cached tail.
        for step in 1..5 {
            f.write("k", &format!("a#{step}"), step);
        }
        assert!(f.chain_len("k") > 1);
        let v = read_value_cached(&f.db, Some(&cache), &f.db.table("t"), &"k".into()).unwrap();
        assert_eq!(v, Value::Int(4));
        assert_ne!(cache.get("t", "k").unwrap(), cached_row, "entry refreshed");
        // A deleted cached row (GC) also falls back cleanly.
        cache.put(&"t".into(), &"k".into(), &"R-gone".into());
        assert_eq!(
            read_value_cached(&f.db, Some(&cache), &f.db.table("t"), &"k".into()).unwrap(),
            Value::Int(4)
        );
    }

    /// The cache holds one entry per key with a chain and nothing else:
    /// `n` keys written through it, every fourth past a row's capacity so
    /// that it appends, then read back, and `m` absent keys read, leave
    /// `n` entries, and every read is one get. A stale entry the read
    /// invalidates leaves.
    #[test]
    fn the_cache_holds_one_entry_per_key_with_a_chain() {
        let f = Fixture::new();
        let cache = TailCache::new();
        let (n, m) = (40, 25);
        for i in 0..n {
            let steps = if i % 4 == 0 { 5 } else { 1 };
            for step in 0..steps {
                let payload = Update::new().set(A_VALUE, Value::Int(i));
                let key = format!("k{i}");
                f.step(
                    Some(&cache),
                    &key,
                    &format!("w#{step}"),
                    payload,
                    StepKind::Write,
                );
            }
        }
        assert_eq!((f.chain_len("k0"), f.chain_len("k1")), (2, 1));
        for i in 0..n {
            assert_eq!(f.cached_read(&cache, &format!("k{i}")).0, Value::Int(i));
        }
        for i in 0..m {
            assert_eq!(f.cached_read(&cache, &format!("absent{i}")).0, Value::Null);
        }
        assert_eq!(f.hits_and_misses(), (65, 0), "every read one get");
        assert_eq!(cache.len(), 40, "absent reads add nothing");
        // A stale entry of a key with no chain: its read drops it.
        cache.put(&"t".into(), &"ghost".into(), &"R-gone".into());
        assert_eq!(cache.len(), 41);
        assert_eq!(f.cached_read(&cache, "ghost").0, Value::Null);
        assert_eq!((cache.len(), cache.get("t", "ghost")), (40, None));
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
                    let v = read_value_cached(&f.db, Some(&cache), &f.db.table("t"), &"hot".into())
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
            read_value_cached(&f.db, Some(&cache), &f.db.table("t"), &"hot".into()).unwrap(),
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
