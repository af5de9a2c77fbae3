//! Table naming, attribute constants, and the stored-row format.
//!
//! Beldi maintains, **per SSF** (data sovereignty, §2.2): an intent table,
//! one log table, and the SSF's data tables stored as linked DAALs
//! (Fig. 3). Each SSF's tables live under its own name prefix; an SSF can
//! only reach its own prefix through [`crate::SsfContext`].
//!
//! Fig. 3's read, invoke and (cross-table mode) write logs are one table,
//! `{ssf}.log`: an instance's logged operations draw their keys from one
//! step counter, so entries of different kinds never share a `LogKey`.
//!
//! Every stored row is decoded here, by one decoder per row kind, and
//! each attribute under the one rule its constant states: *required*, or
//! *absent means X* where a writer relies on the absence. A present
//! attribute of the wrong kind, a missing required one, or a negative int
//! where a time or a step is stored is [`BeldiError::Corrupt`], never a
//! default (DESIGN §11).

use std::sync::Arc;

use beldi_simdb::{Projection, TableSchema};
use beldi_value::{Map, Path, Value};

use crate::error::{BeldiError, BeldiResult};
use crate::ids::{callee_id, StepNumber};
use crate::invoke::Outcome;
use crate::txn::{TxnContext, TxnMode};

// ---- Attribute names: linked DAAL rows (Fig. 4) ----

/// Item key (hash key of data tables); a shadow row's is
/// [`shadow_key`]. Required.
pub const A_KEY: &str = "Key";
/// Row id within a DAAL (sort key); the head row has [`ROW_HEAD`].
/// Required.
pub const A_ROW_ID: &str = "RowId";
/// The item value as of this row. On a data row absent means `Null` (a
/// lock-only `HEAD` has none); required on a read entry (a logged `Null`
/// is stored) and on a shadow row whose [`A_WRITTEN`] is true.
pub const A_VALUE: &str = "Value";
/// Pointer to the next row, a row id; absent means the row is the tail.
pub const A_NEXT_ROW: &str = "NextRow";
/// Number of write-log entries in this row; absent means 0 (a `HEAD`
/// before its first logged write).
pub const A_LOG_SIZE: &str = "LogSize";
/// The write log: map from log key to the step's outcome, a bool (a
/// conditional write logs its condition's). Absent means empty.
pub const A_WRITES: &str = "RecentWrites";
/// Lock owner `{Id, Ts}`; absent or `Null` means free.
pub const A_LOCK: &str = "LockOwner";
/// GC dangling timestamp (ms), set when the row is disconnected; absent
/// means the row is not.
pub const A_DANGLE: &str = "DangleTime";
/// Constant `true` on every non-head row, set by the append that created
/// it. Never read: the GC finds the keys that can hold garbage through
/// the data tables' sparse index on it.
pub const A_APPENDED: &str = "Appended";

/// The distinguished row id of a DAAL head.
pub const ROW_HEAD: &str = "HEAD";

// ---- Attribute names: intent table (Fig. 3) ----

/// Instance id (hash key of the intent table). Required.
pub const A_ID: &str = "Id";
/// Completion flag. Required.
pub const A_DONE: &str = "Done";
/// Whether the instance was launched asynchronously; absent means not
/// (a finalize marker has none).
pub const A_ASYNC: &str = "Async";
/// The call (or commit signal) to re-send, a map without the `Id`,
/// `Caller` and `Async` the row holds itself. Absent means none: the
/// done-mark removes it (its one reader, the IC, reads only intents that
/// are not done), and an owner's finalize marker never has one.
pub const A_ARGS: &str = "Args";
/// The outcome envelope, a map, set by the done-mark on an intent no
/// caller waits on: a root (replayed to a retry) or a commit signal.
/// Absent means none is stored here: a callee's is its caller's
/// [`A_RESULT`], an owner's finalize marker has none, and a done root
/// without one is corrupt.
pub const A_RET: &str = "Ret";
/// Name of the calling SSF; absent means a root or a commit signal. The
/// intent collector puts it back into the call it re-sends; a done intent
/// that has it answers a duplicate call `logged`.
pub const A_CALLER: &str = "Caller";
/// Finish timestamp (ms), set with `Done` by the first done-mark (or the
/// finalize-marker claim); required on a done intent, from which the
/// GC's recycle horizon counts.
pub const A_FINISH: &str = "FinishTime";
/// Creation timestamp (ms) of an intent or a DAAL row. Required.
pub const A_CREATED: &str = "Created";
/// Instance id of the transaction owner that claimed its SSF's finalize
/// marker (§6.2); absent on a marker a signal registered.
pub const A_CLAIMANT: &str = "Claimant";
/// Last (re-)launch timestamp (ms): set at registration, advanced by the
/// IC's compare-and-swap, removed by the done-mark. Required while the
/// intent is not done, the only time the IC reads it.
pub const A_LAST_LAUNCH: &str = "LastLaunch";
/// The steps at which the instance has a log entry, a list set by the
/// done-mark; GC step 3 deletes `log_key(Id, step)` for each. Absent
/// means the intent logged nothing.
pub const A_LOG_STEPS: &str = "LogSteps";

// ---- Attribute names: log entries (Fig. 3) ----

/// Log key `instance#step` (hash key of the log table). Required.
pub const A_LOG_KEY: &str = "LogKey";
/// Callee function name, required on an invoke entry (it is what makes a
/// log entry one): commit/abort propagation reads it, and a callback's
/// condition is that it exists. The callee's id is the entry's `LogKey`
/// plus `.c` ([`crate::callee_id`]).
pub const A_CALLEE_FN: &str = "CalleeFn";
/// The callee's outcome envelope, set on a synchronous call's invoke entry
/// by its callback (first writer wins) before its done-mark: the one
/// place that outcome is stored, or an error naming its size if too large.
/// Absent means the callback has not landed.
pub const A_RESULT: &str = "Result";
/// `true` on an async call's invoke entry once the callee confirmed its
/// registration, before its done-mark; absent means not confirmed. A
/// replay of `async_invoke` reads it to skip registering again.
pub const A_REGISTERED: &str = "Registered";
/// Transaction id the invocation happened under (indexed), or absent.
/// Never decoded: its index answers a query by value.
pub const A_TXN_ID: &str = "TxnId";
/// Logged write outcome in a cross-table-mode write-log entry. Required.
pub const A_FLAG: &str = "Flag";

// ---- Attribute names: shadow tables (§6.2) ----

/// Original item key a shadow entry belongs to. Required.
pub const A_ORIG_KEY: &str = "OrigKey";
/// Original (logical) data-table name a shadow entry belongs to.
/// Required.
pub const A_ORIG_TABLE: &str = "OrigTable";
/// True when the transaction actually wrote the item (vs only locking
/// it). Required.
pub const A_WRITTEN: &str = "Written";

// ---- Decoders ----

/// A decoded attribute, or the attribute that broke its rule.
pub(crate) type Rule<T> = Result<T, &'static str>;

/// `attr` of `row`: absent means `None`; present, it is of the kind
/// `kind` accepts.
pub(crate) fn opt<'v, T>(
    row: &'v Value,
    attr: &'static str,
    kind: impl FnOnce(&'v Value) -> Option<T>,
) -> Rule<Option<T>> {
    row.get_attr(attr).map(|v| kind(v).ok_or(attr)).transpose()
}

/// A required `attr` of `row`, of the kind `kind` accepts.
pub(crate) fn req<'v, T>(
    row: &'v Value,
    attr: &'static str,
    kind: impl FnOnce(&'v Value) -> Option<T>,
) -> Rule<T> {
    opt(row, attr, kind)?.ok_or(attr)
}

/// [`opt`] on a projected row the caller owns: taken, not cloned.
fn take<T>(row: &mut Value, attr: &'static str, kind: fn(Value) -> Option<T>) -> Rule<Option<T>> {
    row.take_attr(attr).map(|v| kind(v).ok_or(attr)).transpose()
}

/// A stored time (ms) or step: a non-negative int.
pub(crate) fn time(v: &Value) -> Option<u64> {
    u64::try_from(v.as_int()?).ok()
}

/// A string, taken as the shared string it is.
fn shared(v: Value) -> Option<Arc<str>> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// A map, as the value that holds it.
fn map(v: &Value) -> Option<&Value> {
    v.as_map().map(|_| v)
}

/// The error naming attribute `attr` of the row `key` in `table`.
pub(crate) fn corrupt(table: &str, key: &str, attr: &'static str) -> BeldiError {
    let (table, key) = (table.to_owned(), key.to_owned());
    BeldiError::Corrupt { table, key, attr }
}

/// A decoded intent row, finalize marker included.
#[derive(Debug, Clone)]
pub(crate) struct IntentRecord {
    pub id: Arc<str>,
    pub done: bool,
    pub is_async: bool,
    /// The call to re-send ([`crate::invoke::Envelope::into_args`]).
    pub args: Option<Value>,
    pub ret: Option<Value>,
    pub caller: Option<Arc<str>>,
    /// When the intent was registered (virtual ms): the start of the
    /// recovery-latency window.
    pub created_ms: u64,
    /// 0 once done.
    pub last_launch_ms: u64,
}

impl IntentRecord {
    /// Decodes a whole intent row. It shares its map with the stored one,
    /// so `Args` and `Ret` are read, not taken.
    pub fn decode(table: &str, row: &Value) -> BeldiResult<Self> {
        let mark = DoneMark::decode(table, row)?;
        let done = mark.finished_ms.is_some();
        let record = || -> Rule<Self> {
            Ok(IntentRecord {
                id: mark.id.clone(),
                done,
                is_async: opt(row, A_ASYNC, Value::as_bool)?.unwrap_or(false),
                args: opt(row, A_ARGS, map)?.cloned(),
                ret: opt(row, A_RET, map)?.cloned(),
                caller: opt(row, A_CALLER, Value::as_shared_str)?.cloned(),
                created_ms: req(row, A_CREATED, time)?,
                last_launch_ms: if done {
                    0
                } else {
                    req(row, A_LAST_LAUNCH, time)?
                },
            })
        };
        record().map_err(|attr| corrupt(table, mark.id, attr))
    }

    /// The outcome envelope a done root replays, its [`A_RET`].
    pub fn root_outcome(self, table: &str) -> BeldiResult<Value> {
        self.ret.ok_or_else(|| corrupt(table, &self.id, A_RET))
    }

    /// A finalize marker's [`A_CLAIMANT`], read from its whole row.
    pub fn claimant<'r>(table: &str, id: &str, row: &'r Value) -> BeldiResult<Option<&'r str>> {
        opt(row, A_CLAIMANT, Value::as_str).map_err(|attr| corrupt(table, id, attr))
    }
}

/// GC step 2's read of an intent row, projected to [`DoneMark::ATTRS`].
#[derive(Debug, Clone, Copy)]
pub struct DoneMark<'r> {
    /// The instance id.
    pub id: &'r Arc<str>,
    /// The finish time; `None` while the intent is not done.
    pub finished_ms: Option<u64>,
    table: &'r str,
    row: &'r Value,
}

impl<'r> DoneMark<'r> {
    /// The attributes the decoder reads.
    pub const ATTRS: [&'static str; 4] = [A_ID, A_DONE, A_FINISH, A_LOG_STEPS];

    /// Decodes an intent row's id, done flag and finish time.
    pub fn decode(table: &'r str, row: &'r Value) -> BeldiResult<Self> {
        let id = req(row, A_ID, Value::as_shared_str).map_err(|attr| corrupt(table, "", attr))?;
        let finished = match req(row, A_DONE, Value::as_bool) {
            Ok(true) => req(row, A_FINISH, time).map(Some),
            done => done.map(|_| None),
        };
        let finished_ms = finished.map_err(|attr| corrupt(table, id, attr))?;
        Ok(DoneMark {
            id,
            finished_ms,
            table,
            row,
        })
    }

    /// The steps the intent logged at, its [`A_LOG_STEPS`].
    pub fn log_steps(&self) -> BeldiResult<Vec<StepNumber>> {
        let steps = match opt(self.row, A_LOG_STEPS, Value::as_list) {
            Ok(steps) => steps.map_or(Some(Vec::new()), |s| s.iter().map(time).collect()),
            Err(_) => None,
        };
        steps.ok_or_else(|| corrupt(self.table, self.id, A_LOG_STEPS))
    }
}

/// A read entry's logged value, its [`A_VALUE`].
pub(crate) fn read_entry<'r>(table: &str, key: &str, row: &'r Value) -> BeldiResult<&'r Value> {
    req(row, A_VALUE, Some).map_err(|attr| corrupt(table, key, attr))
}

/// A cross-table write entry's logged outcome, its [`A_FLAG`].
pub(crate) fn write_entry(table: &str, key: &str, row: &Value) -> BeldiResult<bool> {
    req(row, A_FLAG, Value::as_bool).map_err(|attr| corrupt(table, key, attr))
}

/// A decoded invoke entry.
#[derive(Debug, Clone)]
pub(crate) struct InvokeEntry {
    /// The callee instance id, derived from the entry's key.
    pub callee_id: Arc<str>,
    /// The callee's outcome, once its callback landed.
    pub result: Option<Outcome>,
    /// Whether an async callee confirmed registration (on finishing).
    pub registered: bool,
}

impl InvokeEntry {
    /// Decodes the whole invoke entry at `log_key`. It shares its map with
    /// the stored one, so the result is read, not taken.
    pub fn decode(table: &str, log_key: &str, row: &Value) -> BeldiResult<Self> {
        let entry = || -> Rule<Self> {
            req(row, A_CALLEE_FN, Value::as_str)?;
            Ok(InvokeEntry {
                callee_id: callee_id(log_key),
                result: opt(row, A_RESULT, Outcome::decode)?,
                registered: opt(row, A_REGISTERED, Value::as_bool)?.unwrap_or(false),
            })
        };
        entry().map_err(|attr| corrupt(table, log_key, attr))
    }

    /// The callee function an invoke entry names, its [`A_CALLEE_FN`].
    pub fn callee_fn<'r>(table: &str, row: &'r Value) -> BeldiResult<&'r str> {
        let key = row.get_str(A_LOG_KEY).unwrap_or_default();
        req(row, A_CALLEE_FN, Value::as_str).map_err(|attr| corrupt(table, key, attr))
    }
}

/// A row of a DAAL traversal, projected by [`SkelRow::projection`].
#[derive(Debug, Clone)]
pub(crate) struct SkelRow {
    pub row_id: Arc<str>,
    pub next: Option<Arc<str>>,
    /// The step's flag, when the projection asked for one and this row
    /// logged the step.
    pub logged: Option<bool>,
}

impl SkelRow {
    /// Row id, pointer, and for a write step its `RecentWrites` entry.
    pub fn projection(log_key: Option<&Arc<str>>) -> Projection {
        let proj = Projection::attrs([A_ROW_ID, A_NEXT_ROW]);
        match log_key {
            Some(lk) => proj.with_path(Path::attr(A_WRITES).then_attr(lk.clone())),
            None => proj,
        }
    }

    /// Decodes a row the projection returned, taking its values.
    pub fn decode(
        table: &str,
        key: &str,
        mut row: Value,
        log_key: Option<&str>,
    ) -> BeldiResult<Self> {
        let mut skel = || -> Rule<Self> {
            let writes = opt(&row, A_WRITES, Value::as_map)?;
            let logged = log_key.map_or(Ok(None), |lk| flag(writes, lk))?;
            Ok(SkelRow {
                row_id: take(&mut row, A_ROW_ID, shared)?.ok_or(A_ROW_ID)?,
                next: take(&mut row, A_NEXT_ROW, shared)?,
                logged,
            })
        };
        skel().map_err(|attr| corrupt(table, key, attr))
    }
}

/// `log_key`'s flag in a write log; `None` when the step is not there.
fn flag(writes: Option<&Map>, log_key: &str) -> Rule<Option<bool>> {
    let flag = writes.and_then(|w| w.get(log_key));
    flag.map(|f| f.as_bool().ok_or(A_WRITES)).transpose()
}

/// A whole DAAL (or shadow) row, borrowed from the read that returned it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DaalRow<'r> {
    pub row_id: &'r Arc<str>,
    pub next: Option<&'r Arc<str>>,
    pub log_size: u64,
    pub writes: Option<&'r Map>,
    pub created_ms: u64,
    pub dangle_ms: Option<u64>,
}

impl<'r> DaalRow<'r> {
    /// Decodes `row` of `key`'s DAAL in `table`.
    pub fn decode(table: &str, key: &str, row: &'r Value) -> BeldiResult<Self> {
        let decoded = || -> Rule<Self> {
            Ok(DaalRow {
                row_id: req(row, A_ROW_ID, Value::as_shared_str)?,
                next: opt(row, A_NEXT_ROW, Value::as_shared_str)?,
                log_size: opt(row, A_LOG_SIZE, time)?.unwrap_or(0),
                writes: opt(row, A_WRITES, Value::as_map)?,
                created_ms: req(row, A_CREATED, time)?,
                dangle_ms: opt(row, A_DANGLE, time)?,
            })
        };
        decoded().map_err(|attr| corrupt(table, key, attr))
    }

    /// `log_key`'s flag in the row's write log, if it holds one.
    pub fn logged(&self, table: &str, key: &str, log_key: &str) -> BeldiResult<Option<bool>> {
        flag(self.writes, log_key).map_err(|attr| corrupt(table, key, attr))
    }

    /// True when the GC disconnected the row more than `t_ms` before
    /// `now_ms`.
    pub fn dangling_expired(&self, now_ms: u64, t_ms: u64) -> bool {
        self.dangle_ms
            .is_some_and(|d| now_ms.saturating_sub(d) > t_ms)
    }
}

/// A data row's value, its [`A_VALUE`], read through its shared map; an
/// absent row's is `Null` too.
pub(crate) fn data_value(row: Option<&Value>) -> Value {
    row.and_then(|r| r.get_attr(A_VALUE))
        .cloned()
        .unwrap_or(Value::Null)
}

/// The projection of a tail-cache probe.
pub(crate) const TAIL_PROBE: [&str; 2] = [A_VALUE, A_NEXT_ROW];

/// Decodes a tail-cache probe, taking its value: `None` once the row has
/// a successor.
pub(crate) fn tail_probe(table: &str, key: &str, mut row: Value) -> BeldiResult<Option<Value>> {
    match take(&mut row, A_NEXT_ROW, shared) {
        Ok(next) => Ok(next
            .is_none()
            .then(|| row.take_attr(A_VALUE).unwrap_or(Value::Null))),
        Err(attr) => Err(corrupt(table, key, attr)),
    }
}

/// Decodes a [`A_LOCK`] value as `(owner id, start ms)`; `None` if free.
pub(crate) fn lock_owner<'v>(
    table: &str,
    key: &str,
    v: &'v Value,
) -> BeldiResult<Option<(&'v str, u64)>> {
    let owner = || Some((v.get_str("Id")?, time(v.get_attr("Ts")?)?));
    match v.is_null() {
        true => Ok(None),
        false => owner().map(Some).ok_or_else(|| corrupt(table, key, A_LOCK)),
    }
}

/// A shadow row as finalize reads it, projected to [`ShadowRow::ATTRS`]:
/// at a chain's tail, one item a transaction touched in an SSF. Ordered
/// by item.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct ShadowRow {
    /// Logical data-table name.
    pub logical: Arc<str>,
    /// Original item key.
    pub key: Arc<str>,
    /// The buffered value when the transaction wrote the item; `None`
    /// when it only locked it.
    pub written: Option<Value>,
    pub row_id: Arc<str>,
    pub next: Option<Arc<str>>,
}

impl ShadowRow {
    /// The attributes the decoder reads.
    pub const ATTRS: [&'static str; 7] = [
        A_KEY,
        A_ROW_ID,
        A_NEXT_ROW,
        A_ORIG_KEY,
        A_ORIG_TABLE,
        A_WRITTEN,
        A_VALUE,
    ];

    /// Decodes a row the projection returned, taking its values, with its
    /// shadow key.
    pub fn decode(table: &str, mut row: Value) -> BeldiResult<(Arc<str>, Self)> {
        let skey = take(&mut row, A_KEY, shared).and_then(|k| k.ok_or(A_KEY));
        let skey = skey.map_err(|attr| corrupt(table, "", attr))?;
        let mut decoded = || -> Rule<Self> {
            Ok(ShadowRow {
                logical: take(&mut row, A_ORIG_TABLE, shared)?.ok_or(A_ORIG_TABLE)?,
                key: take(&mut row, A_ORIG_KEY, shared)?.ok_or(A_ORIG_KEY)?,
                written: written(&mut row)?,
                row_id: take(&mut row, A_ROW_ID, shared)?.ok_or(A_ROW_ID)?,
                next: take(&mut row, A_NEXT_ROW, shared)?,
            })
        };
        let decoded = decoded().map_err(|attr| corrupt(table, &skey, attr))?;
        Ok((skey, decoded))
    }
}

/// A shadow row's buffered write, taken: its [`A_VALUE`] if [`A_WRITTEN`].
fn written(row: &mut Value) -> Rule<Option<Value>> {
    match req(row, A_WRITTEN, Value::as_bool)? {
        true => take(row, A_VALUE, Some)?.ok_or(A_VALUE).map(Some),
        false => Ok(None),
    }
}

/// The projection of a transaction's read of its own shadow write.
pub(crate) const SHADOW_PROBE: [&str; 2] = [A_WRITTEN, A_VALUE];

/// Decodes that read of a shadow chain's tail, taking its value.
pub(crate) fn shadow_probe(table: &str, key: &str, mut row: Value) -> BeldiResult<Option<Value>> {
    written(&mut row).map_err(|attr| corrupt(table, key, attr))
}

impl TxnContext {
    /// Decodes a context: `Id`, `StartMs` (a time) and `Mode`, required.
    pub(crate) fn decode(v: &Value) -> Option<Self> {
        Some(TxnContext {
            id: v.get_shared_str("Id")?.clone(),
            start_ms: time(v.get_attr("StartMs")?)?,
            mode: TxnMode::parse(v.get_str("Mode")?)?,
        })
    }
}

impl Outcome {
    /// Decodes an outcome envelope: `Ret` is required on an `ok`, `Msg`
    /// on an `error`. The return value is read, not taken.
    pub(crate) fn decode(v: &Value) -> Option<Self> {
        Some(match v.get_str("Outcome")? {
            "ok" => Outcome::Ok(v.get_attr("Ret")?.clone()),
            "abort" => Outcome::Abort,
            "error" => Outcome::Error(v.get_str("Msg")?.to_owned()),
            "expired" => Outcome::Expired,
            "logged" => Outcome::Logged,
            _ => return None,
        })
    }
}

// ---- Table names ----

/// Name of an SSF's intent table.
pub fn intent_table(ssf: &str) -> String {
    format!("{ssf}.intent")
}

/// Name of an SSF's log table: its read and invoke entries and, in
/// cross-table mode, its write entries.
pub fn log_table(ssf: &str) -> String {
    format!("{ssf}.log")
}

/// Fully qualified name of an SSF data table.
pub fn data_table(ssf: &str, table: &str) -> String {
    format!("{ssf}.data.{table}")
}

/// Name of the shadow table backing a data table (§6.2).
pub fn shadow_table(ssf: &str, table: &str) -> String {
    format!("{ssf}.data.{table}.shadow")
}

/// True when `table` is one of Beldi's own metadata tables — intent,
/// log, or shadow tables — rather than application data. The
/// crash-schedule explorer splits snapshot diffs by it
/// ([`beldi_simdb::SnapshotDiff::split`]): metadata legitimately differs
/// between a crash-free and a recovered run, application state must not.
pub fn is_meta_table(table: &str) -> bool {
    // Shadow tables are `{ssf}.data.{logical}.shadow`: the stem before the
    // suffix must still contain `.data.` — this keeps an application table
    // whose *logical* name is literally "shadow" (`{ssf}.data.shadow`)
    // classified as data.
    if let Some(stem) = table.strip_suffix(".shadow") {
        if stem.contains(".data.") {
            return true;
        }
    }
    // Everything under `.data.` is an application table, whatever its
    // logical name (`{ssf}.data.log` is data, not the log).
    if table.contains(".data.") {
        return false;
    }
    table.ends_with(".intent") || table.ends_with(".log")
}

// ---- Schemas ----

/// Schema of a linked-DAAL data table: hash `Key`, sort `RowId`, indexed
/// by the appended-row marker (the GC's candidate list).
pub fn daal_schema() -> TableSchema {
    TableSchema::hash_and_sort(A_KEY, A_ROW_ID).with_index(A_APPENDED)
}

/// Schema of an intent table (secondary index on `Done` — the IC's
/// index optimization, §3.3).
pub fn intent_schema() -> TableSchema {
    TableSchema::hash_only(A_ID).with_index(A_DONE)
}

/// Schema of a log table: indexed — invoke entries only, the index being
/// sparse — by transaction id for commit/abort propagation. A callback
/// writes its entry by key, and the collector deletes the keys the
/// intent's [`A_LOG_STEPS`] names.
pub fn log_schema() -> TableSchema {
    TableSchema::hash_only(A_LOG_KEY).with_index(A_TXN_ID)
}

/// Schema of a plain one-row-per-key data table (baseline and cross-table
/// modes).
pub fn plain_data_schema() -> TableSchema {
    TableSchema::hash_only(A_KEY)
}

/// Schema of a shadow table: hash `Key` (= `txn|key`), sort `RowId`,
/// indexed by transaction id.
///
/// Both `TxnId` indexes, this one and the log's, are the only durable
/// list of what a transaction's instances of an SSF touched or invoked,
/// which its finalizing instance must release and signal. This one's
/// answer also carries the entries (`ShadowRow::ATTRS`): every row of a
/// chain carries `TxnId`, and simdb's index answers from the stored rows
/// under their table lock (DESIGN §1), not from a copy that could lag.
pub fn shadow_schema() -> TableSchema {
    TableSchema::hash_and_sort(A_KEY, A_ROW_ID).with_index(A_TXN_ID)
}

/// The combined hash key of a shadow DAAL: transaction id + original key.
pub fn shadow_key(txn_id: &str, key: &str) -> std::sync::Arc<str> {
    crate::ids::shared(format_args!("{txn_id}|{key}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_names_are_prefixed_per_ssf() {
        assert_eq!(intent_table("hotel"), "hotel.intent");
        assert_eq!(log_table("hotel"), "hotel.log");
        assert_eq!(data_table("hotel", "rooms"), "hotel.data.rooms");
        assert_eq!(shadow_table("hotel", "rooms"), "hotel.data.rooms.shadow");
        // Two SSFs never share a table name.
        assert_ne!(intent_table("a"), intent_table("b"));
    }

    #[test]
    fn schemas_have_expected_indexes() {
        assert_eq!(intent_schema().index_attrs, [A_DONE]);
        assert_eq!(log_schema().index_attrs, [A_TXN_ID]);
        assert_eq!(daal_schema().sort_attr.as_deref(), Some(A_ROW_ID));
        assert_eq!(daal_schema().index_attrs, [A_APPENDED]);
        assert_eq!(shadow_schema().index_attrs, [A_TXN_ID]);
    }

    #[test]
    fn meta_table_classifier_matches_naming() {
        for t in [intent_table("f"), log_table("f"), shadow_table("f", "t")] {
            assert!(is_meta_table(&t), "{t} must classify as metadata");
        }
        assert!(!is_meta_table(&data_table("f", "t")));
        // Application tables whose logical names collide with metadata
        // suffixes stay application data.
        for logical in ["log", "intent", "shadow"] {
            let t = data_table("f", logical);
            assert!(!is_meta_table(&t), "{t} is app data, not metadata");
        }
        assert!(is_meta_table("f.log") && !is_meta_table("f.data.log"));
        // ...while a real shadow of such a table is still metadata.
        assert!(is_meta_table(&shadow_table("f", "log")));
    }

    /// `row` with `attr` set to `v`, or removed when `v` is `None`.
    fn with(row: &Value, attr: &'static str, v: Option<Value>) -> Value {
        let mut row = row.clone();
        let m = row.as_map_mut().unwrap();
        match v {
            Some(v) => drop(m.insert(attr, v)),
            None => drop(m.remove(attr)),
        }
        row
    }

    /// Every silent default an intent row used to decode is `Corrupt`: a
    /// non-bool `Done` is not "not done", a non-int or negative
    /// `Created`/`LastLaunch` is not 0, and a row without `Id` is not
    /// skipped.
    #[test]
    fn an_intent_row_breaking_a_rule_is_corrupt() {
        let row = beldi_value::vmap! {
            A_ID => "x", A_DONE => false, A_ASYNC => false, A_CREATED => 1i64,
            A_LAST_LAUNCH => 1i64, A_ARGS => beldi_value::vmap! { "Op" => "call" }
        };
        let rec = IntentRecord::decode("i", &row).unwrap();
        assert!(!rec.done && rec.args.is_some() && rec.caller.is_none());
        let done = beldi_value::vmap! { A_ID => "x", A_DONE => true, A_FINISH => 2i64 };
        let cases = [
            (&row, A_DONE, Some(Value::from("false"))),
            (&row, A_CREATED, Some(Value::from("1"))),
            (&row, A_CREATED, Some(Value::Int(-1))),
            (&row, A_CREATED, None),
            (&row, A_LAST_LAUNCH, Some(Value::from("1"))),
            (&row, A_LAST_LAUNCH, None),
            (&row, A_ASYNC, Some(Value::Int(1))),
            (&row, A_ARGS, Some(Value::Int(1))),
            (&row, A_CALLER, Some(Value::Int(1))),
            (&done, A_FINISH, None),
            (&done, A_FINISH, Some(Value::Int(-2))),
        ];
        for (row, attr, v) in cases {
            let bad = with(row, attr, v.clone());
            let err = IntentRecord::decode("i", &bad).unwrap_err();
            assert_eq!(err, corrupt("i", "x", attr), "{attr} = {v:?}");
        }
        let no_id = with(&row, A_ID, None);
        let err = IntentRecord::decode("i", &no_id).unwrap_err();
        assert_eq!(err, corrupt("i", "", A_ID));
        // A claimed finalize marker: no `Async`, `Args` or `LastLaunch`.
        let marker = with(&done, A_CLAIMANT, Some(Value::from("owner")));
        let marker = with(&marker, A_CREATED, Some(Value::Int(2)));
        let rec = IntentRecord::decode("i", &marker).unwrap();
        assert!(rec.done && !rec.is_async && rec.args.is_none());
        assert_eq!(IntentRecord::claimant("i", "x", &marker), Ok(Some("owner")));
        let bad = with(&marker, A_CLAIMANT, Some(Value::Int(1)));
        let err = IntentRecord::claimant("i", "x", &bad).unwrap_err();
        assert_eq!(err, corrupt("i", "x", A_CLAIMANT));
        // A done root without its outcome has nothing to replay.
        let err = rec.root_outcome("i").unwrap_err();
        assert_eq!(err, corrupt("i", "x", A_RET));
    }

    /// A log entry's decoders: a read entry without its value, a write
    /// entry without its flag, and an invoke entry whose `Registered` is
    /// not a bool (not "unconfirmed", which re-registers) or whose
    /// `Result` is no outcome (an `error` without its `Msg` is not
    /// "unknown error") are `Corrupt`.
    #[test]
    fn a_log_entry_breaking_a_rule_is_corrupt() {
        let key = beldi_value::vmap! { A_LOG_KEY => "i#0" };
        assert_eq!(
            read_entry("l", "i#0", &key),
            Err(corrupt("l", "i#0", A_VALUE))
        );
        let null = with(&key, A_VALUE, Some(Value::Null));
        assert_eq!(read_entry("l", "i#0", &null), Ok(&Value::Null));
        assert_eq!(
            write_entry("l", "i#0", &key),
            Err(corrupt("l", "i#0", A_FLAG))
        );
        let entry = with(&key, A_CALLEE_FN, Some(Value::from("g")));
        let decoded = InvokeEntry::decode("l", "i#0", &entry).unwrap();
        assert_eq!(&*decoded.callee_id, "i#0.c");
        assert!(decoded.result.is_none() && !decoded.registered);
        let no_msg = beldi_value::vmap! { "Outcome" => "error" };
        for (attr, v) in [
            (A_REGISTERED, Some(Value::from("true"))),
            (A_RESULT, Some(no_msg)),
            (A_RESULT, Some(Value::Int(1))),
            (A_CALLEE_FN, None),
        ] {
            let bad = with(&entry, attr, v.clone());
            let err = InvokeEntry::decode("l", "i#0", &bad).unwrap_err();
            assert_eq!(err, corrupt("l", "i#0", attr), "{attr} = {v:?}");
        }
    }

    /// DAAL and shadow rows: a row without `Created` is not one created
    /// at 0, a pointer or a flag of the wrong kind is not absent, a
    /// written shadow tail without its value is not `Null`, and a shadow
    /// row without its `OrigTable` does not belong to the table it is in.
    #[test]
    fn a_daal_or_shadow_row_breaking_a_rule_is_corrupt() {
        let writes = beldi_value::vmap! { "i#0" => true, "i#1" => 1i64 };
        let row = beldi_value::vmap! {
            A_KEY => "k", A_ROW_ID => ROW_HEAD, A_CREATED => 0i64, A_WRITES => writes
        };
        let decoded = DaalRow::decode("t", "k", &row).unwrap();
        assert_eq!((decoded.log_size, decoded.next), (0, None));
        assert_eq!(decoded.logged("t", "k", "i#0"), Ok(Some(true)));
        assert_eq!(
            decoded.logged("t", "k", "i#1"),
            Err(corrupt("t", "k", A_WRITES))
        );
        for (attr, v) in [
            (A_CREATED, None),
            (A_NEXT_ROW, Some(Value::Int(1))),
            (A_LOG_SIZE, Some(Value::Int(-1))),
            (A_DANGLE, Some(Value::from("1"))),
            (A_WRITES, Some(Value::Int(1))),
        ] {
            let bad = with(&row, attr, v.clone());
            let err = DaalRow::decode("t", "k", &bad).unwrap_err();
            assert_eq!(err, corrupt("t", "k", attr), "{attr} = {v:?}");
        }
        let skel = SkelRow::decode("t", "k", row.clone(), Some("i#1")).unwrap_err();
        assert_eq!(skel, corrupt("t", "k", A_WRITES));
        let pointer = with(&row, A_NEXT_ROW, Some(Value::Int(1)));
        let err = tail_probe("t", "k", pointer).unwrap_err();
        assert_eq!(err, corrupt("t", "k", A_NEXT_ROW));

        let shadow = beldi_value::vmap! {
            A_KEY => "tx|k", A_ROW_ID => ROW_HEAD, A_ORIG_KEY => "k", A_ORIG_TABLE => "t",
            A_WRITTEN => true, A_VALUE => 3i64
        };
        let (skey, decoded) = ShadowRow::decode("s", shadow.clone()).unwrap();
        assert_eq!((&*skey, decoded.written), ("tx|k", Some(Value::Int(3))));
        for (attr, v) in [
            (A_ORIG_TABLE, None),
            (A_ORIG_KEY, Some(Value::Int(1))),
            (A_WRITTEN, None),
            (A_VALUE, None),
        ] {
            let bad = with(&shadow, attr, v.clone());
            let err = ShadowRow::decode("s", bad).unwrap_err();
            assert_eq!(err, corrupt("s", "tx|k", attr), "{attr} = {v:?}");
        }
        let unwritten = with(&shadow, A_VALUE, None);
        let err = shadow_probe("s", "tx|k", unwritten.clone()).unwrap_err();
        assert_eq!(err, corrupt("s", "tx|k", A_VALUE));
        let locked = with(&unwritten, A_WRITTEN, Some(Value::Bool(false)));
        assert_eq!(shadow_probe("s", "tx|k", locked), Ok(None));
    }

    #[test]
    fn shadow_key_is_unambiguous() {
        assert_eq!(&*shadow_key("t1", "k"), "t1|k");
        assert_ne!(shadow_key("t1", "k"), shadow_key("t2", "k"));
    }
}
