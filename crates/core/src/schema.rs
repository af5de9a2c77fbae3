//! Table naming and attribute constants.
//!
//! Beldi maintains, **per SSF** (data sovereignty, §2.2): an intent table,
//! one log table, and the SSF's data tables stored as linked DAALs
//! (Fig. 3). Each SSF's tables live under its own name prefix; an SSF can
//! only reach its own prefix through [`crate::SsfContext`].
//!
//! Fig. 3's read log and invoke log — and the cross-table mode's write
//! log — are one table, `{ssf}.log`: every logged operation of an instance
//! draws its key from the one step counter
//! ([`crate::SsfContext`]'s `next_log_key`), so entries of different kinds
//! never share a `LogKey`, and the transaction-id index is sparse, so only
//! invoke entries appear in it. An entry does not name its owner: the
//! intent's done-mark lists the steps it logged at ([`A_LOG_STEPS`]), and
//! the collector deletes those keys without asking the store.

use beldi_simdb::TableSchema;

// ---- Attribute names: linked DAAL rows (Fig. 4) ----

/// Item key (hash key of data tables).
pub const A_KEY: &str = "Key";
/// Row id within a DAAL (sort key); the head row has [`ROW_HEAD`].
pub const A_ROW_ID: &str = "RowId";
/// The item value as of this row.
pub const A_VALUE: &str = "Value";
/// Pointer to the next row (absent on the tail).
pub const A_NEXT_ROW: &str = "NextRow";
/// Number of write-log entries in this row.
pub const A_LOG_SIZE: &str = "LogSize";
/// The write log: map from log key to `Null` (plain write) or a boolean
/// (conditional-write outcome).
pub const A_WRITES: &str = "RecentWrites";
/// Lock owner (map `{id, ts}`) or `Null`/absent when free.
pub const A_LOCK: &str = "LockOwner";
/// GC dangling timestamp (ms), set when the row is disconnected.
pub const A_DANGLE: &str = "DangleTime";
/// Constant `true` on every row an append created, i.e. on every
/// non-head row; the head never carries it. Data tables index it (a
/// sparse index: a row without the attribute has no entry), and that
/// index is how the GC finds the keys that can hold garbage.
pub const A_APPENDED: &str = "Appended";

/// The distinguished row id of a DAAL head.
pub const ROW_HEAD: &str = "HEAD";

// ---- Attribute names: intent table (Fig. 3) ----

/// Instance id (hash key of the intent table).
pub const A_ID: &str = "Id";
/// Completion flag.
pub const A_DONE: &str = "Done";
/// Whether the instance was launched asynchronously.
pub const A_ASYNC: &str = "Async";
/// The call (or commit signal) to re-send, without the `Id`, `Caller` and
/// `Async` the row holds itself. Every intent carries it from
/// registration until its done-mark removes it; its one reader is the
/// intent collector, which reads only intents that are not done and puts
/// the row's fields back before it re-sends. A finalize marker an owner
/// claimed never carries it.
pub const A_ARGS: &str = "Args";
/// The outcome envelope, set by the done-mark only on an intent no caller
/// waits on: a workflow root (read back by `RootCall::settle` when a reply
/// was lost, and replayed to a retry) or a commit signal (replayed to a
/// duplicate signal). A callee's outcome is its caller's [`A_RESULT`], so
/// an intent with an [`A_CALLER`] never carries it.
pub const A_RET: &str = "Ret";
/// Name of the calling SSF, on a callee's intent only. The intent
/// collector puts it back into the call it re-sends, so the re-execution
/// calls the caller back; a done intent that has it answers a duplicate
/// call `logged` instead of replaying an outcome, and the done-mark stores
/// no [`A_RET`] beside it.
pub const A_CALLER: &str = "Caller";
/// Finish timestamp (ms), set with `Done` by the first done-mark (or the
/// finalize-marker claim); the GC's recycle horizon counts from it.
pub const A_FINISH: &str = "FinishTime";
/// Creation timestamp (ms).
pub const A_CREATED: &str = "Created";
/// Instance id of the transaction owner that claimed its SSF's finalize
/// marker (§6.2).
pub const A_CLAIMANT: &str = "Claimant";
/// Last (re-)launch timestamp (ms): set at registration, advanced by the
/// IC's compare-and-swap, removed by the done-mark. The IC is its one
/// reader, and reads it only on intents that are not done.
pub const A_LAST_LAUNCH: &str = "LastLaunch";
/// The step numbers at which the instance has an entry in its SSF's log,
/// a list of ints set by the done-mark. GC step 3 deletes
/// `log_key(Id, step)` for each; absent means the intent logged nothing
/// (a finalize marker, a quarantined intent, a body with no logged step).
pub const A_LOG_STEPS: &str = "LogSteps";

// ---- Attribute names: log entries (Fig. 3) ----

/// Log key `instance#step` (hash key of the log table).
pub const A_LOG_KEY: &str = "LogKey";
/// Callee function name, on invoke entries only: commit/abort propagation
/// reads it to find callees, and a callback's condition is that it exists.
/// The callee's instance id is not stored: it is the entry's `LogKey` plus
/// `.c` ([`crate::callee_id`]).
pub const A_CALLEE_FN: &str = "CalleeFn";
/// The callee's outcome envelope, set on a synchronous call's invoke entry
/// by the callee's callback (first writer wins) before the callee's
/// done-mark: the one place that outcome is stored. The caller reads it
/// when it replays the entry, when its dispatch failed after the callback
/// landed, and when the callee answered `logged`. An outcome too large for
/// the row is replaced here by an error naming the size and the limit.
pub const A_RESULT: &str = "Result";
/// `true` on an async call's invoke entry once the callee confirmed its
/// intent's registration; no other entry carries it, and it stays until
/// the entry is collected. Only `async_invoke`, replaying the entry, reads
/// it (to skip registering again).
pub const A_REGISTERED: &str = "Registered";
/// Transaction id the invocation happened under (indexed), or absent.
pub const A_TXN_ID: &str = "TxnId";
/// Logged write outcome in a cross-table-mode write-log entry.
pub const A_FLAG: &str = "Flag";

// ---- Attribute names: shadow tables (§6.2) ----

/// Original item key a shadow entry belongs to.
pub const A_ORIG_KEY: &str = "OrigKey";
/// Original (logical) data-table name a shadow entry belongs to.
pub const A_ORIG_TABLE: &str = "OrigTable";
/// True when the transaction actually wrote the item (vs only locking it).
pub const A_WRITTEN: &str = "Written";

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
/// log, or shadow tables — rather than application data.
///
/// The crash-schedule explorer uses this to split snapshot diffs
/// ([`beldi_simdb::SnapshotDiff::split`]): metadata legitimately differs
/// between a crash-free and a crashed-and-recovered run (extra intents,
/// replayed log entries), while application state must not. Note that in
/// Beldi mode the data tables themselves are linked DAALs whose rows
/// embed write logs, so raw data-table rows are only comparable between
/// *identically scheduled* runs; semantic equivalence goes through the
/// apps' canonical-state projections.
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
/// Both `TxnId` indexes, this one and the log's, stay: each is one `Query`
/// per finalize per table (five per benchmark reservation), and the only
/// durable list of what the transaction's instances of an SSF touched or
/// invoked, which its finalizing instance — for a callee, the decision's
/// signal instance, which ran none of them — must release and signal.
/// This one's answer also carries the entries: every row of an entry's
/// chain carries `TxnId`, and the query projects the rows' chain pointers,
/// `Written` and `Value`, so finalize walks each chain to its tail and
/// reads nothing else. That is sound because simdb's index answers from
/// the stored rows under their table lock (DESIGN §1: a strongly
/// consistent store), not from a copy that could lag them.
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

    #[test]
    fn shadow_key_is_unambiguous() {
        assert_eq!(&*shadow_key("t1", "k"), "t1|k");
        assert_ne!(shadow_key("t1", "k"), shadow_key("t2", "k"));
    }
}
