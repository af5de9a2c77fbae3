//! Crash-point labels.
//!
//! A [`Label`] names a point where [`crate::FaultInjector::crash_point`]
//! (or a collector's observation hook) may kill the running instance. The
//! table at the bottom of this file is the one declaration: each row gives
//! a variant and the string reports, traces and crash signals print for
//! it. The enum, [`Label::as_str`] and [`Label::ALL`] are generated from
//! that table, so a probe, a [`crate::CrashPlan::AtLabel`] plan or a test
//! naming a label that does not exist does not compile.
//!
//! A probe may fire under any conditional: every explorer and chaos run
//! is on the seeded `SimClock`, so the crash stream is a function of the
//! seed and the plan, whatever work a run finds.
//!
//! # Adding a new crash point
//!
//! 1. Add a row to the table and fire `Label::Variant` at the probe. A
//!    store write in `core` that the point brackets names it in its
//!    `#[expect(clippy::disallowed_methods, reason = "between ..")]`.
//! 2. Make some run of `workload/tests/explore.rs::every_crash_label_is_reached_or_listed`
//!    pass the probe, or list the label there with the reason none can.

use beldi_simclock::{Event, EventKind};

/// Declares [`Label`] from its table (see the module docs).
macro_rules! labels {
    ( $( $(#[$doc:meta])* $label:ident => $str:literal, )* ) => {
        /// A crash-point label: where the fault injector may kill an
        /// instance. Displays as its dotted name (`wrapper.enter`).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Label {
            $( $(#[$doc])* $label, )*
        }

        impl Label {
            /// How many labels there are.
            pub const COUNT: usize = [$($str,)*].len();

            /// Every label, in table order: `ALL[l.index()] == l`.
            pub const ALL: [Label; Label::COUNT] = [$(Label::$label,)*];

            /// The label's dotted name, as reports and crash signals print it.
            pub const fn as_str(self) -> &'static str {
                match self {
                    $( Label::$label => $str, )*
                }
            }
        }
    };
}

impl Label {
    /// The label's position in [`Label::ALL`], for per-label arrays.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Whether the label belongs to a collector pass (`ic.*`, `gc.*`).
    pub const fn is_collector(self) -> bool {
        matches!(self.as_str().as_bytes(), [b'i' | b'g', b'c', b'.', ..])
    }
}

/// One crash-point visit, read back from the run record
/// ([`crash_stream`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Visit<'r> {
    /// Position in the global crash stream.
    pub step: u64,
    /// The instance that passed the point.
    pub instance: &'r str,
    /// The crash-point label.
    pub label: Label,
    /// Whether an injected crash fired here.
    pub crashed: bool,
}

/// The global crash stream a run record holds: its crash events, in
/// order, each with its label's name mapped back to the [`Label`].
pub fn crash_stream(record: &[Event]) -> impl Iterator<Item = Visit<'_>> {
    record.iter().filter_map(|event| match event.kind {
        EventKind::Crash {
            step,
            label,
            crashed,
        } => Some(Visit {
            step,
            instance: event.instance.as_deref().unwrap_or_default(),
            label: Label::ALL.into_iter().find(|l| l.as_str() == label)?,
            crashed,
        }),
        _ => None,
    })
}

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

labels! {
    // ---- Function wrapper (§3.2–3.3) ----

    /// First point of every wrapped execution, before the intent registers.
    WrapperEnter => "wrapper.enter",
    /// After the execution intent is registered (the first external action).
    WrapperPostIntent => "wrapper.post_intent",
    /// Before the result callback to the caller (Fig. 9 ordering).
    WrapperPreCallback => "wrapper.pre_callback",
    /// Between the callback and marking the intent done.
    WrapperPreDone => "wrapper.pre_done",
    /// After the intent is marked done, before the response returns.
    WrapperPostDone => "wrapper.post_done",
    /// Async callee registration (Fig. 20): after the intent logs,
    /// before the registration's reply.
    AsyncRegPostIntent => "asyncreg.post_intent",

    // ---- Logged storage operations (Figs. 5–7, 17–18) ----

    /// Entry of a logged read, before the storage read.
    ReadEnter => "read.enter",
    /// Before the read-log append (the value is read but not yet logged).
    ReadPreLog => "read.pre_log",
    /// After this execution won the read-log append. A replay that
    /// loses the first-writer race returns the recorded value instead.
    ReadPostLog => "read.post_log",
    /// Entry of a logged write step, before the atomic execute-and-log.
    WriteEnter => "write.enter",
    /// After the write step's atomicity scope completed (or replayed).
    WriteExit => "write.exit",

    // ---- Linked DAAL internals (§4.1, Fig. 7) ----

    /// Entry of the DAAL exactly-once write driver.
    DaalWriteEnter => "daal.write.enter",
    /// Before the case-B apply-and-log conditional update: once per
    /// chase round until a conditional update lands.
    DaalWritePreApply => "daal.write.pre_apply",
    /// After the apply-and-log update succeeded (success arm).
    DaalWritePostApply => "daal.write.post_apply",
    /// Before logging a false user-condition outcome (case B2):
    /// conditional writes only.
    DaalWritePreLogFalse => "daal.write.pre_log_false",
    /// After the false outcome was logged (success arm).
    DaalWritePostLogFalse => "daal.write.post_log_false",
    /// Before creating a fresh DAAL row (append step 1).
    DaalAppendPreCreate => "daal.append.pre_create",
    /// Between creating the row and linking it (the orphan window).
    DaalAppendPostCreate => "daal.append.post_create",
    /// After the link attempt (step 2), win or lose.
    DaalAppendPostLink => "daal.append.post_link",

    // ---- Invocations (Figs. 19–20) ----

    /// Before the invoke-log entry that names the callee id.
    InvokePreEntry => "invoke.pre_entry",
    /// Before the synchronous call to the callee.
    InvokePreCall => "invoke.pre_call",
    /// Before the async callee's registration round-trip. A
    /// re-execution whose registration was already confirmed skips it.
    InvokePreAsyncReg => "invoke.pre_asyncreg",
    /// Before the asynchronous fire of the registered callee.
    InvokePreAsyncCall => "invoke.pre_async_call",

    // ---- Transactions (§6.2) ----

    /// Entry of the finalize (commit/abort) protocol.
    TxnPreFinalize => "txn.pre_finalize",
    /// Before the one write that flushes a written item's shadow value
    /// to its real table and releases its lock (commit only): once per
    /// written shadow entry.
    TxnPreFlushItem => "txn.pre_flush_item",
    /// Before releasing the lock of an item with no flush: one the
    /// transaction only read, or any item on abort. Once per such
    /// entry.
    TxnPreReleaseItem => "txn.pre_release_item",
    /// Before propagating the decision to one callee: once per callee
    /// invoked inside the transaction.
    TxnPreSignal => "txn.pre_signal",
    /// After the finalize protocol completed.
    TxnPostFinalize => "txn.post_finalize",

    // ---- Intent collection (§3.3) ----

    /// IC pass entry, before the `Done = false` index scan.
    IcEnter => "ic.enter",
    /// After the index scan selected this pass's batch.
    IcPostScan => "ic.post_scan",
    /// Before one unfinished intent is re-launched: once per
    /// re-launched intent.
    IcPreRestart => "ic.pre_restart",
    /// IC pass exit.
    IcExit => "ic.exit",

    // ---- Garbage collection (§5, Fig. 10) ----

    /// Pass entry (before steps 1–2).
    GcEnter => "gc.enter",
    /// After intents are classified (steps 1–2).
    GcPostClassify => "gc.post_classify",
    /// After the recyclable intents' log entries are pruned (step 3).
    GcPostLogPrune => "gc.post_log_prune",
    /// Before one interior-row unlink (GC step 4). Fired through the
    /// GC's observation probe, for interleaving tests.
    GcStep4PreUnlink => "gc.step4.pre_unlink",
    /// Before the step-5 freshness re-scan (observation probe).
    GcStep5PreRescan => "gc.step5.pre_rescan",
    /// Before one expired-row delete (step 5; observation probe).
    GcStep5PreDelete => "gc.step5.pre_delete",
    /// After DAAL disconnect/delete maintenance (steps 4–5).
    GcPostDaal => "gc.post_daal",
    /// Pass exit (after step 6 removed the recycled intents).
    GcExit => "gc.exit",

    // ---- Platform ----

    /// A platform container has booted (startup delay paid) but
    /// dies before entering the handler. The concurrency permit is
    /// still freed and the caller observes `Crashed` with no intent
    /// row written by this attempt — recovery must re-run the
    /// invocation from scratch. This is the dispatch-handoff gap
    /// between `front.post_spawn` / `invoke_async` admission and
    /// `wrapper.enter`. It fires under the worker's request id.
    WorkerPreHandler => "worker.pre_handler",
    /// The platform killed an instance whose execution lease (`T_max`)
    /// expired. Not a probe: the wrapper checks the lease at every
    /// probe and delivers the kill via
    /// [`crate::FaultInjector::timeout_kill`], which tallies it here in
    /// the per-site crash counts.
    PlatformTMax => "platform.t_max",

    // ---- Network front door (DESIGN.md §14) ----
    //
    // The HTTP front door fires these on its admission participant and
    // catches its own `CrashSignal`, dropping the connection the way a
    // crashed gateway process would. They bracket the handoff into the
    // executor, so storms can lose a request before any intent exists,
    // orphan a running workflow whose reply nobody is waiting for, and
    // drop a reply after the workflow committed — the three retry
    // cases a client must survive.

    /// An invoke request is parsed, before its workflow task spawns on
    /// the executor. A crash here loses the request with no intent
    /// registered; only a client retry re-submits it.
    FrontEnter => "front.enter",
    /// The workflow task is live on the executor but the front door
    /// dies before hearing back. The workflow still finishes (the IC
    /// completes it if its own instance crashes); only the reply is
    /// lost.
    FrontPostSpawn => "front.post_spawn",
    /// The workflow's result is in hand, before the response bytes are
    /// written. A retry under the same instance id must replay the
    /// recorded result instead of re-executing.
    FrontPreReply => "front.pre_reply",
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn labels_are_well_formed() {
        let names: BTreeSet<&str> = Label::ALL.iter().map(|l| l.as_str()).collect();
        assert_eq!(names.len(), Label::COUNT, "duplicate label string");
        for (i, l) in Label::ALL.into_iter().enumerate() {
            assert_eq!(l.index(), i, "{l} is not at its index");
            let s = l.as_str();
            let dotted = s.split('.').count() >= 2
                && s.split('.').all(|seg| {
                    !seg.is_empty()
                        && seg
                            .chars()
                            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
                });
            assert!(dotted, "malformed label {s}");
        }
    }
}
