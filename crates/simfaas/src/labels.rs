//! The registry of crash-point labels.
//!
//! Every label the Beldi library passes to
//! [`crate::FaultInjector::crash_point`] (or to the GC's observation
//! hooks) is declared here, once, as a shared constant. This is the one
//! source of truth three consumers rely on:
//!
//! - the protocol code (`beldi` core) fires probes by constant, so a label
//!   cannot drift between the wrapper, the explorer, and the tests;
//! - tests and the crash-schedule explorer script plans against the same
//!   constants ([`crate::CrashPlan::AtLabel`] with a typo would otherwise
//!   silently explore nothing);
//! - `beldi-lint` parses this file into its label registry and enforces
//!   that labels are unique, well-formed, listed in [`ALL`], and that every
//!   label referenced anywhere in the workspace exists here.
//!
//! Label grammar (checked by `beldi-lint`): dotted step labels
//! `subsystem.step[.substep]` (lower_snake segments), or effect-relative
//! labels `op:before` / `op:after`.
//!
//! # Adding a new crash point
//!
//! 1. Declare the label constant here and add it to [`ALL`].
//! 2. Fire it via the constant at the call site — string literals at
//!    probe sites are a lint violation (`crash-points/label-literal`).
//! 3. If the probe sits under a conditional (a loop over found work, a
//!    success-only branch), add it to [`WORK_DEPENDENT`] — otherwise the
//!    `crash-points/conditional` lint fires, because a probe whose firing
//!    depends on the work found changes the global crash stream between
//!    runs and breaks the explorer's fixed-schedule determinism (the
//!    PR-5 "fixed probe count per pass" rule).

// ---- Function wrapper (§3.2–3.3) ----

/// First point of every wrapped execution, before the intent registers.
pub const WRAPPER_ENTER: &str = "wrapper.enter";
/// After the execution intent is registered (the first external action).
pub const WRAPPER_POST_INTENT: &str = "wrapper.post_intent";
/// Before the result callback to the caller (Fig. 9 ordering).
pub const WRAPPER_PRE_CALLBACK: &str = "wrapper.pre_callback";
/// Between the callback and marking the intent done.
pub const WRAPPER_PRE_DONE: &str = "wrapper.pre_done";
/// After the intent is marked done, before the response returns.
pub const WRAPPER_POST_DONE: &str = "wrapper.post_done";
/// Async callee registration (Fig. 20): after the intent logs, before the
/// confirmation callback.
pub const ASYNCREG_POST_INTENT: &str = "asyncreg.post_intent";

// ---- Logged storage operations (Figs. 5–7, 17–18) ----

/// Entry of a logged read, before the storage read.
pub const READ_ENTER: &str = "read.enter";
/// Before the read-log append (the value is read but not yet logged).
pub const READ_PRE_LOG: &str = "read.pre_log";
/// After this execution won the read-log append. Work-dependent: a replay
/// that loses the first-writer race returns the recorded value instead.
pub const READ_POST_LOG: &str = "read.post_log";
/// Entry of a logged write step, before the atomic execute-and-log.
pub const WRITE_ENTER: &str = "write.enter";
/// After the write step's atomicity scope completed (or replayed).
pub const WRITE_EXIT: &str = "write.exit";

// ---- Linked DAAL internals (§4.1, Fig. 7) ----

/// Entry of the DAAL exactly-once write driver.
pub const DAAL_WRITE_ENTER: &str = "daal.write.enter";
/// Before the case-B apply-and-log conditional update. Work-dependent:
/// fires once per chase round until a conditional update lands.
pub const DAAL_WRITE_PRE_APPLY: &str = "daal.write.pre_apply";
/// After the apply-and-log update succeeded. Work-dependent: success arm.
pub const DAAL_WRITE_POST_APPLY: &str = "daal.write.post_apply";
/// Before logging a false user-condition outcome (case B2).
/// Work-dependent: conditional writes only.
pub const DAAL_WRITE_PRE_LOG_FALSE: &str = "daal.write.pre_log_false";
/// After the false outcome was logged. Work-dependent: success arm.
pub const DAAL_WRITE_POST_LOG_FALSE: &str = "daal.write.post_log_false";

/// Before creating a fresh DAAL row (append step 1).
pub const DAAL_APPEND_PRE_CREATE: &str = "daal.append.pre_create";
/// Between creating the row and linking it (the orphan window).
pub const DAAL_APPEND_POST_CREATE: &str = "daal.append.post_create";
/// After the link attempt (step 2), win or lose.
pub const DAAL_APPEND_POST_LINK: &str = "daal.append.post_link";

// ---- Invocations (Figs. 19–20) ----

/// Before the invoke-log entry that names the callee id.
pub const INVOKE_PRE_ENTRY: &str = "invoke.pre_entry";
/// Before the synchronous call to the callee.
pub const INVOKE_PRE_CALL: &str = "invoke.pre_call";
/// Before the async callee's registration round-trip. Work-dependent: a
/// re-execution whose registration was already confirmed skips it.
pub const INVOKE_PRE_ASYNCREG: &str = "invoke.pre_asyncreg";
/// Before the asynchronous fire of the registered callee.
pub const INVOKE_PRE_ASYNC_CALL: &str = "invoke.pre_async_call";

// ---- Transactions (§6.2) ----

/// Entry of the finalize (commit/abort) protocol.
pub const TXN_PRE_FINALIZE: &str = "txn.pre_finalize";
/// Before the one write that flushes a written item's shadow value to its
/// real table and releases its lock (commit only). Work-dependent: once
/// per written shadow entry.
pub const TXN_PRE_FLUSH_ITEM: &str = "txn.pre_flush_item";
/// Before releasing the lock of an item with no flush: one the
/// transaction only read, or any item on abort. Work-dependent: once per
/// such entry.
pub const TXN_PRE_RELEASE_ITEM: &str = "txn.pre_release_item";
/// Before propagating the decision to one callee. Work-dependent: once
/// per callee invoked inside the transaction.
pub const TXN_PRE_SIGNAL: &str = "txn.pre_signal";
/// After the finalize protocol completed.
pub const TXN_POST_FINALIZE: &str = "txn.post_finalize";

// ---- Intent collection (§3.3) ----
//
// Like GC below, the three step-boundary labels fire exactly once per
// pass, independent of the work found; the restart probe is the
// work-dependent observation point (once per re-launched intent).

/// IC pass entry, before the `Done = false` index scan.
pub const IC_ENTER: &str = "ic.enter";
/// After the index scan selected this pass's batch.
pub const IC_POST_SCAN: &str = "ic.post_scan";
/// Before one unfinished intent is re-launched. Work-dependent probe.
pub const IC_PRE_RESTART: &str = "ic.pre_restart";
/// IC pass exit.
pub const IC_EXIT: &str = "ic.exit";

// ---- Garbage collection (§5, Fig. 10) ----
//
// The five step-boundary labels fire exactly once per pass, independent
// of the work found, so the explorer's global crash stream stays
// deterministic. The `gc.step*` probes are the fine-grained,
// work-dependent observation points used by interleaving tests.

/// Pass entry (before steps 1–2).
pub const GC_ENTER: &str = "gc.enter";
/// After intents are stamped/classified (steps 1–2).
pub const GC_POST_CLASSIFY: &str = "gc.post_classify";
/// After the recyclable intents' log entries are pruned (step 3).
pub const GC_POST_LOG_PRUNE: &str = "gc.post_log_prune";
/// After DAAL disconnect/delete maintenance (steps 4–5).
pub const GC_POST_DAAL: &str = "gc.post_daal";
/// Pass exit (after step 6 removed the recycled intents).
pub const GC_EXIT: &str = "gc.exit";
/// Before one interior-row unlink (step 4). Work-dependent probe.
pub const GC_STEP4_PRE_UNLINK: &str = "gc.step4.pre_unlink";
/// Before the step-5 freshness re-scan. Work-dependent probe.
pub const GC_STEP5_PRE_RESCAN: &str = "gc.step5.pre_rescan";
/// Before one expired-row delete (step 5). Work-dependent probe.
pub const GC_STEP5_PRE_DELETE: &str = "gc.step5.pre_delete";

// ---- Network front door (DESIGN.md §14) ----
//
// The HTTP front door fires these on the connection thread and catches
// its own `CrashSignal`, dropping the connection the way a crashed
// gateway process would. They bracket the handoff into the executor, so
// storms can lose a request before any intent exists, orphan a running
// workflow whose reply nobody is waiting for, and drop a reply after
// the workflow committed — the three retry cases a client must survive.

/// An invoke request is parsed, before its workflow task spawns on the
/// executor. A crash here loses the request with no intent registered;
/// only a client retry re-submits it.
pub const FRONT_ENTER: &str = "front.enter";
/// The workflow task is live on the executor but the front door dies
/// before hearing back. The workflow still finishes (the IC completes
/// it if its own instance crashes); only the reply is lost.
pub const FRONT_POST_SPAWN: &str = "front.post_spawn";
/// The workflow's result is in hand, before the response bytes are
/// written. A retry under the same instance id must replay the recorded
/// result instead of re-executing.
pub const FRONT_PRE_REPLY: &str = "front.pre_reply";

// ---- Platform dispatch ----

/// A platform worker thread has booted (startup delay paid) but dies
/// before entering the handler. The concurrency permit is still freed
/// and the caller observes `Crashed` with no intent row written by this
/// attempt — recovery must re-run the invocation from scratch. This is
/// the dispatch-handoff gap between `front.post_spawn` /
/// `invoke_async` admission and `wrapper.enter`.
pub const WORKER_PRE_HANDLER: &str = "worker.pre_handler";

// ---- Platform contract enforcement ----

/// The platform killed an instance whose execution lease (`T_max`)
/// expired. Not a probe label — the wrapper checks the lease at every
/// probe and delivers the kill via `FaultInjector::timeout_kill`, which
/// tallies it here in the per-site crash counts. Listed as
/// work-dependent since its firing is inherently timing-driven.
pub const PLATFORM_T_MAX: &str = "platform.t_max";

// ---- Platform-level effect labels ----

/// Before a simulated external write effect; used by platform-level
/// fault-injection tests that need an effect-relative label.
pub const WRITE_BEFORE: &str = "write:before";
/// After a simulated external write effect; the post-effect twin of
/// [`WRITE_BEFORE`].
pub const WRITE_AFTER: &str = "write:after";

/// Every declared crash-point label. `beldi-lint` checks that each label
/// constant above appears here exactly once and that every label
/// referenced by the explorer or the tests resolves into this registry.
pub const ALL: &[&str] = &[
    WRAPPER_ENTER,
    WRAPPER_POST_INTENT,
    WRAPPER_PRE_CALLBACK,
    WRAPPER_PRE_DONE,
    WRAPPER_POST_DONE,
    ASYNCREG_POST_INTENT,
    READ_ENTER,
    READ_PRE_LOG,
    READ_POST_LOG,
    WRITE_ENTER,
    WRITE_EXIT,
    DAAL_WRITE_ENTER,
    DAAL_WRITE_PRE_APPLY,
    DAAL_WRITE_POST_APPLY,
    DAAL_WRITE_PRE_LOG_FALSE,
    DAAL_WRITE_POST_LOG_FALSE,
    DAAL_APPEND_PRE_CREATE,
    DAAL_APPEND_POST_CREATE,
    DAAL_APPEND_POST_LINK,
    INVOKE_PRE_ENTRY,
    INVOKE_PRE_CALL,
    INVOKE_PRE_ASYNCREG,
    INVOKE_PRE_ASYNC_CALL,
    TXN_PRE_FINALIZE,
    TXN_PRE_FLUSH_ITEM,
    TXN_PRE_RELEASE_ITEM,
    TXN_PRE_SIGNAL,
    TXN_POST_FINALIZE,
    IC_ENTER,
    IC_POST_SCAN,
    IC_PRE_RESTART,
    IC_EXIT,
    GC_ENTER,
    GC_POST_CLASSIFY,
    GC_POST_LOG_PRUNE,
    GC_POST_DAAL,
    GC_EXIT,
    GC_STEP4_PRE_UNLINK,
    GC_STEP5_PRE_RESCAN,
    GC_STEP5_PRE_DELETE,
    FRONT_ENTER,
    FRONT_POST_SPAWN,
    FRONT_PRE_REPLY,
    WORKER_PRE_HANDLER,
    PLATFORM_T_MAX,
    WRITE_BEFORE,
    WRITE_AFTER,
];

/// Labels whose firing legitimately depends on the work a run finds
/// (loops over found items, success-only branches). Probes firing these
/// may sit under conditionals; every other label must fire
/// unconditionally on its path so the explorer's global crash stream is
/// identical across runs of the same schedule.
pub const WORK_DEPENDENT: &[&str] = &[
    READ_POST_LOG,
    DAAL_WRITE_PRE_APPLY,
    DAAL_WRITE_POST_APPLY,
    DAAL_WRITE_PRE_LOG_FALSE,
    DAAL_WRITE_POST_LOG_FALSE,
    INVOKE_PRE_ASYNCREG,
    TXN_PRE_FLUSH_ITEM,
    TXN_PRE_RELEASE_ITEM,
    TXN_PRE_SIGNAL,
    IC_PRE_RESTART,
    GC_STEP4_PRE_UNLINK,
    GC_STEP5_PRE_RESCAN,
    GC_STEP5_PRE_DELETE,
    // Fires with the worker's request id (allocated in dispatch order
    // across racing worker threads), so storm kill decisions keyed on it
    // would be interleaving-dependent — ineligible, like PLATFORM_T_MAX.
    WORKER_PRE_HANDLER,
    PLATFORM_T_MAX,
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn registry_labels_are_unique() {
        let set: BTreeSet<&str> = ALL.iter().copied().collect();
        assert_eq!(set.len(), ALL.len(), "duplicate label in ALL");
    }

    #[test]
    fn work_dependent_labels_are_registered() {
        for l in WORK_DEPENDENT {
            assert!(ALL.contains(l), "{l} missing from ALL");
        }
    }

    #[test]
    fn labels_are_well_formed() {
        for l in ALL {
            let ok_dotted = l.split('.').count() >= 2
                && l.split('.').all(|seg| {
                    !seg.is_empty()
                        && seg
                            .chars()
                            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
                });
            let ok_effect = matches!(l.split_once(':'), Some((op, side))
                if !op.is_empty() && matches!(side, "before" | "after"));
            assert!(ok_dotted || ok_effect, "malformed label {l}");
        }
    }
}
