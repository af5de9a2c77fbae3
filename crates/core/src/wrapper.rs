//! The Beldi function wrapper (§3.2–3.3).
//!
//! Developers "write SSF code as they do today, but link Beldi's library";
//! the wrapper is that library's runtime half. Registered as the platform
//! handler for the SSF, it:
//!
//! 1. decodes the invocation envelope — a body call, a callback, an
//!    async-registration request, or a commit/abort signal;
//! 2. for calls, registers the execution intent (first external action),
//!    determines the instance id (caller-assigned, or the platform
//!    request id for workflow roots), and, if the intent already
//!    completed, replays a root's recorded outcome or answers a callee's
//!    caller that the outcome is in its invoke log;
//! 3. runs the body with a [`SsfContext`], converting its result (or a
//!    dangling transaction) into a reply ([`invoke::Reply`]);
//! 4. calls the caller back (a result, or an async callee's confirmation)
//!    *before* marking the intent done (Fig. 9 — the ordering that keeps
//!    federated garbage collectors from outrunning the caller);
//! 5. marks the intent done ([`intent::mark_done`]): its log steps, its
//!    finish time and, with no caller, its outcome.
//!
//! Panics inside any step model crashes: the platform catches them and the
//! intent collector later re-executes the instance from its logs, as it
//! does one that gave up on an unanswered message ([`invoke::deliver`]).

use std::sync::{Arc, Weak};

use beldi_simclock::Op;
use beldi_simdb::DbError;
use beldi_simfaas::{FunctionHandler, InvocationCtx};
use beldi_value::Value;

use crate::config::Mode;
use crate::context::SsfContext;
use crate::env::{EnvCore, Ssf};
use crate::error::BeldiError;
use crate::intent;
use crate::invoke::{self, Envelope, Outcome};
use crate::txn::{decision_op, CallTree, TxnMode, TxnState};
use crate::Label;

/// Builds the platform handler wrapping SSF `ssf`.
///
/// The handler holds only a weak reference to the environment so dropping
/// the [`crate::BeldiEnv`] tears everything down; invocations racing the
/// teardown fail as crashes.
pub(crate) fn make_handler(core: Weak<EnvCore>, ssf: Arc<Ssf>) -> FunctionHandler {
    Arc::new(move |ictx: &InvocationCtx, payload: Value| -> Value {
        let Some(core) = core.upgrade() else {
            panic!("beldi: environment dropped");
        };
        dispatch(&core, &ssf, ictx, payload)
    })
}

fn dispatch(core: &Arc<EnvCore>, ssf: &Arc<Ssf>, ictx: &InvocationCtx, payload: Value) -> Value {
    let envelope = match Envelope::from_value(payload) {
        Ok(e) => e,
        Err(e) => return Outcome::Error(format!("bad envelope: {e}")).into_value(),
    };
    match envelope {
        Envelope::Call {
            id,
            input,
            caller,
            txn,
            is_async,
            first_attempt_ms,
        } => {
            let instance = id.unwrap_or_else(|| ictx.request_id().clone());
            if first_attempt_ms.is_some_and(|first| retry_window_closed(core, first)) {
                Outcome::Expired.into_value()
            } else if core.config.mode == Mode::Baseline {
                run_baseline(core, ssf, instance, input, first_attempt_ms)
            } else {
                run_call(core, ssf, instance, input, caller, txn, is_async)
            }
        }
        Envelope::Callback { callee_id, result } => {
            invoke::handle_callback(core, ssf, &callee_id, result).into_value()
        }
        Envelope::AsyncReg { id, input, caller } => run_async_reg(core, ssf, &id, input, &caller),
        Envelope::TxnSignal { id, txn, callees } => run_txn_signal(core, ssf, id, txn, callees),
    }
}

/// True when a retry first tried at `first_ms` lands past `first_ms + T`.
/// A root's intent finished after `first_ms` and is recycled only `T`
/// after that, so an admitted root retry finds it (DESIGN §13).
fn retry_window_closed(core: &EnvCore, first_ms: u64) -> bool {
    let t_ms = core.config.t_max.as_millis() as u64;
    core.platform.clock().now().as_millis() > first_ms.saturating_add(t_ms)
}

/// Baseline, the paper's comparison system: the body with no intent, no
/// logs, no guarantees, so a retry re-applies its killed attempt's effects.
fn run_baseline(
    core: &Arc<EnvCore>,
    ssf: &Arc<Ssf>,
    instance: Arc<str>,
    input: Value,
    first_attempt_ms: Option<u64>,
) -> Value {
    let faults = core.platform.faults();
    let now = core.platform.clock().now().as_millis();
    let probe = faults.instance_started(&instance);
    let mut ctx = SsfContext::new(core.clone(), ssf.clone(), probe, 0, now);
    let outcome = run_body(&mut ctx, &ssf.body, input);
    // A retry recovers from its first attempt. Nothing retries a finished
    // execution, so the injector forgets it, as the GC would.
    if let Some(first_ms) = first_attempt_ms {
        core.record_recovery(&instance, first_ms);
    }
    faults.forget(&instance);
    outcome.into_value()
}

/// The full Beldi call path (Fig. 19 for synchronous callees; the async
/// stub of Fig. 20 differs only in refusing unregistered intents and in
/// calling back a confirmation instead of a result).
fn run_call(
    core: &Arc<EnvCore>,
    ssf: &Arc<Ssf>,
    instance: Arc<str>,
    input: Value,
    caller: Option<Arc<str>>,
    txn: Option<crate::TxnContext>,
    is_async: bool,
) -> Value {
    let faults = core.platform.faults();
    let probe = faults.instance_started(&instance);
    faults.crash_point(&probe, Label::WrapperEnter);

    let db = &core.db;
    let intent_table = &ssf.intent_table;
    // The launch: the lease counts from this read, taken before the first
    // intent store op, so it ends no later than `T` after a done-mark that
    // op's record predates (DESIGN §13).
    let now_ms = core.platform.clock().now().as_millis();

    // The record of an earlier execution of this intent, if there was one.
    let earlier = if is_async {
        // Async stub (Fig. 20): only run intents that were registered by
        // the caller's registration step and are still incomplete, so the
        // GC can prune completed intents without interference.
        let _op = db.telemetry().op(Op::IntentRegister, &instance);
        match intent::load(db, intent_table, &instance) {
            Ok(Some(r)) if !r.done => Some(r),
            Ok(_) => return Outcome::Ok(Value::Null).into_value(),
            Err(e) => return Outcome::Error(e.to_string()).into_value(),
        }
    } else {
        // Synchronous path: register the intent (idempotent; the first
        // registration wins and re-executions adopt it). Its `Args` are
        // the call as the collector must re-send it, less what the row
        // holds itself.
        let args = Envelope::Call {
            id: Some(instance.clone()),
            input: input.clone(),
            caller: caller.clone(),
            txn: txn.clone(),
            is_async,
            first_attempt_ms: None,
        }
        .into_args();
        match intent::register(
            db,
            intent_table,
            &instance,
            args,
            is_async,
            caller.as_ref(),
            now_ms,
        ) {
            Ok(r) => r,
            Err(e) => return Outcome::Error(e.to_string()).into_value(),
        }
    };
    faults.crash_point(&probe, Label::WrapperPostIntent);
    let created_ms = earlier.as_ref().map_or(now_ms, |r| r.created_ms);

    if let Some(record) = earlier.filter(|r| r.done) {
        // Completed by a previous execution. A callee (the *recorded*
        // caller is authoritative: a duplicate dispatch's envelope might be
        // stale) called its caller back before its done-mark (Fig. 9), so
        // the caller's entry holds the outcome, or was collected with the
        // caller: answer `Logged` and send nothing. A root replays its `Ret`.
        core.record_recovery(&instance, created_ms);
        return match record.caller {
            Some(_) => Outcome::Logged.into_value(),
            None => record
                .root_outcome(intent_table.name())
                .unwrap_or_else(|e| Outcome::Error(e.to_string()).into_value()),
        };
    }

    // Fresh (or resumed) execution.
    let mut ctx = SsfContext::new(core.clone(), ssf.clone(), probe, created_ms, now_ms);
    ctx.caller = caller.clone();
    ctx.is_async = is_async;
    ctx.txn = txn.map(TxnState::inherited);
    let mut reply = run_body(&mut ctx, &ssf.body, input).into_value();
    if let (Some(t), Some(m)) = (ctx.txn.as_ref().filter(|t| !t.owned), reply.as_map_mut()) {
        t.tree(&ssf.name).put(m);
    }
    let ret = finish(core, &mut ctx, caller.as_deref(), reply);
    // The intent is durably done: if this instance was ever killed by the
    // injector, its recovery completes here (crashes *after* this point
    // land in the replay path above instead).
    core.record_recovery(ctx.instance_id(), created_ms);
    ret
}

/// Runs the body and normalizes its result, including cleanup of a
/// transaction the body created but did not end.
fn run_body(ctx: &mut SsfContext, body: &crate::env::SsfBody, input: Value) -> Outcome {
    let result = body(ctx, input);
    // A transaction begun here must be decided here: commit on success
    // (the usual straight-line `begin_tx … end_tx` already set `ended`),
    // abort on error. This mirrors the paper's end_tx, which "waits for
    // the result and runs either a commit or abort protocol depending on
    // the outcome of the contained operations".
    let outcome = match result {
        Ok(v) => Outcome::Ok(v),
        Err(BeldiError::TxnAborted) => Outcome::Abort,
        Err(e) => Outcome::Error(e.to_string()),
    };
    let Some(t) = ctx.txn.as_mut().filter(|t| t.owned && !t.ended) else {
        return outcome;
    };
    t.aborted |= !matches!(outcome, Outcome::Ok(_));
    match (ctx.end_tx(), outcome) {
        (Ok(crate::TxnOutcome::Aborted), Outcome::Ok(_)) => Outcome::Abort,
        (Err(e), Outcome::Ok(_) | Outcome::Abort) => Outcome::Error(e.to_string()),
        (_, outcome) => outcome,
    }
}

/// The completion sequence shared by calls and signals: callback to the
/// caller — a sync callee's reply, an async one's registration
/// confirmation — then mark the intent done (in that order — Fig. 9). The
/// callback's payload (or, with no caller, the intent's `Ret`) and the
/// value returned share one reply. A reply too large for the row that
/// stores it is replaced by [`Outcome::too_large`]: the caller records the
/// replacement in its entry and this callee answers `Logged`, or a root
/// stores and returns it.
fn finish(
    core: &Arc<EnvCore>,
    ctx: &mut SsfContext,
    caller: Option<&str>,
    mut outcome_value: Value,
) -> Value {
    let instance = ctx.instance().clone();
    ctx.crash(Label::WrapperPreCallback);
    if let Some(c) = caller {
        let result = (!ctx.is_async).then_some(&outcome_value);
        // Without the callback the caller may never learn the outcome: an
        // undelivered one gives up, and the intent collector retries the
        // whole tail. A caller that recorded a replacement reads its entry.
        if invoke::send_callback(core, c, &instance, result) == Outcome::Logged {
            outcome_value = Outcome::Logged.into_value();
        }
    }
    ctx.crash(Label::WrapperPreDone);
    let (table, now_ms) = (&ctx.ssf.intent_table, ctx.raw_now_ms());
    let mark_done =
        |ret| intent::mark_done(&core.db, table, &instance, ret, &ctx.log_steps, now_ms);
    let mut done = mark_done(caller.is_none().then(|| outcome_value.clone()));
    if let Err(BeldiError::Db(DbError::RowTooLarge { size, limit })) = done {
        outcome_value = Outcome::too_large(&outcome_value, size, limit);
        done = mark_done(Some(outcome_value.clone()));
    }
    if let Err(e) = done {
        if let BeldiError::Db(DbError::ConditionFailed) = e {
            // The intent row is gone: every instance registers before its
            // first effect, so absence means the GC already recycled this
            // intent — a duplicate finished it long ago and `finish +
            // T_max` elapsed. We are a zombie past our execution lease;
            // die like a timed-out instance instead of aborting the
            // process (the winner's outcome was already delivered).
            core.platform.faults().timeout_kill(&ctx.probe);
        }
        panic!("beldi: marking intent done failed: {e}");
    }
    ctx.crash(Label::WrapperPostDone);
    outcome_value
}

/// Handles an async-registration request (Fig. 20, `asyncCalleeRegistration`):
/// log the intent and return; the callee confirms on finishing ([`finish`]).
fn run_async_reg(
    core: &Arc<EnvCore>,
    ssf: &Ssf,
    instance: &Arc<str>,
    input: Value,
    caller: &Arc<str>,
) -> Value {
    let now_ms = core.platform.clock().now().as_millis();
    // Args = the call envelope the IC should re-fire, less what the row
    // holds itself.
    let call = Envelope::call(Some(instance.clone()), input, Some(caller.clone()), true);
    if let Err(e) = intent::register(
        &core.db,
        &ssf.intent_table,
        instance,
        call.into_args(),
        true,
        Some(caller),
        now_ms,
    ) {
        return Outcome::Error(e.to_string()).into_value();
    }
    // A probe on the callee's behalf, before any execution of it.
    let faults = core.platform.faults();
    faults.crash_point(&faults.probe(instance), Label::AsyncRegPostIntent);
    Outcome::Ok(Value::Null).into_value()
}

/// Handles a commit/abort signal (§6.2): an exactly-once instance that
/// skips the SSF's logic and runs only the decision protocol for its
/// share of the transaction, then signals its own callees.
///
/// Its instance id is this SSF's finalize marker for the transaction
/// ([`crate::ids::finalize_marker`]), so the registration below is the
/// SSF's finalize claim, which every later signal replays or resumes.
/// `callees` is the SSF's subtree of the transaction's call tree: whom
/// its finalize signals.
fn run_txn_signal(
    core: &Arc<EnvCore>,
    ssf: &Arc<Ssf>,
    instance: Arc<str>,
    txn: crate::TxnContext,
    callees: CallTree,
) -> Value {
    let probe = core.platform.faults().instance_started(&instance);
    let now_ms = core.platform.clock().now().as_millis();
    let envelope = Envelope::TxnSignal {
        id: instance.clone(),
        txn: txn.clone(),
        callees: callees.clone(),
    };
    let earlier = match intent::register(
        &core.db,
        &ssf.intent_table,
        &instance,
        envelope.into_args(),
        false,
        None,
        now_ms,
    ) {
        Ok(r) => r,
        Err(e) => return Outcome::Error(e.to_string()).into_value(),
    };
    let created_ms = earlier.as_ref().map_or(now_ms, |r| r.created_ms);
    if let Some(record) = earlier.filter(|r| r.done) {
        return record.ret.unwrap_or(Value::Null);
    }
    let decision = txn.mode;
    debug_assert!(matches!(decision, TxnMode::Commit | TxnMode::Abort));
    let mut ctx = SsfContext::new(core.clone(), ssf.clone(), probe, created_ms, now_ms);
    let mut state = TxnState::inherited(txn);
    for (callee, subtree) in callees.0 {
        state.invoked(&ssf.name, callee, subtree);
    }
    ctx.txn = Some(state);
    let op = ctx.op(decision_op(decision));
    let outcome = match ctx.finalize(decision) {
        Ok(()) => Outcome::Ok(Value::Null),
        Err(e) => Outcome::Error(e.to_string()),
    };
    drop(op);
    finish(core, &mut ctx, None, outcome.into_value())
}
