//! Exactly-once SSF invocations and the callback protocol (§4.5).
//!
//! There is no way to atomically log into a database *and* invoke another
//! function, so Beldi decomposes an invocation into (1) the call itself
//! and (2) the recording of its result, performed by the **callee** via an
//! automatic *callback* invocation of some instance of the caller's
//! function (Fig. 9). Only after the callback lands in the caller's
//! invoke log does the callee mark its own intent done — otherwise the
//! callee's garbage collector (running at its own pace in a federated
//! deployment) could recycle the intent before the caller learned the
//! result, and a re-executed caller would make the callee perform its
//! work twice.
//!
//! Request routing is stateless: the callback reaches *some* instance of
//! the caller function, not the blocked original, and writes the
//! invoke-log entry by the key its callee id names ([`crate::ids`]). That
//! entry's `Result` is the one place a callee's outcome is stored
//! ([`crate::schema::A_RESULT`]), so a done callee, called again, answers
//! [`Outcome::Logged`] and sends no callback: "done" implies the callback
//! was delivered, i.e. the caller recorded it or found no entry.
//!
//! Asynchronous invocations (Fig. 20) first register the callee's intent,
//! then fire the call; the callee stub refuses unregistered or completed
//! intents. Done implies delivered here too: the callee's callback, with
//! no result, sets `Registered` before its done-mark, and only then may a
//! re-executed caller skip registering (an idempotent step before it).

use std::sync::Arc;

use beldi_simclock::Op;
use beldi_simdb::{DbError, PrimaryKey};
use beldi_simfaas::Platform;
use beldi_value::{Cond, Map, Update, Value};

use crate::context::SsfContext;
use crate::env::{EnvCore, Ssf};
use crate::error::{BeldiError, BeldiResult};
use crate::schema::{
    opt, req, time, IntentRecord, InvokeEntry, Rule, A_CALLEE_FN, A_LOG_KEY, A_REGISTERED,
    A_RESULT, A_TXN_ID,
};
use crate::txn::{TxnContext, TxnMode};
use crate::Label;

/// How many times an invocation (or callback) is retried against platform
/// failures before the instance gives up and crashes itself, deferring to
/// the intent collector.
const MAX_INVOKE_ATTEMPTS: usize = 5;

/// Virtual-time backoff between invocation attempts.
const RETRY_BACKOFF: std::time::Duration = std::time::Duration::from_millis(5);

// ---- Envelopes ----

/// The wire format between SSF instances.
///
/// Every platform invocation of a Beldi-wrapped function carries one of
/// these, serialized as a [`Value`] map under the keys below. Its ids and
/// names are the shared strings the payload map holds.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Envelope {
    /// Run the SSF's body.
    Call {
        /// Instance id chosen by the caller (None for workflow roots,
        /// which adopt the platform request id).
        id: Option<Arc<str>>,
        /// Application input.
        input: Value,
        /// Calling SSF name (for the result callback), if any.
        caller: Option<Arc<str>>,
        /// Transaction context forwarded from the caller, if any.
        txn: Option<TxnContext>,
        /// True when this call was issued asynchronously.
        is_async: bool,
        /// A retry's first-attempt time (virtual ms), checked by the
        /// wrapper against `T`; `None` on every other call.
        first_attempt_ms: Option<u64>,
    },
    /// Record a callee's result (or registration) in this SSF's invoke
    /// log. At-least-once; never logged itself.
    Callback {
        /// The callee instance whose entry should be updated.
        callee_id: Arc<str>,
        /// The outcome envelope, or `None` for an async-registration
        /// confirmation (which sets `Registered` instead).
        result: Option<Value>,
    },
    /// Register an intent for a later asynchronous call (Fig. 20, step 1).
    AsyncReg {
        /// The instance id the async call will use.
        id: Arc<str>,
        /// Application input, stored as the intent's args.
        input: Value,
        /// Caller to confirm registration to.
        caller: Arc<str>,
    },
    /// Commit/abort propagation along workflow edges (§6.2).
    TxnSignal {
        /// Instance id for the signal execution (exactly-once): the
        /// receiving SSF's [`crate::ids::finalize_marker`].
        id: Arc<str>,
        /// The transaction context in `Commit` or `Abort` mode.
        txn: TxnContext,
    },
}

const K_OP: &str = "Op";
const K_ID: &str = "Id";
const K_INPUT: &str = "Input";
const K_CALLER: &str = "Caller";
const K_TXN: &str = "TxnCtx";
const K_ASYNC: &str = "Async";
const K_FIRST_ATTEMPT: &str = "FirstAttempt";
const K_CALLEE_ID: &str = "CalleeId";
const K_RESULT: &str = "Result";

impl Envelope {
    /// A call outside a transaction and not a retry: every call
    /// but a transactional callee's. The environment's entry points differ
    /// only in how the caller waits, not in this payload.
    pub(crate) fn call(
        id: Option<Arc<str>>,
        input: Value,
        caller: Option<Arc<str>>,
        is_async: bool,
    ) -> Envelope {
        let (txn, first_attempt_ms) = (None, None);
        Envelope::Call {
            id,
            input,
            caller,
            txn,
            is_async,
            first_attempt_ms,
        }
    }

    /// A retried call's payload: the first attempt's payload `call` with
    /// that attempt's time set. Only a retry pays for the copy; a first
    /// attempt sends the payload built once.
    pub(crate) fn retry(call: &Value, first_ms: u64) -> Value {
        let mut retry = call.clone();
        if let Some(m) = retry.as_map_mut() {
            m.insert(K_FIRST_ATTEMPT, Value::Int(first_ms as i64));
        }
        retry
    }

    /// The envelope as an intent's `Args` stores it: without `Id`,
    /// `Caller` and `Async`, which the row holds as attributes of its own.
    /// [`Envelope::resend`] puts them back.
    pub(crate) fn into_args(self) -> Value {
        let mut args = self.into_value();
        if let Some(m) = args.as_map_mut() {
            for key in [K_ID, K_CALLER, K_ASYNC] {
                m.remove(key);
            }
        }
        args
    }

    /// The envelope the intent collector re-sends for the unfinished
    /// intent `rec`: its `Args` with the row's `Id` and, for a call, the
    /// row's `Caller` and `Async` put back, field for field the envelope
    /// the intent was registered for. `None` when there are no `Args`.
    pub(crate) fn resend(rec: &IntentRecord) -> Option<Value> {
        let mut envelope = rec.args.clone()?;
        let m = envelope.as_map_mut()?;
        m.insert(K_ID, Value::from(&rec.id));
        if m.get(K_OP).and_then(Value::as_str) == Some("call") {
            m.insert(K_ASYNC, Value::Bool(rec.is_async));
            if let Some(c) = &rec.caller {
                m.insert(K_CALLER, Value::from(c));
            }
        }
        Some(envelope)
    }

    /// Serializes the envelope for the platform payload. The envelope's
    /// fields move into it.
    pub fn into_value(self) -> Value {
        let m = match self {
            Envelope::Call {
                id,
                input,
                caller,
                txn,
                is_async,
                first_attempt_ms,
            } => {
                let optional = [
                    id.is_some(),
                    caller.is_some(),
                    txn.is_some(),
                    first_attempt_ms.is_some(),
                ];
                let mut m = Map::with_capacity(3 + optional.iter().filter(|&&f| f).count());
                m.insert(K_OP, "call".into());
                if let Some(id) = id {
                    m.insert(K_ID, id.into());
                }
                m.insert(K_INPUT, input);
                if let Some(c) = caller {
                    m.insert(K_CALLER, c.into());
                }
                if let Some(t) = txn {
                    m.insert(K_TXN, t.to_value());
                }
                m.insert(K_ASYNC, Value::Bool(is_async));
                if let Some(ms) = first_attempt_ms {
                    m.insert(K_FIRST_ATTEMPT, Value::Int(ms as i64));
                }
                m
            }
            Envelope::Callback { callee_id, result } => {
                let mut m = Map::with_capacity(2 + usize::from(result.is_some()));
                m.insert(K_OP, "callback".into());
                m.insert(K_CALLEE_ID, callee_id.into());
                if let Some(r) = result {
                    m.insert(K_RESULT, r);
                }
                m
            }
            Envelope::AsyncReg { id, input, caller } => {
                let mut m = Map::with_capacity(4);
                m.insert(K_OP, "asyncreg".into());
                m.insert(K_ID, id.into());
                m.insert(K_INPUT, input);
                m.insert(K_CALLER, caller.into());
                m
            }
            Envelope::TxnSignal { id, txn } => {
                let mut m = Map::with_capacity(3);
                m.insert(K_OP, "txnsignal".into());
                m.insert(K_ID, id.into());
                m.insert(K_TXN, txn.to_value());
                m
            }
        };
        Value::Map(m)
    }

    /// Parses a platform payload (or an intent's `Args`, with the row's
    /// fields put back) into an envelope. Absent `Input` means `Null`,
    /// absent `Async` not async. The payload shares its map with the
    /// sender's retry copy, so fields are read, not taken.
    pub fn from_value(v: Value) -> BeldiResult<Self> {
        let string = |key| opt(&v, key, Value::as_shared_str).map(|s| s.cloned());
        let input = || opt(&v, K_INPUT, Some).map(|i| i.cloned().unwrap_or_default());
        let envelope = || -> Rule<Self> {
            Ok(match req(&v, K_OP, Value::as_str)? {
                "call" => Envelope::Call {
                    id: string(K_ID)?,
                    caller: string(K_CALLER)?,
                    input: input()?,
                    txn: opt(&v, K_TXN, TxnContext::decode)?,
                    is_async: opt(&v, K_ASYNC, Value::as_bool)?.unwrap_or(false),
                    first_attempt_ms: opt(&v, K_FIRST_ATTEMPT, time)?,
                },
                "callback" => Envelope::Callback {
                    callee_id: string(K_CALLEE_ID)?.ok_or(K_CALLEE_ID)?,
                    result: opt(&v, K_RESULT, Some)?.cloned(),
                },
                "asyncreg" => Envelope::AsyncReg {
                    id: string(K_ID)?.ok_or(K_ID)?,
                    caller: string(K_CALLER)?.ok_or(K_CALLER)?,
                    input: input()?,
                },
                "txnsignal" => Envelope::TxnSignal {
                    id: string(K_ID)?.ok_or(K_ID)?,
                    txn: req(&v, K_TXN, TxnContext::decode)?,
                },
                _ => return Err(K_OP),
            })
        };
        envelope().map_err(|attr| BeldiError::Protocol(format!("malformed envelope: bad {attr}")))
    }
}

// ---- Outcome envelopes ----

/// The result of a completed SSF execution, as recorded in the intent
/// table, delivered by callbacks, and returned to callers.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Outcome {
    /// The body completed with this return value.
    Ok(Value),
    /// The enclosing transaction aborted.
    Abort,
    /// The body returned an application error.
    Error(String),
    /// A root retry landed past its first attempt plus `T`: the wrapper
    /// refused it and registered nothing.
    Expired,
    /// The outcome is in the caller's invoke-log entry, not in this reply:
    /// the callee was done already, or the caller recorded a replacement
    /// for it. A callee's answer only.
    Logged,
}

impl Outcome {
    /// Serializes the outcome; the return value moves into it.
    pub fn into_value(self) -> Value {
        match self {
            Outcome::Ok(v) => beldi_value::vmap! { "Outcome" => "ok", "Ret" => v },
            Outcome::Abort => beldi_value::vmap! { "Outcome" => "abort" },
            Outcome::Error(m) => beldi_value::vmap! { "Outcome" => "error", "Msg" => m },
            Outcome::Expired => beldi_value::vmap! { "Outcome" => "expired" },
            Outcome::Logged => beldi_value::vmap! { "Outcome" => "logged" },
        }
    }

    /// What an outcome becomes when the row that must store it would be
    /// `size` bytes, over the store's `limit`: an error naming both, which
    /// is recorded, returned and replayed in its place.
    pub fn too_large(size: usize, limit: usize) -> Self {
        Outcome::Error(format!(
            "outcome too large to store: its row would be {size} B, over the {limit} B limit"
        ))
    }

    /// Decodes a reply ([`Outcome::decode`]). One that is not an outcome
    /// decodes as an error, so a caller never mistakes an infrastructure
    /// failure for success.
    pub fn from_reply(v: Value) -> Self {
        Outcome::decode(&v)
            .unwrap_or_else(|| Outcome::Error(format!("malformed outcome envelope: {v}")))
    }

    /// Converts the outcome into the caller-facing API result.
    pub fn into_result(self) -> BeldiResult<Value> {
        match self {
            Outcome::Ok(v) => Ok(v),
            Outcome::Abort => Err(BeldiError::TxnAborted),
            Outcome::Error(m) => Err(BeldiError::Protocol(m)),
            Outcome::Expired => Err(BeldiError::Protocol("retry past its T_max window".into())),
            Outcome::Logged => Err(BeldiError::Protocol(
                "the outcome is in the caller's invoke log".into(),
            )),
        }
    }
}

impl SsfContext {
    /// Creates (or replays) the invoke-log entry for the next step:
    /// exactly-once assignment of a callee instance id (Fig. 8).
    #[expect(
        clippy::disallowed_methods,
        reason = "between Label::InvokePreEntry and the caller's Label::InvokePreCall \
                  (Label::InvokePreAsyncReg for an async call)"
    )]
    fn invoke_entry(&mut self, callee_fn: &str) -> BeldiResult<InvokeEntry> {
        let step = self.step;
        let log_key = self.next_log_key();
        let log = &self.ssf.log_table;
        // A callee id derived from the (replay-stable) log key, not a
        // platform UUID, makes the execution tree's instance ids a pure
        // function of the root id (bit-identical chaos crash schedules per
        // seed) and lets the callback address this entry; the entry stores
        // no copy of it. The fresh row is seeded with its key.
        let txn_id = self
            .txn
            .as_ref()
            .filter(|t| t.ctx.mode == TxnMode::Execute && !t.ended)
            .map(|t| &t.ctx.id);
        let mut update =
            Update::with_capacity(1 + usize::from(txn_id.is_some())).set(A_CALLEE_FN, callee_fn);
        if let Some(id) = txn_id {
            update = update.set(A_TXN_ID, id);
        }
        let pk = PrimaryKey::hash(&log_key);
        self.crash(Label::InvokePreEntry);
        match self
            .db()
            .update(log, &pk, &Cond::not_exists(A_LOG_KEY), &update)
        {
            Ok(()) => {
                self.log_steps.push(step);
                Ok(InvokeEntry {
                    callee_id: crate::ids::callee_id(&log_key),
                    result: None,
                    registered: false,
                })
            }
            Err(DbError::ConditionFailed) => {
                // A previous execution created the entry.
                self.log_steps.push(step);
                let row = self.db().get(log, &pk, None)?.ok_or_else(|| {
                    BeldiError::Protocol(format!("invoke-log entry {log_key} vanished"))
                })?;
                InvokeEntry::decode(log.name(), &log_key, &row)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Re-reads an invoke-log entry (to poll for a callback-delivered result).
    fn reload_entry(&self, log_key: &Arc<str>) -> BeldiResult<Option<InvokeEntry>> {
        let log = &self.ssf.log_table;
        let row = self.db().get(log, &PrimaryKey::hash(log_key), None)?;
        row.map(|row| InvokeEntry::decode(log.name(), log_key, &row))
            .transpose()
    }

    /// The outcome a callee that answered [`Outcome::Logged`] left in this
    /// instance's entry at `step`. Its callback precedes its done-mark, so
    /// the entry holds it; one that does not is a protocol error, never a
    /// `Null` result.
    fn logged_outcome(&self, step: crate::ids::StepNumber) -> BeldiResult<Outcome> {
        let log_key = crate::ids::log_key(self.instance(), step);
        match self.reload_entry(&log_key)?.and_then(|e| e.result) {
            Some(outcome) => Ok(outcome),
            None => Err(BeldiError::Protocol(format!(
                "callee answered `logged`, but invoke-log entry {log_key} holds no result"
            ))),
        }
    }

    // ---- Synchronous invocation (Figs. 8, 9, 19) ----

    /// Invokes SSF `callee` with `input` and waits for its result.
    ///
    /// Exactly-once across caller and callee crashes: the callee instance
    /// id is logged before the call, the callee logs every step under that
    /// id, and its result reaches this SSF's invoke log via the callback
    /// protocol before the callee completes. Inside a transaction the
    /// context is forwarded, so the callee's operations join it.
    ///
    /// # Errors
    ///
    /// [`BeldiError::TxnAborted`] when the callee reported an abort
    /// (wait-die or user abort) — the caller should propagate it to its
    /// own `end_tx`.
    pub fn sync_invoke(&mut self, callee: &str, input: Value) -> BeldiResult<Value> {
        let _op = self.op(Op::SyncInvoke);
        let outcome = self.invoke_with_entry(callee, input)?;
        if matches!(outcome, Outcome::Abort) {
            if let Some(t) = &mut self.txn {
                t.aborted = true;
            }
        }
        outcome.into_result()
    }

    /// The call loop: create/replay the invoke-log entry (none in baseline),
    /// then call until a result is obtained (directly or via the callback
    /// landing in the log, which baseline's callee, named by no caller, skips).
    fn invoke_with_entry(&mut self, callee: &str, input: Value) -> BeldiResult<Outcome> {
        let step = self.step;
        let (callee_id, caller) = if self.mode() == crate::Mode::Baseline {
            (crate::ids::callee_id(&self.next_log_key()), None)
        } else {
            let entry = self.invoke_entry(callee)?;
            if let Some(outcome) = entry.result {
                // A previous execution already has the callee's result.
                return Ok(outcome);
            }
            (entry.callee_id, Some(self.ssf.name.clone()))
        };
        let logged = caller.is_some();
        let txn = self
            .txn
            .as_ref()
            .and_then(|t| (t.ctx.mode == TxnMode::Execute && !t.ended).then(|| t.ctx.clone()));
        let envelope = Envelope::Call {
            id: Some(callee_id.clone()),
            input,
            caller,
            txn,
            is_async: false,
            first_attempt_ms: None,
        }
        .into_value();
        // A baseline retry carries its first call's time: its recovery's start.
        let first_call_ms = (!logged).then(|| self.clock().now().as_millis());
        self.crash(Label::InvokePreCall);
        for attempt in 0..MAX_INVOKE_ATTEMPTS {
            let payload = match first_call_ms {
                Some(first_ms) if attempt > 0 => Envelope::retry(&envelope, first_ms),
                _ => envelope.clone(),
            };
            match self.platform().invoke_sync(callee, payload) {
                Ok(v) => {
                    return match Outcome::from_reply(v) {
                        Outcome::Logged => self.logged_outcome(step),
                        outcome => Ok(outcome),
                    }
                }
                Err(_) => {
                    // The callee (or the response channel) died. A logged
                    // callee's callback may still have recorded the result.
                    let log_key = crate::ids::log_key(self.instance(), step);
                    let entry = logged.then(|| self.reload_entry(&log_key)).transpose()?;
                    if let Some(e) = entry.flatten() {
                        if let Some(outcome) = e.result {
                            // A killed callee whose callback landed is a
                            // completed recovery nobody else will observe:
                            // the callback precedes the done-mark, so a
                            // kill between them leaves a done intent this
                            // caller never re-invokes (and the IC skips).
                            // Record it here, off the happy path.
                            let table = self.core.ssf(callee)?.intent_table.clone();
                            if let Some(rec) =
                                crate::intent::load(&self.core.db, &table, &callee_id)?
                            {
                                if rec.done {
                                    self.core.record_recovery(&callee_id, rec.created_ms);
                                }
                            }
                            return Ok(outcome);
                        }
                    }
                    if attempt + 1 < MAX_INVOKE_ATTEMPTS {
                        self.clock().sleep(RETRY_BACKOFF);
                    }
                }
            }
        }
        // Give up this execution; the intent collector (or the caller's
        // own re-invocation) will resume from the logs.
        panic!("beldi: callee `{callee}` unreachable after {MAX_INVOKE_ATTEMPTS} attempts");
    }

    // ---- Asynchronous invocation (Fig. 20) ----

    /// Invokes SSF `callee` asynchronously (fire and forget) with
    /// exactly-once execution of the callee.
    ///
    /// The callee's intent is registered synchronously first; only then is
    /// the asynchronous call fired, so a crash on either side never loses
    /// or duplicates the execution.
    ///
    /// # Errors
    ///
    /// [`BeldiError::Unsupported`] inside a transaction (the paper defers
    /// async calls in transactions to future work).
    pub fn async_invoke(&mut self, callee: &str, input: Value) -> BeldiResult<()> {
        let _op = self.op(Op::AsyncInvoke);
        if self.in_txn() {
            return Err(BeldiError::Unsupported("async_invoke inside a transaction"));
        }
        // Baseline names its callee by the step and registers nothing.
        let (callee_id, caller) = if self.mode() == crate::Mode::Baseline {
            (crate::ids::callee_id(&self.next_log_key()), None)
        } else {
            let entry = self.invoke_entry(callee)?;
            // Step 1: ensure the callee's intent is registered, unless the
            // callee confirmed it: it did so only on finishing.
            if !entry.registered {
                // The input is needed again for the call itself (step 2).
                let reg = Envelope::AsyncReg {
                    id: entry.callee_id.clone(),
                    input: input.clone(),
                    caller: self.ssf.name.clone(),
                }
                .into_value();
                self.crash(Label::InvokePreAsyncReg);
                if deliver(self.platform(), callee, &reg).is_none() {
                    panic!("beldi: async registration at `{callee}` unreachable");
                }
            }
            (entry.callee_id, Some(self.ssf.name.clone()))
        };

        // Step 2: fire the actual asynchronous invocation. Safe to repeat:
        // the callee stub refuses unregistered or completed intents, and
        // every step of a duplicate execution replays from its logs.
        let call = Envelope::call(Some(callee_id), input, caller, true).into_value();
        self.crash(Label::InvokePreAsyncCall);
        self.platform()
            .invoke_async(callee, call)
            .map_err(BeldiError::Invoke)?;
        Ok(())
    }
}

// ---- Callbacks (callee → caller) ----

/// Sends a callback to `caller_fn` recording `result` (or, when `None`, an
/// async callee's registration confirmation) for `callee_id`.
///
/// At-least-once: retried a bounded number of times until a caller
/// instance acknowledges it ([`handle_callback`]'s reply). The
/// acknowledgement is `Ok` when the entry holds `result` or there is no
/// entry, `Logged` when the caller recorded a replacement for an outcome
/// too large to store; `None` when no instance acknowledged it.
pub(crate) fn send_callback(
    core: &EnvCore,
    caller_fn: &str,
    callee_id: &Arc<str>,
    result: Option<&Value>,
) -> Option<Outcome> {
    let envelope = Envelope::Callback {
        callee_id: callee_id.clone(),
        result: result.cloned(),
    }
    .into_value();
    deliver_until(
        &core.platform,
        caller_fn,
        &envelope,
        |reply| match Outcome::from_reply(reply) {
            ack @ (Outcome::Ok(_) | Outcome::Logged) => Some(ack),
            _ => None,
        },
    )
}

/// Invokes `callee` with `payload` until the platform returns a reply, at
/// most [`MAX_INVOKE_ATTEMPTS`] times with [`RETRY_BACKOFF`] between
/// attempts; the reply, if one came. For a message whose reply carries no
/// result: an async registration, a commit signal.
pub(crate) fn deliver(platform: &Arc<Platform>, callee: &str, payload: &Value) -> Option<Value> {
    deliver_until(platform, callee, payload, Some)
}

/// [`deliver`], retrying also a reply `accept` refuses; what `accept` made
/// of the first reply it took.
fn deliver_until<T>(
    platform: &Arc<Platform>,
    callee: &str,
    payload: &Value,
    accept: impl Fn(Value) -> Option<T>,
) -> Option<T> {
    for attempt in 0..MAX_INVOKE_ATTEMPTS {
        if attempt > 0 {
            platform.clock().sleep(RETRY_BACKOFF);
        }
        if let Some(ack) = platform
            .invoke_sync(callee, payload.clone())
            .ok()
            .and_then(&accept)
        {
            return Some(ack);
        }
    }
    None
}

/// Handles an incoming callback at the caller's side: records the result
/// (or an async callee's registration) on the invoke entry the callee id
/// names, and answers the callee's acknowledgement ([`send_callback`]).
/// A spurious callback (§4.5) — a collected entry, a forged id, a read or
/// write entry's key — fails `exists(CalleeFn)`, creates no row, and is
/// acknowledged. A result the row cannot hold is recorded as
/// [`Outcome::too_large`], answered `Logged`; a store error is answered
/// with an `Error`, which the callee does not count as delivered.
#[expect(
    clippy::disallowed_methods,
    reason = "between the callee's Label::WrapperPreCallback and Label::WrapperPreDone"
)]
pub(crate) fn handle_callback(
    core: &EnvCore,
    ssf: &Ssf,
    callee_id: &Arc<str>,
    result: Option<Value>,
) -> Outcome {
    let _op = core.telemetry().op(Op::Callback, callee_id);
    let Some(pk) = crate::ids::callee_log_key(callee_id).map(PrimaryKey::hash) else {
        return Outcome::Ok(Value::Null);
    };
    let cond = Cond::exists(A_CALLEE_FN);
    let record = |update: Update| match core.db.update(&ssf.log_table, &pk, &cond, &update) {
        Ok(()) | Err(DbError::ConditionFailed) => Ok(()),
        Err(e) => Err(e),
    };
    let recorded = match result {
        Some(r) => match record(Update::with_capacity(1).set_if_absent(A_RESULT, r)) {
            Err(DbError::RowTooLarge { size, limit }) => {
                let error = Outcome::too_large(size, limit).into_value();
                record(Update::with_capacity(1).set_if_absent(A_RESULT, error))
                    .map(|()| Outcome::Logged)
            }
            other => other.map(|()| Outcome::Ok(Value::Null)),
        },
        None => record(Update::with_capacity(1).set(A_REGISTERED, Value::Bool(true)))
            .map(|()| Outcome::Ok(Value::Null)),
    };
    recorded.unwrap_or_else(|e| Outcome::Error(format!("callback failed: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BeldiEnv;
    use beldi_simfaas::InvocationCtx;
    use parking_lot::Mutex;

    /// `caller` calls `stub`, a bare platform handler that answers
    /// `logged`, first calling `caller` back with `result` when there is
    /// one; what `caller`'s body got from the call.
    fn call_a_stub_answering_logged(result: Option<Value>) -> BeldiResult<Value> {
        let env = BeldiEnv::for_tests();
        let platform = Arc::downgrade(env.platform());
        let stub = move |_: &InvocationCtx, payload: Value| {
            let Ok(Envelope::Call {
                id: Some(callee_id),
                caller: Some(caller),
                ..
            }) = Envelope::from_value(payload)
            else {
                panic!("a call with a caller");
            };
            if let Some(result) = result.clone() {
                let callback = Envelope::Callback {
                    callee_id,
                    result: Some(result),
                };
                let platform = platform.upgrade().expect("the platform");
                platform
                    .invoke_sync(&caller, callback.into_value())
                    .unwrap();
            }
            Outcome::Logged.into_value()
        };
        env.platform().register("stub", Arc::new(stub));
        let got = Arc::new(Mutex::new(None));
        let slot = Arc::clone(&got);
        env.register_ssf(
            "caller",
            &[],
            Arc::new(move |ctx, input| {
                *slot.lock() = Some(ctx.sync_invoke("stub", input));
                Ok(Value::Null)
            }),
        );
        env.invoke("caller", Value::Null).unwrap();
        let got = got.lock().take();
        got.expect("the body ran")
    }

    #[test]
    fn a_logged_answer_returns_the_result_the_callback_recorded() {
        let result = Outcome::Ok(Value::Int(7)).into_value();
        assert_eq!(
            call_a_stub_answering_logged(Some(result)),
            Ok(Value::Int(7))
        );
    }

    #[test]
    fn a_logged_answer_without_a_callback_is_a_protocol_error() {
        match call_a_stub_answering_logged(None) {
            Err(BeldiError::Protocol(msg)) => {
                assert!(msg.contains("holds no result"), "{msg}");
            }
            other => panic!("a protocol error, not {other:?}"),
        }
    }

    /// A callback the caller answers with an error (its store write
    /// failed) is not delivered: the callee retries it, then crashes
    /// before its done-mark, leaving its intent to the collector.
    #[test]
    fn a_callback_answered_with_an_error_is_not_delivered() {
        let env = BeldiEnv::for_tests();
        let failing = |_: &InvocationCtx, _: Value| Outcome::Error("failed".into()).into_value();
        env.platform().register("failing", Arc::new(failing));
        env.register_ssf("callee", &[], Arc::new(|_, input| Ok(input)));
        let id: Arc<str> = crate::ids::callee_id(&crate::ids::log_key("f-1", 0));
        let call = Envelope::Call {
            id: Some(id.clone()),
            input: Value::Int(1),
            caller: Some("failing".into()),
            txn: None,
            is_async: false,
            first_attempt_ms: None,
        };
        let before = env.platform_metrics().invocations;
        assert!(env
            .platform()
            .invoke_sync("callee", call.into_value())
            .is_err());
        let invocations = env.platform_metrics().invocations - before;
        assert_eq!(invocations, 1 + MAX_INVOKE_ATTEMPTS as u64);
        let table = crate::schema::intent_table("callee");
        let rec = crate::intent::load(env.db(), &env.db().table(&table), &id).unwrap();
        assert!(!rec.expect("registered").done);
    }

    #[test]
    fn envelope_round_trips() {
        let cases = [
            Envelope::Call {
                id: Some("i-1".into()),
                input: Value::Int(7),
                caller: Some("f".into()),
                txn: Some(TxnContext {
                    id: "t".into(),
                    start_ms: 3,
                    mode: TxnMode::Execute,
                }),
                is_async: false,
                first_attempt_ms: None,
            },
            Envelope::Call {
                id: Some("r".into()),
                input: Value::Int(1),
                caller: None,
                txn: None,
                is_async: false,
                first_attempt_ms: Some(12),
            },
            Envelope::Call {
                id: None,
                input: Value::Null,
                caller: None,
                txn: None,
                is_async: true,
                first_attempt_ms: None,
            },
            Envelope::Callback {
                callee_id: "c".into(),
                result: Some(Value::Int(1)),
            },
            Envelope::Callback {
                callee_id: "c".into(),
                result: None,
            },
            Envelope::AsyncReg {
                id: "a".into(),
                input: Value::Bool(true),
                caller: "f".into(),
            },
            Envelope::TxnSignal {
                id: "s".into(),
                txn: TxnContext {
                    id: "t".into(),
                    start_ms: 9,
                    mode: TxnMode::Commit,
                },
            },
        ];
        for e in &cases {
            assert_eq!(&Envelope::from_value(e.clone().into_value()).unwrap(), e);
        }
        // A root retry is its first attempt's call plus that attempt's time.
        let first = Envelope::call(Some("r".into()), Value::Int(1), None, false).into_value();
        assert_eq!(
            Envelope::from_value(Envelope::retry(&first, 12)).unwrap(),
            cases[1]
        );
    }

    #[test]
    fn non_envelope_payload_rejected() {
        let protocol_error = |payload: Value| match Envelope::from_value(payload) {
            Err(BeldiError::Protocol(msg)) => msg,
            other => panic!("expected a protocol error, got {other:?}"),
        };
        // Not a map; a map without `Op`; an `Op` that is not a string.
        for payload in [
            Value::Int(3),
            Value::from("call"),
            beldi_value::vmap! { "Id" => "i-1" },
            beldi_value::vmap! { "Op" => 7i64 },
        ] {
            assert_eq!(protocol_error(payload), "malformed envelope: bad Op");
        }
        assert_eq!(
            protocol_error(beldi_value::vmap! { "Op" => "bogus" }),
            "malformed envelope: bad Op"
        );
        // A string where a field's map is expected; a negative time.
        assert_eq!(
            protocol_error(beldi_value::vmap! { "Op" => "call", "TxnCtx" => "t" }),
            "malformed envelope: bad TxnCtx"
        );
        assert_eq!(
            protocol_error(beldi_value::vmap! { "Op" => "call", "FirstAttempt" => -1i64 }),
            "malformed envelope: bad FirstAttempt"
        );
        assert_eq!(
            protocol_error(beldi_value::vmap! { "Op" => "txnsignal", "Id" => "s" }),
            "malformed envelope: bad TxnCtx"
        );
        assert_eq!(
            protocol_error(beldi_value::vmap! { "Op" => "callback", "CalleeId" => 1i64 }),
            "malformed envelope: bad CalleeId"
        );
    }

    #[test]
    fn outcome_round_trips() {
        for o in [
            Outcome::Ok(Value::Int(1)),
            Outcome::Ok(beldi_value::vmap! { "Outcome" => "nested", "Ret" => 2i64 }),
            Outcome::Abort,
            Outcome::Error("boom".into()),
            Outcome::Expired,
            Outcome::Logged,
        ] {
            assert_eq!(Outcome::from_reply(o.clone().into_value()), o);
        }
        // Malformed outcomes decode as errors, never as success: an `ok`
        // without its return value and an `error` without a message too.
        for v in [
            Value::Null,
            Value::from("ok"),
            beldi_value::vmap! { "Outcome" => 1i64, "Ret" => 2i64 },
            beldi_value::vmap! { "Outcome" => "ok" },
            beldi_value::vmap! { "Outcome" => "error" },
            beldi_value::vmap! { "Outcome" => "error", "Msg" => 5i64 },
        ] {
            assert_eq!(Outcome::decode(&v), None, "{v}");
            let Outcome::Error(msg) = Outcome::from_reply(v) else {
                panic!("a malformed reply decodes as an error");
            };
            assert!(msg.starts_with("malformed outcome envelope"), "{msg}");
        }
    }

    #[test]
    fn outcome_into_result_maps_variants() {
        assert_eq!(
            Outcome::Ok(Value::Int(2)).into_result().unwrap(),
            Value::Int(2)
        );
        assert!(matches!(
            Outcome::Abort.into_result(),
            Err(BeldiError::TxnAborted)
        ));
        for o in [Outcome::Error("x".into()), Outcome::Logged] {
            assert!(matches!(o.into_result(), Err(BeldiError::Protocol(_))));
        }
    }
}
