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
//! invoke-log entry by the key its callee id names ([`crate::ids`]).
//!
//! Asynchronous invocations (Fig. 20) flip the order: the caller first
//! synchronously asks the callee to *register* the intent (confirmed by a
//! callback that sets the `Registered` flag), then fires the actual
//! asynchronous call. The callee stub refuses to run unregistered or
//! completed intents so the GC can prune them without interference.

use std::sync::Arc;

use beldi_simdb::{DbError, PrimaryKey};
use beldi_simfaas::Platform;
use beldi_value::{Cond, Map, Update, Value};

use crate::context::SsfContext;
use crate::env::{EnvCore, Ssf};
use crate::error::{BeldiError, BeldiResult};
use crate::schema::{A_CALLEE_FN, A_CALLEE_ID, A_LOG_KEY, A_REGISTERED, A_RESULT, A_TXN_ID};
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
const K_CALLEE_ID: &str = "CalleeId";
const K_RESULT: &str = "Result";

impl Envelope {
    /// The workflow-root call envelope every environment entry point
    /// builds — [`crate::BeldiEnv::invoke_as`] (blocking),
    /// [`crate::BeldiEnv::invoke_async`] (fire-and-forget), and
    /// [`crate::BeldiEnv::invoke_task`] (executor task) differ only in
    /// how the caller waits; the wire payload, and therefore the whole
    /// wrapper/replay path behind it, is identical.
    pub(crate) fn root_call(instance: &Arc<str>, input: Value, is_async: bool) -> Envelope {
        Envelope::Call {
            id: Some(instance.clone()),
            input,
            caller: None,
            txn: None,
            is_async,
        }
    }

    /// Serializes the envelope for the platform payload. The envelope's
    /// fields move into it.
    pub fn into_value(self) -> Value {
        let mut m = Map::new();
        match self {
            Envelope::Call {
                id,
                input,
                caller,
                txn,
                is_async,
            } => {
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
            }
            Envelope::Callback { callee_id, result } => {
                m.insert(K_OP, "callback".into());
                m.insert(K_CALLEE_ID, callee_id.into());
                if let Some(r) = result {
                    m.insert(K_RESULT, r);
                }
            }
            Envelope::AsyncReg { id, input, caller } => {
                m.insert(K_OP, "asyncreg".into());
                m.insert(K_ID, id.into());
                m.insert(K_INPUT, input);
                m.insert(K_CALLER, caller.into());
            }
            Envelope::TxnSignal { id, txn } => {
                m.insert(K_OP, "txnsignal".into());
                m.insert(K_ID, id.into());
                m.insert(K_TXN, txn.to_value());
            }
        }
        Value::Map(m)
    }

    /// Parses a platform payload back into an envelope. The payload shares
    /// its map with the sender's retry copy, so fields are read, not taken.
    pub fn from_value(v: Value) -> BeldiResult<Self> {
        let op = v
            .get_str(K_OP)
            .ok_or_else(|| BeldiError::Protocol("payload is not a Beldi envelope".into()))?;
        let missing = |what: &str| BeldiError::Protocol(format!("{op} missing {what}"));
        let string = |key: &str| v.get_shared_str(key).cloned();
        match op {
            "call" => Ok(Envelope::Call {
                id: string(K_ID),
                caller: string(K_CALLER),
                input: v.get_attr(K_INPUT).cloned().unwrap_or(Value::Null),
                txn: v.get_attr(K_TXN).map(TxnContext::from_value).transpose()?,
                is_async: v.get_bool(K_ASYNC).unwrap_or(false),
            }),
            "callback" => Ok(Envelope::Callback {
                callee_id: string(K_CALLEE_ID).ok_or_else(|| missing("CalleeId"))?,
                result: v.get_attr(K_RESULT).cloned(),
            }),
            "asyncreg" => Ok(Envelope::AsyncReg {
                id: string(K_ID).ok_or_else(|| missing("Id"))?,
                caller: string(K_CALLER).ok_or_else(|| missing("Caller"))?,
                input: v.get_attr(K_INPUT).cloned().unwrap_or(Value::Null),
            }),
            "txnsignal" => Ok(Envelope::TxnSignal {
                id: string(K_ID).ok_or_else(|| missing("Id"))?,
                txn: TxnContext::from_value(v.get_attr(K_TXN).ok_or_else(|| missing("TxnCtx"))?)?,
            }),
            other => Err(BeldiError::Protocol(format!(
                "unknown envelope op `{other}`"
            ))),
        }
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
}

impl Outcome {
    /// Serializes the outcome; the return value moves into it.
    pub fn into_value(self) -> Value {
        match self {
            Outcome::Ok(v) => beldi_value::vmap! { "Outcome" => "ok", "Ret" => v },
            Outcome::Abort => beldi_value::vmap! { "Outcome" => "abort" },
            Outcome::Error(m) => beldi_value::vmap! { "Outcome" => "error", "Msg" => m },
        }
    }

    /// Parses an outcome. The reply shares its map with the intent's `Ret`
    /// and the callback's `Result`, so the return value is read, not taken.
    /// Malformed payloads decode as errors so a caller never mistakes
    /// infrastructure failures for success.
    pub fn from_value(v: Value) -> Self {
        match v.get_str("Outcome") {
            Some("ok") => Outcome::Ok(v.get_attr("Ret").cloned().unwrap_or(Value::Null)),
            Some("abort") => Outcome::Abort,
            Some("error") => Outcome::Error(v.get_str("Msg").unwrap_or("unknown error").to_owned()),
            _ => Outcome::Error(format!("malformed outcome envelope: {v}")),
        }
    }

    /// Converts the outcome into the caller-facing API result.
    pub fn into_result(self) -> BeldiResult<Value> {
        match self {
            Outcome::Ok(v) => Ok(v),
            Outcome::Abort => Err(BeldiError::TxnAborted),
            Outcome::Error(m) => Err(BeldiError::Protocol(m)),
        }
    }
}

// ---- Invoke-log entries ----

/// A decoded invoke-log row.
#[derive(Debug, Clone)]
pub(crate) struct InvokeEntry {
    /// The callee instance id chosen at first execution.
    pub callee_id: Arc<str>,
    /// The recorded outcome envelope, if the callback has landed.
    pub result: Option<Value>,
    /// Set once an async callee confirmed registration.
    pub registered: bool,
}

impl InvokeEntry {
    /// Decodes a row read from the invoke log. The row shares its map with
    /// the stored one, so fields are read, not taken.
    fn from_row(row: Value) -> Option<Self> {
        Some(InvokeEntry {
            callee_id: row.get_shared_str(A_CALLEE_ID)?.clone(),
            result: row.get_attr(A_RESULT).filter(|v| !v.is_null()).cloned(),
            registered: row.get_bool(A_REGISTERED).unwrap_or(false),
        })
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
        // seed) and lets the callback address this entry. The fresh row is
        // seeded with its key.
        let fresh_id = crate::ids::callee_id(&log_key);
        let mut update = Update::new()
            .set(A_CALLEE_ID, &fresh_id)
            .set(A_CALLEE_FN, callee_fn);
        if let Some(t) = &self.txn {
            if t.ctx.mode == TxnMode::Execute && !t.ended {
                update = update.set(A_TXN_ID, &t.ctx.id);
            }
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
                    callee_id: fresh_id,
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
                InvokeEntry::from_row(row).ok_or_else(|| {
                    BeldiError::Protocol(format!("invoke-log entry {log_key} malformed"))
                })
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Re-reads an invoke-log entry (to poll for a callback-delivered result).
    fn reload_entry(&self, log_key: &Arc<str>) -> BeldiResult<Option<InvokeEntry>> {
        let row = self
            .db()
            .get(&self.ssf.log_table, &PrimaryKey::hash(log_key), None)?;
        Ok(row.and_then(InvokeEntry::from_row))
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
        if self.mode() == crate::Mode::Baseline {
            let env = Envelope::Call {
                id: None,
                input,
                caller: None,
                txn: None,
                is_async: false,
            };
            let v = self
                .platform()
                .invoke_sync(callee, env.into_value())
                .map_err(BeldiError::Invoke)?;
            return Outcome::from_value(v).into_result();
        }
        let outcome = self.invoke_with_entry(callee, input)?;
        if matches!(outcome, Outcome::Abort) {
            if let Some(t) = &mut self.txn {
                t.aborted = true;
            }
        }
        outcome.into_result()
    }

    /// The exactly-once call loop: create/replay the invoke-log entry, then
    /// call until a result is obtained (directly or via the callback
    /// landing in the log).
    fn invoke_with_entry(&mut self, callee: &str, input: Value) -> BeldiResult<Outcome> {
        let step = self.step;
        let entry = self.invoke_entry(callee)?;
        if let Some(r) = entry.result {
            // A previous execution already has the callee's result.
            return Ok(Outcome::from_value(r));
        }
        let txn = self
            .txn
            .as_ref()
            .and_then(|t| (t.ctx.mode == TxnMode::Execute && !t.ended).then(|| t.ctx.clone()));
        let envelope = Envelope::Call {
            id: Some(entry.callee_id.clone()),
            input,
            caller: Some(self.ssf.name.clone()),
            txn,
            is_async: false,
        }
        .into_value();
        self.crash(Label::InvokePreCall);
        for attempt in 0..MAX_INVOKE_ATTEMPTS {
            match self.platform().invoke_sync(callee, envelope.clone()) {
                Ok(v) => return Ok(Outcome::from_value(v)),
                Err(_) => {
                    // The callee (or the response channel) died. Its
                    // callback may still have recorded the result.
                    let log_key = crate::ids::log_key(&self.instance, step);
                    if let Some(e) = self.reload_entry(&log_key)? {
                        if let Some(r) = e.result {
                            // A killed callee whose callback landed is a
                            // completed recovery nobody else will observe:
                            // the callback precedes the done-mark, so a
                            // kill between them leaves a done intent this
                            // caller never re-invokes (and the IC skips).
                            // Record it here, off the happy path.
                            let table = self.core.ssf(callee)?.intent_table.clone();
                            if let Some(rec) =
                                crate::intent::load(&self.core.db, &table, &entry.callee_id)?
                            {
                                if rec.done {
                                    self.core.record_recovery(&entry.callee_id, rec.created_ms);
                                }
                            }
                            return Ok(Outcome::from_value(r));
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
        if self.in_txn() {
            return Err(BeldiError::Unsupported("async_invoke inside a transaction"));
        }
        if self.mode() == crate::Mode::Baseline {
            let env = Envelope::Call {
                id: None,
                input,
                caller: None,
                txn: None,
                is_async: true,
            };
            self.platform()
                .invoke_async(callee, env.into_value())
                .map_err(BeldiError::Invoke)?;
            return Ok(());
        }
        let entry = self.invoke_entry(callee)?;

        // Step 1: ensure the callee's intent is registered (skippable when
        // a previous execution got the registration confirmed).
        if !entry.registered {
            // The input is needed again for the call itself (step 2).
            let reg = Envelope::AsyncReg {
                id: entry.callee_id.clone(),
                input: input.clone(),
                caller: self.ssf.name.clone(),
            }
            .into_value();
            self.crash(Label::InvokePreAsyncReg);
            if !deliver(self.platform(), callee, &reg) {
                panic!("beldi: async registration at `{callee}` unreachable");
            }
        }

        // Step 2: fire the actual asynchronous invocation. Safe to repeat:
        // the callee stub refuses unregistered or completed intents, and
        // every step of a duplicate execution replays from its logs.
        let call = Envelope::Call {
            id: Some(entry.callee_id.clone()),
            input,
            caller: Some(self.ssf.name.clone()),
            txn: None,
            is_async: true,
        }
        .into_value();
        self.crash(Label::InvokePreAsyncCall);
        self.platform()
            .invoke_async(callee, call)
            .map_err(BeldiError::Invoke)?;
        Ok(())
    }
}

// ---- Callbacks (callee → caller) ----

/// Sends a callback to `caller_fn` recording `result` (or, when `None`, an
/// async-registration confirmation) for `callee_id`.
///
/// At-least-once: retried a bounded number of times; returns whether some
/// caller instance acknowledged it.
pub(crate) fn send_callback(
    core: &EnvCore,
    caller_fn: &str,
    callee_id: &Arc<str>,
    result: Option<&Value>,
) -> bool {
    let envelope = Envelope::Callback {
        callee_id: callee_id.clone(),
        result: result.cloned(),
    }
    .into_value();
    deliver(&core.platform, caller_fn, &envelope)
}

/// Invokes `callee` with `payload` until the platform returns a reply, at
/// most [`MAX_INVOKE_ATTEMPTS`] times with [`RETRY_BACKOFF`] between
/// attempts; whether it did. For a message whose reply carries nothing the
/// sender needs: a callback, an async registration, a commit signal.
pub(crate) fn deliver(platform: &Arc<Platform>, callee: &str, payload: &Value) -> bool {
    for attempt in 0..MAX_INVOKE_ATTEMPTS {
        if attempt > 0 {
            platform.clock().sleep(RETRY_BACKOFF);
        }
        if platform.invoke_sync(callee, payload.clone()).is_ok() {
            return true;
        }
    }
    false
}

/// Handles an incoming callback at the caller's side: records the result
/// (or registration) on the invoke-log entry the callee id names. A
/// spurious callback (§4.5) — a collected entry, a forged id, a read
/// entry's key — fails the condition, creates no row, and is ignored.
#[expect(
    clippy::disallowed_methods,
    reason = "between the callee's Label::WrapperPreCallback and Label::WrapperPreDone"
)]
pub(crate) fn handle_callback(
    core: &EnvCore,
    ssf: &Ssf,
    callee_id: &Arc<str>,
    result: Option<Value>,
) -> BeldiResult<()> {
    let Some(pk) = crate::ids::callee_log_key(callee_id).map(PrimaryKey::hash) else {
        return Ok(());
    };
    let mut update = Update::new().set(A_REGISTERED, Value::Bool(true));
    if let Some(r) = result {
        update = update.set_if_absent(A_RESULT, r);
    }
    let cond = Cond::eq(A_CALLEE_ID, callee_id);
    match core.db.update(&ssf.log_table, &pk, &cond, &update) {
        Ok(()) | Err(DbError::ConditionFailed) => Ok(()),
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            },
            Envelope::Call {
                id: None,
                input: Value::Null,
                caller: None,
                txn: None,
                is_async: true,
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
        for e in cases {
            assert_eq!(Envelope::from_value(e.clone().into_value()).unwrap(), e);
        }
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
            assert_eq!(protocol_error(payload), "payload is not a Beldi envelope");
        }
        assert_eq!(
            protocol_error(beldi_value::vmap! { "Op" => "bogus" }),
            "unknown envelope op `bogus`"
        );
        // A string where a field's map is expected.
        assert_eq!(
            protocol_error(beldi_value::vmap! { "Op" => "call", "TxnCtx" => "t" }),
            "txn ctx missing Id"
        );
        assert_eq!(
            protocol_error(beldi_value::vmap! { "Op" => "txnsignal", "Id" => "s" }),
            "txnsignal missing TxnCtx"
        );
        assert_eq!(
            protocol_error(beldi_value::vmap! { "Op" => "callback", "CalleeId" => 1i64 }),
            "callback missing CalleeId"
        );
    }

    #[test]
    fn outcome_round_trips() {
        for o in [
            Outcome::Ok(Value::Int(1)),
            Outcome::Ok(beldi_value::vmap! { "Outcome" => "nested", "Ret" => 2i64 }),
            Outcome::Abort,
            Outcome::Error("boom".into()),
        ] {
            assert_eq!(Outcome::from_value(o.clone().into_value()), o);
        }
        // Malformed outcomes decode as errors, never as success.
        for v in [
            Value::Null,
            Value::from("ok"),
            beldi_value::vmap! { "Outcome" => 1i64, "Ret" => 2i64 },
        ] {
            assert!(matches!(Outcome::from_value(v), Outcome::Error(_)));
        }
        // A return value is optional, a message too.
        assert_eq!(
            Outcome::from_value(beldi_value::vmap! { "Outcome" => "ok" }),
            Outcome::Ok(Value::Null)
        );
        assert_eq!(
            Outcome::from_value(beldi_value::vmap! { "Outcome" => "error", "Msg" => 5i64 }),
            Outcome::Error("unknown error".into())
        );
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
        assert!(matches!(
            Outcome::Error("x".into()).into_result(),
            Err(BeldiError::Protocol(_))
        ));
    }
}
