//! The callback protocol in isolation (§4.5, Fig. 9): result delivery
//! ordering, spurious callbacks, duplicate callbacks, and the federated
//! GC race the protocol exists to prevent.

use beldi::Label;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use beldi::value::{vmap, Value};
use beldi::{
    callee_id, callee_log_key, crash_stream, log_key, BeldiConfig, BeldiEnv, BeldiError, CrashPlan,
    Mode,
};
use beldi_simdb::{MetricsSnapshot, ScanRequest};
use beldi_simfaas::Visit;

fn caller_callee_env(cfg: BeldiConfig) -> BeldiEnv {
    let env = BeldiEnv::for_tests_with(cfg);
    env.register_ssf(
        "callee",
        &["ct"],
        Arc::new(|ctx, input| {
            let n = ctx.read("ct", "runs")?.as_int().unwrap_or(0);
            ctx.write("ct", "runs", Value::Int(n + 1))?;
            Ok(vmap! { "echo" => input, "run" => n + 1 })
        }),
    );
    env.register_ssf(
        "caller",
        &[],
        Arc::new(|ctx, input| ctx.sync_invoke("callee", input)),
    );
    env
}

/// The Fig. 9 scenario: the caller crashes before completing; the callee
/// finished, its callback landed, and the callee's *independently paced*
/// garbage collector recycles the callee's intent and logs. When the
/// caller is later re-executed, it must take the result from its own
/// invoke log — the callback put it there *before* the callee marked
/// itself done — and must not re-invoke the (long recycled) callee, which
/// would mistakenly perform the operation again.
#[test]
fn callback_lands_before_done_so_gc_cannot_outrun_caller() {
    let cfg = BeldiConfig::beldi().with_t_max(Duration::from_millis(50));
    let env = caller_callee_env(cfg);
    let caller_id = "caller-fig9";
    env.platform().faults().plan(
        caller_id.to_owned(),
        CrashPlan::AtLabel(Label::WrapperPreDone),
    );
    // Dispatch once, bypassing the driver's automatic retry, so the crash
    // leaves the caller unfinished while the callee is fully done.
    let envelope = vmap! {
        "Op" => "call", "Id" => caller_id, "Input" => 7i64, "Async" => false,
    };
    let first = env.platform().invoke_sync("caller", envelope.clone());
    assert!(first.is_err(), "caller must crash before completing");
    assert_eq!(
        env.read_current("callee", "ct", "runs").unwrap(),
        Value::Int(1),
        "callee completed before the caller crashed"
    );

    // The callee's GC recycles its intent and logs (`T` after its
    // done-mark) while the caller is still unfinished.
    for _ in 0..3 {
        env.run_gc_once("callee").unwrap();
        env.clock().sleep(Duration::from_millis(80));
    }
    let callee_intents = env
        .db()
        .scan_all("callee.intent", &ScanRequest::all())
        .unwrap();
    assert!(callee_intents.is_empty(), "callee intent recycled");

    // Re-execute the caller (what its IC would do). It must resume from
    // its invoke log — where the callback deposited the result — and not
    // re-run the recycled callee.
    let out = env.platform().invoke_sync("caller", envelope).unwrap();
    assert_eq!(out.get_str("Outcome"), Some("ok"));
    assert_eq!(out.get_attr("Ret").unwrap().get_int("run"), Some(1));
    assert_eq!(
        env.read_current("callee", "ct", "runs").unwrap(),
        Value::Int(1),
        "callee ran exactly once despite crash + GC + re-execution"
    );
}

/// The Fig. 9 scenario for an async callee (Fig. 20): `mid` fires `sink`,
/// and `mid` dies after firing. With trace on, and with the global crash
/// script `script` if one is given: the steps a run without one gives for
/// the delivery attempts of `sink`'s registration confirmation, the
/// `worker.pre_handler` probes right after the `sink` probe that precedes
/// the callback (`wrapper.pre_callback`, or `asyncreg.post_intent`, had
/// the registration confirmed itself as it once did). Then `sink` runs,
/// `T` passes, and `sink`'s GC pass and `mid`'s IC pass run. Returns
/// those steps and `sink`'s count of its runs.
fn async_callee_after_undelivered_confirmation(
    mode: Mode,
    script: Option<Vec<usize>>,
) -> (Vec<usize>, Value) {
    let cfg = BeldiConfig::for_mode(mode)
        .with_t_max(Duration::from_millis(100))
        .with_ic_restart_delay(Duration::from_millis(40));
    let env = BeldiEnv::for_tests_with(cfg);
    env.register_ssf(
        "sink",
        &["st"],
        Arc::new(|ctx, _| {
            let n = ctx.read("st", "runs")?.as_int().unwrap_or(0);
            ctx.write("st", "runs", Value::Int(n + 1))?;
            Ok(Value::Null)
        }),
    );
    env.register_ssf(
        "mid",
        &[],
        Arc::new(|ctx, input| ctx.async_invoke("sink", input).map(|()| Value::Null)),
    );
    let faults = env.platform().faults();
    env.telemetry().start_record(env.clock().clone());
    faults.plan("mid-1", CrashPlan::AtLabel(Label::WrapperPreDone));
    faults.set_global_plan(script.map(CrashPlan::Script));
    assert!(env.invoke_attempts("mid", "mid-1", Value::Null, 1).is_err());
    env.clock().sleep(Duration::from_millis(150));
    for collector in ["sink.gc", "mid.ic"] {
        env.platform().invoke_sync(collector, Value::Null).unwrap();
        env.clock().sleep(Duration::from_millis(50));
    }
    let record = env.telemetry().take_record();
    let trace: Vec<Visit> = crash_stream(&record).collect();
    let sink = callee_id(&log_key("mid-1", 0));
    let sends = [Label::WrapperPreCallback, Label::AsyncRegPostIntent];
    let confirmation = trace
        .windows(2)
        .find(|w| {
            *w[0].instance == *sink
                && sends.contains(&w[0].label)
                && w[1].label == Label::WorkerPreHandler
        })
        .map(|w| w[1].step as usize);
    let steps = confirmation.map_or(Vec::new(), |s| (s..s + 5).collect());
    (steps, env.read_current("sink", "st", "runs").unwrap())
}

/// Done implies delivered for an async callee too: one whose registration
/// confirmation cannot be delivered crashes before its done-mark, so its
/// GC cannot recycle the intent that `mid`'s re-execution, finding no
/// `Registered`, registers and fires again. `sink` counts one run. (Had
/// `sink` finished, its re-run would count again in cross-table mode,
/// whose write log goes with the intent; a Beldi-mode DAAL row still
/// lists the write, so the re-run's write replays.)
#[test]
fn async_callee_confirms_before_done_so_gc_cannot_outrun_caller() {
    for mode in [Mode::CrossTable, Mode::Beldi] {
        let (steps, runs) = async_callee_after_undelivered_confirmation(mode, None);
        assert_eq!(runs, Value::Int(1), "{mode:?}: sink ran more than once");
        assert_eq!(steps.len(), 5, "{mode:?}: the confirmation was sent");
        let (_, runs) = async_callee_after_undelivered_confirmation(mode, Some(steps));
        assert_eq!(runs, Value::Int(1), "{mode:?}: sink ran more than once");
    }
}

/// A spurious callback — for an invoke-log entry that no longer exists —
/// is detected and ignored (§4.5: "SSF1 can detect and ignore this case").
#[test]
fn spurious_callbacks_are_ignored() {
    let env = caller_callee_env(BeldiConfig::beldi());
    // Deliver a callback for a callee id the caller never invoked.
    let payload = vmap! {
        "Op" => "callback",
        "CalleeId" => "ghost-callee",
        "Result" => vmap! { "Outcome" => "ok", "Ret" => 42i64 },
    };
    let out = env.platform().invoke_sync("caller", payload).unwrap();
    // Acknowledged without effect.
    assert_eq!(out.get_str("Outcome"), Some("ok"));
    // The caller's invoke log is still empty.
    let rows = env
        .db()
        .scan_all("caller.log", &ScanRequest::all())
        .unwrap();
    assert!(rows.is_empty());
}

/// Duplicate callbacks (at-least-once delivery) keep the first result.
#[test]
fn duplicate_callbacks_keep_first_result() {
    let env = caller_callee_env(BeldiConfig::beldi());
    env.invoke("caller", Value::Int(1)).unwrap();
    // Find the recorded callee id and replay its callback with a *different*
    // result; the original must win (set-if-absent semantics).
    let rows = env
        .db()
        .scan_all("caller.log", &ScanRequest::all())
        .unwrap();
    assert_eq!(rows.len(), 1);
    let callee_id = callee_id(rows[0].get_str("LogKey").unwrap());
    let forged = vmap! {
        "Op" => "callback",
        "CalleeId" => callee_id,
        "Result" => vmap! { "Outcome" => "ok", "Ret" => "forged" },
    };
    env.platform().invoke_sync("caller", forged).unwrap();
    let rows = env
        .db()
        .scan_all("caller.log", &ScanRequest::all())
        .unwrap();
    let result = rows[0].get_attr("Result").unwrap();
    assert_ne!(result.get_str("Ret"), Some("forged"));
}

/// A callee dispatched again after completion (a duplicate dispatch or a
/// racing IC) runs nothing and sends nothing: its callback preceded its
/// done-mark, so it answers `logged`, and the caller's entry keeps the
/// `Result` it holds.
#[test]
fn a_done_callee_answers_logged_and_sends_no_callback() {
    let env = caller_callee_env(BeldiConfig::beldi());
    let out = env.invoke("caller", Value::Int(3)).unwrap();
    assert_eq!(out.get_int("run"), Some(1));
    let entry = || {
        let rows = env
            .db()
            .scan_all("caller.log", &ScanRequest::all())
            .unwrap();
        assert_eq!(rows.len(), 1);
        rows[0]
            .get_attr("Result")
            .cloned()
            .expect("the callback landed")
    };
    let result = entry();
    // Find the callee's instance id from its intent table and re-dispatch
    // the original call, as a duplicated async delivery would. The done
    // intent no longer holds it: its done-mark removed `Args`, and it
    // keeps no `Ret` either.
    let intents = env
        .db()
        .scan_all("callee.intent", &ScanRequest::all())
        .unwrap();
    assert_eq!(intents.len(), 1);
    assert_eq!(intents[0].get_attr("Args"), None);
    assert_eq!(intents[0].get_attr("Ret"), None);
    let call = vmap! {
        "Op" => "call",
        "Id" => intents[0].get_str("Id").unwrap(),
        "Input" => 3i64,
        "Caller" => intents[0].get_str("Caller").unwrap(),
        "Async" => false,
    };
    let before = env.platform_metrics().invocations;
    let replay = env.platform().invoke_sync("callee", call).unwrap();
    assert_eq!(replay, vmap! { "Outcome" => "logged" });
    // One invocation, the dispatch itself: no callback reached `caller`.
    assert_eq!(env.platform_metrics().invocations - before, 1);
    assert_eq!(entry(), result, "the caller's entry is unchanged");
    // Body did not rerun.
    assert_eq!(
        env.read_current("callee", "ct", "runs").unwrap(),
        Value::Int(1)
    );
}

/// Caller crash exactly between the callee's callback and the caller's
/// own completion: recovery must reuse the logged result.
#[test]
fn caller_crash_after_callback_reuses_logged_result() {
    let env = caller_callee_env(BeldiConfig::beldi());
    let id = "caller-crash-postcb";
    env.platform()
        .faults()
        .plan(id.to_owned(), CrashPlan::AtLabel(Label::WrapperPreDone));
    let out = env.invoke_as("caller", id, Value::Int(9)).unwrap();
    assert_eq!(out.get_int("run"), Some(1));
    assert_eq!(
        env.read_current("callee", "ct", "runs").unwrap(),
        Value::Int(1)
    );
}

/// Read entries and invoke entries share `{ssf}.log`. Only an invoke
/// entry names a callee function, and its callee id is derived from its
/// own key (stored nowhere in the entry), which is how the callback finds
/// it. No entry names a transaction: commit propagation follows the call
/// tree in the callee's reply, not the log.
#[test]
fn invoke_entries_alone_name_a_callee_and_no_entry_a_transaction() {
    let env = caller_callee_env(BeldiConfig::beldi());
    env.register_ssf(
        "front",
        &["ft"],
        Arc::new(|ctx, input| {
            ctx.read("ft", "seen")?;
            ctx.begin_tx()?; // Derives the transaction's id: no entry.
            ctx.read("ft", "seen")?;
            let out = ctx.sync_invoke("callee", input)?;
            ctx.end_tx()?;
            Ok(out)
        }),
    );
    env.seed("front", "ft", "seen", Value::Int(0)).unwrap();
    let out = env.invoke_as("front", "f-1", Value::Int(3)).unwrap();
    assert_eq!(out.get_int("run"), Some(1));
    // The commit reached the callee through the call tree.
    assert_eq!(
        env.read_current("callee", "ct", "runs").unwrap(),
        Value::Int(1)
    );

    let log = "front.log";
    let rows = env.db().scan_all(log, &ScanRequest::all()).unwrap();
    let (invokes, reads): (Vec<_>, Vec<_>) =
        rows.iter().partition(|r| r.get_str("CalleeFn").is_some());
    assert_eq!(reads.len(), 2, "{} read entries", reads.len());
    assert!(rows.iter().all(|r| r.get_attr("TxnId").is_none()));
    assert!(rows.iter().all(|r| r.get_attr("CalleeId").is_none()));
    let callee_intents = env
        .db()
        .scan_all("callee.intent", &ScanRequest::all())
        .unwrap();
    for entry in &invokes {
        let key = entry.get_str("LogKey").unwrap();
        let id = callee_id(key);
        assert_eq!(callee_log_key(&id), Some(key), "{entry:?}");
        // The derived id is the one the callee registered under.
        assert!(
            callee_intents.iter().any(|i| i.get_str("Id") == Some(&*id)),
            "{id} has an intent"
        );
    }
    // The callback found the call's entry and left the result on it; the
    // commit signal, addressed by the transaction, has no entry.
    let [call] = invokes[..] else {
        panic!("one invoke entry: {invokes:?}");
    };
    assert!(call.get_attr("Result").is_some(), "{call:?}");
    assert_eq!(call.get_str("CalleeFn"), Some("callee"), "{call:?}");
    assert!(call.get_attr("TxnId").is_none(), "{call:?}");
}

/// A callback addresses its entry by the key its callee id names, and the
/// write is conditional on the entry being an invoke entry (it names a
/// callee function). A forged id that names a *read* entry's key writes
/// nothing on it.
#[test]
fn forged_callback_naming_a_read_entry_writes_nothing() {
    let env = caller_callee_env(BeldiConfig::beldi());
    env.register_ssf("reader", &["rt"], Arc::new(|ctx, _| ctx.read("rt", "k")));
    env.invoke_as("reader", "r-1", Value::Null).unwrap();
    let before = env
        .db()
        .scan_all("reader.log", &ScanRequest::all())
        .unwrap();
    assert_eq!(before.len(), 1);
    assert!(before[0].get_attr("Value").is_some(), "a read entry");
    assert!(before[0].get_attr("CalleeFn").is_none(), "{:?}", before[0]);
    let forged = vmap! {
        "Op" => "callback",
        "CalleeId" => callee_id(before[0].get_str("LogKey").unwrap()),
        "Result" => vmap! { "Outcome" => "ok", "Ret" => "forged" },
    };
    let out = env.platform().invoke_sync("reader", forged).unwrap();
    assert_eq!(out.get_str("Outcome"), Some("ok"), "acknowledged");
    let after = env
        .db()
        .scan_all("reader.log", &ScanRequest::all())
        .unwrap();
    assert_eq!(after, before, "the read entry is untouched");
}

/// The same for a cross-table-mode write entry, which shares `{ssf}.log`
/// with the invoke entries too: a callback whose id names its key writes
/// nothing on it.
#[test]
fn forged_callback_naming_a_cross_table_write_entry_writes_nothing() {
    let env = caller_callee_env(BeldiConfig::cross_table());
    env.register_ssf(
        "writer",
        &["wt"],
        Arc::new(|ctx, input| {
            ctx.write("wt", "k", input)?;
            Ok(Value::Null)
        }),
    );
    env.invoke_as("writer", "w-1", Value::Int(1)).unwrap();
    let before = env
        .db()
        .scan_all("writer.log", &ScanRequest::all())
        .unwrap();
    assert_eq!(before.len(), 1);
    assert!(before[0].get_attr("Flag").is_some(), "a write entry");
    assert!(before[0].get_attr("CalleeFn").is_none(), "{:?}", before[0]);
    let forged = vmap! {
        "Op" => "callback",
        "CalleeId" => callee_id(before[0].get_str("LogKey").unwrap()),
        "Result" => vmap! { "Outcome" => "ok", "Ret" => "forged" },
    };
    let out = env.platform().invoke_sync("writer", forged).unwrap();
    assert_eq!(out.get_str("Outcome"), Some("ok"), "acknowledged");
    let after = env
        .db()
        .scan_all("writer.log", &ScanRequest::all())
        .unwrap();
    assert_eq!(after, before, "the write entry is untouched");
}

/// A callback that arrives after the caller's entry was collected (§4.5's
/// spurious callback) is ignored: its keyed write creates no row.
#[test]
fn callback_for_a_collected_entry_creates_no_row() {
    let env = caller_callee_env(BeldiConfig::beldi().with_t_max(Duration::from_millis(50)));
    env.invoke_as("caller", "c-1", Value::Int(1)).unwrap();
    let rows = env
        .db()
        .scan_all("caller.log", &ScanRequest::all())
        .unwrap();
    let id = callee_id(rows[0].get_str("LogKey").unwrap());
    for _ in 0..3 {
        env.run_gc_once("caller").unwrap();
        env.clock().sleep(Duration::from_millis(80));
    }
    assert_eq!(env.db().row_count("caller.log").unwrap(), 0, "collected");
    let late = vmap! {
        "Op" => "callback",
        "CalleeId" => id,
        "Result" => vmap! { "Outcome" => "ok", "Ret" => 1i64 },
    };
    let out = env.platform().invoke_sync("caller", late).unwrap();
    assert_eq!(out.get_str("Outcome"), Some("ok"), "acknowledged");
    assert_eq!(env.db().row_count("caller.log").unwrap(), 0);
}

/// What one happy-path `sync_invoke` costs the store: the caller's entry,
/// the callee's intent, the callback and the callee's done mark — four
/// writes and no query, so an index read cannot creep back onto the
/// callback path unseen.
#[test]
fn sync_invoke_is_four_writes_and_no_query() {
    let env = BeldiEnv::for_tests_with(BeldiConfig::beldi());
    env.register_ssf("noop", &[], Arc::new(|_, input| Ok(input)));
    let delta = Arc::new(Mutex::new(None::<MetricsSnapshot>));
    let (db, slot) = (Arc::clone(env.db()), Arc::clone(&delta));
    env.register_ssf(
        "caller",
        &[],
        Arc::new(move |ctx, input| {
            let before = db.metrics();
            let out = ctx.sync_invoke("noop", input)?;
            *slot.lock().unwrap() = Some(db.metrics().delta(&before));
            Ok(out)
        }),
    );
    assert_eq!(env.invoke("caller", Value::Int(5)).unwrap(), Value::Int(5));
    let d = delta.lock().unwrap().take().expect("the body ran");
    assert_eq!((d.writes, d.queries), (4, 0), "{d:?}");
}

/// A 500 KiB outcome: more than a row may hold (400 KiB).
fn too_large() -> Value {
    Value::from("x".repeat(500 * 1024))
}

/// The error an outcome too large to store becomes: it names the limit.
fn assert_too_large(err: &BeldiError) {
    let BeldiError::Protocol(msg) = err else {
        panic!("a typed protocol error, got {err:?}");
    };
    assert!(msg.contains("too large to store"), "{msg}");
    assert!(msg.contains("over the 409600 B limit"), "{msg}");
}

/// A callee whose outcome its caller's entry cannot hold: the caller
/// records a typed error in its place, and that error is what the caller
/// gets, what its re-execution replays, and all anyone ever stores. The
/// callee runs once, nobody panics after the planned crash, and no intent
/// is left for the collector.
#[test]
fn an_outcome_too_large_to_store_is_a_typed_error_a_re_execution_replays() {
    let env = BeldiEnv::for_tests();
    let runs = Arc::new(AtomicUsize::new(0));
    let count = Arc::clone(&runs);
    env.register_ssf(
        "big",
        &[],
        Arc::new(move |_, _| {
            count.fetch_add(1, Ordering::SeqCst);
            Ok(too_large())
        }),
    );
    let seen = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&seen);
    env.register_ssf(
        "caller",
        &[],
        Arc::new(move |ctx, input| {
            let got = ctx.sync_invoke("big", input);
            log.lock().unwrap().push(got.clone());
            got
        }),
    );
    // The caller dies after its body ran: its retry re-executes it.
    let id = "caller-big";
    env.platform()
        .faults()
        .plan(id.to_owned(), CrashPlan::AtLabel(Label::WrapperPreDone));
    let out = env.invoke_as("caller", id, Value::Null);

    let seen = seen.lock().unwrap().clone();
    assert_eq!(seen.len(), 2, "the first execution and the re-execution");
    assert_eq!(seen[0], seen[1], "the re-execution replays the error");
    assert_too_large(seen[0].as_ref().unwrap_err());
    let Err(BeldiError::Protocol(msg)) = out else {
        panic!("the root returns the caller's error: {out:?}");
    };
    assert!(msg.contains("too large to store"), "{msg}");
    assert_eq!(runs.load(Ordering::SeqCst), 1, "the callee ran once");
    // The caller's entry holds the error, not the outcome.
    let rows = env
        .db()
        .scan_all("caller.log", &ScanRequest::all())
        .unwrap();
    let result = rows[0].get_attr("Result").expect("a recorded result");
    assert_eq!(result.get_str("Outcome"), Some("error"), "{result}");
    // The one crash is the planned one, and the collectors find nothing
    // unfinished to relaunch.
    assert_eq!(env.platform_metrics().crashes, 1);
    env.clock().sleep(Duration::from_secs(5));
    for ssf in ["big", "caller"] {
        assert_eq!(env.run_ic_once(ssf).unwrap().unfinished, 0, "{ssf}");
    }
}

/// A root whose outcome its own intent cannot hold stores, returns and
/// replays the same typed error.
#[test]
fn a_root_outcome_too_large_to_store_is_a_typed_error() {
    let env = BeldiEnv::for_tests();
    env.register_ssf("big", &[], Arc::new(|_, _| Ok(too_large())));
    let first = env.invoke_as("big", "r-big", Value::Null).unwrap_err();
    assert_too_large(&first);
    let again = env.invoke_as("big", "r-big", Value::Null).unwrap_err();
    assert_eq!(again, first, "a re-dispatch replays the stored error");
    assert_eq!(env.platform_metrics().crashes, 0);
    env.clock().sleep(Duration::from_secs(5));
    assert_eq!(env.run_ic_once("big").unwrap().unfinished, 0);
}
