//! Each fact is stored once, and only while somebody reads it.
//!
//! An intent's `Args` leaves out the envelope fields its row holds itself
//! (`Id`, `Caller`, `Async`), and its done-mark removes `Args` and
//! `LastLaunch`, whose one reader — the intent collector — reads only
//! intents that are not done. A callee's outcome is its caller's logged
//! `Result`, so only an intent no caller waits on — a root, a commit
//! signal — keeps a `Ret`. An invoke entry stores no `CalleeId` (it is
//! the entry's `LogKey` plus `.c`), and only an async callee's callback,
//! sent before its done-mark, sets `Registered`, the flag only
//! `async_invoke` reads. The collector puts the row's fields back before
//! it re-sends, so the envelope it fires is the one the intent was
//! registered for, field for field.

use std::sync::Arc;
use std::time::Duration;

use beldi::schema::{
    is_meta_table, A_ARGS, A_ASYNC, A_CALLER, A_CLAIMANT, A_DONE, A_ID, A_LAST_LAUNCH, A_RET,
};
use beldi::value::{vmap, Value};
use beldi::{callee_id, finalize_marker, log_key, BeldiConfig, BeldiEnv, CrashPlan, Label};
use beldi_apps::{MediaApp, TravelApp, WorkflowApp};
use beldi_simdb::DbSnapshot;
use beldi_simfaas::InvocationCtx;
use parking_lot::Mutex;

/// Every row of every intent table (`.intent`) or log table (`.log`).
fn meta_rows<'s>(snapshot: &'s DbSnapshot, suffix: &'s str) -> Vec<(&'s str, &'s Value)> {
    snapshot
        .table_names()
        .into_iter()
        .filter(|t| is_meta_table(t) && t.ends_with(suffix))
        .flat_map(|t| snapshot.rows(t).unwrap().values().map(move |row| (t, row)))
        .collect()
}

/// `root` calls `mid`, which fires `sink` asynchronously and then calls
/// `probe`; `probe` snapshots the store while all four are in flight.
fn register_chain(env: &BeldiEnv, in_flight: &Arc<Mutex<Option<DbSnapshot>>>) {
    env.register_ssf(
        "root",
        &[],
        Arc::new(|ctx, input| ctx.sync_invoke("mid", input)),
    );
    env.register_ssf(
        "mid",
        &[],
        Arc::new(|ctx, input| {
            ctx.async_invoke("sink", input.clone())?;
            ctx.sync_invoke("probe", input)
        }),
    );
    env.register_ssf(
        "sink",
        &["t"],
        Arc::new(|ctx, input| {
            ctx.write("t", "last", input)?;
            Ok(Value::Null)
        }),
    );
    let (db, slot) = (Arc::clone(env.db()), Arc::clone(in_flight));
    env.register_ssf(
        "probe",
        &[],
        Arc::new(move |_, input| {
            *slot.lock() = Some(db.snapshot());
            Ok(input)
        }),
    );
}

#[test]
fn a_quiesced_run_stores_each_fact_once() {
    let env = BeldiEnv::for_tests();
    let (media, travel) = (MediaApp::small(), TravelApp::small());
    media.setup(&env);
    travel.setup(&env);
    let in_flight = Arc::default();
    register_chain(&env, &in_flight);

    let compose = vmap! {
        "op" => "compose", "user" => "user-1", "title" => "Title 2",
        "text" => " a review ", "rating" => 7i64,
    };
    env.invoke(media.entry(), compose).unwrap();
    let reserve = vmap! {
        "op" => "reserve", "user" => "user-1", "hotel" => "hotel-2", "flight" => "flight-2",
    };
    let reserved = env.invoke(travel.entry(), reserve).unwrap();
    assert_eq!(reserved.get_str("status"), Some("reserved"));
    env.invoke_as("root", "r-1", Value::Int(5)).unwrap();
    env.clock().sleep(Duration::from_secs(1));
    assert_eq!(
        env.read_current("sink", "t", "last").unwrap(),
        Value::Int(5)
    );

    // In flight: every intent that is not done keeps the call to re-send,
    // without the fields its row holds.
    let snapshot = in_flight.lock().take().expect("the probe ran");
    let running: Vec<_> = meta_rows(&snapshot, ".intent")
        .into_iter()
        .filter(|(_, row)| row.get_bool(A_DONE) == Some(false))
        .collect();
    assert_eq!(running.len(), 4, "root, mid, sink and probe: {running:?}");
    for (table, row) in &running {
        let args = row.get_attr(A_ARGS).expect("an unfinished intent's Args");
        for field in [A_ID, A_CALLER, A_ASYNC] {
            assert_eq!(args.get_attr(field), None, "{table}: {row:?}");
        }
        assert!(row.get_attr(A_LAST_LAUNCH).is_some(), "{table}: {row:?}");
    }
    let with_caller = running
        .iter()
        .filter(|(_, r)| r.get_attr(A_CALLER).is_some());
    assert_eq!(with_caller.count(), 3, "mid, sink and probe");

    // Quiesced: every intent is done and keeps neither.
    let snapshot = env.db().snapshot();
    let intents = meta_rows(&snapshot, ".intent");
    assert_eq!(intents.len(), 20, "compose, reserve and the chain");
    for (table, row) in &intents {
        assert_eq!(row.get_bool(A_DONE), Some(true), "{table}: {row:?}");
        assert_eq!(row.get_attr(A_ARGS), None, "{table}: {row:?}");
        assert_eq!(row.get_attr(A_LAST_LAUNCH), None, "{table}: {row:?}");
    }
    // A `Ret` on exactly the intents no caller waits on: the three roots
    // and the reservation's commit signals. A finalize marker its owner
    // claimed ran nothing and records no outcome.
    let (mut callees, mut claimed, mut kept) = (0, 0, 0);
    for (table, row) in &intents {
        let ret = row.get_attr(A_RET).is_some();
        if row.get_attr(A_CALLER).is_some() {
            callees += 1;
            assert!(
                !ret,
                "a callee's outcome is in its caller's log: {table}: {row:?}"
            );
        } else if row.get_attr(A_CLAIMANT).is_some() {
            claimed += 1;
            assert!(!ret, "{table}: {row:?}");
        } else {
            kept += 1;
            assert!(ret, "a root or signal keeps its outcome: {table}: {row:?}");
        }
    }
    assert_eq!(
        (callees, claimed, kept),
        (14, 1, 5),
        "3 roots and 2 signals kept"
    );
    // No log entry repeats its callee id, and only the async call's entry
    // is marked registered.
    let entries = meta_rows(&snapshot, ".log");
    assert!(entries
        .iter()
        .all(|(_, r)| r.get_attr("CalleeId").is_none()));
    let registered: Vec<_> = entries
        .iter()
        .filter(|(_, r)| r.get_attr("Registered").is_some())
        .map(|(_, r)| r.get_str("LogKey").unwrap())
        .collect();
    let sink = intents
        .iter()
        .find(|(table, _)| *table == "sink.intent")
        .map(|(_, r)| r.get_str(A_ID).unwrap())
        .unwrap();
    assert_eq!(registered.len(), 1, "{registered:?}");
    assert_eq!(&*callee_id(registered[0]), sink);
}

/// Replaces `ssf`'s handler with one that records what it is sent.
fn record(env: &BeldiEnv, ssf: &str) -> Arc<Mutex<Vec<Value>>> {
    let sent = Arc::<Mutex<Vec<Value>>>::default();
    let log = Arc::clone(&sent);
    let handler = move |_: &InvocationCtx, payload: Value| {
        log.lock().push(payload);
        Value::Null
    };
    env.platform().register(ssf, Arc::new(handler));
    sent
}

/// One IC pass over `ssf`, past its restart delay, and what it re-sent.
fn resent(env: &BeldiEnv, ssf: &str) -> Vec<Value> {
    let sent = record(env, ssf);
    env.clock().sleep(Duration::from_secs(1));
    assert_eq!(env.run_ic_once(ssf).unwrap().restarted, 1);
    env.clock().sleep(Duration::from_secs(1));
    let sent = sent.lock().clone();
    sent
}

/// A call, an async call and a commit signal, each killed before its
/// done-mark: the collector re-sends exactly the envelope the intent was
/// registered for, its `Args` with the `Id`, `Caller` and `Async` the row
/// holds put back.
#[test]
fn the_collector_resends_the_envelope_the_intent_was_registered_for() {
    let cfg = BeldiConfig::beldi().with_ic_restart_delay(Duration::from_millis(100));
    let env = BeldiEnv::for_tests_with(cfg);
    for name in ["sync-callee", "async-callee", "signalled"] {
        env.register_ssf(name, &[], Arc::new(|_, input| Ok(input)));
    }
    env.register_ssf(
        "caller",
        &[],
        Arc::new(|ctx, input| {
            if input.get_bool("async") == Some(true) {
                ctx.async_invoke("async-callee", input)?;
                Ok(Value::Null)
            } else {
                ctx.sync_invoke("sync-callee", input)
            }
        }),
    );
    let faults = env.platform().faults();

    // A synchronous call: its callback landed, so the caller finishes.
    let input = vmap! { "async" => false, "n" => 1i64 };
    let callee = callee_id(&log_key("c-1", 0));
    faults.plan(&*callee, CrashPlan::AtLabel(Label::WrapperPreDone));
    env.invoke_as("caller", "c-1", input.clone()).unwrap();
    let call = vmap! {
        "Op" => "call", "Id" => &callee, "Input" => input,
        "Caller" => "caller", "Async" => false,
    };
    assert_eq!(resent(&env, "sync-callee"), [call]);

    // An asynchronous call.
    let input = vmap! { "async" => true, "n" => 2i64 };
    let callee = callee_id(&log_key("c-2", 0));
    faults.plan(&*callee, CrashPlan::AtLabel(Label::WrapperPreDone));
    env.invoke_as("caller", "c-2", input.clone()).unwrap();
    env.clock().sleep(Duration::from_millis(100));
    let call = vmap! {
        "Op" => "call", "Id" => &callee, "Input" => input,
        "Caller" => "caller", "Async" => true,
    };
    assert_eq!(resent(&env, "async-callee"), [call]);

    // A commit signal, sent once.
    let marker = finalize_marker("signalled", "t-1");
    let txn = vmap! { "Id" => "t-1", "StartMs" => 0i64, "Mode" => "commit" };
    let signal = vmap! { "Op" => "txnsignal", "Id" => &marker, "TxnCtx" => txn };
    faults.plan(&*marker, CrashPlan::AtLabel(Label::WrapperPreDone));
    assert!(env
        .platform()
        .invoke_sync("signalled", signal.clone())
        .is_err());
    assert_eq!(resent(&env, "signalled"), [signal]);
}
