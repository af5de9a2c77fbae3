//! Where the protocol stores a value twice, it stores one allocation twice.
//!
//! Exactly-once is bought by keeping every value in several places: a
//! call's input in the callee's intent, its outcome in the caller's invoke
//! log (§4.5, Fig. 9) and, returned on, in the root's intent, every read
//! in the read log (Fig. 5). A [`Map`] clone is a reference-count bump, so
//! those places hold one tree. These tests fail if a deep copy comes back
//! on that path, or a write through a shared handle that re-homes the map
//! below it. (A write that copies only the level it writes leaves the
//! levels below shared and does not show here: CI's `allocs_per_req` guard
//! counts it.)
//!
//! Ids are stored several times too, and each is one string: a callee id
//! is the callee's intent key and its `Id`; a log key is its entry's row
//! key and its `LogKey`. A fact the row already holds is not stored again:
//! the caller's invoke entry keeps no copy of the callee id, which is its
//! `LogKey` plus `.c`, and an intent's `Args` leaves out its `Id`,
//! `Caller` and `Async`, and a callee's intent keeps no `Ret`: its outcome
//! is its caller's logged `Result`. The callee's entries are named by its
//! id and the steps its intent's `LogSteps` lists.
//!
//! An intent keeps its `Args` only until its done-mark (the collector, the
//! one reader, reads only intents that are not done), so the input is
//! checked on intents stopped just before it.

use std::sync::Arc;

use beldi::schema::{
    intent_table, log_table, A_ARGS, A_CALLEE_FN, A_ID, A_LOG_KEY, A_LOG_STEPS, A_RESULT, A_RET,
};
use beldi::value::{vmap, Map, Value};
use beldi::Label;
use beldi::{callee_id, log_key, BeldiEnv, CrashPlan, A_VALUE};
use beldi_simdb::ScanRequest;
use parking_lot::Mutex;

/// What one execution of a body saw.
#[derive(Debug, Clone, PartialEq)]
struct Seen {
    input: Value,
    read: Value,
    ret: Value,
}

type Log = Arc<Mutex<Vec<Seen>>>;

/// `caller` passes its input to `callee`, which reads a map-valued item
/// and returns a map. Every execution of either body is recorded.
fn caller_callee() -> (BeldiEnv, Log, Log) {
    let env = BeldiEnv::for_tests();
    let (callee_log, caller_log) = (Log::default(), Log::default());
    let log = callee_log.clone();
    env.register_ssf(
        "callee",
        &["ct"],
        Arc::new(move |ctx, input| {
            let read = ctx.read("ct", "item")?;
            let ret = vmap! { "answer" => vmap! { "n" => 42i64 } };
            let seen = Seen {
                input,
                read,
                ret: ret.clone(),
            };
            log.lock().push(seen);
            Ok(ret)
        }),
    );
    let log = caller_log.clone();
    env.register_ssf(
        "caller",
        &[],
        Arc::new(move |ctx, input| {
            let ret = ctx.sync_invoke("callee", input.clone())?;
            let seen = Seen {
                input,
                read: Value::Null,
                ret: ret.clone(),
            };
            log.lock().push(seen);
            Ok(ret)
        }),
    );
    env.seed(
        "callee",
        "ct",
        "item",
        vmap! { "stock" => vmap! { "left" => 3i64 } },
    )
    .unwrap();
    (env, callee_log, caller_log)
}

fn same(a: &Value, b: &Value) -> bool {
    Map::ptr_eq(a.as_map().expect("a map"), b.as_map().expect("a map"))
}

/// The one row of `table` that has `attr`, and that attribute.
fn stored(env: &BeldiEnv, table: &str, attr: &str) -> Value {
    let rows = env.db().scan_all(table, &ScanRequest::all()).unwrap();
    let mut found = rows.iter().filter_map(|row| row.get_attr(attr));
    let value = found.next().expect("a row with the attribute").clone();
    assert!(found.next().is_none(), "one row of {table} has {attr}");
    value
}

/// The sharing every completed caller → callee request leaves behind,
/// given what the last execution of each body saw.
fn assert_stored_once(env: &BeldiEnv, callee: &Seen, caller: &Seen) {
    // The outcome: returned by the callee's body, delivered to the caller's
    // invoke log, its one stored copy, returned to the caller's body and by
    // it, recorded in the root's intent. The callee's intent keeps none.
    let logged_result = stored(env, &log_table("caller"), A_RESULT);
    let root_ret = stored(env, &intent_table("caller"), A_RET);
    for held in [
        logged_result.get_attr("Ret").unwrap(),
        &caller.ret,
        root_ret.get_attr("Ret").unwrap(),
    ] {
        assert!(same(held, &callee.ret), "{held} is a copy of the outcome");
    }
    let callee_intents = env
        .db()
        .scan_all(&intent_table("callee"), &ScanRequest::all());
    let [intent] = &callee_intents.unwrap()[..] else {
        panic!("one callee intent");
    };
    assert_eq!(intent.get_attr(A_RET), None, "{intent:?}");
    assert!(same(&callee.input, &caller.input));
    // The read: returned to the body, recorded in the read log.
    assert!(same(
        &stored(env, &log_table("callee"), A_VALUE),
        &callee.read
    ));
}

/// The callee's instance id: the caller's first logged step names it.
fn callee() -> String {
    callee_id(&log_key("root", 0)).to_string()
}

/// Dispatches the caller once, with no retry, and stops the caller and the
/// callee just before their done-marks, so both intents keep their `Args`.
fn stop_before_done(env: &BeldiEnv, input: Value) {
    let faults = env.platform().faults();
    faults.plan("root", CrashPlan::AtLabel(Label::WrapperPreDone));
    faults.plan(callee(), CrashPlan::AtLabel(Label::WrapperPreDone));
    assert!(env.invoke_attempts("caller", "root", input, 1).is_err());
}

/// The input: received by the body, recorded in the `Args` of its intent,
/// stopped before its done-mark.
fn assert_args_share_input(env: &BeldiEnv, callee: &Seen, caller: &Seen) {
    for (ssf, seen) in [("callee", callee), ("caller", caller)] {
        let args = stored(env, &intent_table(ssf), A_ARGS);
        assert!(same(args.get_attr("Input").unwrap(), &seen.input));
    }
    assert!(same(&callee.input, &caller.input));
}

#[test]
fn a_value_the_protocol_stores_twice_is_one_allocation() {
    let (env, callee_log, caller_log) = caller_callee();
    let input = vmap! { "order" => vmap! { "qty" => 2i64 } };
    let ret = env.invoke_as("caller", "root", input.clone()).unwrap();

    let (callee, caller) = (callee_log.lock().clone(), caller_log.lock().clone());
    assert_eq!((callee.len(), caller.len()), (1, 1));
    assert_stored_once(&env, &callee[0], &caller[0]);
    // The client's own handles are the same trees again.
    assert!(same(&ret, &callee[0].ret));
    assert!(same(&input, &callee[0].input));
    // The done-marks removed both intents' `Args`.
    for ssf in ["callee", "caller"] {
        let rows = env.db().scan_all(&intent_table(ssf), &ScanRequest::all());
        assert!(rows.unwrap().iter().all(|r| r.get_attr(A_ARGS).is_none()));
    }

    let (stopped, callee_log, caller_log) = caller_callee();
    stop_before_done(&stopped, input.clone());
    let (callee, caller) = (callee_log.lock().clone(), caller_log.lock().clone());
    assert_eq!((callee.len(), caller.len()), (1, 1));
    assert_args_share_input(&stopped, &callee[0], &caller[0]);
    assert!(same(&input, &callee[0].input));
}

#[test]
fn a_re_executed_instance_gets_equal_values_and_shares_them_still() {
    let (env, callee_log, caller_log) = caller_callee();
    // The callee dies after its body ran, before its callback: the caller's
    // retry re-executes it, and the body replays its read from the log.
    env.platform()
        .faults()
        .set_global_plan(Some(CrashPlan::AtLabel(Label::WrapperPreCallback)));
    let input = vmap! { "order" => vmap! { "qty" => 2i64 } };
    let ret = env.invoke_as("caller", "root", input).unwrap();
    assert_eq!(env.platform().faults().injected_count(), 1);

    let (callee, caller) = (callee_log.lock().clone(), caller_log.lock().clone());
    assert_eq!((callee.len(), caller.len()), (2, 1));
    assert_eq!(
        callee[0], callee[1],
        "the replay saw what the first run saw"
    );
    assert_eq!(ret, callee[1].ret);
    assert_stored_once(&env, &callee[1], &caller[0]);

    // The same run stopped before the done-marks: the re-executed callee
    // got the input the first execution's registration recorded.
    let (stopped, callee_log, caller_log) = caller_callee();
    stopped
        .platform()
        .faults()
        .set_global_plan(Some(CrashPlan::AtLabel(Label::WrapperPreCallback)));
    stop_before_done(&stopped, vmap! { "order" => vmap! { "qty" => 2i64 } });
    assert_eq!(stopped.platform().faults().injected_count(), 3);
    let (callee, caller) = (callee_log.lock().clone(), caller_log.lock().clone());
    assert_eq!((callee.len(), caller.len()), (2, 1));
    assert!(same(&callee[0].input, &callee[1].input));
    assert_args_share_input(&stopped, &callee[1], &caller[0]);
}

/// The string a stored attribute holds, by address.
fn text(v: &Value) -> *const u8 {
    v.as_shared_str().expect("a string").as_ptr()
}

#[test]
fn an_id_the_protocol_stores_several_times_is_one_string() {
    let (env, _, _) = caller_callee();
    env.invoke_as("caller", "root", Value::Null).unwrap();

    // The callee id: the caller's invoke-log entry names it by its key and
    // stores no copy, and the callee's intent is keyed by it, holds it as
    // its `Id`, and lists the step of its read.
    let snapshot = env.db().snapshot();
    let (entry_key, entry) = snapshot
        .rows(&log_table("caller"))
        .expect("the caller's log")
        .iter()
        .next()
        .expect("its invoke entry");
    assert!(entry.get_attr(A_CALLEE_FN).is_some(), "{entry:?}");
    assert_eq!(entry.as_map().unwrap().get("CalleeId"), None);
    let (intent_key, intent) = snapshot
        .rows(&intent_table("callee"))
        .expect("the callee's intents")
        .iter()
        .next()
        .expect("its intent");
    let id = intent.get_attr(A_ID).expect("an id");
    assert_eq!(
        id.as_str(),
        Some(&*callee_id(entry_key.hash_value().as_str().unwrap()))
    );
    assert_eq!(intent_key.hash_value(), id);
    assert_eq!(text(intent_key.hash_value()), text(id));
    let steps = stored(&env, &intent_table("callee"), A_LOG_STEPS);
    assert_eq!(steps, Value::List(vec![Value::Int(0)]));

    // A log key: the read-log entry's `LogKey` is its row key.
    let snapshot = env.db().snapshot();
    let (key, row) = snapshot
        .rows(&log_table("callee"))
        .expect("the callee's log")
        .iter()
        .next()
        .expect("its read-log entry");
    let log_key = row.get_attr(A_LOG_KEY).expect("a log key");
    assert_eq!(key.hash_value(), log_key);
    assert_eq!(text(key.hash_value()), text(log_key));
    // ...and the key the collector computes from the intent and its step.
    let callee_id = id.as_str().expect("a string");
    assert_eq!(log_key.as_str(), Some(&*beldi::log_key(callee_id, 0)));
}
