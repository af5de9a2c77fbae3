//! The history checker over schedules the explorer cannot reach: each
//! needs a recycle inside the recorded run, so virtual time passes the
//! horizon `T` between an intent's done-mark and a later execution that
//! still touches it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use beldi::value::Value;
use beldi::{BeldiConfig, BeldiEnv, CrashPlan};
use beldi_workload::history::check;

/// An environment with a 200 ms lease and a 40 ms relaunch delay, its
/// run record started.
fn recorded_env() -> BeldiEnv {
    let cfg = BeldiConfig::beldi()
        .with_t_max(Duration::from_millis(200))
        .with_ic_restart_delay(Duration::from_millis(40));
    let env = BeldiEnv::builder(cfg).build();
    env.telemetry().start_record(env.clock().clone());
    env
}

/// A straggler outlives a duplicate of its own execution: the first
/// execution of `f` stalls 180 ms after its first write, the intent
/// collector relaunches it at 50 ms, and the relaunch finishes at once. A
/// GC pass at 160 ms must not recycle the intent, because the straggler,
/// still inside its lease, writes again at 180 ms: the recycle horizon
/// `T` after the done-mark covers every execution launched before it
/// (clause (b)).
#[test]
fn a_straggler_writes_before_its_intent_is_recycled() {
    let env = recorded_env();
    let clock = env.clock().clone();
    let stalled = Arc::new(AtomicBool::new(false));
    env.register_ssf(
        "f",
        &["t"],
        Arc::new(move |ctx, _| {
            ctx.write("t", "a", Value::Int(1))?;
            if !stalled.swap(true, Ordering::Relaxed) {
                clock.sleep(Duration::from_millis(180));
            }
            ctx.write("t", "b", Value::Int(2))?;
            Ok(Value::Null)
        }),
    );
    env.invoke_async("f", Value::Null).unwrap();
    env.clock().sleep(Duration::from_millis(50));
    assert_eq!(env.run_ic_once("f").unwrap().restarted, 1);
    env.clock().sleep(Duration::from_millis(110));
    env.run_gc_once("f").unwrap();
    env.clock().sleep(Duration::from_millis(100));
    let findings = check(&env.telemetry().take_record());
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(env.read_current("f", "t", "b").unwrap(), Value::Int(2));
}

/// A caller relaunched after its async callee was recycled applies no
/// step twice. `root` calls `worker`, which calls `sink` asynchronously
/// and dies before its callback, then at each of its root's four
/// retries; the async `root` gives up, `sink` finishes and is recycled
/// `T` later, and the intent collector then relaunches `root`, so
/// `worker` re-runs its async step. The callee confirmed its
/// registration before its done-mark, so the re-run fires the call
/// without registering, and the stub finds no intent and runs nothing:
/// its guard read of the recycled instance writes nothing, so clause (b)
/// holds.
#[test]
fn a_caller_relaunched_after_its_async_callee_is_recycled_applies_no_step_twice() {
    let env = recorded_env();
    env.register_ssf(
        "sink",
        &["st"],
        Arc::new(|ctx, v| {
            let n = ctx.read("st", "k")?.as_int().unwrap_or(0);
            ctx.write("st", "k", Value::Int(n + v.as_int().unwrap_or(0)))?;
            Ok(Value::Null)
        }),
    );
    env.register_ssf(
        "worker",
        &[],
        Arc::new(|ctx, v| {
            ctx.async_invoke("sink", v)?;
            Ok(Value::Null)
        }),
    );
    env.register_ssf("root", &[], Arc::new(|ctx, v| ctx.sync_invoke("worker", v)));
    beldi::silence_crash_backtraces();
    let root = env.invoke_async("root", Value::Int(1)).unwrap();
    // The worker's first run passes five crash points before its callback
    // (enter, post-intent, and its async step's entry, registration and
    // call); every later run dies at its first.
    let worker = format!("{root}#0.c");
    let faults = env.platform().faults();
    faults.plan(worker, CrashPlan::Script(vec![5, 6, 7, 8, 9]));
    env.clock().sleep(Duration::from_millis(30));
    assert_eq!(faults.injected_count(), 5);
    env.clock().sleep(Duration::from_millis(250));
    assert_eq!(env.run_gc_once("sink").unwrap().recycled_intents, 1);
    assert_eq!(env.drain_recovery(20).unwrap().unfinished, 0);
    env.clock().sleep(Duration::from_millis(50));

    let findings = check(&env.telemetry().take_record());
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(env.read_current("sink", "st", "k").unwrap(), Value::Int(1));
}
