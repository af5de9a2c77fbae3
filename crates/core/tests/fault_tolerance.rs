//! Exactly-once semantics under crash injection (§2.2, §7.2's failure
//! model).
//!
//! These tests crash SSF instances at labelled points *inside* Beldi's own
//! protocols — around database updates, log appends, invocations,
//! callbacks, and intent completion — and assert that recovery (caller
//! retry or the intent collector) always drives the system to the state of
//! a single crash-free execution: counters incremented exactly once,
//! conditional writes decided exactly once, callees executed exactly once.

use beldi::Label;
use std::sync::Arc;
use std::time::Duration;

use beldi::value::{vmap, Value};
use beldi::{crash_stream, BeldiConfig, BeldiEnv, CrashPlan, Mode, StormPolicy};
use beldi_simclock::{Gauge, Hist, Metric};
use beldi_simdb::{LatencyModel, ScanRequest};
use beldi_simfaas::Visit;

mod common;

/// A workflow that exercises every primitive: the root reads and bumps a
/// counter, performs a conditional write, and synchronously invokes a
/// worker that bumps its own counter.
fn pipeline_env(cfg: BeldiConfig) -> BeldiEnv {
    register_pipeline(BeldiEnv::for_tests_with(cfg))
}

/// [`pipeline_env`] with modelled storage latency: the lease tests need
/// virtual time to pass inside an execution.
fn slow_pipeline_env(cfg: BeldiConfig) -> BeldiEnv {
    register_pipeline(common::contended_env(cfg))
}

fn register_pipeline(env: BeldiEnv) -> BeldiEnv {
    env.register_ssf(
        "worker",
        &["wt"],
        Arc::new(|ctx, input| {
            let c = ctx.read("wt", "count")?.as_int().unwrap_or(0);
            ctx.write("wt", "count", Value::Int(c + 1))?;
            Ok(Value::Int(input.as_int().unwrap_or(0) + c + 1))
        }),
    );
    env.register_ssf(
        "root",
        &["rt"],
        Arc::new(|ctx, input| {
            let c = ctx.read("rt", "count")?.as_int().unwrap_or(0);
            ctx.write("rt", "count", Value::Int(c + 1))?;
            let gated = ctx.cond_write(
                "rt",
                "gate",
                Value::Int(c + 1),
                beldi::value::Cond::not_exists(beldi::A_VALUE)
                    .or(beldi::value::Cond::lt(beldi::A_VALUE, 1_000_000i64)),
            )?;
            let sub = ctx.sync_invoke("worker", input)?;
            Ok(vmap! {
                "count" => c + 1,
                "gated" => gated,
                "sub" => sub,
            })
        }),
    );
    env
}

/// Asserts the post-state of exactly `n` completed pipeline invocations.
fn assert_pipeline_state(env: &BeldiEnv, n: i64) {
    assert_eq!(
        env.read_current("root", "rt", "count").unwrap(),
        Value::Int(n),
        "root counter"
    );
    assert_eq!(
        env.read_current("worker", "wt", "count").unwrap(),
        Value::Int(n),
        "worker counter"
    );
    assert_eq!(
        env.read_current("root", "rt", "gate").unwrap(),
        Value::Int(n),
        "gate value"
    );
}

#[test]
fn crash_free_pipeline_baseline_state() {
    let env = pipeline_env(BeldiConfig::beldi());
    let out = env.invoke("root", Value::Int(10)).unwrap();
    assert_eq!(out.get_int("count"), Some(1));
    assert_eq!(out.get_bool("gated"), Some(true));
    assert_eq!(out.get_int("sub"), Some(11));
    assert_pipeline_state(&env, 1);
}

/// Crash the root instance at each crash-point ordinal in turn; the driver
/// retry (same instance id) must complete the workflow exactly once.
#[test]
fn root_crash_at_every_ordinal_is_exactly_once() {
    // A crash-free root execution passes well under 60 points; ordinals
    // beyond the end simply never fire (also asserted below).
    let mut fired_any = false;
    for ordinal in 0..60 {
        let env = pipeline_env(BeldiConfig::beldi());
        let root_id = format!("root-ord-{ordinal}");
        env.platform()
            .faults()
            .plan(root_id.clone(), CrashPlan::AtOrdinal(ordinal));
        let out = env.invoke_as("root", &root_id, Value::Int(5)).unwrap();
        assert_eq!(out.get_int("count"), Some(1), "ordinal {ordinal}");
        assert_pipeline_state(&env, 1);
        fired_any |= env.platform().faults().injected_count() > 0;
    }
    assert!(fired_any, "no crash point ever fired — labels broken?");
}

/// Crash at each *named* point that brackets an externally visible effect.
#[test]
fn root_crash_at_named_labels_is_exactly_once() {
    let labels = [
        Label::WrapperEnter,
        Label::WrapperPostIntent,
        Label::ReadPreLog,
        Label::ReadPostLog,
        Label::WriteEnter,
        Label::WriteExit,
        Label::DaalWritePreApply,
        Label::DaalWritePostApply,
        Label::DaalWritePreLogFalse,
        Label::InvokePreEntry,
        Label::InvokePreCall,
        Label::WrapperPreCallback,
        Label::WrapperPreDone,
        Label::WrapperPostDone,
    ];
    for label in labels {
        let env = pipeline_env(BeldiConfig::beldi());
        let root_id = format!("root-{label}");
        env.platform()
            .faults()
            .plan(root_id.clone(), CrashPlan::AtLabel(label));
        let out = env.invoke_as("root", &root_id, Value::Int(5)).unwrap();
        assert_eq!(out.get_int("count"), Some(1), "label {label}");
        assert_pipeline_state(&env, 1);
    }
}

/// The same sweep in cross-table logging mode.
#[test]
fn cross_table_mode_crash_sweep_is_exactly_once() {
    for ordinal in 0..40 {
        let env = pipeline_env(BeldiConfig::cross_table());
        let root_id = format!("xt-ord-{ordinal}");
        env.platform()
            .faults()
            .plan(root_id.clone(), CrashPlan::AtOrdinal(ordinal));
        env.invoke_as("root", &root_id, Value::Int(5)).unwrap();
        assert_pipeline_state(&env, 1);
    }
}

/// Random crash storm across a batch of workflows: every invocation must
/// still take effect exactly once.
#[test]
fn random_crash_storm_preserves_exactly_once() {
    let env = pipeline_env(BeldiConfig::beldi());
    env.platform().faults().set_storm_policy(Some(StormPolicy {
        ssf_prob: 0.03,
        collector_prob: 0.03,
        max_crashes: 150,
        seed: 0xBE1D1,
    }));
    const N: i64 = 25;
    for i in 0..N {
        env.invoke("root", Value::Int(i)).unwrap();
    }
    env.platform().faults().set_storm_policy(None);
    assert!(
        env.platform().faults().injected_count() > 0,
        "storm injected nothing"
    );
    assert_pipeline_state(&env, N);
}

/// The baseline (no Beldi) double-executes under the same fault: this is
/// the anomaly the paper's §2.1 motivates. The callee dies just after its
/// write; the caller's retry runs it again from the start, and with no log
/// to replay from, the write lands twice.
#[test]
fn baseline_mode_duplicates_effects_under_retry() {
    let env = pipeline_env(BeldiConfig::baseline());
    // The root's write, conditional write and call take steps 0-2 (a
    // baseline read takes none); the callee is named by the call's step.
    let callee = beldi::callee_id(&beldi::log_key("r", 2));
    env.platform()
        .faults()
        .plan(callee.to_string(), CrashPlan::AtLabel(Label::WriteExit));
    let out = env.invoke_as("root", "r", Value::Int(1)).unwrap();
    assert_eq!(env.platform().faults().injected_count(), 1);
    // The worker counted the duplicate — state corruption the paper's
    // recommendation ("make your functions idempotent") leaves to the
    // developer — and the root, which did not crash, did not.
    assert_eq!(out.get_int("sub"), Some(3));
    assert_eq!(
        env.read_current("worker", "wt", "count").unwrap(),
        Value::Int(2)
    );
    assert_eq!(
        env.read_current("root", "rt", "count").unwrap(),
        Value::Int(1)
    );
    // The callee's retry recovered it, and its recovery is sampled.
    assert_eq!(env.telemetry().histogram(Hist::Recovery).len(), 1);
}

/// A crashed *asynchronous* instance is finished by the intent collector.
#[test]
fn intent_collector_completes_crashed_async_instance() {
    let cfg = BeldiConfig::beldi().with_ic_restart_delay(Duration::from_millis(200));
    let env = BeldiEnv::for_tests_with(cfg);
    env.register_ssf(
        "sink",
        &["t"],
        Arc::new(|ctx, input| {
            let c = ctx.read("t", "count")?.as_int().unwrap_or(0);
            ctx.write("t", "count", Value::Int(c + 1))?;
            ctx.write("t", "last", input)?;
            Ok(Value::Null)
        }),
    );
    let id = env.invoke_async("sink", Value::Int(7)).unwrap();
    // Too late to crash the dispatch deterministically, so re-plan and
    // re-check: crash its first write effect when it runs.
    env.platform()
        .faults()
        .plan(id.clone(), CrashPlan::AtLabel(Label::DaalWritePreApply));
    // Let the (crashing) first execution happen: it runs while this
    // thread sleeps.
    env.clock().sleep(Duration::from_millis(30));
    // Advance virtual time past the restart delay, then run the IC until
    // the intent completes.
    let deadline = env.clock().now().plus(Duration::from_secs(5));
    loop {
        env.clock().sleep(Duration::from_millis(300));
        let report = env.run_ic_once("sink").unwrap();
        env.clock().sleep(Duration::from_millis(10));
        if report.unfinished == 0 {
            break;
        }
        assert!(env.clock().now() < deadline, "IC never finished the intent");
    }
    assert_eq!(
        env.read_current("sink", "t", "count").unwrap(),
        Value::Int(1)
    );
    assert_eq!(
        env.read_current("sink", "t", "last").unwrap(),
        Value::Int(7)
    );
}

/// Crash the callee after its callback but before marking done: the caller
/// has the result; re-execution of the callee must not re-run its effects
/// (they replay from its logs) and must not double the caller's view.
#[test]
fn callee_crash_between_callback_and_done() {
    let env = pipeline_env(BeldiConfig::beldi());
    // The callee id is caller-generated, so use a storm that kills at
    // every probe, capped at one crash. (Planned per-instance crashes
    // need the id; the storm needs none.)
    env.platform().faults().set_storm_policy(Some(StormPolicy {
        ssf_prob: 1.0,
        collector_prob: 1.0,
        max_crashes: 1,
        seed: 3,
    }));
    let out = env.invoke("root", Value::Int(2)).unwrap();
    env.platform().faults().set_storm_policy(None);
    assert_eq!(out.get_int("count"), Some(1));
    assert_pipeline_state(&env, 1);
}

/// Timer-driven collectors (the deployed configuration): with collectors
/// started, crashed async work completes with no manual driving.
#[test]
fn timer_collectors_recover_crashed_work() {
    let cfg = BeldiConfig::beldi()
        .with_ic_restart_delay(Duration::from_secs(2))
        .with_collector_period(Duration::from_secs(4));
    let env = BeldiEnv::for_tests_with(cfg);
    env.register_ssf(
        "job",
        &["t"],
        Arc::new(|ctx, _| {
            let c = ctx.read("t", "done")?.as_int().unwrap_or(0);
            ctx.write("t", "done", Value::Int(c + 1))?;
            Ok(Value::Null)
        }),
    );
    env.start_collectors();
    let id = env.invoke_async("job", Value::Null).unwrap();
    env.platform()
        .faults()
        .plan(id, CrashPlan::AtLabel(Label::DaalWritePreApply));
    // Two collector periods are enough: the first tick may find the
    // intent younger than the restart delay.
    let deadline = env.clock().now().plus(Duration::from_secs(10));
    loop {
        if env.read_current("job", "t", "done").unwrap() == Value::Int(1) {
            break;
        }
        assert!(
            env.clock().now() < deadline,
            "timer collectors never completed the job"
        );
        env.clock().sleep(Duration::from_millis(10));
    }
    env.stop_collectors();
    // Give any in-flight duplicate a moment, then confirm exactly-once.
    env.clock().sleep(Duration::from_millis(50));
    assert_eq!(env.read_current("job", "t", "done").unwrap(), Value::Int(1));
}

/// A scripted multi-crash sequence: the root dies at lifetime ordinal 2,
/// its restart dies again further in, and the second restart completes —
/// still exactly once.
#[test]
fn scripted_multi_crash_across_restarts_is_exactly_once() {
    let env = pipeline_env(BeldiConfig::beldi());
    let root_id = "root-script".to_owned();
    env.platform()
        .faults()
        .plan(root_id.clone(), CrashPlan::Script(vec![2, 9]));
    let out = env.invoke_as("root", &root_id, Value::Int(5)).unwrap();
    assert_eq!(out.get_int("count"), Some(1));
    assert_pipeline_state(&env, 1);
    assert_eq!(
        env.platform().faults().injected_count(),
        2,
        "both scripted crashes must have fired"
    );
}

/// A script's ordinals count across restarts: the entry after an earlier
/// crash fires inside the *re-execution*, not the first run.
#[test]
fn lifetime_ordinal_crash_in_reexecution_is_exactly_once() {
    let env = pipeline_env(BeldiConfig::beldi());
    let root_id = "root-lifetime".to_owned();
    // Crash at the very first point; the restart then passes lifetime
    // ordinals 1.. and dies once more at 6.
    env.platform()
        .faults()
        .plan(root_id.clone(), CrashPlan::Script(vec![0, 6]));
    env.invoke_as("root", &root_id, Value::Int(5)).unwrap();
    assert_pipeline_state(&env, 1);
    assert_eq!(env.platform().faults().injected_count(), 2);
}

/// A global plan kills whatever instance (root *or* callee) reaches the
/// scheduled step of the whole workload — and recovery still yields
/// exactly-once state. Sweeping a few steps crosses the root/worker
/// boundary without knowing any instance id in advance.
#[test]
fn global_schedule_crashes_are_exactly_once() {
    // First measure the crash-free stream length.
    let env = pipeline_env(BeldiConfig::beldi());
    env.telemetry().start_record(env.clock().clone());
    env.invoke("root", Value::Int(1)).unwrap();
    let record = env.telemetry().take_record();
    let trace: Vec<Visit> = crash_stream(&record).collect();
    assert!(trace.len() > 20, "stream too short: {}", trace.len());
    let instances: std::collections::HashSet<&str> = trace.iter().map(|t| t.instance).collect();
    assert!(instances.len() >= 2, "root and callee must both appear");

    for step in (0..trace.len() as u64).step_by(7) {
        let env = pipeline_env(BeldiConfig::beldi());
        env.platform()
            .faults()
            .set_global_plan(Some(CrashPlan::AtOrdinal(step as usize)));
        env.invoke("root", Value::Int(1)).unwrap();
        assert_pipeline_state(&env, 1);
        assert_eq!(
            env.platform().faults().injected_count(),
            1,
            "step {step} must have fired"
        );
    }
}

/// `drain_recovery` finishes a crashed asynchronous instance with no
/// manual IC driving.
#[test]
fn drain_recovery_completes_crashed_async_work() {
    let cfg = BeldiConfig::beldi().with_ic_restart_delay(Duration::from_millis(50));
    let env = BeldiEnv::for_tests_with(cfg);
    env.register_ssf(
        "sink",
        &["t"],
        Arc::new(|ctx, input| {
            let c = ctx.read("t", "count")?.as_int().unwrap_or(0);
            ctx.write("t", "count", Value::Int(c + 1))?;
            ctx.write("t", "last", input)?;
            Ok(Value::Null)
        }),
    );
    let id = env.invoke_async("sink", Value::Int(7)).unwrap();
    env.platform()
        .faults()
        .plan(id, CrashPlan::AtLabel(Label::DaalWritePreApply));
    // Let the (crashing) first execution happen, then drain.
    env.clock().sleep(Duration::from_millis(30));
    let report = env.drain_recovery(40).unwrap();
    assert_eq!(report.unfinished, 0, "drain must quiesce: {report:?}");
    assert!(
        report.restarted >= 1,
        "the IC must have re-launched: {report:?}"
    );
    assert_eq!(
        env.read_current("sink", "t", "count").unwrap(),
        Value::Int(1)
    );
    assert_eq!(
        env.read_current("sink", "t", "last").unwrap(),
        Value::Int(7)
    );
}

/// GC's `finish + T_max` recycling rule (§5) is only safe if the platform
/// kills any execution `T_max` after its launch — otherwise a long-lived
/// duplicate can outlive the recycling of its own intent row and re-apply
/// effects. The simulator enforces that lease at every crash probe: an
/// expired instance dies at its next probe, *before* its next effect. With a lease shorter than any storage
/// operation every launch has expired by its second probe, so the
/// invocation fails without ever writing state.
#[test]
fn expired_execution_lease_kills_instances_before_their_next_effect() {
    beldi::silence_crash_backtraces();
    // The shortest lease `validate()` admits, against a latency model
    // whose fastest operation takes over 2 ms: the body's first read
    // outlasts the lease, and the probe before its log write kills it.
    let cfg = BeldiConfig::beldi().with_t_max(Duration::from_millis(1));
    let env = slow_pipeline_env(cfg);
    env.invoke("root", Value::Int(0)).unwrap_err();
    assert!(
        env.platform().faults().timeout_count() > 0,
        "expired leases must be delivered as timeout kills"
    );
    // The lease fires before the first effect of every attempt: nothing
    // was ever written.
    assert_eq!(
        env.read_current("root", "rt", "count").unwrap(),
        Value::Null
    );
}

/// The lease is checked at the probe just before a write applies, and a
/// write applies when it is issued: so a deadline that falls inside a
/// DAAL write's traversal kills the instance at
/// `Label::DaalWritePreApply`, and the row never gets the step's entry.
/// Only scans cost time here (10 ms each); the lease is 5 ms, so the
/// write's traversal scan carries the instance across its deadline after
/// `Label::DaalWriteEnter` passed.
#[test]
fn a_lease_that_expires_inside_a_write_traversal_kills_before_the_write() {
    beldi::silence_crash_backtraces();
    let scans_only = LatencyModel {
        scan_base: Duration::from_millis(10),
        ..LatencyModel::zero()
    };
    let cfg = BeldiConfig::beldi().with_t_max(Duration::from_millis(5));
    let env = BeldiEnv::builder(cfg).latency(scans_only).build();
    env.register_ssf(
        "w",
        &["t"],
        Arc::new(|ctx, _| {
            ctx.write("t", "k", Value::Int(1))?;
            Ok(Value::Null)
        }),
    );
    let faults = env.platform().faults();
    env.telemetry().start_record(env.clock().clone());
    env.invoke_attempts("w", "i", Value::Null, 1).unwrap_err();
    assert_eq!(faults.timeout_count(), 1);
    let rows = env
        .db()
        .query("w.data.t", &Value::from("k"), &ScanRequest::all())
        .unwrap();
    assert!(rows.is_empty(), "the killed step's entry landed: {rows:?}");
    let record = env.telemetry().take_record();
    let passed: Vec<Label> = crash_stream(&record)
        .filter(|e| e.instance == "i")
        .map(|e| e.label)
        .collect();
    assert_eq!(passed.last(), Some(&Label::DaalWriteEnter), "{passed:?}");
    assert!(!passed.contains(&Label::DaalWritePreApply), "{passed:?}");
}

/// A relaunch's lease runs from its launch, not from the end of its
/// registration: the intent's done-mark can land while the relaunch's
/// registration load is in flight, a load that still saw the intent
/// unfinished. Here only a get costs time (100 ms) and `T` is 10 s. The
/// first execution marks done at `F`; a relaunch arrives at `F − 10 ms`
/// and its load returns at `F + 90 ms`. At `F + T + 1 ms` the GC recycles
/// both intents and their logs, and at `F + T + 50 ms` the relaunch
/// reaches its call. Leased from its launch, it dies at the call's first
/// probe. Leased from the load's return, it would re-run the callee,
/// whose cross-table logs are gone, and count twice.
#[test]
fn a_relaunch_is_leased_from_its_launch_not_its_registration() {
    use std::sync::atomic::{AtomicBool, Ordering};
    const F: u64 = 5_000;
    const T: u64 = 10_000;
    beldi::silence_crash_backtraces();
    let gets_only = LatencyModel {
        get_base: Duration::from_millis(100),
        ..LatencyModel::zero()
    };
    let cfg = BeldiConfig::cross_table().with_t_max(Duration::from_millis(T));
    let env = Arc::new(BeldiEnv::builder(cfg).latency(gets_only).build());
    let at = beldi_simclock::SimInstant::from_millis;
    env.register_ssf(
        "counter",
        &["s"],
        Arc::new(|ctx, _| {
            let c = ctx.read("s", "n")?.as_int().unwrap_or(0);
            ctx.write("s", "n", Value::Int(c + 1))?;
            Ok(Value::Int(c + 1))
        }),
    );
    let started = AtomicBool::new(false);
    let clock = env.clock().clone();
    env.register_ssf(
        "root",
        &[],
        Arc::new(move |ctx, _| {
            let relaunch = started.swap(true, Ordering::SeqCst);
            if relaunch {
                clock.sleep_until(at(F + T + 50));
            }
            let out = ctx.sync_invoke("counter", Value::Null)?;
            if !relaunch {
                clock.sleep_until(at(F));
            }
            Ok(out)
        }),
    );
    let first = common::spawn(&env, "first", |env| {
        assert_eq!(env.invoke_as("root", "r", Value::Null), Ok(Value::Int(1)));
    });
    let relaunch = common::spawn(&env, "relaunch", move |env| {
        env.clock().sleep_until(at(F - 10));
        env.invoke_attempts("root", "r", Value::Null, 1)
            .unwrap_err();
    });
    env.clock().sleep_until(at(F + T + 1));
    for ssf in ["root", "counter"] {
        assert_eq!(env.run_gc_once(ssf).unwrap().recycled_intents, 1, "{ssf}");
    }
    assert_eq!(env.clock().now(), at(F + T + 1), "the passes took time");
    common::join_all(vec![first, relaunch]);
    assert_eq!(env.platform().faults().timeout_count(), 1);
    assert_eq!(
        env.read_current("counter", "s", "n").unwrap(),
        Value::Int(1),
        "the relaunch ran its call past the recycle"
    );
}

/// The flip side: a lease that comfortably exceeds execution time is
/// never binding.
#[test]
fn generous_execution_lease_is_never_binding() {
    let cfg = BeldiConfig::beldi().with_t_max(Duration::from_secs(3_600));
    let env = pipeline_env(cfg);
    env.invoke("root", Value::Int(0)).unwrap();
    assert_pipeline_state(&env, 1);
    assert_eq!(env.platform().faults().timeout_count(), 0);
}

/// Storm-surfaced fix: root retries stop `T_max` after the first attempt
/// instead of burning the whole attempt budget. Every extra attempt is a
/// fresh wrapper registration — past GC's recycle horizon that would
/// silently re-execute a completed workflow as duplicate effects — so a
/// retry carries its first attempt's time, the wrapper refuses one that
/// lands past the lease window, and the client fails the request back to
/// the caller.
#[test]
fn root_retries_stop_at_the_lease_window() {
    beldi::silence_crash_backtraces();
    let cfg = BeldiConfig::beldi().with_t_max(Duration::from_millis(10));
    let env = slow_pipeline_env(cfg);
    // Every attempt dies on the lease: the pipeline's storage operations
    // add up to several times 10 ms of modelled time. A 1000-attempt
    // budget without the window would record ~1000 timeout kills; the
    // window admits only the few that fit inside `T_max` of virtual time.
    env.invoke_attempts("root", "stale-root", Value::Int(0), 1_000)
        .unwrap_err();
    let kills = env.platform().faults().timeout_count();
    assert!(kills >= 1, "the lease never fired");
    assert!(
        kills <= 20,
        "retries ran past the lease window ({kills} attempts)"
    );
}

/// Mode sanity: with no crash, every mode runs the pipeline once.
#[test]
fn modes_report_expected_guarantees() {
    for (cfg, mode) in [
        (BeldiConfig::beldi(), Mode::Beldi),
        (BeldiConfig::cross_table(), Mode::CrossTable),
        (BeldiConfig::baseline(), Mode::Baseline),
    ] {
        let env = pipeline_env(cfg);
        assert_eq!(env.config().mode, mode);
        env.invoke("root", Value::Int(0)).unwrap();
        assert_pipeline_state(&env, 1);
    }
}

/// A conditional write whose condition fails returns `false` and leaves
/// the value as it was, in every mode.
#[test]
fn a_failed_conditional_write_changes_nothing() {
    for cfg in [
        BeldiConfig::beldi(),
        BeldiConfig::cross_table(),
        BeldiConfig::baseline(),
    ] {
        let env = BeldiEnv::for_tests_with(cfg);
        env.register_ssf(
            "f",
            &["t"],
            Arc::new(|ctx, _| {
                let cond = beldi::value::Cond::eq(beldi::A_VALUE, 2i64);
                Ok(Value::Bool(ctx.cond_write(
                    "t",
                    "k",
                    Value::Int(9),
                    cond,
                )?))
            }),
        );
        env.seed("f", "t", "k", Value::Int(1)).unwrap();
        assert_eq!(env.invoke("f", Value::Null).unwrap(), Value::Bool(false));
        assert_eq!(env.read_current("f", "t", "k").unwrap(), Value::Int(1));
    }
}

/// A killed instance's recovery latency is sampled once, however often
/// the instance is replayed after it finished, and the mark that says so
/// goes with the rest of what the injector keeps about the instance when
/// the GC recycles it.
#[test]
fn recovery_is_sampled_once_and_forgotten_with_the_instance() {
    let env = BeldiEnv::for_tests_with(BeldiConfig::beldi().with_t_max(Duration::from_millis(50)));
    env.register_ssf(
        "f",
        &["t"],
        Arc::new(|ctx, input| {
            ctx.write("t", "k", input)?;
            Ok(Value::Null)
        }),
    );
    env.platform()
        .faults()
        .plan("r", CrashPlan::AtLabel(Label::WrapperPreDone));
    // The root retry re-drives the killed instance to `Done`; two more
    // calls under its id replay the recorded result.
    for _ in 0..3 {
        env.invoke_as("f", "r", Value::Int(1)).unwrap();
    }
    let t = env.telemetry();
    assert_eq!(env.platform().faults().injected_count(), 1);
    assert_eq!(t.histogram(Hist::Recovery).len(), 1);

    env.clock().sleep(Duration::from_millis(120));
    assert_eq!(env.run_gc_once("f").unwrap().recycled_intents, 1);
    assert_eq!(t.gauge(Gauge::FaultsInstances).0, 0);
}

/// The tail cache's write guard at work, at row capacity 2. A crashed
/// intent's logged write sits in `HEAD`; two other instances fill `HEAD`
/// and append a successor, which the cache then holds. The replay's
/// cached attempt on that row must fall back (the row is younger than the
/// intent, so the intent may have logged before it) and find the write in
/// `HEAD`: the same value and the same logged effects as a crash-free run.
#[test]
fn a_replay_finds_its_write_behind_a_cached_tail() {
    let run = |crash: bool| {
        let env = BeldiEnv::for_tests_with(BeldiConfig::beldi().with_row_capacity(2));
        env.register_ssf(
            "inc",
            &["t"],
            Arc::new(|ctx, _| {
                let v = ctx.read("t", "k")?.as_int().unwrap_or(0);
                ctx.write("t", "k", Value::Int(v + 1))?;
                Ok(Value::Null)
            }),
        );
        env.seed("inc", "t", "k", Value::Int(0)).unwrap();
        if crash {
            env.platform()
                .faults()
                .plan("x", CrashPlan::AtLabel(Label::WriteExit));
            assert!(env.invoke_attempts("inc", "x", Value::Null, 1).is_err());
        } else {
            env.invoke_as("inc", "x", Value::Null).unwrap();
        }
        env.invoke_as("inc", "y", Value::Null).unwrap();
        env.invoke_as("inc", "z", Value::Null).unwrap();
        assert_eq!(env.daal_chain_len("inc", "t", "k").unwrap(), 2);
        let fallbacks = || env.telemetry().get(Metric::TailCacheWriteFallbacks);
        let before = fallbacks();
        if crash {
            env.invoke_as("inc", "x", Value::Null).unwrap();
        }
        let replay_fallbacks = fallbacks() - before;
        let rows = env
            .db()
            .scan_all("inc.data.t", &ScanRequest::all())
            .unwrap();
        let effects: usize = rows
            .iter()
            .filter_map(|r| r.get_attr("RecentWrites").and_then(Value::as_map))
            .map(|m| m.len())
            .sum();
        let state = (env.read_current("inc", "t", "k").unwrap(), effects);
        (state, replay_fallbacks)
    };
    let (crash_free, crashed) = (run(false), run(true));
    assert_eq!(crash_free.0, (Value::Int(3), 3));
    assert_eq!(crashed.0, crash_free.0, "(value, logged effects)");
    assert_eq!(crashed.1, 1, "the replay tried the cached tail first");
}
