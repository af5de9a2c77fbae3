//! Intent-collector regressions: tail starvation under a bounded batch
//! window, and quarantine of corrupt intent rows — ones with no envelope
//! the collector can re-send.
//!
//! A storm that keeps the head of the intent index perpetually ineligible
//! starves the tail forever if a bounded pass always truncates the same
//! scan prefix, and an intent row without a call envelope is rescanned
//! (or relaunched) by every pass without ever reaching quiescence.

use std::sync::Arc;
use std::time::Duration;

use beldi::value::{vmap, Cond, Update, Value};
use beldi::Label;
use beldi::{BeldiConfig, BeldiEnv, CrashPlan, IcReport};
use beldi_simclock::Metric;
use beldi_simdb::PrimaryKey;

/// An env with one async-friendly sink SSF that counts its completions.
fn sink_env(cfg: BeldiConfig) -> BeldiEnv {
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
    env
}

/// Plants a raw unfinished intent row, bypassing the wrapper — the shape
/// a crashed registration (or a corrupting bug) leaves behind.
fn plant_intent(env: &BeldiEnv, ssf: &str, id: &str, args: Value, now_ms: u64) {
    let table = beldi::schema::intent_table(ssf);
    let update = Update::new()
        .set(beldi::schema::A_DONE, Value::Bool(false))
        .set(beldi::schema::A_ARGS, args)
        .set(beldi::schema::A_CREATED, Value::Int(now_ms as i64))
        .set(beldi::schema::A_LAST_LAUNCH, Value::Int(now_ms as i64));
    #[expect(clippy::disallowed_methods, reason = "the test plants an intent")]
    env.db()
        .update(&table, &PrimaryKey::hash(id), &Cond::True, &update)
        .unwrap();
}

/// An intent row with no stored call envelope cannot be re-fired. The IC
/// must count it as corrupt and quarantine it (mark it done with a null
/// outcome) so the unfinished index stops returning it — before the fix
/// it was rescanned by every pass and the system never quiesced. The
/// pass itself succeeds in every build: the registry carries the count
/// the gates fail on.
#[test]
fn null_args_intent_is_quarantined_not_rescanned_forever() {
    let cfg = BeldiConfig::beldi().with_ic_restart_delay(Duration::from_millis(1));
    let env = sink_env(cfg);
    let now = env.clock().now().as_millis();
    plant_intent(&env, "sink", "broken", Value::Null, now);

    let first = env.run_ic_once("sink").unwrap();
    assert_eq!(first.corrupt, 1, "{first:?}");
    assert_eq!(
        env.telemetry().get(Metric::IcCorrupt),
        1,
        "corrupt counter must record it"
    );

    // Quarantined: the next pass sees a clean index and quiesces.
    let second = env.run_ic_once("sink").unwrap();
    assert_eq!(second, IcReport::default(), "{second:?}");
    assert_eq!(
        env.telemetry().get(Metric::IcCorrupt),
        1,
        "no double counting"
    );
}

/// An intent whose `Args` is not a call or a decision signal — a bare
/// value, a callback envelope — cannot be re-fired either: the wrapper
/// answers "bad envelope" and the intent stays unfinished. The IC
/// quarantines it the way it quarantines a null envelope, instead of
/// relaunching it on every pass.
#[test]
fn undecodable_intent_is_quarantined_not_relaunched_forever() {
    let cfg = BeldiConfig::beldi().with_ic_restart_delay(Duration::from_millis(1));
    let env = sink_env(cfg);
    let now = env.clock().now().as_millis();
    plant_intent(&env, "sink", "bare", Value::Int(7), now);
    let callback = vmap! { "Op" => "callback", "CalleeId" => "bare" };
    plant_intent(&env, "sink", "callback", callback, now);
    env.clock().sleep(Duration::from_millis(10));

    let pass = env.run_ic_once("sink").unwrap();
    assert_eq!((pass.corrupt, pass.restarted), (2, 0), "{pass:?}");
    assert_eq!(env.telemetry().get(Metric::IcCorrupt), 2);

    // Quarantined: nothing is unfinished and nothing restarts.
    env.clock().sleep(Duration::from_millis(10));
    let quiet = env.run_ic_once("sink").unwrap();
    assert_eq!(quiet, IcReport::default(), "{quiet:?}");
    assert_eq!(env.telemetry().get(Metric::IcCorrupt), 2);
}

/// The recovery drain is an IC pass like any other: its passes and the
/// workflows it re-drives are counted where the timer's and the harness's
/// are.
#[test]
fn recovery_drain_passes_are_counted() {
    let env = sink_env(BeldiConfig::beldi().with_ic_restart_delay(Duration::from_millis(1)));
    let id = env.invoke_async("sink", Value::Int(7)).unwrap();
    env.platform()
        .faults()
        .plan(id, CrashPlan::AtLabel(Label::DaalWritePreApply));
    env.clock().sleep(Duration::from_millis(30));
    assert_eq!(env.platform().faults().injected_count(), 1);

    let drained = env.drain_recovery(5).unwrap();
    assert_eq!((drained.restarted, drained.unfinished), (1, 0));
    let t = env.telemetry();
    assert_eq!(t.get(Metric::IcPasses), drained.passes as u64);
    assert_eq!(t.get(Metric::IcRestarted), 1);
    assert_eq!(
        env.read_current("sink", "t", "last").unwrap(),
        Value::Int(7)
    );
}
