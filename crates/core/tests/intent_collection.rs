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

/// A bounded IC pass must rotate its batch window through the index: with
/// `limit` freshly-launched (hence ineligible) intents parked at the head
/// of the scan, the one aged, recoverable intent must still be reached
/// within `ceil(total / limit)` passes. Before the rotating cursor, every
/// pass truncated the same prefix and the tail starved forever.
#[test]
fn bounded_ic_pass_rotates_past_an_ineligible_head() {
    let cfg = BeldiConfig::beldi()
        .with_collector_batch_limit(2)
        // One virtual hour: the freshly planted intents below stay
        // "too recent" for the whole test.
        .with_ic_restart_delay(Duration::from_secs(3_600));
    let env = sink_env(cfg);

    // One genuinely recoverable intent: a crashed async execution…
    let id = env.invoke_async("sink", Value::Int(7)).unwrap();
    env.platform()
        .faults()
        .plan(id.clone(), CrashPlan::AtLabel(Label::DaalWritePreApply));
    env.clock().sleep(Duration::from_millis(30));
    assert_eq!(env.platform().faults().injected_count(), 1);
    // …aged past the restart delay.
    env.clock().sleep(Duration::from_secs(7_200));

    // Eight fresh unfinished intents crowd the index. They are never
    // eligible (too recent), so they only burn batch slots — the
    // starvation scenario.
    let now = env.clock().now().as_millis();
    for i in 0..8 {
        let call = vmap! { "Op" => "call", "Input" => "p" };
        plant_intent(&env, "sink", &format!("poison-{i}"), call, now);
    }

    // 9 unfinished rows, batch 2: the rotating cursor covers every scan
    // offset within ceil(9 / 2) = 5 passes, wherever the aged intent
    // sits in index order.
    let mut restarted = 0;
    for _ in 0..5 {
        restarted += env.run_ic_once("sink").unwrap().restarted;
        if restarted > 0 {
            break;
        }
    }
    assert_eq!(
        restarted, 1,
        "bounded passes never reached the aged intent — batch window not rotating"
    );

    // The re-launch completes the crashed workflow exactly once.
    let deadline = env.clock().now().plus(Duration::from_secs(5));
    while env.read_current("sink", "t", "count").unwrap() != Value::Int(1) {
        assert!(
            env.clock().now() < deadline,
            "re-launched intent never completed"
        );
        env.clock().sleep(Duration::from_millis(10));
    }
    assert_eq!(
        env.read_current("sink", "t", "last").unwrap(),
        Value::Int(7)
    );
}

/// An intent row with no stored call envelope cannot be re-fired. The IC
/// must count it as corrupt and quarantine it (mark it done with a null
/// outcome) so the unfinished index stops returning it — before the fix
/// it was rescanned by every pass and the system never quiesced. Debug
/// builds additionally fail the pass loudly, because a corrupt intent is
/// a protocol bug, not an operational condition.
#[test]
fn null_args_intent_is_quarantined_not_rescanned_forever() {
    let cfg = BeldiConfig::beldi().with_ic_restart_delay(Duration::from_millis(1));
    let env = sink_env(cfg);
    let now = env.clock().now().as_millis();
    plant_intent(&env, "sink", "broken", Value::Null, now);

    let first = env.run_ic_once("sink");
    if cfg!(debug_assertions) {
        let err = first.unwrap_err().to_string();
        assert!(err.contains("no stored call envelope"), "{err}");
    } else {
        assert_eq!(first.unwrap().corrupt, 1);
    }
    assert_eq!(env.ic_corrupt_total(), 1, "corrupt counter must record it");

    // Quarantined: the next pass sees a clean index and quiesces.
    let second = env.run_ic_once("sink").unwrap();
    assert_eq!(second, IcReport::default(), "{second:?}");
    assert_eq!(env.ic_corrupt_total(), 1, "no double counting");
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

    // Debug builds fail each pass that quarantines, one row per pass.
    if cfg!(debug_assertions) {
        for _ in 0..2 {
            let err = env.run_ic_once("sink").unwrap_err().to_string();
            assert!(err.contains("no stored call envelope"), "{err}");
        }
    } else {
        let pass = env.run_ic_once("sink").unwrap();
        assert_eq!((pass.corrupt, pass.restarted), (2, 0), "{pass:?}");
    }
    assert_eq!(env.ic_corrupt_total(), 2);

    // Quarantined: nothing is unfinished and nothing restarts.
    env.clock().sleep(Duration::from_millis(10));
    let quiet = env.run_ic_once("sink").unwrap();
    assert_eq!(quiet, IcReport::default(), "{quiet:?}");
    assert_eq!(env.ic_corrupt_total(), 2);
}
