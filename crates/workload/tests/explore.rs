//! The crash-schedule explorer's own test suite: clean sweeps over a
//! purpose-built pipeline app and a real DeathStarBench-derived app, the
//! canary self-test (a planted exactly-once bug must be *caught*),
//! seed-stability, and the GC-quiescence property.

use std::sync::Arc;
use std::time::Duration;

use beldi::value::{Cond, Value};
use beldi::{crash_stream, BeldiConfig, BeldiEnv, CrashPlan, Label, Mode, StormPolicy};
use beldi_apps::{small_app, MediaApp, WorkflowApp};
use beldi_workload::{explore, ExploreOptions, PipelineApp, ViolationKind};

#[test]
fn depth1_sweep_of_pipeline_is_clean() {
    let opts = ExploreOptions {
        requests: 3,
        ..ExploreOptions::default()
    };
    let report = explore(&PipelineApp::default(), Mode::Beldi, &opts);
    assert!(
        report.ok(),
        "clean pipeline must pass every schedule:\n{:#?}",
        report.violations
    );
    assert!(
        report.crash_points > 30,
        "expected a rich crash stream, got {}",
        report.crash_points
    );
    assert_eq!(report.schedules, report.crash_points);
    // Every depth-1 schedule fired exactly its one crash.
    assert_eq!(report.crashes_injected, report.schedules as u64);
    // count + gate + worker + sink per request
    assert_eq!(report.oracle_effects, 3 * 4);
    // The worker's async call is swept at each of its steps.
    for label in [
        Label::InvokePreAsyncReg,
        Label::AsyncRegPostIntent,
        Label::InvokePreAsyncCall,
    ] {
        assert!(report.crashed_labels.contains(&label), "{label} not swept");
    }
}

#[test]
fn depth1_sweep_in_cross_table_mode_is_clean() {
    let opts = ExploreOptions {
        requests: 2,
        ..ExploreOptions::default()
    };
    let report = explore(&PipelineApp::default(), Mode::CrossTable, &opts);
    assert!(report.ok(), "{:#?}", report.violations);
    assert!(report.crash_points > 20);
}

/// Baseline is the sweep's negative control: it retries a killed
/// execution as the logged modes do but logs nothing, so the retry
/// applies again what the killed one applied (§2.1). At schedule `[10]`
/// the first request's worker dies just after its write, the root's call
/// re-runs it, and the sweep counts one effect beyond the oracle. Every
/// divergence a retry causes is a duplicate, never a loss. The one loss
/// is a fire-and-forget sink killed before its write, which nothing
/// retries: one effect below the oracle, and a state whose only
/// differing app row is that sink's missing count.
#[test]
fn baseline_sweep_counts_a_duplicated_effect() {
    let report = explore(
        &PipelineApp::default(),
        Mode::Baseline,
        &ExploreOptions::default(),
    );
    let of_kind = |kind| report.violations.iter().filter(move |v| v.kind == kind);
    let effects: Vec<_> = of_kind(ViolationKind::EffectDivergence).collect();
    let pinned = effects.iter().find(|v| v.schedule == [10]);
    let pinned = pinned.unwrap_or_else(|| panic!("{:#?}", report.violations));
    assert_eq!(pinned.label, "write.exit");
    assert_eq!(pinned.detail, "effects 17 != oracle 16");
    for v in effects {
        let (found, oracle) = v.detail["effects ".len()..]
            .split_once(" != oracle ")
            .unwrap();
        let (found, oracle): (i64, i64) = (found.parse().unwrap(), oracle.parse().unwrap());
        if found > oracle {
            continue;
        }
        assert_eq!(found, oracle - 1, "{v}");
        let state = of_kind(ViolationKind::StateDivergence).find(|s| s.schedule == v.schedule);
        let state = state.unwrap_or_else(|| panic!("a loss without a state divergence: {v}"));
        let (_, diff) = state.detail.split_once("raw app-table diff: ").unwrap();
        let rows: Vec<&str> = diff.lines().skip(1).map(str::trim).collect();
        assert!(
            diff.starts_with("1 differing row(s)")
                && rows.len() == 1
                && rows[0].starts_with("sink.data.st/")
                && rows[0].ends_with("!= <absent>"),
            "a loss that is not a lost sink: {v}\n{state}"
        );
    }
}

#[test]
fn depth2_scripted_pairs_are_clean() {
    let opts = ExploreOptions {
        requests: 2,
        stride: 11,
        depth2_samples: 6,
        ..ExploreOptions::default()
    };
    let report = explore(&PipelineApp::default(), Mode::Beldi, &opts);
    assert!(report.ok(), "{:#?}", report.violations);
    // The depth-2 pairs each landed at least their first crash; most land
    // both, so the total must exceed the depth-1 count.
    let depth1 = report.schedules - 6;
    assert!(
        report.crashes_injected > depth1 as u64,
        "depth-2 schedules should add second crashes: {} vs {depth1}",
        report.crashes_injected
    );
}

/// Satellite: the canary self-test. A deliberately planted exactly-once
/// bug (`root` reads its counter outside the logged API, so replays
/// re-read fresh state) must be *detected* by the sweep — proof the
/// checker has teeth.
#[test]
fn canary_bug_is_caught_by_the_sweep() {
    let opts = ExploreOptions {
        requests: 2,
        ..ExploreOptions::default()
    };
    let report = explore(PipelineApp::sabotaged().as_ref(), Mode::Beldi, &opts);
    assert!(
        !report.ok(),
        "the sweep failed to detect the planted exactly-once bug"
    );
    assert!(
        report.violations.iter().any(|v| matches!(
            v.kind,
            ViolationKind::StateDivergence | ViolationKind::EffectDivergence
        )),
        "expected state/effect divergence, got {:#?}",
        report.violations
    );
    // And the identical sweep without the canary is clean — the detection
    // is the bug, not the harness.
    let clean = explore(&PipelineApp::default(), Mode::Beldi, &opts);
    assert!(clean.ok(), "{:#?}", clean.violations);
}

/// Satellite: identical seed ⇒ identical explorer verdict, twice over.
#[test]
fn explorer_verdict_is_seed_stable() {
    let opts = ExploreOptions {
        requests: 2,
        stride: 3,
        depth2_samples: 3,
        seed: 0xBE1D1,
        ..ExploreOptions::default()
    };
    let a = explore(&PipelineApp::default(), Mode::Beldi, &opts);
    let b = explore(&PipelineApp::default(), Mode::Beldi, &opts);
    assert_eq!(a, b, "same seed must reproduce the same report");
    assert!(a.ok(), "{:#?}", a.violations);
}

/// Identical `StormPolicy` seed ⇒ identical crash schedule (the fired
/// crash points match position for position) through the blocking root,
/// `env.invoke`, which no chaos run drives.
#[test]
fn storm_policy_is_seed_stable() {
    let run = || {
        let env = BeldiEnv::for_tests();
        PipelineApp::default().setup(&env);
        env.telemetry().start_record(env.clock().clone());
        env.platform().faults().set_storm_policy(Some(StormPolicy {
            ssf_prob: 0.05,
            collector_prob: 0.05,
            max_crashes: 10,
            seed: 7,
        }));
        for i in 0..6 {
            env.invoke("root", beldi::value::Value::Int(i)).unwrap();
        }
        let record = env.telemetry().take_record();
        let state = PipelineApp::default().canonical_state(&env);
        let fired: Vec<(u64, beldi::Label)> = crash_stream(&record)
            .filter(|t| t.crashed)
            .map(|t| (t.step, t.label))
            .collect();
        (fired, state, env.platform().faults().injected_count())
    };
    let (fired_a, state_a, n_a) = run();
    let (fired_b, state_b, n_b) = run();
    assert!(n_a > 0, "the policy should have injected something");
    assert_eq!(n_a, n_b);
    assert_eq!(fired_a, fired_b, "crash schedules must match exactly");
    assert_eq!(state_a, state_b);
}

/// Satellite: GC quiescence. For every explored schedule, once the
/// crashed-and-recovered workload drains and `T` elapses, repeated GC
/// passes must empty the read/invoke logs and intent tables and compact
/// every DAAL to head + tail.
#[test]
fn gc_quiesces_after_every_explored_schedule() {
    let opts = ExploreOptions {
        requests: 2,
        stride: 2,
        gc_check: true,
        ..ExploreOptions::default()
    };
    let report = explore(&PipelineApp::default(), Mode::Beldi, &opts);
    assert!(report.ok(), "{:#?}", report.violations);

    let xt = explore(&PipelineApp::default(), Mode::CrossTable, &opts);
    assert!(xt.ok(), "{:#?}", xt.violations);
}

/// Tentpole property: interleaving GC passes with live SSF traffic —
/// including schedules that kill the *collector itself* between any two
/// of the paper's six GC steps — never diverges from the crash-free
/// oracle. The collectors' fixed `gc.*` crash points join the global
/// stream, so the depth-1 sweep covers crashes inside GC passes exactly
/// like crashes inside SSF instances.
#[test]
fn gc_interleaved_sweep_is_clean_and_covers_gc_crash_points() {
    let plain = ExploreOptions {
        requests: 2,
        ..ExploreOptions::default()
    };
    let interleaved = ExploreOptions {
        gc_interleave: true,
        ..plain.clone()
    };
    let base = explore(&PipelineApp::default(), Mode::Beldi, &plain);
    let report = explore(&PipelineApp::default(), Mode::Beldi, &interleaved);
    assert!(
        report.ok(),
        "GC-interleaved sweep must pass every schedule:\n{:#?}",
        report.violations
    );
    // The collectors contribute their six fixed crash points per pass —
    // the `worker.pre_handler` dispatch probe plus the five gc.* step
    // boundaries: 3 SSFs × 2 requests × 6 labels on top of the plain
    // stream (whose own requests already carry their dispatch probes).
    assert_eq!(
        report.crash_points,
        base.crash_points + 3 * 2 * 6,
        "GC passes must add exactly their fixed step-boundary points"
    );
    // Every schedule — including those that killed a GC pass — fired.
    assert_eq!(report.crashes_injected, report.schedules as u64);
    // And the interleaved sweep is reproducible.
    let again = explore(&PipelineApp::default(), Mode::Beldi, &interleaved);
    assert_eq!(report, again, "interleaved exploration must be seed-stable");
}

/// GC interleaving composes with the quiescence check in cross-table
/// mode too (write logs pruned under traffic, then fully drained).
#[test]
fn gc_interleaved_cross_table_sweep_with_quiescence_is_clean() {
    let opts = ExploreOptions {
        requests: 2,
        stride: 3,
        gc_interleave: true,
        gc_check: true,
        ..ExploreOptions::default()
    };
    let report = explore(&PipelineApp::default(), Mode::CrossTable, &opts);
    assert!(report.ok(), "{:#?}", report.violations);
}

/// CI's smoke sweep kills commits: its travel run commits a reservation
/// (room and seat), and among its schedules are crashes before a commit
/// signal and before a flush.
#[test]
fn smoke_travel_sweep_crashes_a_commit() {
    let app = small_app("travel", Mode::Beldi).unwrap();
    let report = explore(app.as_ref(), Mode::Beldi, &ExploreOptions::smoke());
    assert!(report.ok(), "{:#?}", report.violations);
    assert!(report.oracle_effects > 0, "nothing reserved");
    for label in [Label::TxnPreSignal, Label::TxnPreFlushItem] {
        assert!(
            report.crashed_labels.contains(&label),
            "{label} not swept: {:?}",
            report.crashed_labels
        );
    }
}

/// Labels no run of a CI explorer configuration passes, each with the
/// reason none can.
const NOT_REACHED: &[(Label, &str)] = &[
    (Label::FrontEnter, "fired by the HTTP front door, which the explorer does not drive"),
    (Label::FrontPostSpawn, "fired by the HTTP front door, which the explorer does not drive"),
    (Label::FrontPreReply, "fired by the HTTP front door, which the explorer does not drive"),
    (
        Label::GcStep4PreUnlink,
        "an observation probe: `GcHooks::probe` fires it, and only core's GC tests set one",
    ),
    (
        Label::GcStep5PreRescan,
        "an observation probe: `GcHooks::probe` fires it, and only core's GC tests set one",
    ),
    (
        Label::GcStep5PreDelete,
        "an observation probe: `GcHooks::probe` fires it, and only core's GC tests set one",
    ),
    (
        Label::PlatformTMax,
        "not a probe: `timeout_kill` tallies a lease expiry, and the explorer's instances run in zero virtual time, so no lease expires",
    ),
];

/// One traced run of what the explorer's apps and its oracle never do: a
/// DAAL row fills and appends, a conditional write comes out false, an
/// aborted transaction releasing its item, and an intent collector pass
/// that restarts a crashed instance. The labels it passes.
fn labels_of_the_rarer_paths() -> Vec<Label> {
    let cfg = BeldiConfig::beldi()
        .with_row_capacity(2)
        .with_ic_restart_delay(Duration::from_millis(40));
    let env = BeldiEnv::builder(cfg).build();
    env.register_ssf(
        "root",
        &["t"],
        Arc::new(|ctx, _| {
            for i in 0..3 {
                ctx.write("t", "k", Value::Int(i))?;
            }
            let never = Cond::eq(beldi::schema::A_VALUE, Value::Int(-1));
            ctx.cond_write("t", "k", Value::Int(0), never)?;
            ctx.begin_tx()?;
            ctx.read("t", "k")?;
            ctx.abort_tx()?;
            Ok(Value::Null)
        }),
    );
    env.telemetry().start_record(env.clock().clone());
    let faults = env.platform().faults();
    faults.set_global_plan(Some(CrashPlan::AtLabel(Label::WrapperPreDone)));
    env.invoke_async("root", Value::Null).unwrap();
    env.clock().sleep(Duration::from_millis(100));
    env.platform().invoke_sync("root.ic", Value::Null).unwrap();
    env.drain_recovery(10).unwrap();
    let record = env.telemetry().take_record();
    crash_stream(&record).map(|t| t.label).collect()
}

/// The run-time half of crash-point coverage. Every label is passed by
/// some run — the oracles of the CI explorer configurations (`explore
/// --smoke` with `--gc-check` and with `--gc-interleave`), the pipeline
/// sweep behind `--canary --stride 3`, whose schedules reach recovery and
/// whose oracle passes the async call's labels, and
/// [`labels_of_the_rarer_paths`] — or is listed in [`NOT_REACHED`]
/// with the reason none can. So deleting a probe call fails here, and so
/// does a listed label that is reached: the list cannot go stale.
#[test]
fn every_crash_label_is_reached_or_listed() {
    let oracles = ExploreOptions {
        max_depth1: Some(0),
        depth2_samples: 0,
        ..ExploreOptions::smoke()
    };
    let mut reached = labels_of_the_rarer_paths();
    for gc_interleave in [false, true] {
        let opts = ExploreOptions {
            gc_check: !gc_interleave,
            gc_interleave,
            ..oracles.clone()
        };
        for kind in ["media", "social", "travel"] {
            for mode in [Mode::Beldi, Mode::CrossTable, Mode::Baseline] {
                let app = small_app(kind, mode).unwrap();
                reached.extend(explore(app.as_ref(), mode, &opts).reached_labels);
            }
        }
    }
    let sweep = ExploreOptions {
        stride: 3,
        ..ExploreOptions::default()
    };
    reached.extend(explore(&PipelineApp::default(), Mode::Beldi, &sweep).reached_labels);

    let wrong: Vec<String> = Label::ALL
        .into_iter()
        .filter(|l| reached.contains(l) == NOT_REACHED.iter().any(|(n, _)| n == l))
        .map(|l| match reached.contains(&l) {
            true => format!("{l}: reached, so it leaves the list"),
            false => format!("{l}: no run passes it (a deleted probe?)"),
        })
        .collect();
    assert!(wrong.is_empty(), "{wrong:#?}");
}

/// A strided sweep over a real application (the movie review service)
/// in Beldi mode — the integration-level smoke the CI job mirrors.
#[test]
fn media_app_strided_sweep_is_clean() {
    let app = MediaApp::small();
    let opts = ExploreOptions {
        requests: 2,
        stride: 9,
        ..ExploreOptions::default()
    };
    let report = explore(&app, Mode::Beldi, &opts);
    assert!(report.ok(), "{:#?}", report.violations);
    assert!(
        report.crash_points > 50,
        "a media request should traverse many crash points, got {}",
        report.crash_points
    );
}
