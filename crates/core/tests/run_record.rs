//! The run record: every store call names the op or collector step that
//! issued it, and a call that logs a step's outcome names the step; the
//! calls it holds are exactly the ones the store counted, and a run's
//! record is a function of its seed.

mod common;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use beldi::value::{Cond, Value};
use beldi::{BeldiConfig, BeldiEnv};
use beldi_apps::rng::request_rng;
use beldi_apps::{small_app, WorkflowApp};
use beldi_simclock::{Event, EventKind, Op, StoreKind};
use beldi_simdb::LatencyModel;
use common::{join_all, spawn};

/// The store calls of `record`, counted and summed by issuer: (calls,
/// bytes) per op.
fn by_issuer(kind: &str, record: &[Event]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for event in record {
        let EventKind::Store(call) = &event.kind else {
            continue;
        };
        let issuer = call
            .issuer
            .unwrap_or_else(|| panic!("{kind}: a store call with no issuer: {event:?}"));
        assert!(event.instance.is_some(), "{kind}: {event:?}");
        let entry = out.entry(issuer.as_str()).or_default();
        entry.0 += 1;
        entry.1 += call.bytes;
    }
    out
}

/// One request of each app in Beldi mode, then one IC and one GC pass
/// per SSF past the recycle horizon: every store call has an issuer, and
/// grouped by issuer the calls and their bytes add up to the window's
/// store counters exactly.
#[test]
fn every_store_call_names_its_issuer_and_the_issuers_sum_to_the_store_counts() {
    for kind in ["media", "social", "travel"] {
        let env = BeldiEnv::for_tests();
        let app = small_app(kind).expect("known app");
        app.setup(&env);
        let before = env.db_metrics();
        env.telemetry().start_record(env.clock().clone());
        let request = app.gen_request(&mut request_rng(7));
        env.invoke(app.entry_point(), request).unwrap();
        env.clock()
            .sleep(env.config().t_max + Duration::from_millis(1));
        for ssf in env.ssf_names() {
            env.run_ic_once(&ssf).unwrap();
            env.run_gc_once(&ssf).unwrap();
        }
        let record = env.telemetry().take_record();
        let window = env.db_metrics().delta(&before);

        let issuers = by_issuer(kind, &record);
        let (calls, bytes) = issuers
            .values()
            .fold((0, 0), |(c, b), &(calls, bytes)| (c + calls, b + bytes));
        assert_eq!(calls, window.total_ops(), "{kind}: {issuers:?}");
        assert_eq!(
            bytes,
            window.bytes_read + window.bytes_written,
            "{kind}: {issuers:?}"
        );
        for op in [
            Op::IntentRegister,
            Op::MarkDone,
            Op::IcScan,
            Op::GcClassify,
            Op::GcLogPrune,
            Op::GcRecycle,
        ] {
            assert!(issuers.contains_key(op.as_str()), "{kind}: {issuers:?}");
        }
    }
}

/// A seeded four-worker drive of the travel app on modelled latency, with
/// both collectors on their timers, recorded whole.
fn recorded_drive(seed: u64) -> Vec<Event> {
    let cfg = BeldiConfig::beldi()
        .with_t_max(Duration::from_millis(400))
        .with_collector_period(Duration::from_millis(150));
    let env = BeldiEnv::builder(cfg)
        .seed(seed)
        .latency(LatencyModel::dynamo())
        .build();
    let env = Arc::new(env);
    let app: Arc<dyn WorkflowApp> = small_app("travel").expect("known app").into();
    app.setup(&env);
    env.telemetry().start_record(env.clock().clone());
    env.start_collectors();
    let workers = (0..4)
        .map(|w| {
            let app = app.clone();
            spawn(&env, format!("worker-{w}"), move |env| {
                let mut rng = request_rng(seed ^ w);
                for _ in 0..4 {
                    env.invoke(app.entry_point(), app.gen_request(&mut rng))
                        .unwrap();
                }
            })
        })
        .collect();
    join_all(workers);
    env.clock().sleep(Duration::from_secs(1));
    let record = env.telemetry().take_record();
    env.stop_collectors();
    record
}

/// The same `(seed, config)` gives the same record, order included; a
/// different seed a different one.
#[test]
fn same_seed_gives_the_same_record() {
    let a = recorded_drive(11);
    assert_eq!(a, recorded_drive(11));
    assert_ne!(a, recorded_drive(12));
    let kinds = |pick: fn(&EventKind) -> bool| a.iter().filter(|e| pick(&e.kind)).count();
    assert!(kinds(|k| matches!(k, EventKind::Crash { .. })) > 0);
    assert!(kinds(|k| matches!(k, EventKind::Invoke { .. })) > 0);
    let issued_by = |op: Op| {
        a.iter()
            .filter(|e| matches!(&e.kind, EventKind::Store(c) if c.issuer == Some(op)))
            .count()
    };
    assert!(issued_by(Op::TxnCommit) > 0);
    assert!(issued_by(Op::GcClassify) > 0 && issued_by(Op::IcScan) > 0);
}

/// A crash-free run at row capacity 2 applies each step exactly once: every
/// step of the root (three writes to one key, a read, a conditional write,
/// a call) and of its callee has exactly one tagged store call whose
/// condition held. The third write fills `HEAD` and appends: the new row's
/// create and its link carry no step, nor does any other call.
#[test]
fn each_step_has_one_held_tagged_call_and_an_append_none() {
    let env = BeldiEnv::for_tests_with(BeldiConfig::beldi().with_row_capacity(2));
    env.register_ssf(
        "callee",
        &["t"],
        Arc::new(|ctx, _| {
            ctx.write("t", "c", Value::Int(1))?;
            Ok(Value::Null)
        }),
    );
    env.register_ssf(
        "root",
        &["t"],
        Arc::new(|ctx, _| {
            for i in 0..3 {
                ctx.write("t", "k", Value::Int(i))?;
            }
            ctx.read("t", "k")?;
            ctx.cond_write("t", "k", Value::Int(9), Cond::True)?;
            ctx.sync_invoke("callee", Value::Null)
        }),
    );
    env.telemetry().start_record(env.clock().clone());
    env.invoke("root", Value::Null).unwrap();
    let record = env.telemetry().take_record();

    let mut held: BTreeMap<(&str, u64), usize> = BTreeMap::new();
    let mut untagged_writes = 0;
    for event in &record {
        let EventKind::Store(call) = &event.kind else {
            continue;
        };
        match call.step {
            Some(step) if call.cond != Some(false) => {
                let instance = event.instance.as_deref().expect("a tagged call's instance");
                *held.entry((instance, step)).or_default() += 1;
            }
            Some(_) => {}
            None if &*call.table == "root.data.t" && call.kind == StoreKind::Write => {
                untagged_writes += 1;
            }
            None => {}
        }
    }
    let steps: Vec<(bool, u64)> = held.keys().map(|&(i, s)| (i.ends_with(".c"), s)).collect();
    let root_steps = (0..6).map(|s| (false, s));
    assert_eq!(steps, root_steps.chain([(true, 0)]).collect::<Vec<_>>());
    assert!(held.values().all(|&n| n == 1), "{held:?}");
    assert_eq!(env.daal_chain_len("root", "t", "k").unwrap(), 2);
    // The appended row's create and its link.
    assert_eq!(untagged_writes, 2, "{record:#?}");
}
