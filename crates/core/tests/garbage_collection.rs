//! Garbage collection (§5): log pruning, DAAL compaction, and safety
//! against concurrent SSF/GC activity.
//!
//! Uses a small `T` (the max SSF lifetime) and virtual time, so the
//! two-phase `finish + T` / `dangle + T` waits cost no real time while
//! preserving every ordering.

use beldi::Label;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use beldi::schema::A_LOG_STEPS;
use beldi::value::Value;
use beldi::{crash_stream, BeldiConfig, BeldiEnv, CrashPlan, GcReport, Mode};
use beldi_simclock::{Gauge, Metric};
use beldi_simdb::{PrimaryKey, ScanRequest};
use beldi_simfaas::Visit;

fn gc_config() -> BeldiConfig {
    BeldiConfig::beldi()
        .with_row_capacity(3)
        .with_t_max(Duration::from_millis(100))
}

/// Counter SSF used throughout.
fn counter_env(cfg: BeldiConfig) -> BeldiEnv {
    let env = BeldiEnv::for_tests_with(cfg);
    env.register_ssf(
        "ctr",
        &["t"],
        Arc::new(|ctx, _| {
            let c = ctx.read("t", "k")?.as_int().unwrap_or(0);
            ctx.write("t", "k", Value::Int(c + 1))?;
            Ok(Value::Int(c + 1))
        }),
    );
    env
}

fn table_len(env: &BeldiEnv, table: &str) -> usize {
    env.db().scan_all(table, &ScanRequest::all()).unwrap().len()
}

/// Waits out `T` in virtual time (plus slack).
fn wait_t(env: &BeldiEnv) {
    env.clock().sleep(Duration::from_millis(150));
}

#[test]
fn completed_intents_and_logs_are_recycled() {
    let env = counter_env(gc_config());
    for _ in 0..5 {
        env.invoke("ctr", Value::Null).unwrap();
    }
    assert!(table_len(&env, "ctr.intent") >= 5);
    assert!(table_len(&env, "ctr.log") >= 5);

    // Each done-mark set its finish time; after T, one pass recycles.
    wait_t(&env);
    let report = env.run_gc_once("ctr").unwrap();
    assert_eq!(report.recycled_intents, 5);
    assert!(report.deleted_log_entries >= 5);
    assert_eq!(table_len(&env, "ctr.intent"), 0);
    assert_eq!(table_len(&env, "ctr.log"), 0);
    // State survives collection.
    assert_eq!(env.read_current("ctr", "t", "k").unwrap(), Value::Int(5));
}

#[test]
fn unfinished_intents_are_never_recycled() {
    let env = counter_env(gc_config());
    env.invoke("ctr", Value::Null).unwrap();
    // Register an unfinished intent by invoking asynchronously a function
    // that blocks forever is overkill; instead plant an undone intent the
    // way a crashed instance would leave it: invoke_async with a crash.
    let id = env.invoke_async("ctr", Value::Null).unwrap();
    env.platform().faults().plan(
        id.clone(),
        beldi::CrashPlan::AtLabel(Label::DaalWritePreApply),
    );
    // The planned execution runs — and dies — while this thread sleeps.
    env.clock().sleep(Duration::from_millis(30));
    assert_eq!(env.platform().faults().injected_count(), 1);

    env.run_gc_once("ctr").unwrap();
    wait_t(&env);
    env.run_gc_once("ctr").unwrap();
    // The completed intent is gone; the crashed one remains for the IC.
    let rows = env
        .db()
        .scan_all("ctr.intent", &ScanRequest::all())
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get_str("Id"), Some(id.as_str()));
    assert_eq!(rows[0].get_bool("Done"), Some(false));
}

#[test]
fn daal_stays_shallow_under_gc() {
    // The Fig. 16 mechanism: continuous writes to one key grow the DAAL;
    // interleaved GC passes keep it shallow.
    let env = counter_env(gc_config());
    for round in 0..6 {
        for _ in 0..6 {
            env.invoke("ctr", Value::Null).unwrap();
        }
        env.run_gc_once("ctr").unwrap();
        wait_t(&env);
        env.run_gc_once("ctr").unwrap();
        wait_t(&env);
        env.run_gc_once("ctr").unwrap();
        let _ = round;
    }
    let len = env.daal_chain_len("ctr", "t", "k").unwrap();
    // 36 writes at capacity 3 would be 13+ rows without GC.
    assert!(len <= 4, "GC'd chain should stay shallow, got {len}");
    assert_eq!(env.read_current("ctr", "t", "k").unwrap(), Value::Int(36));

    // Contrast: without GC the chain keeps growing.
    let nogc = counter_env(gc_config());
    for _ in 0..36 {
        nogc.invoke("ctr", Value::Null).unwrap();
    }
    let unpruned = nogc.daal_chain_len("ctr", "t", "k").unwrap();
    assert!(
        unpruned >= 12,
        "without GC expected >= 12 rows, got {unpruned}"
    );
}

#[test]
fn gc_is_safe_against_concurrent_writers() {
    let env = Arc::new(counter_env(gc_config()));
    let clock = env.clock().clone();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let gc_thread = {
        let env = Arc::clone(&env);
        let stop = Arc::clone(&stop);
        let collector = move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                env.run_gc_once("ctr").unwrap();
                env.clock().sleep(Duration::from_millis(60));
            }
        };
        clock.spawn("gc".into(), Box::new(collector))
    };
    let mut handles = Vec::new();
    for i in 0..4 {
        let env = Arc::clone(&env);
        let writer = move || {
            for _ in 0..10 {
                env.invoke("ctr", Value::Null).unwrap();
            }
        };
        handles.push(clock.spawn(format!("writer-{i}"), Box::new(writer)));
    }
    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    gc_thread.join().unwrap();
    // Every increment under the read-modify-write race-free? No — these
    // are unlocked RMWs from distinct workflows, so increments can race;
    // the GC-safety property is that no *write is lost after commit*: the
    // final value must be at least 1 and the chain must be consistent.
    // Re-run a deterministic check instead: total externally visible
    // value equals the last committed increment chain.
    let v = env.read_current("ctr", "t", "k").unwrap();
    assert!(matches!(v, Value::Int(n) if n >= 1));
    // And the DAAL is still traversable end to end.
    let len = env.daal_chain_len("ctr", "t", "k").unwrap();
    assert!(len >= 1);
}

#[test]
fn gc_with_locked_writers_loses_nothing() {
    // Locked increments serialize the RMW, so the final count is exact
    // even with a GC racing the writers.
    let env = Arc::new(BeldiEnv::for_tests_with(gc_config()));
    let clock = env.clock().clone();
    env.register_ssf(
        "lctr",
        &["t"],
        Arc::new(|ctx, _| {
            ctx.lock("t", "k")?;
            let c = ctx.read("t", "k")?.as_int().unwrap_or(0);
            ctx.write("t", "k", Value::Int(c + 1))?;
            ctx.unlock("t", "k")?;
            Ok(Value::Null)
        }),
    );
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let gc_thread = {
        let env = Arc::clone(&env);
        let stop = Arc::clone(&stop);
        let collector = move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                env.run_gc_once("lctr").unwrap();
                env.clock().sleep(Duration::from_millis(60));
            }
        };
        clock.spawn("gc".into(), Box::new(collector))
    };
    let mut handles = Vec::new();
    for i in 0..4 {
        let env = Arc::clone(&env);
        let writer = move || {
            for _ in 0..8 {
                env.invoke("lctr", Value::Null).unwrap();
            }
        };
        handles.push(clock.spawn(format!("writer-{i}"), Box::new(writer)));
    }
    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    gc_thread.join().unwrap();
    assert_eq!(env.read_current("lctr", "t", "k").unwrap(), Value::Int(32));
}

fn online_gc_env(cfg: BeldiConfig) -> BeldiEnv {
    BeldiEnv::for_tests_with(cfg.with_t_max(Duration::from_secs(10)))
}

#[test]
fn two_racing_collectors_and_an_appender_lose_nothing() {
    // Regression companion for the step-5 snapshot-staleness fix: two GC
    // passes running *concurrently* (stale views of each other's unlinks)
    // against a live appender must never sever a chain or lose the tail
    // value. The locked counter makes loss deterministic to detect: every
    // increment is serialized, so the final count is exact.
    let env = Arc::new(online_gc_env(BeldiConfig::beldi().with_row_capacity(3)));
    env.register_ssf(
        "lctr",
        &["t"],
        Arc::new(|ctx, _| {
            ctx.lock("t", "k")?;
            let c = ctx.read("t", "k")?.as_int().unwrap_or(0);
            ctx.write("t", "k", Value::Int(c + 1))?;
            ctx.unlock("t", "k")?;
            Ok(Value::Null)
        }),
    );
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let clock = env.clock().clone();
    let mut gc_threads = Vec::new();
    for i in 0..2 {
        let env = Arc::clone(&env);
        let stop = Arc::clone(&stop);
        let collector = move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                env.run_gc_once("lctr").unwrap();
                env.clock().sleep(Duration::from_millis(400));
            }
        };
        gc_threads.push(clock.spawn(format!("gc-{i}"), Box::new(collector)));
    }
    let mut writers = Vec::new();
    for i in 0..3 {
        let env = Arc::clone(&env);
        let writer = move || {
            for _ in 0..12 {
                env.invoke("lctr", Value::Null).unwrap();
            }
        };
        writers.push(clock.spawn(format!("writer-{i}"), Box::new(writer)));
    }
    for h in writers {
        h.join().unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for h in gc_threads {
        h.join().unwrap();
    }
    assert_eq!(env.read_current("lctr", "t", "k").unwrap(), Value::Int(36));
    // The chain is still whole and no corruption was reported.
    assert!(env.daal_chain_len("lctr", "t", "k").unwrap() >= 1);
    let t = env.telemetry();
    assert_eq!(t.get(Metric::GcCorruptChains), 0);
    assert!(t.get(Metric::GcPasses) >= 2, "both collectors ran: {t:?}");
}

#[test]
fn timer_triggered_online_gc_bounds_tables_under_live_traffic() {
    // The online-GC tentpole at environment level: background GC timers
    // (no synchronous run_gc_once calls) racing live invocations must
    // keep intent/log tables bounded and count their passes into the
    // registry.
    let env = online_gc_env(
        BeldiConfig::beldi()
            .with_row_capacity(3)
            .with_collector_period(Duration::from_secs(1)),
    );
    env.register_ssf(
        "ctr",
        &["t"],
        Arc::new(|ctx, _| {
            let c = ctx.read("t", "k")?.as_int().unwrap_or(0);
            ctx.write("t", "k", Value::Int(c + 1))?;
            Ok(Value::Int(c + 1))
        }),
    );
    env.start_gc();
    for _ in 0..30 {
        env.invoke("ctr", Value::Null).unwrap();
    }
    // Drain: let the two `T` waits (intent, then dangling rows) elapse
    // while the timers keep firing.
    env.clock().sleep(Duration::from_secs(40));
    env.stop_collectors();
    let t = env.telemetry();
    assert!(
        t.get(Metric::GcPasses) >= 3,
        "timer collectors should have run repeatedly: {t:?}"
    );
    assert!(
        t.get(Metric::GcRecycledIntents) >= 30,
        "all intents recycled online: {t:?}"
    );
    assert_eq!(t.get(Metric::GcCorruptChains), 0);
    let intents = table_len(&env, "ctr.intent");
    let log = table_len(&env, "ctr.log");
    assert!(
        intents <= 5 && log <= 5,
        "tables unbounded under online GC: {intents} intents, {log} log rows"
    );
    assert_eq!(env.read_current("ctr", "t", "k").unwrap(), Value::Int(30));
}

#[test]
fn fault_injector_forgets_what_the_gc_recycles() {
    // The injector keeps crash-point counters per instance id; nothing
    // used to drop them, so a long-running process grew by one entry (and
    // its label strings) per request, callee and collector pass. The GC
    // retires an instance's counters with its intent, and a collector
    // pass retires its own id.
    let env = online_gc_env(BeldiConfig::beldi().with_collector_period(Duration::from_secs(1)));
    env.register_ssf(
        "leaf",
        &["t"],
        Arc::new(|ctx, input| {
            ctx.write("t", "k", input)?;
            Ok(Value::Null)
        }),
    );
    env.register_ssf(
        "front",
        &[],
        Arc::new(|ctx, input| ctx.sync_invoke("leaf", input)),
    );
    let intents = |env: &BeldiEnv| table_len(env, "front.intent") + table_len(env, "leaf.intent");
    let tracked = || env.telemetry().gauge(Gauge::FaultsInstances).0 as usize;
    env.start_gc();
    for block in 0..4 {
        for i in 0..10 {
            env.invoke("front", Value::Int(block * 10 + i)).unwrap();
        }
        // Mid-run the bound already holds: whatever the injector still
        // tracks has its intent (collector passes have retired theirs).
        env.clock().sleep(Duration::from_secs(5));
        let (tracked, rows) = (tracked(), intents(&env));
        assert!(
            tracked <= rows,
            "block {block}: {tracked} tracked instances, {rows} intents"
        );
    }
    // Past the recycle horizon everything is gone, from both.
    env.clock().sleep(Duration::from_secs(40));
    env.stop_collectors();
    assert_eq!(env.telemetry().get(Metric::GcRecycledIntents), 80);
    assert_eq!(intents(&env), 0);
    assert_eq!(tracked(), 0);
    assert_eq!(env.read_current("leaf", "t", "k").unwrap(), Value::Int(39));
}

#[test]
fn shadow_chains_are_reclaimed_after_commit() {
    let env = BeldiEnv::for_tests_with(gc_config());
    env.register_ssf(
        "txn",
        &["t"],
        Arc::new(|ctx, _| {
            ctx.begin_tx()?;
            ctx.write("t", "a", Value::Int(1))?;
            ctx.write("t", "b", Value::Int(2))?;
            ctx.end_tx()?;
            Ok(Value::Null)
        }),
    );
    env.invoke("txn", Value::Null).unwrap();
    let shadow = "txn.data.t.shadow";
    assert!(
        table_len(&env, shadow) >= 2,
        "shadow entries exist post-commit"
    );

    // Recycle the transaction's intents, then sweep the shadow chains.
    for _ in 0..4 {
        env.run_gc_once("txn").unwrap();
        wait_t(&env);
    }
    env.run_gc_once("txn").unwrap();
    assert_eq!(table_len(&env, shadow), 0, "shadow chains reclaimed");
    // Committed data intact.
    assert_eq!(env.read_current("txn", "t", "a").unwrap(), Value::Int(1));
    assert_eq!(env.read_current("txn", "t", "b").unwrap(), Value::Int(2));
}

/// A shadow chain goes, whole, in the pass that recycles its
/// transaction's finalize marker: until then it stays, and that pass
/// reads none of the chain's owners, stamps nothing, and keeps the
/// committed value.
#[test]
fn a_shadow_chain_goes_in_the_pass_that_recycles_its_marker() {
    let env = BeldiEnv::for_tests_with(gc_config());
    env.register_ssf(
        "txn",
        &["t"],
        Arc::new(|ctx, _| {
            ctx.begin_tx()?;
            for v in 1..=4 {
                ctx.write("t", "a", Value::Int(v))?;
            }
            ctx.end_tx()?;
            Ok(Value::Null)
        }),
    );
    env.invoke("txn", Value::Null).unwrap();
    let shadow = "txn.data.t.shadow";
    assert_eq!(table_len(&env, shadow), 2, "four writes at capacity 3");
    let young = env.run_gc_once("txn").unwrap();
    assert_eq!(young, GcReport::default());
    assert_eq!(table_len(&env, shadow), 2);

    // Past `T` the pass recycles the owner and its finalize marker, and
    // deletes the chain's two rows with them.
    wait_t(&env);
    let before = env.db_metrics();
    let report = env.run_gc_once("txn").unwrap();
    let cost = env.db_metrics().delta(&before);
    assert_eq!(report.recycled_intents, 2);
    assert_eq!((report.disconnected_rows, report.deleted_rows), (0, 2));
    assert_eq!((cost.gets, cost.writes), (0, 0), "{cost:?}");
    assert_eq!(table_len(&env, shadow), 0);
    assert_eq!(env.read_current("txn", "t", "a").unwrap(), Value::Int(4));
}

#[test]
fn cross_table_mode_write_log_is_pruned() {
    let env = counter_env(BeldiConfig::cross_table().with_t_max(Duration::from_millis(100)));
    for _ in 0..4 {
        env.invoke("ctr", Value::Null).unwrap();
    }
    assert!(table_len(&env, "ctr.log") >= 4);
    env.run_gc_once("ctr").unwrap();
    wait_t(&env);
    let report = env.run_gc_once("ctr").unwrap();
    assert!(report.deleted_log_entries >= 4);
    assert_eq!(table_len(&env, "ctr.log"), 0);
    assert_eq!(env.read_current("ctr", "t", "k").unwrap(), Value::Int(4));
}

/// One log per SSF: an instance that reads, invokes (sync and async) and
/// writes leaves one `{ssf}.log` row per logged step outside the DAAL —
/// the write is such a step in cross-table mode only — no two under one
/// `LogKey`, and two passes past `T` empty the table.
#[test]
fn every_kind_of_log_entry_shares_one_table_and_is_collected() {
    for (cfg, logged) in [(BeldiConfig::beldi(), 3), (BeldiConfig::cross_table(), 4)] {
        let env = BeldiEnv::for_tests_with(cfg.with_t_max(Duration::from_millis(100)));
        env.register_ssf(
            "leaf",
            &["lt"],
            Arc::new(|ctx, _| {
                let n = ctx.read("lt", "runs")?.as_int().unwrap_or(0);
                ctx.write("lt", "runs", Value::Int(n + 1))?;
                Ok(Value::Null)
            }),
        );
        env.register_ssf(
            "mix",
            &["t"],
            Arc::new(|ctx, _| {
                let c = ctx.read("t", "k")?.as_int().unwrap_or(0);
                ctx.sync_invoke("leaf", Value::Null)?;
                ctx.async_invoke("leaf", Value::Null)?;
                ctx.write("t", "k", Value::Int(c + 1))?;
                Ok(Value::Null)
            }),
        );
        env.invoke_as("mix", "m-1", Value::Null).unwrap();
        // The async leaf lands on its own time.
        let deadline = env.clock().now().plus(Duration::from_secs(5));
        while env.read_current("leaf", "lt", "runs").unwrap() != Value::Int(2) {
            assert!(env.clock().now() < deadline, "async leaf never ran");
            env.clock().sleep(Duration::from_millis(2));
        }

        let rows = env.db().scan_all("mix.log", &ScanRequest::all()).unwrap();
        let mut keys: Vec<&str> = rows.iter().filter_map(|r| r.get_str("LogKey")).collect();
        keys.sort_unstable();
        let steps: Vec<String> = (0..logged).map(|step| format!("m-1#{step}")).collect();
        assert_eq!(keys, steps, "one row per logged step, read first");
        // The done-mark lists those steps.
        let intent = env
            .db()
            .get("mix.intent", &PrimaryKey::hash("m-1"), None)
            .unwrap()
            .expect("the intent");
        let listed: Vec<Value> = (0..logged as i64).map(Value::Int).collect();
        assert_eq!(intent.get_list(A_LOG_STEPS), Some(&listed));

        env.run_gc_once("mix").unwrap();
        wait_t(&env);
        let report = env.run_gc_once("mix").unwrap();
        assert_eq!(report.deleted_log_entries, logged);
        assert_eq!(table_len(&env, "mix.log"), 0);
        assert_eq!(env.read_current("mix", "t", "k").unwrap(), Value::Int(1));
    }
}

#[test]
fn gc_report_counts_are_coherent() {
    let env = counter_env(gc_config());
    env.invoke("ctr", Value::Null).unwrap();
    // Before `T` a pass finds nothing to do; past it, one pass recycles
    // the intent and its one log entry (the read), and the next finds
    // nothing again.
    assert_eq!(env.run_gc_once("ctr").unwrap(), GcReport::default());
    wait_t(&env);
    let r2 = env.run_gc_once("ctr").unwrap();
    assert_eq!((r2.recycled_intents, r2.deleted_log_entries), (1, 1));
    assert_eq!(env.run_gc_once("ctr").unwrap(), GcReport::default());
}

/// The row ids of `table` under hash key `key`, and how many of them the
/// walk from `HEAD` along `NextRow` reaches.
fn chain_rows(env: &BeldiEnv, table: &str, key: &str) -> (usize, usize) {
    use beldi::schema::{A_NEXT_ROW, A_ROW_ID, ROW_HEAD};
    let rows = env
        .db()
        .query(table, &Value::from(key), &ScanRequest::all())
        .unwrap();
    let next: BTreeMap<&str, Option<&str>> = rows
        .iter()
        .filter_map(|r| Some((r.get_str(A_ROW_ID)?, r.get_str(A_NEXT_ROW))))
        .collect();
    let mut reached = 0;
    let mut cursor = Some(ROW_HEAD);
    while let Some(&row_next) = cursor.and_then(|id| next.get(id)) {
        reached += 1;
        if reached > rows.len() {
            break; // A cycle.
        }
        cursor = row_next;
    }
    (rows.len(), reached)
}

/// Step 4 unlinks a run of recyclable rows through the last row still on
/// the chain. Fourteen writes at row capacity 2 give a chain of head, six
/// interior rows and a tail; past `T` every interior row is recyclable,
/// and past the dangle wait all six are gone. Unlinking a row through its
/// already-unlinked predecessor would leave every second one stamped but
/// reachable, and kept for good.
#[test]
fn a_run_of_recyclable_rows_is_collected_to_head_and_tail() {
    let env = counter_env(gc_config().with_row_capacity(2));
    for _ in 0..14 {
        env.invoke("ctr", Value::Null).unwrap();
    }
    let built = env.daal_chain_len("ctr", "t", "k").unwrap();
    assert!(built >= 6, "{built} rows: too few interior rows");
    for _ in 0..3 {
        wait_t(&env);
        env.run_gc_once("ctr").unwrap();
    }
    assert_eq!(env.daal_chain_len("ctr", "t", "k").unwrap(), 2);
    assert_eq!(table_len(&env, "ctr.data.t"), 2, "{built} rows built");
    assert_eq!(env.read_current("ctr", "t", "k").unwrap(), Value::Int(14));
}

/// A shadow chain is never collected in part: a transaction's callee
/// writes one item ten times and finishes, then its caller writes the
/// item once more and dies before the commit. Past `T` every row but the
/// tail holds only the callee's entries, and the chain stays whole
/// through any number of passes; once the relaunched caller commits the
/// tail's value, the pass past `T` deletes the chain whole.
#[test]
fn an_unfinished_transactions_shadow_chain_stays_whole_until_its_commit() {
    beldi::silence_crash_backtraces();
    let env = BeldiEnv::for_tests_with(gc_config().with_row_capacity(2));
    env.register_ssf(
        "txn",
        &["t"],
        Arc::new(|ctx, input| {
            if input.as_str() == Some("callee") {
                for i in 0..10 {
                    ctx.write("t", "k", Value::Int(i))?;
                }
                return Ok(Value::Null);
            }
            ctx.begin_tx()?;
            ctx.sync_invoke("txn", Value::from("callee"))?;
            ctx.write("t", "k", Value::Int(10))?;
            ctx.end_tx()?;
            Ok(Value::Null)
        }),
    );
    let faults = env.platform().faults();
    faults.plan("root".to_owned(), CrashPlan::AtLabel(Label::TxnPreFinalize));
    env.invoke_attempts("txn", "root", Value::Null, 1)
        .unwrap_err();
    let shadow = "txn.data.t.shadow";
    let keys = env.db().distinct_hash_keys(shadow).unwrap();
    assert_eq!(keys.len(), 1, "{keys:?}");
    let key = keys[0].as_str().unwrap().to_owned();
    let (built, reached) = chain_rows(&env, shadow, &key);
    assert!(built >= 6, "{built} rows: too few interior rows");
    assert_eq!(reached, built);
    for _ in 0..3 {
        wait_t(&env);
        let report = env.run_gc_once("txn").unwrap();
        assert_eq!((report.disconnected_rows, report.deleted_rows), (0, 0));
    }
    assert_eq!(chain_rows(&env, shadow, &key), (built, built));

    env.invoke_attempts("txn", "root", Value::Null, 1).unwrap();
    assert_eq!(env.read_current("txn", "t", "k").unwrap(), Value::Int(10));
    assert_eq!(chain_rows(&env, shadow, &key), (built, built));
    wait_t(&env);
    let report = env.run_gc_once("txn").unwrap();
    assert_eq!(report.deleted_rows, built, "{report:?}");
    assert_eq!(table_len(&env, shadow), 0);
}

/// A pass costs what its garbage costs: the same requests drive 8 keys
/// past the row capacity beside 100 and beside 5,000 keys that were
/// seeded and never touched, and every pass reports and is billed the
/// same in both — the idle keys have no non-head row, so the collector
/// never visits them.
#[test]
fn a_pass_costs_the_same_beside_100_and_5000_idle_keys() {
    let passes_beside = |idle: usize| {
        let env = BeldiEnv::for_tests_with(gc_config());
        env.register_ssf(
            "w",
            &["t"],
            Arc::new(|ctx, key| {
                ctx.write("t", key.as_str().unwrap_or_default(), Value::Int(1))?;
                Ok(Value::Null)
            }),
        );
        for i in 0..idle {
            env.seed("w", "t", &format!("idle-{i:04}"), Value::Int(0))
                .unwrap();
        }
        // Seven writes at capacity 3: head, one interior row, tail.
        for k in 0..8 {
            for _ in 0..7 {
                env.invoke("w", Value::from(format!("hot-{k}"))).unwrap();
            }
        }
        // Nothing past the horizon yet; recycle and disconnect; delete —
        // each pass with what the store charged for it.
        let mut passes = Vec::new();
        for _ in 0..3 {
            let before = env.db_metrics();
            let report = env.run_gc_once("w").unwrap();
            passes.push((report, env.db_metrics().delta(&before)));
            wait_t(&env);
        }
        passes
    };
    let small = passes_beside(100);
    assert_eq!(small[0].0, GcReport::default());
    assert_eq!(small[1].0.recycled_intents, 56);
    assert_eq!(small[1].0.disconnected_rows, 8);
    assert_eq!(small[2].0.deleted_rows, 8);
    assert_eq!(small, passes_beside(5_000));
}

/// A crash between an append's two steps leaves a row nothing points to.
/// It carries the appended-row marker like any other non-head row, so the
/// sparse index leads the collector to it: stamped once it is older than
/// `T`, deleted a `T` later.
#[test]
fn the_orphan_of_a_crashed_append_is_found_stamped_and_deleted() {
    let env = counter_env(gc_config());
    for _ in 0..3 {
        env.invoke("ctr", Value::Null).unwrap(); // Fills the head row.
    }
    env.platform()
        .faults()
        .plan("crasher", CrashPlan::AtLabel(Label::DaalAppendPostCreate));
    // The retry appends (and links) a second fresh row.
    env.invoke_as("ctr", "crasher", Value::Null).unwrap();
    assert_eq!(env.platform().faults().injected_count(), 1);
    assert_eq!(env.daal_chain_len("ctr", "t", "k").unwrap(), 2);
    assert_eq!(
        table_len(&env, "ctr.data.t"),
        3,
        "head, tail and the orphan"
    );

    let young = env.run_gc_once("ctr").unwrap();
    assert_eq!((young.disconnected_rows, young.deleted_rows), (0, 0));
    wait_t(&env);
    let stamped = env.run_gc_once("ctr").unwrap();
    assert_eq!((stamped.disconnected_rows, stamped.deleted_rows), (1, 0));
    wait_t(&env);
    let deleted = env.run_gc_once("ctr").unwrap();
    assert_eq!((deleted.disconnected_rows, deleted.deleted_rows), (0, 1));
    assert_eq!(table_len(&env, "ctr.data.t"), 2);
    assert_eq!(env.read_current("ctr", "t", "k").unwrap(), Value::Int(4));
}

/// A workflow that logs every kind of entry: a read, a logged timestamp,
/// a sync and an async invoke, a write (a log entry in cross-table mode)
/// and, in Beldi mode, a transaction with a callee, so that a commit
/// signal runs too.
fn every_entry_env(cfg: BeldiConfig) -> BeldiEnv {
    let env = BeldiEnv::for_tests_with(cfg.with_t_max(Duration::from_millis(100)));
    for (leaf, table) in [("leaf", "lt"), ("tleaf", "tt")] {
        env.register_ssf(
            leaf,
            &[table],
            Arc::new(move |ctx, _| {
                let n = ctx.read(table, "runs")?.as_int().unwrap_or(0);
                ctx.write(table, "runs", Value::Int(n + 1))?;
                Ok(Value::Null)
            }),
        );
    }
    env.register_ssf(
        "root",
        &["t"],
        Arc::new(|ctx, _| {
            let c = ctx.read("t", "k")?.as_int().unwrap_or(0);
            ctx.logged_now_ms()?;
            ctx.sync_invoke("leaf", Value::Null)?;
            ctx.async_invoke("leaf", Value::Null)?;
            ctx.write("t", "k", Value::Int(c + 1))?;
            if ctx.mode() == Mode::Beldi {
                ctx.begin_tx()?;
                ctx.write("t", "x", Value::Int(c))?;
                ctx.sync_invoke("tleaf", Value::Null)?;
                ctx.end_tx()?;
            }
            Ok(Value::Null)
        }),
    );
    env
}

/// Runs the workflow, re-drives whatever a crash left unfinished, then
/// collects past `T_max` until a pass recycles nothing.
fn run_and_collect(env: &BeldiEnv) {
    let _ = env.invoke_as("root", "r", Value::Null);
    let drain = env.drain_recovery(50).unwrap();
    assert_eq!(drain.unfinished, 0, "{drain:?}");
    let collect = || -> usize {
        env.ssf_names()
            .into_iter()
            .map(|ssf| env.run_gc_once(&ssf).unwrap().recycled_intents)
            .sum()
    };
    // The drain's waits ran the clock past `T`, so some intents may go at
    // once; the rest go `T` after their done-marks.
    let mut recycled = collect();
    for _ in 0..5 {
        env.clock().sleep(Duration::from_millis(250));
        match collect() {
            0 if recycled > 0 => return,
            n => recycled += n,
        }
    }
    panic!("collection never settled");
}

/// The steps a done-mark lists are complete: killed once at any crash
/// point the workflow passes, then recovered and collected, the workflow
/// leaves no row in any SSF's log or intent table. An entry whose step a
/// list missed would stay behind.
#[test]
fn a_crash_anywhere_leaves_no_log_row_behind() {
    for cfg in [BeldiConfig::beldi(), BeldiConfig::cross_table()] {
        let mode = cfg.mode;
        // The labels a crash-free run passes.
        let env = every_entry_env(cfg.clone());
        env.telemetry().start_record(env.clock().clone());
        run_and_collect(&env);
        let record = env.telemetry().take_record();
        let trace: Vec<Visit> = crash_stream(&record).collect();
        let labels: Vec<Label> = Label::ALL
            .into_iter()
            .filter(|l| trace.iter().any(|e| e.label == *l))
            .collect();
        assert!(
            labels.contains(&Label::InvokePreAsyncCall),
            "{mode:?}: {labels:?}"
        );
        if mode == Mode::Beldi {
            assert!(labels.contains(&Label::TxnPreSignal), "{labels:?}");
        }

        for label in labels {
            let env = every_entry_env(cfg.clone());
            let faults = env.platform().faults();
            faults.set_global_plan(Some(CrashPlan::AtLabel(label)));
            run_and_collect(&env);
            assert_eq!(faults.injected_count(), 1, "{mode:?} at {label}");
            for ssf in env.ssf_names() {
                for table in [format!("{ssf}.log"), format!("{ssf}.intent")] {
                    let left = table_len(&env, &table);
                    assert_eq!(left, 0, "{mode:?} killed at {label}: {table}");
                }
            }
            assert_eq!(env.read_current("root", "t", "k").unwrap(), Value::Int(1));
        }
    }
}

/// The row at the end of `key`'s chain in `table`, walked from `HEAD`.
fn tail_row(env: &BeldiEnv, table: &str, key: &str) -> Value {
    use beldi::schema::{A_NEXT_ROW, A_ROW_ID, ROW_HEAD};
    let rows = env
        .db()
        .query(table, &Value::from(key), &ScanRequest::all())
        .unwrap();
    let row = |id: &str| rows.iter().find(|r| r.get_str(A_ROW_ID) == Some(id));
    let mut tail = row(ROW_HEAD).expect("a HEAD");
    while let Some(next) = tail.get_str(A_NEXT_ROW) {
        tail = row(next).expect("a linked row");
    }
    tail.clone()
}

/// The transaction id that holds `key`'s lock in `ssf`'s table `t`, if
/// any.
fn lock_holder(env: &BeldiEnv, ssf: &str, key: &str) -> Option<String> {
    let tail = tail_row(env, &format!("{ssf}.data.t"), key);
    let lock = tail.get_attr(beldi::A_LOCK).filter(|l| !l.is_null())?;
    Some(
        lock.get_str("Id")
            .expect("a lock names its owner")
            .to_owned(),
    )
}

/// A transaction's owner `owner` calls its one leg, which writes `x` (1
/// → 2) and only reads `y`, both in `leg`'s table.
fn leg_env() -> BeldiEnv {
    let env = BeldiEnv::for_tests_with(gc_config());
    env.register_ssf(
        "leg",
        &["t"],
        Arc::new(|ctx, _| {
            ctx.read("t", "y")?;
            ctx.write("t", "x", Value::Int(2))?;
            Ok(Value::Null)
        }),
    );
    env.register_ssf(
        "owner",
        &[],
        Arc::new(|ctx, _| {
            ctx.begin_tx()?;
            ctx.sync_invoke("leg", Value::Null)?;
            ctx.end_tx()?;
            Ok(Value::Null)
        }),
    );
    for key in ["x", "y"] {
        env.seed("leg", "t", key, Value::Int(1)).unwrap();
    }
    env
}

/// An owner killed before it finalizes, and relaunched only after its
/// leg's intent has been recycled, still commits: its leg's shadow chains
/// wait for the transaction's finalize marker, not for the leg. Collected
/// once the leg was `T` past done, the chains would leave the relaunched
/// owner's commit nothing to flush or release: `x` would stay 1 and both
/// locks would stay the transaction's.
#[test]
fn a_late_recovered_owner_commits_what_its_recycled_leg_wrote() {
    beldi::silence_crash_backtraces();
    let env = leg_env();
    let faults = env.platform().faults();
    faults.plan("o1", CrashPlan::AtLabel(Label::TxnPreFinalize));
    env.invoke_attempts("owner", "o1", Value::Null, 1)
        .unwrap_err();
    let txn = lock_holder(&env, "leg", "x").expect("x locked");
    assert_eq!(lock_holder(&env, "leg", "y").as_deref(), Some(&*txn));
    for _ in 0..3 {
        wait_t(&env);
        env.run_gc_once("leg").unwrap();
    }
    assert_eq!(table_len(&env, "leg.intent"), 0, "the leg was recycled");
    assert_eq!(
        table_len(&env, "leg.data.t.shadow"),
        2,
        "x's and y's chains"
    );

    env.invoke_attempts("owner", "o1", Value::Null, 1).unwrap();
    assert_eq!(env.read_current("leg", "t", "x").unwrap(), Value::Int(2));
    for key in ["x", "y"] {
        assert_eq!(lock_holder(&env, "leg", key), None, "{key} still locked");
    }
}

/// A transaction's owner calls `mid`, which calls `leaf`, which writes
/// `x` (1 → 2) and only reads `y`, both in `leaf`'s table.
fn nested_env() -> BeldiEnv {
    let env = BeldiEnv::for_tests_with(gc_config());
    env.register_ssf(
        "leaf",
        &["t"],
        Arc::new(|ctx, _| {
            ctx.read("t", "y")?;
            ctx.write("t", "x", Value::Int(2))?;
            Ok(Value::Null)
        }),
    );
    env.register_ssf(
        "mid",
        &[],
        Arc::new(|ctx, input| ctx.sync_invoke("leaf", input)),
    );
    env.register_ssf(
        "owner",
        &[],
        Arc::new(|ctx, _| {
            ctx.begin_tx()?;
            ctx.sync_invoke("mid", Value::Null)?;
            ctx.end_tx()?;
            Ok(Value::Null)
        }),
    );
    for key in ["x", "y"] {
        env.seed("leaf", "t", key, Value::Int(1)).unwrap();
    }
    env
}

/// The nested case of the test above: the owner is killed before it
/// finalizes and relaunched only after `mid` and `leaf` were recycled,
/// `mid`'s invoke-log entries with it. `mid`'s reply carried `leaf`, so
/// the relaunched owner's replayed call to `mid` still names it: the
/// commit reaches `leaf`, flushes `x` and frees both locks, and the next
/// pass past `T` takes both chains with `leaf`'s finalize marker.
#[test]
fn a_late_recovered_owner_commits_what_its_recycled_nested_leg_wrote() {
    beldi::silence_crash_backtraces();
    let env = nested_env();
    let faults = env.platform().faults();
    faults.plan("o1", CrashPlan::AtLabel(Label::TxnPreFinalize));
    env.invoke_attempts("owner", "o1", Value::Null, 1)
        .unwrap_err();
    let txn = lock_holder(&env, "leaf", "x").expect("x locked");
    assert_eq!(lock_holder(&env, "leaf", "y").as_deref(), Some(&*txn));
    for _ in 0..3 {
        wait_t(&env);
        env.run_gc_once("mid").unwrap();
        env.run_gc_once("leaf").unwrap();
    }
    for ssf in ["mid", "leaf"] {
        let (intents, log) = (format!("{ssf}.intent"), format!("{ssf}.log"));
        assert_eq!(table_len(&env, &intents), 0, "{ssf} was recycled");
        assert_eq!(table_len(&env, &log), 0, "{ssf}'s log was recycled");
    }
    assert_eq!(
        table_len(&env, "leaf.data.t.shadow"),
        2,
        "x's and y's chains"
    );

    env.invoke_attempts("owner", "o1", Value::Null, 1).unwrap();
    assert_eq!(env.read_current("leaf", "t", "x").unwrap(), Value::Int(2));
    for key in ["x", "y"] {
        assert_eq!(lock_holder(&env, "leaf", key), None, "{key} still locked");
    }
    wait_t(&env);
    env.run_gc_once("leaf").unwrap();
    assert_eq!(table_len(&env, "leaf.data.t.shadow"), 0, "both chains");
}

/// A chain whose finalize marker is absent stays while its item's lock is
/// its transaction's, however long the owner takes: each pass past `T`
/// reads the data table's index and the two locks (a traversal and a get
/// each), and deletes nothing.
#[test]
fn a_chain_whose_lock_is_held_outlives_any_number_of_passes() {
    beldi::silence_crash_backtraces();
    let env = leg_env();
    let faults = env.platform().faults();
    faults.plan("o1", CrashPlan::AtLabel(Label::TxnPreFinalize));
    env.invoke_attempts("owner", "o1", Value::Null, 1)
        .unwrap_err();
    for pass in 0..6 {
        wait_t(&env);
        let before = env.db_metrics();
        let report = env.run_gc_once("leg").unwrap();
        let cost = env.db_metrics().delta(&before);
        assert_eq!((report.deleted_rows, report.disconnected_rows), (0, 0));
        assert_eq!(
            (cost.queries, cost.gets, cost.writes),
            (3, 2, 0),
            "pass {pass}"
        );
        assert_eq!(table_len(&env, "leg.data.t.shadow"), 2, "pass {pass}");
    }
}

/// A marker its owner claimed is not recycled while the owner is not
/// done, even long past its own finish time: the owner, killed after its
/// finalize, may run it again and needs the chain. The claim and its
/// claimant go together, in the first pass more than `T` after the
/// relaunched owner's done-mark, and the chain with them.
#[test]
fn a_claimed_marker_waits_for_its_claimant() {
    beldi::silence_crash_backtraces();
    let env = BeldiEnv::for_tests_with(gc_config());
    env.register_ssf(
        "txn",
        &["t"],
        Arc::new(|ctx, _| {
            ctx.begin_tx()?;
            ctx.write("t", "a", Value::Int(1))?;
            ctx.end_tx()?;
            Ok(Value::Null)
        }),
    );
    let faults = env.platform().faults();
    faults.plan("o", CrashPlan::AtLabel(Label::TxnPostFinalize));
    env.invoke_attempts("txn", "o", Value::Null, 1).unwrap_err();
    assert_eq!(table_len(&env, "txn.intent"), 2, "the owner and its claim");
    for _ in 0..3 {
        wait_t(&env);
        let report = env.run_gc_once("txn").unwrap();
        assert_eq!((report.recycled_intents, report.deleted_rows), (0, 0));
    }
    assert_eq!(table_len(&env, "txn.data.t.shadow"), 1);

    env.invoke_attempts("txn", "o", Value::Null, 1).unwrap();
    let owner = env.db().get("txn.intent", &PrimaryKey::hash("o"), None);
    let done_at = owner.unwrap().unwrap().get_int("FinishTime").unwrap() as u64;
    let pass_at = |ms: u64| {
        env.clock()
            .sleep_until(beldi_simclock::SimInstant::from_millis(ms));
        env.run_gc_once("txn").unwrap()
    };
    let at_t = pass_at(done_at + 100);
    assert_eq!((at_t.recycled_intents, at_t.deleted_rows), (0, 0));
    let past_t = pass_at(done_at + 101);
    assert_eq!((past_t.recycled_intents, past_t.deleted_rows), (2, 1));
    assert_eq!(table_len(&env, "txn.intent"), 0);
    assert_eq!(table_len(&env, "txn.data.t.shadow"), 0);
    assert_eq!(env.read_current("txn", "t", "a").unwrap(), Value::Int(1));
}

/// A leg killed after its callback but before its done-mark leaves its
/// owner free to commit, and stays unfinished. Relaunched only after the
/// pass that recycled its transaction's marker deleted its chains, it
/// makes them again as its lock steps replay; the next pass finds the
/// marker gone and the locks not the transaction's, and deletes them.
#[test]
fn a_chain_a_late_relaunched_leg_makes_goes_by_its_lock() {
    beldi::silence_crash_backtraces();
    let env = leg_env();
    let faults = env.platform().faults();
    faults.set_global_plan(Some(CrashPlan::AtLabel(Label::WrapperPreDone)));
    env.invoke_as("owner", "o1", Value::Null).unwrap();
    assert_eq!(faults.injected_count(), 1);
    assert_eq!(env.read_current("leg", "t", "x").unwrap(), Value::Int(2));
    wait_t(&env);
    let report = env.run_gc_once("leg").unwrap();
    assert_eq!((report.recycled_intents, report.deleted_rows), (1, 2));
    assert_eq!(table_len(&env, "leg.intent"), 1, "the unfinished leg");

    let drain = env.drain_recovery(5).unwrap();
    assert_eq!((drain.restarted, drain.unfinished), (1, 0), "{drain:?}");
    assert_eq!(table_len(&env, "leg.data.t.shadow"), 2, "made again");
    let report = env.run_gc_once("leg").unwrap();
    assert_eq!(report.deleted_rows, 2, "{report:?}");
    assert_eq!(table_len(&env, "leg.data.t.shadow"), 0);
    assert_eq!(env.read_current("leg", "t", "x").unwrap(), Value::Int(2));
    for key in ["x", "y"] {
        assert_eq!(lock_holder(&env, "leg", key), None, "{key} locked again");
    }
}
