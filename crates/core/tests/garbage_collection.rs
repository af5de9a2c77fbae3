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

/// The same for a shadow chain that is not yet whole garbage: a
/// transaction's callee writes one item ten times and finishes, then its
/// caller writes the item once more and dies before the commit. Past `T`
/// every row but the tail holds only the callee's entries; the rows
/// between head and tail go, and the unfinished caller's tail stays on
/// the chain. (A shadow row is deleted once its dangle wait is over,
/// reachable or not, so a leaked row would cut the tail off the head.)
#[test]
fn a_run_of_recyclable_shadow_rows_is_collected_to_head_and_tail() {
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
        env.run_gc_once("txn").unwrap();
    }
    // Head and tail, and the tail is still reached from the head.
    assert_eq!(chain_rows(&env, shadow, &key), (2, 2), "{built} rows built");
}

#[test]
fn collector_batch_limit_pages_work_across_passes() {
    // Appendix A: a bounded pass recycles at most `limit` intents; the
    // remainder is picked up by subsequent passes.
    let env = counter_env(gc_config().with_collector_batch_limit(2));
    for _ in 0..5 {
        env.invoke("ctr", Value::Null).unwrap();
    }
    // Past `T` all 5 are recyclable, but every pass recycles at most 2:
    // three passes drain them.
    wait_t(&env);
    let recycled: Vec<usize> = (0..3)
        .map(|_| env.run_gc_once("ctr").unwrap().recycled_intents)
        .collect();
    assert_eq!(recycled, [2, 2, 1], "paged passes drain the backlog");
    assert_eq!(table_len(&env, "ctr.intent"), 0);
    assert_eq!(env.read_current("ctr", "t", "k").unwrap(), Value::Int(5));
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
