//! Concurrency stress for the linked DAAL's lock-free write protocol
//! (§4.3's transition-graph argument) and the traversal's snapshot
//! consistency claim (§4.1).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use beldi::value::{vmap, Value};
use beldi::{BeldiConfig, BeldiEnv};
use beldi_simclock::JoinHandle;
use beldi_simdb::ScanRequest;

mod common;
use common::{contended_env, join_all, spawn};

fn env_with_writer(capacity: usize) -> BeldiEnv {
    env_with_writer_partitioned(capacity, beldi_simdb::DEFAULT_PARTITIONS)
}

fn env_with_writer_partitioned(capacity: usize, partitions: usize) -> BeldiEnv {
    let env = contended_env(
        BeldiConfig::beldi()
            .with_row_capacity(capacity)
            .with_partitions(partitions),
    );
    env.register_ssf(
        "w",
        &["t"],
        Arc::new(|ctx, input| {
            let key = input.get_str("key").unwrap_or("k").to_owned();
            let val = input.get_int("val").unwrap_or(0);
            ctx.write("t", &key, Value::Int(val))?;
            Ok(Value::Null)
        }),
    );
    env.register_ssf("r", &["t2"], Arc::new(|_, _| Ok(Value::Null)));
    env
}

/// Counts write-log entries across a key's physical rows (reachable or
/// not): each logical write must be logged exactly once.
fn logged_entries(env: &BeldiEnv, key: &str) -> usize {
    env.db()
        .scan_all("w.data.t", &ScanRequest::all())
        .unwrap()
        .iter()
        .filter(|r| r.get_str("Key") == Some(key))
        .filter_map(|r| r.get_attr("RecentWrites"))
        .filter_map(Value::as_map)
        .map(|m| m.len())
        .sum()
}

/// Eight clock threads, twelve writes each to the key `hot`.
fn hot_key_writers(env: &Arc<BeldiEnv>) -> Vec<JoinHandle> {
    (0..8i64)
        .map(|t| {
            spawn(env, format!("writer-{t}"), move |env| {
                for i in 0..12 {
                    env.invoke("w", vmap! { "key" => "hot", "val" => t * 100 + i })
                        .unwrap();
                }
            })
        })
        .collect()
}

/// Many writers, one hot key, tiny rows: maximal append contention.
/// Every write is logged exactly once and the chain stays acyclic and
/// fully traversable.
#[test]
fn hot_key_append_storm_logs_each_write_once() {
    for capacity in [1usize, 2, 7] {
        let env = Arc::new(env_with_writer(capacity));
        join_all(hot_key_writers(&env));
        assert_eq!(
            logged_entries(&env, "hot"),
            96,
            "capacity {capacity}: lost or duplicated log entries"
        );
        assert!(
            env.db_metrics().cond_failures > 0,
            "capacity {capacity}: the writers never raced an append"
        );
        let len = env.daal_chain_len("w", "t", "hot").unwrap();
        assert!(len >= 96 / capacity, "capacity {capacity}: chain len {len}");
        // The tail holds one of the written values.
        let v = env.read_current("w", "t", "hot").unwrap();
        assert!(matches!(v, Value::Int(_)));
    }
}

/// Concurrent traversals during an append storm never error and never
/// observe a shorter chain than a previously observed one minus GC (no GC
/// here): monotone prefix growth — the §4.1 snapshot property.
#[test]
fn traversal_is_consistent_during_appends() {
    let env = Arc::new(env_with_writer(2));
    env.invoke("w", vmap! { "key" => "k", "val" => 0i64 })
        .unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let observations = Arc::new(AtomicU64::new(0));
    let reader = {
        let (stop, observations) = (Arc::clone(&stop), Arc::clone(&observations));
        spawn(&env, "reader", move |env| {
            let mut last = 0usize;
            // Each traversal's modelled scan is where the writers get
            // their turns.
            while !stop.load(Ordering::Relaxed) {
                let len = env
                    .daal_chain_len("w", "t", "k")
                    .expect("traversal must not error");
                assert!(len >= last, "chain shrank without GC: {last} -> {len}");
                last = len;
                observations.fetch_add(1, Ordering::Relaxed);
            }
        })
    };
    let writers = (0..4i64)
        .map(|t| {
            spawn(&env, format!("writer-{t}"), move |env| {
                for i in 0..15 {
                    env.invoke("w", vmap! { "key" => "k", "val" => t * 50 + i })
                        .unwrap();
                }
            })
        })
        .collect();
    join_all(writers);
    stop.store(true, Ordering::Relaxed);
    reader.join().unwrap();
    let observations = observations.load(Ordering::Relaxed);
    assert!(
        observations > 60,
        "the reader must interleave with the 60 appends, saw {observations}"
    );
}

/// The DAAL protocol is partition-count invariant: the hot-key storm
/// holds at `P = 1` (maximal partition contention) and `P = 8` (each
/// key's chain confined to its own shard).
#[test]
fn hot_key_append_storm_across_partition_counts() {
    for partitions in [1usize, 8] {
        let env = Arc::new(env_with_writer_partitioned(2, partitions));
        join_all(hot_key_writers(&env));
        assert_eq!(
            logged_entries(&env, "hot"),
            96,
            "P={partitions}: lost or duplicated log entries"
        );
        let v = env.read_current("w", "t", "hot").unwrap();
        assert!(matches!(v, Value::Int(_)), "P={partitions}");
    }
}

/// Concurrent multi-partition transactions driven through the core
/// stack's database handle: ordered commits are atomic (per-key write
/// counts match exactly), deadlock-free (the run terminates), and failed
/// conditions apply nothing.
#[test]
fn concurrent_transact_writes_through_env_are_atomic() {
    use beldi::value::{Cond, Update};
    use beldi_simdb::{PrimaryKey, TableSchema, TransactOp};

    let env = Arc::new(contended_env(BeldiConfig::beldi().with_partitions(4)));
    let db = env.db();
    db.create_table("x", TableSchema::hash_only("Id")).unwrap();
    db.create_table("y", TableSchema::hash_only("Id")).unwrap();
    #[expect(clippy::disallowed_methods, reason = "the test seeds two plain tables")]
    for k in 0..8 {
        db.put("x", vmap! { "Id" => format!("k{k}"), "N" => 0i64 })
            .unwrap();
        db.put("y", vmap! { "Id" => format!("k{k}"), "N" => 0i64 })
            .unwrap();
    }
    let threads = (0..8usize)
        .map(|t| {
            spawn(&env, format!("txn-{t}"), move |env| {
                for i in 0..40usize {
                    let k = (t + i) % 8;
                    // Paired increment across two tables (and usually two
                    // partitions), gated on the pair being in sync.
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "the store's own transaction is under test"
                    )]
                    env.db()
                        .transact_write(&[
                            TransactOp::Update {
                                table: "x".into(),
                                key: PrimaryKey::hash(format!("k{k}")),
                                cond: Cond::exists("Id"),
                                update: Update::new().inc("N", 1),
                            },
                            TransactOp::Update {
                                table: "y".into(),
                                key: PrimaryKey::hash(format!("k{k}")),
                                cond: Cond::exists("Id"),
                                update: Update::new().inc("N", 1),
                            },
                        ])
                        .unwrap();
                }
            })
        })
        .collect();
    join_all(threads);
    for k in 0..8 {
        let x = db
            .get("x", &beldi_simdb::PrimaryKey::hash(format!("k{k}")), None)
            .unwrap()
            .unwrap()
            .get_int("N")
            .unwrap();
        let y = db
            .get("y", &beldi_simdb::PrimaryKey::hash(format!("k{k}")), None)
            .unwrap()
            .unwrap()
            .get_int("N")
            .unwrap();
        assert_eq!((x, y), (40, 40), "k{k}: transaction halves diverged");
    }
}

/// Six clock threads, each writing 0..10 to its own key `k{t}`.
fn own_key_writers(env: &Arc<BeldiEnv>) -> Vec<JoinHandle> {
    (0..6i64)
        .map(|t| {
            spawn(env, format!("writer-{t}"), move |env| {
                let key = format!("k{t}");
                for i in 0..10 {
                    env.invoke("w", vmap! { "key" => key.as_str(), "val" => i })
                        .unwrap();
                }
            })
        })
        .collect()
}

/// CrossTable mode routes every logical write through `transact_write`
/// (value row + write-log row); concurrent writers across partitions must
/// neither lose writes nor deadlock.
#[test]
fn cross_table_mode_concurrent_writes_survive_partitioning() {
    let env = Arc::new(contended_env(BeldiConfig::cross_table().with_partitions(4)));
    env.register_ssf(
        "w",
        &["t"],
        Arc::new(|ctx, input| {
            let key = input.get_str("key").unwrap_or("k").to_owned();
            let val = input.get_int("val").unwrap_or(0);
            ctx.write("t", &key, Value::Int(val))?;
            Ok(Value::Null)
        }),
    );
    join_all(own_key_writers(&env));
    for t in 0..6 {
        let key = format!("k{t}");
        assert_eq!(
            env.read_current("w", "t", &key).unwrap(),
            Value::Int(9),
            "{key}: last write visible"
        );
    }
}

/// Distinct keys never interfere: per-key chains are independent.
#[test]
fn independent_keys_do_not_interfere() {
    let env = Arc::new(env_with_writer(3));
    join_all(own_key_writers(&env));
    for t in 0..6 {
        let key = format!("k{t}");
        assert_eq!(logged_entries(&env, &key), 10, "{key}");
        assert_eq!(
            env.read_current("w", "t", &key).unwrap(),
            Value::Int(9),
            "{key}: last write visible"
        );
    }
}

/// Appends racing the GC: entries and chain stay coherent while rows are
/// disconnected and deleted underneath the writers.
///
/// `T` is sized in modelled time: two virtual seconds is far longer than
/// an invocation takes under the latency model, so no writer can outlive
/// `T` whatever the schedule, and the test sleeps past `T` only between
/// rounds, while no invocation is in flight. GC passes still interleave
/// with appends at every database operation.
#[test]
fn append_storm_with_concurrent_gc_is_safe() {
    const T: Duration = Duration::from_secs(2);
    const ROUNDS: i64 = 6;
    let env = Arc::new(contended_env(
        BeldiConfig::beldi().with_row_capacity(2).with_t_max(T),
    ));
    env.register_ssf(
        "w",
        &["t"],
        Arc::new(|ctx, input| {
            let val = input.get_int("val").unwrap_or(0);
            ctx.write("t", "k", Value::Int(val))?;
            Ok(Value::Null)
        }),
    );
    for round in 0..ROUNDS {
        // Back-to-back passes for as long as the writers run, plus one
        // after they finish, so every round stamps its intents and works
        // on the rows that aged in the rounds before.
        let writers_done = Arc::new(AtomicBool::new(false));
        let collector = {
            let writers_done = Arc::clone(&writers_done);
            spawn(&env, "collector", move |env| loop {
                let last_pass = writers_done.load(Ordering::SeqCst);
                env.run_gc_once("w").unwrap();
                if last_pass {
                    break;
                }
            })
        };
        let writers = (0..4i64)
            .map(|t| {
                spawn(&env, format!("writer-{t}"), move |env| {
                    for i in 0..3 {
                        let val = round * 1000 + t * 100 + i;
                        env.invoke("w", vmap! { "val" => val }).unwrap();
                    }
                })
            })
            .collect();
        join_all(writers);
        writers_done.store(true, Ordering::SeqCst);
        collector.join().unwrap();
        env.clock().sleep(T + Duration::from_millis(1));
    }
    // The GC did all of its work under the writers: recycled intents,
    // disconnected full rows, then deleted them a round later.
    let gc = env.gc_totals().report;
    assert!(gc.recycled_intents > 0, "{gc:?}");
    assert!(gc.disconnected_rows > 0, "{gc:?}");
    assert!(gc.deleted_rows > 0, "{gc:?}");
    assert_eq!(gc.corrupt_chains, 0, "{gc:?}");
    // The store remains readable and the tail holds a written value.
    let v = env.read_current("w", "t", "k").unwrap();
    assert!(matches!(v, Value::Int(_)), "{v:?}");
}
