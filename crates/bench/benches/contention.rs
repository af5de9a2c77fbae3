//! Criterion bench: storage contention — partition count × key skew.
//!
//! Measures the simulated database directly (no Beldi layer, zero latency
//! model) so the numbers isolate lock contention in the store itself:
//!
//! - `uniform/pN` — 8 threads spraying conditional increments over 256
//!   keys. Throughput should *improve* as partitions grow from 1 to 8:
//!   with `P = 1` every write serializes behind one lock, with `P = 8`
//!   disjoint keys commute.
//! - `hotkey/pN` — the adversarial bound: every write hits one key, so
//!   all of them share a partition no matter how many exist and partition
//!   count should *not* help. The gap between the two series is the win
//!   attributable to sharding.
//! - `txn/pN` — 2-op cross-table transactions on random key pairs: the
//!   ordered multi-partition commit path (which replaced the global
//!   transaction lock) under thread contention.
//!
//! A second group, `beldi_hotkey`, measures the same adversarial single
//! key through the *full Beldi protocol* (exactly-once logged writes via
//! SSF invocations), `plain/wN`: a fixed budget of hot-key appends split
//! across `N` workers. Writes to one item serialise in the latency model
//! (DynamoDB's per-item write ceiling), so the series flattens as workers
//! are added: it is the hot-key ceiling.

#![expect(
    clippy::disallowed_methods,
    reason = "the measurement is real parallelism on host threads over a real-time clock"
)]

use std::sync::Arc;

use beldi::simclock::ScaledClock;
use beldi::value::{vmap, Cond, Update, Value};
use beldi::{BeldiConfig, BeldiEnv, Mode};
use beldi_simdb::{Database, PrimaryKey, TableSchema, TransactOp};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 64;
const KEYSPACE: usize = 256;

fn fresh_db(partitions: usize) -> Arc<Database> {
    // Zero-latency, real-time clock: the measurement is pure lock/data
    // cost, not the modelled DynamoDB round trips. Rows carry a payload so
    // the work under the partition lock (row clone + reindex) is the
    // dominant per-op cost, as it would be for real item sizes.
    let db = Database::for_tests_with_partitions(partitions);
    for table in ["t", "u"] {
        db.create_table(table, TableSchema::hash_only("Id"))
            .unwrap();
        for k in 0..KEYSPACE {
            db.put(
                table,
                vmap! { "Id" => format!("k{k}"), "N" => 0i64, "Payload" => "x".repeat(256) },
            )
            .unwrap();
        }
    }
    db
}

/// The benchmark keyspace, precomputed so key construction stays out of
/// the measured loop.
fn keys() -> Vec<PrimaryKey> {
    (0..KEYSPACE)
        .map(|k| PrimaryKey::hash(format!("k{k}")))
        .collect()
}

/// One batch: every thread issues `OPS_PER_THREAD` conditional increments,
/// choosing keys by `pick(thread, i)`.
fn increment_batch(
    db: &Database,
    keys: &[PrimaryKey],
    pick: impl Fn(usize, usize) -> usize + Sync,
) {
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let pick = &pick;
            s.spawn(move || {
                let update = Update::new().inc("N", 1);
                let cond = Cond::exists("Id");
                for i in 0..OPS_PER_THREAD {
                    db.update("t", &keys[pick(t, i)], &cond, &update).unwrap();
                }
            });
        }
    });
}

/// One batch of 2-op transactions across two tables (usually two
/// partitions), on a deterministic per-thread key walk.
fn txn_batch(db: &Database, keys: &[PrimaryKey]) {
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                for i in 0..OPS_PER_THREAD {
                    let a = (t * OPS_PER_THREAD + i * 7919) % KEYSPACE;
                    let b = (a + 127) % KEYSPACE;
                    db.transact_write(&[
                        TransactOp::Update {
                            table: "t".into(),
                            key: keys[a].clone(),
                            cond: Cond::exists("Id"),
                            update: Update::new().inc("N", 1),
                        },
                        TransactOp::Update {
                            table: "u".into(),
                            key: keys[b].clone(),
                            cond: Cond::exists("Id"),
                            update: Update::new().inc("N", 1),
                        },
                    ])
                    .unwrap();
                }
            });
        }
    });
}

/// Total hot-key appends per measured batch, fixed across worker counts
/// so batch times compare directly.
const HOT_TOTAL_OPS: usize = 64;

/// A Beldi-mode environment with one registered hot-key writer SSF and a
/// seeded DAAL HEAD. Built fresh inside every measured iteration so chain
/// length — and therefore traversal cost — is identical for every
/// measurement.
fn hot_env() -> BeldiEnv {
    let cfg = BeldiConfig::for_mode(Mode::Beldi)
        .with_row_capacity(100)
        .with_partitions(8);
    let env = BeldiEnv::builder(cfg)
        .latency(beldi_simdb::LatencyModel::dynamo())
        .platform(beldi_bench::microbench_platform())
        // Host time on purpose: the series is wall-clock throughput of N
        // free-running OS threads, which a one-at-a-time simulated
        // schedule cannot measure.
        .clock(ScaledClock::shared(5_000.0))
        .seed(42)
        .build();
    env.register_ssf(
        "hot",
        &["t"],
        Arc::new(|ctx, input: Value| {
            ctx.write("t", "hot", input)?;
            Ok(Value::Null)
        }),
    );
    env.invoke("hot", Value::Int(-1)).expect("seed write");
    env
}

/// One measured batch: `workers` threads share [`HOT_TOTAL_OPS`] appends
/// to the single hot key, each through a full exactly-once invocation.
fn hot_batch(env: &BeldiEnv, workers: usize) {
    std::thread::scope(|s| {
        for w in 0..workers {
            s.spawn(move || {
                let ops = HOT_TOTAL_OPS / workers;
                for i in 0..ops {
                    env.invoke("hot", Value::Int((w * ops + i) as i64))
                        .expect("hot write");
                }
            });
        }
    });
}

fn bench_beldi_hotkey(c: &mut Criterion) {
    let mut group = c.benchmark_group("beldi_hotkey");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("plain", format!("w{workers}")),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let env = hot_env();
                    hot_batch(&env, workers);
                });
            },
        );
    }
    group.finish();
}

fn bench_contention(c: &mut Criterion) {
    let mut group = c.benchmark_group("contention");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(1));
    let keys = keys();
    for partitions in [1usize, 2, 4, 8] {
        let db = fresh_db(partitions);
        group.bench_with_input(
            BenchmarkId::new("uniform", format!("p{partitions}")),
            &db,
            |b, db| {
                b.iter(|| {
                    increment_batch(db, &keys, |t, i| (t * OPS_PER_THREAD + i * 7919) % KEYSPACE)
                });
            },
        );
        let db = fresh_db(partitions);
        group.bench_with_input(
            BenchmarkId::new("hotkey", format!("p{partitions}")),
            &db,
            |b, db| {
                b.iter(|| increment_batch(db, &keys, |_, _| 0));
            },
        );
        let db = fresh_db(partitions);
        group.bench_with_input(
            BenchmarkId::new("txn", format!("p{partitions}")),
            &db,
            |b, db| {
                b.iter(|| txn_batch(db, &keys));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_contention, bench_beldi_hotkey);
criterion_main!(benches);
