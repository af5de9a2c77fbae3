//! Criterion bench: per-operation cost of Beldi's primitives across the
//! three systems (the Fig. 13/25 shape, in wall-clock terms).

use beldi::value::Value;
use beldi_bench::{experiment_env, register_micro_ops};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("ops");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    for mode in beldi_bench::SYSTEMS {
        let system = mode.name();
        let env = experiment_env(mode, 5, beldi_simdb::DEFAULT_PARTITIONS, false);
        register_micro_ops(&env);
        for op in ["read", "write", "condwrite"] {
            let payload = beldi_bench::micro_payload(op);
            group.bench_with_input(BenchmarkId::new(op, system), &env, |b, env| {
                b.iter(|| env.invoke("micro", payload.clone()).unwrap());
            });
        }
        group.bench_with_input(BenchmarkId::new("invoke", system), &env, |b, env| {
            b.iter(|| env.invoke("op-invoke", Value::Null).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ops);
criterion_main!(benches);
