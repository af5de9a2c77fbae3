//! Criterion bench: DAAL row-capacity ablation (`N`, the max log entries
//! per row — `DESIGN.md` §5).
//!
//! Small `N` appends rows constantly (more round trips per write); large
//! `N` packs more log into each atomicity scope (bigger rows, costlier
//! updates). The paper derives `N` from DynamoDB's 400 KB row cap; this
//! ablation shows the trade-off shape.

use beldi::Mode;
use beldi_bench::{experiment_env, register_micro_ops};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_row_capacity(c: &mut Criterion) {
    let mut group = c.benchmark_group("row_capacity");
    group.sample_size(15);
    for capacity in [1usize, 5, 25, 100] {
        let env = experiment_env(
            Mode::Beldi,
            capacity,
            beldi_simdb::DEFAULT_PARTITIONS,
            false,
        );
        register_micro_ops(&env);
        group.bench_with_input(BenchmarkId::new("write", capacity), &env, |b, env| {
            b.iter(|| {
                env.invoke("micro", beldi_bench::micro_payload("write"))
                    .unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_row_capacity);
criterion_main!(benches);
