//! Criterion bench: the §4.1 traversal ablation — scan + projection
//! (Beldi's approach, one query returning 256 bits per row) versus naive
//! pointer chasing with one point read per row, across DAAL depths.

use beldi::schema::{A_NEXT_ROW, A_ROW_ID, ROW_HEAD};
use beldi::Mode;
use beldi_bench::{experiment_env, prepopulate_daal, register_micro_ops};
use beldi_simdb::{Database, PrimaryKey, Projection};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Pointer-chasing traversal: start at HEAD, issue one projected point
/// read per row — the simple approach the paper's scan trick replaces.
fn pointer_chase(db: &Database, table: &str, key: &str) -> usize {
    let proj = Projection::attrs([A_ROW_ID, A_NEXT_ROW]);
    let mut depth = 0;
    let mut row_id = ROW_HEAD.to_owned();
    loop {
        let pk = PrimaryKey::hash_sort(key, row_id.as_str());
        let Some(row) = db.get(table, &pk, Some(&proj)).unwrap() else {
            break;
        };
        depth += 1;
        match row.get_str(A_NEXT_ROW) {
            Some(next) => row_id = next.to_owned(),
            None => break,
        }
    }
    depth
}

fn bench_traversal(c: &mut Criterion) {
    let mut group = c.benchmark_group("traversal");
    group.sample_size(20);
    for depth in [5usize, 20, 50] {
        let env = experiment_env(Mode::Beldi, 5, beldi_simdb::DEFAULT_PARTITIONS, false);
        register_micro_ops(&env);
        prepopulate_daal(&env, depth, 5);
        let table = beldi::schema::data_table("micro", "t");
        let db = env.db().clone();

        // Beldi's traversal: one scan + projection, local chain rebuild
        // (`daal_chain_len` runs exactly that path).
        group.bench_with_input(
            BenchmarkId::new("scan-projection", depth),
            &env,
            |b, env| {
                b.iter(|| {
                    let d = env.daal_chain_len("micro", "t", "k").unwrap();
                    assert!(d >= depth);
                    d
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("pointer-chase", depth),
            &(db, table),
            |b, (db, table)| {
                b.iter(|| {
                    let d = pointer_chase(db, table, "k");
                    assert!(d >= depth);
                    d
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_traversal);
criterion_main!(benches);
