//! Criterion bench: transaction costs — a cross-SSF transactional
//! reservation versus the same workflow without transactions versus a
//! single plain write (the §7.4 "Beldi with/without transactions"
//! comparison, plus the wait-die lock path).

use beldi::Mode;
use beldi_apps::TravelApp;
use beldi_bench::bench_env;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_txn(c: &mut Criterion) {
    let mut group = c.benchmark_group("txn");
    group.sample_size(15);
    group.measurement_time(std::time::Duration::from_secs(4));
    for (name, transactional) in [("reserve-txn", true), ("reserve-notxn", false)] {
        let env = bench_env(Mode::Beldi, beldi_simdb::DEFAULT_PARTITIONS);
        let app = TravelApp {
            hotels: 20,
            flights: 20,
            users: 10,
            rooms_per_hotel: i64::MAX / 2,
            seats_per_flight: i64::MAX / 2,
            transactional,
            ..TravelApp::default()
        };
        app.install(&env);
        app.seed(&env);
        let mut n = 0u64;
        group.bench_with_input(BenchmarkId::new(name, "beldi"), &env, |b, env| {
            b.iter(|| {
                let mut rng = beldi_apps::rng::request_rng(n);
                n += 1;
                env.invoke(app.entry(), app.reserve_request(&mut rng))
                    .unwrap()
            });
        });
    }
    // The plain-write floor for context.
    let env = bench_env(Mode::Beldi, beldi_simdb::DEFAULT_PARTITIONS);
    beldi_bench::register_micro_ops(&env);
    group.bench_with_input(BenchmarkId::new("plain-write", "beldi"), &env, |b, env| {
        b.iter(|| {
            env.invoke("micro", beldi_bench::micro_payload("write"))
                .unwrap()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_txn);
criterion_main!(benches);
