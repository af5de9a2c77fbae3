//! Criterion bench: end-to-end request latency of the three case-study
//! applications at low load, baseline vs Beldi (the per-request cost
//! behind Figs. 14/15/26 before saturation effects).

use beldi::value::vmap;
use beldi::Mode;
use beldi_apps::{MediaApp, SocialApp, TravelApp};
use beldi_bench::bench_env;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_apps(c: &mut Criterion) {
    let mut group = c.benchmark_group("apps");
    group.sample_size(15);
    group.measurement_time(std::time::Duration::from_secs(4));
    for (system, mode) in [("baseline", Mode::Baseline), ("beldi", Mode::Beldi)] {
        // Movie page view (the dominant media request).
        let env = bench_env(mode, beldi_simdb::DEFAULT_PARTITIONS);
        let media = MediaApp::default();
        media.install(&env);
        media.seed(&env);
        group.bench_with_input(BenchmarkId::new("media-page", system), &env, |b, env| {
            b.iter(|| {
                env.invoke(
                    media.entry(),
                    vmap! { "op" => "page", "movie_id" => "movie-1" },
                )
                .unwrap()
            });
        });

        // Hotel search (the dominant travel request).
        let env = bench_env(mode, beldi_simdb::DEFAULT_PARTITIONS);
        let travel = TravelApp::default();
        travel.install(&env);
        travel.seed(&env);
        group.bench_with_input(BenchmarkId::new("travel-search", system), &env, |b, env| {
            b.iter(|| {
                env.invoke(
                    travel.entry(),
                    vmap! { "op" => "search", "lat" => 3.0, "lon" => 4.0 },
                )
                .unwrap()
            });
        });

        // Home timeline read (the dominant social request).
        let env = bench_env(mode, beldi_simdb::DEFAULT_PARTITIONS);
        let social = SocialApp::default();
        social.install(&env);
        social.seed(&env);
        group.bench_with_input(BenchmarkId::new("social-home", system), &env, |b, env| {
            b.iter(|| {
                env.invoke(
                    social.entry(),
                    vmap! { "op" => "home-timeline", "user" => "user-3" },
                )
                .unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_apps);
criterion_main!(benches);
