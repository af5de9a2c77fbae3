//! Integration tests for the closed-loop workload driver: bit-identical
//! same-seed runs — at a few workers and with every request in flight at
//! once — and conservation laws checked against independently recomputed
//! request streams.

use std::time::Duration;

use beldi::value::{vmap, Map, Value};
use beldi::{Label, Mode};
use beldi_apps::{bench_app, MixProfile, WorkflowApp};
use beldi_simclock::Metric;
use beldi_workload::driver::{
    drive, ops_for_worker, value_digest, worker_rng, BenchReport, BenchRun, ChaosOptions,
    DriveOptions, GC_T_MAX,
};
use beldi_workload::recovery_gate;

/// Fast functional options: zero storage latency.
fn test_opts(workers: usize, total_ops: u64, seed: u64) -> DriveOptions {
    DriveOptions {
        workers,
        total_ops,
        seed,
        model_latency: false,
        tail_cache: true,
        ..DriveOptions::default()
    }
}

/// Regenerates the exact multiset of requests a drive issues — the same
/// split and RNGs the workers use.
fn regenerate_requests(app: &dyn WorkflowApp, opts: &DriveOptions) -> Vec<Value> {
    let mut all = Vec::with_capacity(opts.total_ops as usize);
    for w in 0..opts.workers {
        let mut rng = worker_rng(opts.seed, w);
        for _ in 0..ops_for_worker(opts.total_ops, opts.workers, w) {
            all.push(app.gen_load_request(&mut rng));
        }
    }
    all
}

fn drive_app(kind: &str, mode: Mode, mix: MixProfile, opts: &DriveOptions) -> BenchRun {
    let app = bench_app(kind, mode, mix).expect("known app");
    drive(app.as_ref(), mode, opts)
}

/// `run` with the one host-dependent field cleared: what two same-seed
/// drives must agree on, bit for bit.
fn modelled(mut run: BenchRun) -> BenchRun {
    run.wall_ms = 0;
    run
}

/// Four workers, modelled latency, online GC: the whole record — latency
/// summary, virtual duration, throughput, counters, every sample, the
/// state digest — is a function of the seed.
#[test]
fn same_seed_drives_are_bit_identical_at_4_workers() {
    let opts = DriveOptions {
        model_latency: true,
        gc: true,
        ..test_opts(4, 60, 7)
    };
    for (kind, mode) in [
        ("travel", Mode::Beldi),
        ("media", Mode::Beldi),
        ("social", Mode::CrossTable),
    ] {
        let a = drive_app(kind, mode, MixProfile::Default, &opts);
        let b = drive_app(kind, mode, MixProfile::Default, &opts);
        assert_eq!(a.errors, 0, "{kind}: {a:?}");
        assert!(a.latency.p50_us > 0 && a.samples.len() > 1, "{a:?}");
        assert_eq!(modelled(a), modelled(b), "{kind}");
    }
}

#[test]
fn different_seeds_change_the_state_digest() {
    let a = drive_app(
        "social",
        Mode::Beldi,
        MixProfile::WriteHeavy,
        &test_opts(2, 40, 1),
    );
    let b = drive_app(
        "social",
        Mode::Beldi,
        MixProfile::WriteHeavy,
        &test_opts(2, 40, 2),
    );
    assert_ne!(a.state_digest, b.state_digest);
}

/// On modelled latency, so reservations of one item interleave: in Beldi
/// mode inside their transaction, in cross-table mode (no transactions)
/// under each leg's item lock.
#[test]
fn travel_inventory_is_conserved_under_8_workers() {
    let opts = DriveOptions {
        model_latency: true,
        ..test_opts(8, 160, 42)
    };
    let mix = MixProfile::WriteHeavy;
    for mode in [Mode::Beldi, Mode::CrossTable] {
        let app = bench_app("travel", mode, mix).expect("travel");
        let run = drive(app.as_ref(), mode, &opts);
        assert_eq!(run.errors, 0, "{mode:?}: {run:?}");

        let reservations = assert_travel_conserved(app.as_ref(), &opts, &run);
        assert!(reservations > 40, "write-heavy mix should reserve a lot");
    }
}

/// Independently recomputes the reservation demand per hotel/flight from
/// the deterministic request streams. Inventory is effectively unbounded
/// in the bench config, so every reservation must consume exactly one
/// room and one seat — no more (duplicated legs), no fewer (lost legs),
/// however the workers interleaved. Returns the reservation count.
fn assert_travel_conserved(app: &dyn WorkflowApp, opts: &DriveOptions, run: &BenchRun) -> i64 {
    let mut rooms: Map = Map::new();
    let mut seats: Map = Map::new();
    for i in 0..25 {
        rooms.insert(format!("hotel-{i}"), Value::Int(1_000_000));
        seats.insert(format!("flight-{i}"), Value::Int(1_000_000));
    }
    let mut reservations = 0i64;
    for req in regenerate_requests(app, opts) {
        if req.get_str("op") == Some("reserve") {
            reservations += 1;
            for (map, field) in [(&mut rooms, "hotel"), (&mut seats, "flight")] {
                let key = req.get_str(field).unwrap().to_owned();
                let Some(Value::Int(n)) = map.get_mut(key.as_str()) else {
                    panic!("unknown {field} {key}");
                };
                *n -= 1;
            }
        }
    }
    // The full per-key inventory must match the recomputation: the
    // travel fingerprint is its canonical state, one sorted map of
    // hotel/flight → remaining.
    let mut expected = rooms;
    expected.extend(seats);
    assert_eq!(
        run.state_digest,
        format!("{:016x}", value_digest(&Value::Map(expected))),
        "final inventory diverged from the request streams"
    );
    reservations
}

#[test]
fn social_counters_are_conserved_under_8_workers() {
    let opts = test_opts(8, 120, 11);
    let mix = MixProfile::WriteHeavy;
    let app = bench_app("social", Mode::Beldi, mix).expect("social");
    let run = drive(app.as_ref(), Mode::Beldi, &opts);
    assert_eq!(run.errors, 0, "{run:?}");

    // Recompute the fan-out from the request streams. Every compose
    // stores exactly one post row, one shortened-url row, and one
    // user-timeline entry, and appends one home-timeline entry per
    // fan-out target: the author's followers plus the mentioned user
    // (deduplicated against the followers). Bench config: 40 users in a
    // ring, 4 followers each; windows are far from full at this scale.
    let users = 40i64;
    let follows = 4i64;
    let mut composes = 0i64;
    let mut usertl = vec![0i64; users as usize];
    let mut hometl = vec![0i64; users as usize];
    for req in regenerate_requests(app.as_ref(), &opts) {
        if req.get_str("op") == Some("compose") {
            composes += 1;
            let author: i64 = req
                .get_str("user")
                .and_then(|u| u.strip_prefix("user-"))
                .unwrap()
                .parse()
                .unwrap();
            let mention: i64 = req
                .get_str("text")
                .and_then(|t| t.split_whitespace().find_map(|w| w.strip_prefix('@')))
                .and_then(|m| m.strip_prefix("user-"))
                .unwrap()
                .parse()
                .unwrap();
            usertl[author as usize] += 1;
            // followers(author) = author-1 .. author-4 (mod users).
            let followers: Vec<i64> = (1..=follows)
                .map(|d| (author + users - d) % users)
                .collect();
            for &f in &followers {
                hometl[f as usize] += 1;
            }
            if !followers.contains(&mention) {
                hometl[mention as usize] += 1;
            }
        }
    }
    assert!(composes > 30, "write-heavy mix should compose a lot");
    // The social fingerprint counts rows and timeline entries per user.
    let mut timelines = Map::new();
    for u in 0..users as usize {
        let counts = vmap! { "usertl" => usertl[u], "hometl" => hometl[u] };
        timelines.insert(format!("user-{u}"), counts);
    }
    let expected = vmap! {
        "post_rows" => composes,
        "url_rows" => composes,
        "timeline_len" => Value::Map(timelines),
    };
    assert_eq!(
        run.state_digest,
        format!("{:016x}", value_digest(&expected)),
        "fan-out diverged from the request streams"
    );
}

#[test]
fn cross_table_and_beldi_agree_on_travel_state() {
    // The final application state is a function of the request multiset,
    // not of the logging design: both fault-tolerant modes must land on
    // the same inventory. (Travel runs without the cross-SSF transaction
    // in cross-table mode, but with unbounded inventory both legs always
    // succeed, so the final state still matches.)
    let opts = test_opts(4, 80, 3);
    let a = drive_app("travel", Mode::Beldi, MixProfile::Default, &opts);
    let b = drive_app("travel", Mode::CrossTable, MixProfile::Default, &opts);
    assert_eq!(a.errors, 0);
    assert_eq!(b.errors, 0);
    assert_eq!(a.state_digest, b.state_digest);
}

#[test]
fn tail_cache_does_not_change_results_only_cost() {
    let cached = test_opts(4, 60, 5);
    let uncached = DriveOptions {
        tail_cache: false,
        ..cached.clone()
    };
    let a = drive_app("travel", Mode::Beldi, MixProfile::Default, &cached);
    let b = drive_app("travel", Mode::Beldi, MixProfile::Default, &uncached);
    assert_eq!(a.state_digest, b.state_digest, "cache changed semantics");
    let queries = |run: &BenchRun| run.counters.get(Metric::DbQueries);
    assert!(
        queries(&a) < queries(&b),
        "cache should eliminate traversal scans ({} vs {})",
        queries(&a),
        queries(&b)
    );
}

/// Wraps a single run in a report shell so the recovery gate can judge it.
fn report_of(run: BenchRun, opts: &DriveOptions) -> BenchReport {
    BenchReport {
        seed: opts.seed,
        total_ops: opts.total_ops,
        mix: "default".into(),
        tail_cache: opts.tail_cache,
        runs: vec![run],
        front: None,
    }
}

/// The storm lease of a chaos drive, which sets its recovery ceiling.
fn lease(opts: &DriveOptions) -> Duration {
    opts.chaos.as_ref().expect("a chaos drive").t_max
}

/// A crash storm over live traffic with online IC + GC must end in the
/// crash-free oracle's state: every killed workflow is finished exactly
/// once by a root retry or an intent-collector re-launch, and nothing is
/// executed twice.
#[test]
fn chaos_storm_recovers_to_the_oracle_state() {
    let opts = DriveOptions {
        chaos: Some(ChaosOptions::default()),
        ..test_opts(8, 80, 7)
    };
    let run = drive_app("media", Mode::Beldi, MixProfile::Default, &opts);
    assert_eq!(run.errors, 0, "{run:?}");
    let rec = run.recovery.clone().expect("chaos runs record recovery");
    let injected = run.counters.get(Metric::FaultsInjected);
    assert!(injected > 0, "the storm had no teeth: {rec:?}");
    assert!(rec.digest_match, "conservation violated: {rec:?}");
    assert_eq!(rec.history_findings, 0, "{rec:?}");
    assert_eq!(run.counters.get(Metric::IcCorrupt), 0, "{:?}", run.counters);
    // The storm draws at every probe, those under a loop too: this seed
    // kills an IC pass between two re-launches.
    assert!(
        rec.crash_sites.contains_key(Label::IcPreRestart.as_str()),
        "{:?}",
        rec.crash_sites
    );

    let failures = recovery_gate(&report_of(run, &opts), lease(&opts));
    assert!(failures.is_empty(), "{failures:?}");
}

/// The same `--chaos` seed reproduces the same storm, relaunch and all:
/// which instances die where, how the IC and the root retries bring them
/// back, and how long each recovery took.
#[test]
fn chaos_same_seed_runs_are_bit_identical() {
    let opts = DriveOptions {
        model_latency: true,
        chaos: Some(ChaosOptions {
            ssf_kill_prob: 4e-3,
            ..ChaosOptions::default()
        }),
        ..test_opts(4, 80, 13)
    };
    let a = drive_app("social", Mode::Beldi, MixProfile::Default, &opts);
    let b = drive_app("social", Mode::Beldi, MixProfile::Default, &opts);
    let rec = a.recovery.as_ref().expect("chaos runs record recovery");
    let injected = a.counters.get(Metric::FaultsInjected);
    assert!(injected > 0, "the storm had no teeth: {rec:?}");
    assert!(
        rec.recovered_intents > 0 && rec.recovery_p99_ms > 0,
        "{rec:?}"
    );
    assert!(!rec.crash_sites.is_empty());
    assert_eq!(modelled(a), modelled(b));
}

/// The same contract with online GC at 8 workers, in-flight series
/// included: the executor thread, the platform workers, the collector
/// timers and the sampler all take turns on one seeded schedule.
#[test]
fn async_same_seed_runs_are_bit_identical_at_8_workers() {
    let opts = DriveOptions {
        model_latency: true,
        gc: true,
        ..test_opts(8, 96, 29)
    };
    let a = drive_app("travel", Mode::Beldi, MixProfile::Default, &opts);
    assert_eq!(a.errors, 0, "{a:?}");
    assert!(
        a.high_water >= 8,
        "a closed loop keeps every worker in flight: {:?}",
        a.samples
    );
    assert!(a.samples.len() > 1, "{:?}", a.samples);
    let b = drive_app("travel", Mode::Beldi, MixProfile::Default, &opts);
    assert_eq!(modelled(a), modelled(b));
}

/// Canary for the gate itself, with nothing sabotaged: baseline retries
/// killed workflows as the logged modes do but logs nothing, so a storm
/// over it re-applies steps, and the recovery gate must flag that. Judged
/// as baseline, the run is the gate's negative control and passes; the
/// same run judged as beldi fails the conservation check. If this test
/// ever breaks, the gate has gone blind.
#[test]
fn recovery_gate_flags_a_baseline_storm() {
    let opts = DriveOptions {
        chaos: Some(ChaosOptions::smoke()),
        ..test_opts(1, 120, 21)
    };
    let run = drive_app("social", Mode::Baseline, MixProfile::Default, &opts);
    assert_eq!(run.errors, 0, "{run:?}");
    let rec = run.recovery.as_ref().expect("chaos runs record recovery");
    assert!(rec.history_findings > 0 && !rec.digest_match, "{rec:?}");
    let failures = recovery_gate(&report_of(run.clone(), &opts), lease(&opts));
    assert_eq!(failures, Vec::<String>::new());

    let judged_as_beldi = BenchRun {
        mode: Mode::Beldi.name().into(),
        ..run
    };
    let failures = recovery_gate(&report_of(judged_as_beldi, &opts), lease(&opts));
    for clause in ["digest mismatch", "history checker finding(s)"] {
        assert!(failures.iter().any(|f| f.contains(clause)), "{failures:?}");
    }
}

/// A chaos drive kills the first instance past a write's exit on purpose,
/// so baseline's control bites even where the storm draws no kill (and
/// travel writes only in its few reservations); the logged modes recover
/// from that kill to the oracle's state.
#[test]
fn a_drive_kills_a_write_on_purpose() {
    let opts = DriveOptions {
        chaos: Some(ChaosOptions {
            ssf_kill_prob: 0.0,
            ..ChaosOptions::smoke()
        }),
        ..test_opts(1, 120, 42)
    };
    for mode in [Mode::Baseline, Mode::Beldi] {
        let run = drive_app("travel", mode, MixProfile::Default, &opts);
        let rec = run.recovery.as_ref().expect("chaos runs record recovery");
        // The collectors' storm still draws; no SSF probe does.
        let ssf_sites: Vec<_> = (rec.crash_sites.iter())
            .filter(|(label, _)| !label.starts_with("ic.") && !label.starts_with("gc."))
            .collect();
        assert_eq!(ssf_sites, [(&"write.exit".to_owned(), &1)], "{mode:?}");
        let baseline = mode == Mode::Baseline;
        assert_eq!(rec.history_findings > 0, baseline, "{mode:?}: {rec:?}");
        assert!(baseline || rec.digest_match, "{rec:?}");
    }
}

/// With `workers = total_ops` every request is in flight at once, parked
/// behind the quarter-pool admission gate. The final state is a function
/// of the request multiset, not of how many roots the gate lets run
/// together: a 1000-permit pool (250 roots at a time — all 60) and an
/// 8-permit pool (2 at a time) must land on the same digest. Checked
/// across apps and modes.
#[test]
fn final_state_does_not_depend_on_the_admission_width() {
    let wide = test_opts(60, 60, 7);
    let narrow = DriveOptions {
        platform_concurrency: Some(8),
        ..wide.clone()
    };
    for (kind, mode) in [
        ("travel", Mode::Beldi),
        ("media", Mode::Beldi),
        ("social", Mode::CrossTable),
    ] {
        let a = drive_app(kind, mode, MixProfile::Default, &wide);
        let b = drive_app(kind, mode, MixProfile::Default, &narrow);
        assert_eq!((a.errors, b.errors), (0, 0), "{kind}: {a:?}");
        assert_eq!(
            a.state_digest, b.state_digest,
            "{kind}/{mode:?}: the admission width changed the final state"
        );
        for run in [&a, &b] {
            assert!(
                run.high_water >= 60,
                "{kind}: all 60 workers spawn up front: {:?}",
                run.samples
            );
        }
    }
}

/// The capacity claim: ten thousand concurrent in-flight workflows in one
/// process, over a platform capped at four worker threads — workers past
/// the admission gate park on executor wakers, not OS threads.
/// Conservation is audited against an independent recomputation of the
/// request streams. Baseline mode keeps per-request cost low enough for a
/// debug-build tier-1 test, but its `begin_tx` is a no-op (no wait-die
/// locks), so the audit is only exact under race-free execution: capping
/// the platform at 4 yields an admission gate of one root workflow at a
/// time while every other worker stays parked (and counted) at the
/// semaphore. The full-protocol claims are pinned by the Beldi-mode tests
/// above and below.
#[test]
fn async_drive_sustains_10k_in_flight_workflows() {
    let opts = DriveOptions {
        platform_concurrency: Some(4),
        ..test_opts(10_000, 10_000, 42)
    };
    let app = bench_app("travel", Mode::Baseline, MixProfile::Default).expect("travel");
    let run = drive(app.as_ref(), Mode::Baseline, &opts);
    assert_eq!(run.errors, 0, "errors at 10k in flight");
    assert!(
        run.high_water >= 10_000,
        "high water {} < 10k — the load was not concurrently in flight",
        run.high_water
    );
    assert_travel_conserved(app.as_ref(), &opts, &run);
}

/// Full-protocol (Beldi mode) in-flight scale at debug-affordable size:
/// a thousand workflows in flight over 64 worker threads, exactly-once
/// conservation against the recomputed request streams — and a thousand
/// parked wakers are scheduled as reproducibly as four workers.
#[test]
fn async_drive_beldi_mode_parks_1k_workflows() {
    let opts = DriveOptions {
        platform_concurrency: Some(64),
        ..test_opts(1_000, 1_000, 17)
    };
    let app = bench_app("travel", Mode::Beldi, MixProfile::Default).expect("travel");
    let run = drive(app.as_ref(), Mode::Beldi, &opts);
    assert_eq!(run.errors, 0, "{:?}", run.errors);
    assert!(
        run.high_water >= 1_000,
        "high water {} < 1k",
        run.high_water
    );
    assert_travel_conserved(app.as_ref(), &opts, &run);
    let again = drive(app.as_ref(), Mode::Beldi, &opts);
    assert_eq!(modelled(run), modelled(again));
}

/// The storm with every request in flight at once: SSFs and collector
/// passes die mid-flight while 80 roots queue at the admission gate;
/// recovery must still converge on the crash-free oracle's digest.
#[test]
fn async_chaos_storm_recovers_to_the_oracle_state() {
    let opts = DriveOptions {
        chaos: Some(ChaosOptions::default()),
        ..test_opts(80, 80, 7)
    };
    let run = drive_app("media", Mode::Beldi, MixProfile::Default, &opts);
    assert_eq!(run.errors, 0, "{run:?}");
    assert!(run.high_water >= 80, "{:?}", run.samples);
    let rec = run.recovery.clone().expect("chaos runs record recovery");
    let injected = run.counters.get(Metric::FaultsInjected);
    assert!(injected > 0, "the storm had no teeth: {rec:?}");
    assert!(rec.digest_match, "conservation violated: {rec:?}");
    assert_eq!(rec.history_findings, 0, "{rec:?}");
    assert_eq!(run.counters.get(Metric::IcCorrupt), 0, "{:?}", run.counters);
    let failures = recovery_gate(&report_of(run, &opts), lease(&opts));
    assert!(failures.is_empty(), "{failures:?}");
}

/// Online GC on zero-latency storage: the collector timers must actually
/// complete passes during the run (a pass is a scan; it happens every
/// `gc_period` whether or not anything is old enough to recycle).
#[test]
fn async_drive_runs_gc_collectors() {
    let opts = DriveOptions {
        gc: true,
        gc_period: Duration::from_millis(200),
        ..test_opts(4, 120, 3)
    };
    let run = drive_app("travel", Mode::Beldi, MixProfile::Default, &opts);
    assert_eq!(run.errors, 0, "{run:?}");
    assert!(run.gc);
    assert!(
        run.counters.get(Metric::GcPasses) >= 1,
        "the collectors completed no GC pass: {:?}",
        run.counters
    );
}

/// A run's counters are the registry's, by name: every key a report
/// carries is a `Metric` name of a counter the run moved, and a travel
/// drive reports the commits its transactions ran.
#[test]
fn counters_are_the_registrys_names() {
    let run = drive_app(
        "travel",
        Mode::Beldi,
        MixProfile::Default,
        &test_opts(2, 40, 5),
    );
    assert!(
        run.counters.get(Metric::TxnCommit) > 0,
        "{:?}",
        run.counters
    );
    let encoded = run.to_value();
    let counters = encoded
        .get_attr("counters")
        .and_then(Value::as_map)
        .unwrap();
    let names: Vec<&str> = Metric::ALL.iter().map(|m| m.as_str()).collect();
    for (name, count) in counters.iter() {
        assert!(
            names.contains(&name.as_str()),
            "{name} is no registry counter"
        );
        assert!(
            count.as_int().unwrap() > 0,
            "{name}: an unmoved counter is absent"
        );
    }
    assert!(counters.len() > 10, "{counters:?}");
}

#[test]
fn run_report_fields_are_sound() {
    let run = drive_app(
        "media",
        Mode::Beldi,
        MixProfile::Default,
        &test_opts(2, 30, 9),
    );
    assert_eq!(run.ops, 30);
    assert_eq!(run.errors, 0);
    assert!(run.elapsed_virtual_us > 0);
    assert!(run.throughput_rps > 0.0);
    assert!(run.counters.db_ops() > 0);
    assert!(run.latency.p50_us <= run.latency.p99_us);
    assert!(run.latency.p99_us <= run.latency.max_us);
    assert_eq!(run.key(), "media/beldi/w2");
}

/// The GC-under-load conservation law: a drive with online GC racing the
/// workers must land on the *identical* app-state fingerprint as the
/// GC-free run, while the metadata tables (intents, logs) stop growing
/// instead of scaling with request count. `T` (4 s) is a small fraction
/// of the run's virtual duration, so recycling reaches steady state
/// inside the measured window.
#[test]
fn online_gc_conserves_state_and_bounds_storage() {
    let opts = DriveOptions {
        workers: 4,
        total_ops: 200,
        seed: 13,
        model_latency: true,
        gc: true,
        gc_period: Duration::from_secs(1),
        ..DriveOptions::default()
    };
    let nogc = DriveOptions {
        gc: false,
        ..opts.clone()
    };
    for (kind, mode) in [("travel", Mode::Beldi), ("media", Mode::Beldi)] {
        let with_gc = drive_app(kind, mode, MixProfile::Default, &opts);
        let without = drive_app(kind, mode, MixProfile::Default, &nogc);
        assert_eq!(with_gc.errors, 0, "{kind}: {with_gc:?}");
        assert_eq!(without.errors, 0, "{kind}");
        // Conservation: online GC must not change a single app-visible bit.
        assert_eq!(
            with_gc.state_digest, without.state_digest,
            "{kind}: online GC changed the final application state"
        );

        // Bounded storage: the collectors actually ran and recycled, and
        // the end-of-run metadata footprint is far below the GC-free
        // run's (which retains every intent/log row of all 200 requests).
        let count = |m| with_gc.counters.get(m);
        assert!(count(Metric::GcPasses) > 0, "{kind}: no GC pass completed");
        assert!(
            count(Metric::GcRecycledIntents) > 0,
            "{kind}: nothing was recycled"
        );
        assert_eq!(count(Metric::GcCorruptChains), 0, "{kind}");
        let last = with_gc.samples.last().unwrap();
        let nogc_meta = without.samples.last().unwrap().meta_rows;
        assert!(
            last.meta_rows * 2 < nogc_meta,
            "{kind}: GC left {} metadata rows vs {} without GC — not bounded",
            last.meta_rows,
            nogc_meta
        );
        // And the growth gate accepts the run.
        let failures = beldi_workload::growth_gate(&report_of(with_gc, &opts), GC_T_MAX);
        assert!(failures.is_empty(), "{kind}: {failures:?}");
    }
}
