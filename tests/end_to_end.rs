//! Workspace-level integration tests: the full stack — applications from
//! `beldi-apps`, the Beldi runtime, the simulated platform and database,
//! collectors on timers, fault injection, and the workload driver —
//! exercised together the way the paper's evaluation deploys them.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use beldi_repro::apps::rng::request_rng;
use beldi_repro::apps::{MediaApp, SocialApp, TravelApp, WorkflowApp};
use beldi_repro::beldi::{BeldiConfig, BeldiEnv, Mode, StormPolicy};
use beldi_repro::simclock::Metric;
use beldi_repro::value::{vmap, Value};
use beldi_repro::workload::{run_clients, Client, Executor, Histogram};

/// Every app serves its full request mix in every mode.
#[test]
fn all_apps_serve_their_mix_in_all_modes() {
    for mode in [Mode::Beldi, Mode::CrossTable, Mode::Baseline] {
        let cfg = match mode {
            Mode::Beldi => BeldiConfig::beldi(),
            Mode::CrossTable => BeldiConfig::cross_table(),
            Mode::Baseline => BeldiConfig::baseline(),
        };
        let env = BeldiEnv::for_tests_with(cfg);
        let travel = TravelApp {
            hotels: 6,
            flights: 6,
            users: 4,
            rooms_per_hotel: 50,
            seats_per_flight: 50,
            ..TravelApp::default()
        };
        let media = MediaApp {
            movies: 6,
            users: 4,
            ..MediaApp::default()
        };
        let social = SocialApp {
            users: 6,
            follows_per_user: 2,
            ..SocialApp::default()
        };
        travel.install(&env);
        media.install(&env);
        social.install(&env);
        travel.seed(&env).unwrap();
        media.seed(&env).unwrap();
        social.seed(&env).unwrap();
        let mut rng = request_rng(99);
        for _ in 0..15 {
            env.invoke(travel.entry(), travel.request(&mut rng))
                .unwrap_or_else(|e| panic!("travel in {mode:?}: {e}"));
            env.invoke(media.entry(), media.request(&mut rng))
                .unwrap_or_else(|e| panic!("media in {mode:?}: {e}"));
            env.invoke(social.entry(), social.request(&mut rng))
                .unwrap_or_else(|e| panic!("social in {mode:?}: {e}"));
        }
    }
}

/// The paper's headline consistency claim, end to end: under crash
/// storms with collectors running on timers, the travel app's two
/// inventory legs never drift on Beldi. Whether a storm leaves an instance
/// only the timer-driven intent collector can finish depends on where its
/// seed kills; across the two storms, one does.
#[test]
fn travel_inventory_consistent_under_crash_storm() {
    let restarted: u64 = [0xABCD, 0xABCE].into_iter().map(reserve_under_storm).sum();
    assert!(
        restarted > 0,
        "the timer-driven intent collector never re-launched a killed instance"
    );
}

/// Reserves under a storm seeded `seed`; asserts the legs did not drift
/// and returns how many instances the intent collector re-launched.
fn reserve_under_storm(seed: u64) -> u64 {
    // Modelled storage latency makes the storm take virtual time (a few
    // seconds per client), and the collector periods are sized to it so
    // that both collectors tick many times while requests are in flight.
    let cfg = BeldiConfig::beldi()
        .with_ic_restart_delay(Duration::from_millis(200))
        .with_collector_period(Duration::from_millis(500))
        .with_t_max(Duration::from_secs(120));
    let env = BeldiEnv::builder(cfg)
        .latency(beldi_repro::simdb::LatencyModel::dynamo())
        .build();
    let app = TravelApp {
        hotels: 8,
        flights: 8,
        users: 4,
        rooms_per_hotel: 5,
        seats_per_flight: 5,
        transactional: true,
        ..TravelApp::default()
    };
    app.install(&env);
    app.seed(&env).unwrap();
    env.start_collectors();
    env.platform().faults().set_storm_policy(Some(StormPolicy {
        ssf_prob: 0.01,
        collector_prob: 0.01,
        max_crashes: 60,
        seed,
    }));

    let env = Arc::new(env);
    let reserved = Arc::new(AtomicI64::new(0));
    let clients: Vec<_> = (0..6u64)
        .map(|t| {
            let (e, app, reserved) = (Arc::clone(&env), app.clone(), Arc::clone(&reserved));
            let client = move || {
                let mut rng = request_rng(t);
                for _ in 0..10 {
                    if let Ok(out) = e.invoke(app.entry(), app.reserve_request(&mut rng)) {
                        if out.get_str("status") == Some("reserved") {
                            reserved.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            };
            env.clock().spawn(format!("client-{t}"), Box::new(client))
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    let total_reserved = reserved.load(Ordering::Relaxed);
    env.platform().faults().set_storm_policy(None);
    env.stop_collectors();

    let (rooms, seats) = app.remaining_inventory(&env).unwrap();
    assert_eq!(rooms, seats, "legs must never drift under Beldi");
    assert_eq!(
        rooms,
        8 * 5 - total_reserved,
        "every successful reservation decremented exactly one room"
    );
    env.telemetry().get(Metric::IcRestarted)
}

/// The same storm on the baseline shows the motivating anomaly: retrying
/// a request (what the provider's restart does) duplicates its effects.
#[test]
fn baseline_duplicates_reservations_on_retry() {
    let env = BeldiEnv::for_tests_with(BeldiConfig::baseline());
    let app = TravelApp {
        hotels: 4,
        flights: 4,
        users: 2,
        rooms_per_hotel: 10,
        seats_per_flight: 10,
        transactional: true, // begin/end are no-ops in baseline mode.
        ..TravelApp::default()
    };
    app.install(&env);
    app.seed(&env).unwrap();
    let req = vmap! { "op" => "reserve", "user" => "user-0", "hotel" => "hotel-1", "flight" => "flight-1" };
    // One logical reservation, delivered twice (provider retry).
    env.invoke(app.entry(), req.clone()).unwrap();
    env.invoke(app.entry(), req).unwrap();
    let (rooms, seats) = app.remaining_inventory(&env).unwrap();
    // 2 rooms + 2 seats gone for one logical booking.
    assert_eq!(rooms, 38);
    assert_eq!(seats, 38);
}

/// Open-loop load through the workload driver against a real app, with
/// collectors running: the full Figs. 14/15/26 pipeline in miniature.
#[test]
fn load_driver_runs_media_app_under_timers() {
    // The run lasts two virtual seconds: a half-second period has every
    // collector tick beside the load.
    let cfg = BeldiConfig::beldi().with_collector_period(Duration::from_millis(500));
    let env = BeldiEnv::for_tests_with(cfg);
    let app = MediaApp {
        movies: 10,
        users: 6,
        ..MediaApp::default()
    };
    app.install(&env);
    app.seed(&env).unwrap();
    env.start_collectors();
    let env = Arc::new(env);
    // 60 arrivals per virtual second, 16 in flight.
    let clients = (0..120u32).map(|i| Client {
        issuer: format!("arrival-{i}"),
        start: Duration::from_secs(1) / 60 * i,
        requests: vec![app.request(&mut request_rng(1000 + u64::from(i)))],
    });
    let rt = Executor::new(env.clock().clone(), 7);
    let outcomes = run_clients(&rt, &env, app.entry(), clients.collect(), 16);
    env.stop_collectors();
    assert!(
        env.telemetry().get(Metric::GcPasses) > 0,
        "no collector ticked"
    );
    assert!(outcomes.iter().all(|o| o.ok), "all requests served");
    let mut latency = Histogram::new();
    outcomes.iter().for_each(|o| latency.record(o.latency));
    let latency = latency.percentiles();
    assert_eq!(latency.count, 120);
    assert!(latency.p99 >= latency.p50);
}

/// Garbage collection keeps total storage bounded across a long run of a
/// real application (logs + intents + DAAL rows all pruned).
#[test]
fn storage_stays_bounded_under_gc() {
    let cfg = BeldiConfig::beldi()
        .with_row_capacity(4)
        .with_t_max(Duration::from_millis(80));
    let env = BeldiEnv::for_tests_with(cfg);
    let app = SocialApp {
        users: 5,
        follows_per_user: 2,
        ..SocialApp::default()
    };
    app.install(&env);
    app.seed(&env).unwrap();

    let intent_rows = |env: &BeldiEnv| {
        let mut n = 0;
        for ssf in beldi_repro::apps::social::SSFS {
            n += env
                .db()
                .scan_all(
                    &format!("{ssf}.intent"),
                    &beldi_repro::simdb::ScanRequest::all(),
                )
                .map(|r| r.len())
                .unwrap_or(0);
        }
        n
    };

    let mut rng = request_rng(3);
    for round in 0..4 {
        for _ in 0..8 {
            env.invoke(app.entry(), app.request(&mut rng)).unwrap();
        }
        // Two GC passes with a T-wait between them recycle the round.
        for ssf in beldi_repro::apps::social::SSFS {
            env.run_gc_once(ssf).unwrap();
        }
        env.clock().sleep(Duration::from_millis(150));
        for ssf in beldi_repro::apps::social::SSFS {
            env.run_gc_once(ssf).unwrap();
        }
        let _ = round;
    }
    let remaining = intent_rows(&env);
    assert!(
        remaining <= 4,
        "intents must be recycled (found {remaining})"
    );
}

/// Data sovereignty across the whole deployment: one SSF cannot name
/// another's tables even when they share the environment.
#[test]
fn sovereignty_holds_across_apps() {
    let env = BeldiEnv::for_tests();
    env.register_ssf(
        "intruder",
        &[],
        Arc::new(|ctx, _| ctx.read("users", "user-1")),
    );
    let media = MediaApp {
        movies: 2,
        users: 2,
        ..MediaApp::default()
    };
    media.install(&env);
    media.seed(&env).unwrap();
    let out = env.invoke("intruder", Value::Null);
    assert!(out.is_err(), "intruder read another SSF's table");
}
