//! Figures 14, 15 and 26: median and 99th-percentile response time
//! versus throughput for the movie review service (§7.4), the travel
//! reservation service (§7.4) and the social media site (Appendix C.1).
//!
//! Load is issued open-loop at a constant rate per point (the wrk2
//! methodology), with requests drawn from each app's read-heavy
//! DeathStarBench-derived mix. The platform enforces a
//! concurrent-instance cap — the paper's saturation bottleneck.
//!
//! `fig15` differs from the other two. Beldi runs the hotel + flight
//! reservation as a cross-SSF transaction; the baseline runs the same
//! code without guarantees and can leave inconsistent inventory. A third
//! series reproduces the paper's "Beldi for fault-tolerance but without
//! transactions" configuration, whose latency at saturation the paper
//! reports ~16–20% below transactional Beldi. It also reports the
//! *consistency check*: how far the two inventory legs drifted apart (0
//! for transactional Beldi).

use std::sync::Arc;
use std::time::Duration;

use beldi::Mode;
use beldi_apps::{MediaApp, SocialApp, TravelApp, WorkflowApp};

use crate::cli::{Args, Cli};
use crate::{app_env, print_table, sweep_app, sweep_rows, SWEEP_HEADERS};

/// One series of a figure: its label, the system it runs as, and whether
/// the app wraps its writes in a transaction (travel only).
type Series = (&'static str, Mode, bool);

/// What distinguishes one latency-vs-throughput figure from another.
struct Figure {
    name: &'static str,
    title: &'static str,
    app: fn(transactional: bool) -> Arc<dyn WorkflowApp>,
    /// Request `i` is drawn from `request_rng(seed + i)`.
    seed: u64,
    series: &'static [Series],
}

const BASELINE_VS_BELDI: &[Series] = &[
    ("baseline", Mode::Baseline, true),
    ("beldi", Mode::Beldi, true),
];

const FIGURES: [Figure; 3] = [
    Figure {
        name: "fig14",
        title: "Figure 14: movie review service, latency vs throughput (ms, virtual)",
        app: |_| Arc::new(MediaApp::default()),
        seed: 0x14D1A,
        series: BASELINE_VS_BELDI,
    },
    Figure {
        name: "fig15",
        title: "Figure 15: travel reservation, latency vs throughput (ms, virtual)",
        app: |transactional| {
            Arc::new(TravelApp {
                // Small per-hotel inventory so contention (and, without
                // transactions, inconsistency) actually occurs during
                // the run.
                rooms_per_hotel: 100_000,
                seats_per_flight: 100_000,
                transactional,
                ..TravelApp::default()
            })
        },
        seed: 0x7EA731,
        series: &[
            ("baseline", Mode::Baseline, true),
            ("beldi", Mode::Beldi, true),
            ("beldi-notxn", Mode::Beldi, false),
        ],
    },
    Figure {
        name: "fig26",
        title: "Figure 26: social media site, latency vs throughput (ms, virtual)",
        app: |_| Arc::new(SocialApp::default()),
        seed: 0x50C1A1,
        series: BASELINE_VS_BELDI,
    },
];

pub(crate) fn flags(cli: Cli) -> Cli {
    cli.flag(
        "--duration-ms",
        "MS",
        "3000",
        "virtual time driven per rate point",
    )
    .flag("--issuers", "N", "192", "open-loop request issuer threads")
    .flag(
        "--max-rate",
        "RPS",
        "800",
        "highest offered rate in the sweep",
    )
}

pub(crate) fn main(args: &Args) {
    let figure = FIGURES
        .iter()
        .find(|f| f.name == args.subcommand())
        .expect("the subcommand table names only these figures");
    let duration = Duration::from_millis(args.u64("--duration-ms"));
    let issuers = args.usize("--issuers");
    let max_rate = args.f64("--max-rate");
    let rates: Vec<f64> = (1..=8).map(|i| max_rate * i as f64 / 8.0).collect();

    let mut rows = Vec::new();
    for &(system, mode, transactional) in figure.series {
        let make_env = || app_env(mode);
        let app = (figure.app)(transactional);
        let points = sweep_app(&make_env, &app, figure.seed, &rates, duration, issuers);
        rows.extend(sweep_rows(system, &points));
    }
    print_table(figure.title, &SWEEP_HEADERS, &rows);

    if figure.name == "fig15" {
        travel_consistency(figure.series);
    }
}

/// Figure 15's companion: run a burst of contended reservations on each
/// system and report leg drift (rooms vs seats must move in lockstep iff
/// the reservation is transactional).
fn travel_consistency(series: &[Series]) {
    let mut consistency = Vec::new();
    for &(system, mode, transactional) in series {
        let env = Arc::new(app_env(mode));
        let app = Arc::new(TravelApp {
            rooms_per_hotel: 2,
            seats_per_flight: 2,
            hotels: 10,
            flights: 10,
            transactional,
            ..TravelApp::default()
        });
        app.install(&env);
        app.seed(&env);
        let clock = env.clock().clone();
        let clients: Vec<_> = (0..8)
            .map(|t| {
                let (env, app) = (Arc::clone(&env), Arc::clone(&app));
                let client = move || {
                    let mut rng = beldi_apps::rng::request_rng(0xC0 + t);
                    for _ in 0..12 {
                        env.invoke(app.entry(), app.reserve_request(&mut rng)).ok();
                    }
                };
                clock.spawn(format!("client-{t}"), Box::new(client))
            })
            .collect();
        for client in clients {
            client.join().expect("a reservation client panicked");
        }
        let (rooms, seats) = app.remaining_inventory(&env);
        consistency.push(vec![
            system.to_owned(),
            rooms.to_string(),
            seats.to_string(),
            (rooms - seats).abs().to_string(),
        ]);
    }
    print_table(
        "Figure 15 companion: inventory consistency after contended reservations",
        &["system", "rooms_left", "seats_left", "leg_drift"],
        &consistency,
    );
}
