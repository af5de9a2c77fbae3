//! Travel booking demo: the paper's flagship cross-SSF transaction.
//!
//! Runs the 10-SSF travel reservation workflow (Fig. 22) and books a trip
//! — hotel room + flight seat — inside a distributed transaction spanning
//! two independently managed SSFs. Then drains a flight and shows the
//! hotel leg rolling back atomically, and finally contrasts the baseline,
//! which leaves the inventory inconsistent under the same workload.
//!
//! ```text
//! cargo run --example travel_booking
//! ```

use std::sync::Arc;

use beldi_repro::apps::{TravelApp, WorkflowApp};
use beldi_repro::beldi::{BeldiConfig, BeldiEnv};
use beldi_repro::value::vmap;

fn app() -> TravelApp {
    TravelApp {
        hotels: 20,
        flights: 20,
        users: 10,
        rooms_per_hotel: 2,
        seats_per_flight: 2,
        transactional: true,
        ..TravelApp::default()
    }
}

fn main() {
    println!("== Searching and booking on Beldi ==");
    let env = BeldiEnv::for_tests();
    let travel = app();
    travel.setup(&env);

    // Search near a location — geo + rate + profile fan-out.
    let results = env
        .invoke(
            travel.entry(),
            vmap! { "op" => "search", "lat" => 2.5, "lon" => 7.1 },
        )
        .expect("search");
    let hotels = results.get_list("hotels").unwrap();
    println!("   nearby hotels: {hotels:?}");

    // Book the top hit with a flight: one ACID transaction across the
    // hotel and flight SSFs.
    let hotel = hotels[0].as_str().unwrap();
    let booking = env
        .invoke(
            travel.entry(),
            vmap! { "op" => "reserve", "user" => "user-1", "hotel" => hotel, "flight" => "flight-5" },
        )
        .expect("reserve");
    println!("   booking: {booking}");
    assert_eq!(booking.get_str("status"), Some("reserved"));

    // Drain flight-0's two seats (distinct hotels, so only the flight
    // runs out), then show atomic rollback.
    for hotel in ["hotel-12", "hotel-13"] {
        let out = env
            .invoke(
                travel.entry(),
                vmap! { "op" => "reserve", "user" => "user-2", "hotel" => hotel, "flight" => "flight-0" },
            )
            .expect("reserve");
        assert_eq!(out.get_str("status"), Some("reserved"));
    }
    let before = env
        .read_current("travel-reserve-hotel", "rooms", "hotel-3")
        .unwrap();
    let sold_out = env
        .invoke(
            travel.entry(),
            vmap! { "op" => "reserve", "user" => "user-3", "hotel" => "hotel-3", "flight" => "flight-0" },
        )
        .expect("reserve");
    let after = env
        .read_current("travel-reserve-hotel", "rooms", "hotel-3")
        .unwrap();
    println!(
        "   flight-0 sold out → status: {:?}",
        sold_out.get_str("status")
    );
    println!("   hotel-3 rooms before/after the failed booking: {before} / {after}");
    assert_eq!(sold_out.get_str("status"), Some("unavailable"));
    assert_eq!(before, after, "hotel leg rolled back atomically");

    let (rooms, seats) = travel.remaining_inventory(&env).unwrap();
    println!("   inventory: rooms={rooms} seats={seats} (moved in lockstep)\n");
    assert_eq!(rooms, seats, "transactional legs never drift");

    println!("== The same contended workload on the baseline ==");
    let env = BeldiEnv::for_tests_with(BeldiConfig::baseline());
    let travel = app();
    travel.setup(&env);
    let env = Arc::new(env);
    // The environment runs on a seeded schedule: its client threads are
    // started through its clock.
    let clients: Vec<_> = (0..8u64)
        .map(|t| {
            let (e, travel) = (Arc::clone(&env), travel.clone());
            let client = move || {
                let mut rng = beldi_repro::apps::rng::request_rng(t);
                for _ in 0..12 {
                    let _ = e.invoke(travel.entry(), travel.reserve_request(&mut rng));
                }
            };
            env.clock().spawn(format!("client-{t}"), Box::new(client))
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    let (rooms, seats) = travel.remaining_inventory(&env).unwrap();
    println!(
        "   inventory: rooms={rooms} seats={seats} → drift = {}",
        (rooms - seats).abs()
    );
    println!("   without transactions the legs drift: the paper's motivating anomaly.");
}
