//! Percentiles, quartiles, windows and verdicts.

use beldi_benchmark::compare::{verdict, Verdict};
use beldi_benchmark::host::NOMINAL_UNITS_PER_S;
use beldi_benchmark::json::Json;
use beldi_benchmark::run::HostWindow;
use beldi_benchmark::spec::{end_to_end, END_TO_END, SETUP_FLOOR_S};
use beldi_benchmark::stats::{iqr_share, median, p50_p99, percentile, quartiles, range_share};

#[test]
fn percentile_is_nearest_rank() {
    let sorted: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile(&sorted, 50.0), 50);
    assert_eq!(percentile(&sorted, 99.0), 99);
    assert_eq!(percentile(&sorted, 100.0), 100);
    assert_eq!(percentile(&sorted, 0.0), 1);
    assert_eq!(percentile(&[7], 99.0), 7);
    // 3,000 samples leave 30 beyond the 99th percentile.
    let many: Vec<u64> = (1..=3_000).collect();
    assert_eq!(percentile(&many, 99.0), 2_970);
    assert_eq!(p50_p99(&[5, 1, 4, 2, 3]), (3, 5));
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
    assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
    assert_eq!(median(&ten), 5.5);
    assert!((iqr_share(&ten) - 1.0).abs() < 1e-12);
    assert!((range_share(&[90.0, 100.0, 110.0]) - 0.2).abs() < 1e-12);
}

#[test]
fn window_rates() {
    // Without a yardstick reading the host counts as nominal.
    let w = HostWindow {
        requests: 4_500,
        wall_s: 15.0,
        ..HostWindow::default()
    };
    assert_eq!(
        (w.raw_req_per_s(), w.speed_x(), w.req_per_s()),
        (300.0, 1.0, 300.0)
    );

    // A host at half the nominal speed: the same work took twice as long.
    let slow = HostWindow {
        requests: 4_500,
        wall_s: 30.0,
        cpu_s: 30.0,
        yard_units: (NOMINAL_UNITS_PER_S / 2.0) as u64,
        yard_wall_s: 1.0,
        ..HostWindow::default()
    };
    assert_eq!(slow.raw_req_per_s(), 150.0);
    assert_eq!(slow.speed_x(), 0.5);
    assert_eq!(slow.req_per_s(), 300.0);
    assert_eq!(slow.cpu_ms(), 15_000.0);

    // Waiting does not get faster on a faster host: only the busy tenth
    // of this window is scaled.
    let waiting = HostWindow { cpu_s: 3.0, ..slow };
    assert_eq!(waiting.req_per_s(), 4_500.0 / 28.5);
}

#[test]
fn verdicts_follow_direction_bound_and_spread() {
    let p50 = end_to_end("virt_p50_ms").expect("in the table");
    let bound = p50.same_seed_bound;
    assert_eq!(
        verdict(p50, 100.0, 100.0 * (1.0 + bound) - 0.01, 0.0, 0.0),
        Verdict::Ok
    );
    assert_eq!(
        verdict(p50, 100.0, 100.0 * (1.0 + bound) + 0.01, 0.0, 0.0),
        Verdict::Regressed
    );
    assert_eq!(
        verdict(p50, 100.0, 50.0, 0.0, 0.0),
        Verdict::Ok,
        "lower is better"
    );
    assert_eq!(
        verdict(p50, 100.0, 100.0, 0.0, 2.0 * bound),
        Verdict::Unresolved
    );

    let rate = end_to_end("host_req_per_s").expect("in the table");
    let bound = rate.same_seed_bound;
    assert_eq!(
        verdict(rate, 300.0, 400.0, 0.0, 0.0),
        Verdict::Ok,
        "higher is better"
    );
    assert_eq!(
        verdict(rate, 300.0, 300.0 * (1.0 - bound) - 1.0, 0.0, 0.0),
        Verdict::Regressed
    );
    for m in &END_TO_END {
        assert!(
            m.bound <= 0.25 && m.same_seed_bound <= m.bound,
            "{}",
            m.name
        );
    }

    // A quarter of a 0.2 s set-up is noise: the floor applies.
    let setup = end_to_end("setup_s").expect("in the table");
    assert_eq!(
        verdict(setup, 0.2, 0.2 + SETUP_FLOOR_S - 0.01, 0.9, 0.9),
        Verdict::Ok
    );
    assert_eq!(
        verdict(setup, 0.2, 0.2 + SETUP_FLOOR_S + 0.01, 0.0, 0.0),
        Verdict::Regressed
    );
    assert_eq!(verdict(setup, 4.0, 5.1, 0.0, 0.0), Verdict::Regressed);
}

#[test]
fn benchmark_json_agrees_with_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
        .expect("BENCHMARK.json parses");
    let keys: Vec<&str> = doc
        .as_obj()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(beldi_benchmark::spec::RUN_SECONDS)
    );
    let listed = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end");
    assert_eq!(listed.len(), END_TO_END.len());
    for (entry, m) in listed.iter().zip(&END_TO_END) {
        assert_eq!(entry.get("name").and_then(Json::as_str), Some(m.name));
        assert_eq!(
            entry.get("unit").and_then(Json::as_str),
            Some(m.unit),
            "{}",
            m.name
        );
        let better = match m.better {
            beldi_benchmark::spec::Better::Lower => "lower",
            beldi_benchmark::spec::Better::Higher => "higher",
        };
        assert_eq!(
            entry.get("better").and_then(Json::as_str),
            Some(better),
            "{}",
            m.name
        );
        assert_eq!(
            entry.get("bound").and_then(Json::as_f64),
            Some(m.bound),
            "{}",
            m.name
        );
    }
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    let ours: Vec<&str> = beldi_benchmark::adapter::Workload::ALL
        .iter()
        .map(|w| w.name())
        .collect();
    assert_eq!(workloads, ours);
}

#[test]
fn json_round_trips() {
    let text = r#"{"a":[1,2.5,-3e2,true,null],"b":{"c":"x\"y\né"},"d":[]}"#;
    let doc = Json::parse(text).expect("valid JSON");
    assert_eq!(Json::parse(&doc.render()), Ok(doc.clone()));
    assert_eq!(Json::parse(&doc.render_pretty()), Ok(doc.clone()));
    assert_eq!(
        doc.get("a").and_then(Json::as_arr).map(<[Json]>::len),
        Some(5)
    );
    assert_eq!(
        doc.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
        Some("x\"y\né")
    );
    for bad in ["", "{", "[1,]", "{\"a\" 1}", "nul", "1 2", "\"open"] {
        assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
    }
    let deep = "[".repeat(10_000);
    assert!(Json::parse(&deep).is_err(), "nesting is bounded");
}
