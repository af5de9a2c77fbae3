//! A 300-request smoke of every workload: two in-process runs of one
//! stream must give the same modelled numbers, Beldi and baseline mode
//! must end in the same state, and the HTTP path must cost the same
//! modelled time as the in-process one.

use beldi_benchmark::adapter::{Path, Stream, System, Workload};
use beldi_benchmark::run::{run_pass, set_up, Limits, Pass, WARMUP};
use beldi_benchmark::stats::p50_p99;
use beldi_benchmark::trace::Tracer;

const REQUESTS: usize = 300;

fn one_run(stream: &Stream, system: System, path: Path, n: usize) -> (Pass, u64) {
    let mut off = Tracer::new(false);
    let mut sut = set_up(stream, system, path, &mut off).sut;
    let pass = run_pass(&mut sut, stream, Limits::first(n), &mut off);
    assert_eq!(pass.outcomes.len(), n);
    assert_eq!(
        pass.failed(),
        0,
        "{}: no request may fail",
        stream.workload.name()
    );
    let oracle =
        (stream.workload == Workload::KvZipf).then(|| stream.kv_expected_state(WARMUP + n));
    let (digest, wrong) = sut.state_digest(oracle.as_ref(), &mut off);
    assert_eq!(wrong, 0);
    (pass, digest)
}

fn virt_p50(pass: &Pass) -> f64 {
    let samples: Vec<u64> = pass.outcomes.iter().map(|o| o.virt_ns).collect();
    p50_p99(&samples).0 as f64
}

#[test]
fn two_in_process_runs_agree_on_every_workload() {
    for workload in Workload::ALL {
        let name = workload.name();
        let stream = Stream::generate(workload, 7, WARMUP + REQUESTS);
        let (a, state_a) = one_run(&stream, System::Beldi, Path::InProcess, REQUESTS);
        let (b, state_b) = one_run(&stream, System::Beldi, Path::InProcess, REQUESTS);
        assert_eq!(state_a, state_b, "{name}: state digest");
        // Counts repeat exactly, except that the warm-pool race (ROADMAP,
        // first item) may turn a warm start into a cold one.
        let counts = |p: &Pass| {
            let mut c = p.model.counters;
            c.cold_starts = 0;
            (c, p.model.rows_meta, p.model.rows_data, p.model.sleeps)
        };
        assert_eq!(counts(&a), counts(&b), "{name}: counters");
        let (pa, pb) = (virt_p50(&a), virt_p50(&b));
        assert!(
            (pa - pb).abs() / pa < 0.005,
            "{name}: virt p50 {pa} vs {pb}"
        );
        assert!(a.model.counters.db_ops() > 0 && pa > 0.0);

        let (base, state_base) = one_run(&stream, System::Baseline, Path::InProcess, REQUESTS);
        assert_eq!(state_a, state_base, "{name}: Beldi and baseline state");
        assert!(
            virt_p50(&base) < pa,
            "{name}: baseline must be cheaper than Beldi in modelled time"
        );
    }
}

#[test]
fn http_costs_the_same_modelled_time_as_in_process() {
    let n = 25; // Each round trip waits about 44 ms of wall time.
    let stream = Stream::generate(Workload::SocialFront, 7, WARMUP + n);
    let (wire, state_wire) = one_run(&stream, System::Beldi, Path::Http, n);
    let (direct, state_direct) = one_run(&stream, System::Beldi, Path::InProcess, n);
    assert_eq!(state_wire, state_direct);
    assert!(wire.host.wire_bytes > 0 && direct.host.wire_bytes == 0);
    let same = wire
        .outcomes
        .iter()
        .zip(&direct.outcomes)
        .filter(|(a, b)| a.virt_ns == b.virt_ns)
        .count();
    assert!(
        same + 1 >= n,
        "only {same} of {n} requests cost the same modelled time"
    );
    assert_eq!(wire.model.counters.db_ops(), direct.model.counters.db_ops());
    assert_eq!(
        wire.model.counters.db_bytes(),
        direct.model.counters.db_bytes()
    );
}

#[test]
fn a_per_layer_run_reports_every_metric_benchmark_json_lists() {
    use beldi_benchmark::json::Json;
    let result = beldi_benchmark::run::run_layers(Workload::MediaRead, 7, 2.0);
    assert!(result.correct && result.failed == 0);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
        .expect("BENCHMARK.json parses");
    let listed: Vec<(&str, &str)> = doc
        .get("per_layer")
        .and_then(Json::as_arr)
        .expect("per_layer")
        .iter()
        .filter_map(|m| Some((m.get("name")?.as_str()?, m.get("unit")?.as_str()?)))
        .collect();
    let measured: Vec<(&str, &str)> = result
        .metrics
        .iter()
        .map(|(name, (_, unit))| (name.as_str(), *unit))
        .collect();
    assert_eq!(listed, measured);
    let spans = result
        .trace
        .as_ref()
        .and_then(|t| t.get("spans"))
        .and_then(Json::as_arr);
    assert!(
        spans.is_some_and(|s| s.len() > 10),
        "the traced pass recorded spans"
    );
}
