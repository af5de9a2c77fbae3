//! The `kv-zipf` oracle against the program, and proof that it can fail.

use beldi_benchmark::adapter::{Path, Stream, Sut, System, Workload};
use beldi_benchmark::run::{run_pass, set_up, Limits, WARMUP};
use beldi_benchmark::trace::Tracer;

const REQUESTS: usize = 500;

#[test]
fn oracle_agrees_with_a_500_request_run_in_both_modes() {
    let stream = Stream::generate(Workload::KvZipf, 9, WARMUP + REQUESTS);
    let oracle = stream.kv_expected_state(WARMUP + REQUESTS);
    let mut off = Tracer::new(false);
    let mut digests = Vec::new();
    for system in [System::Beldi, System::Baseline] {
        let mut sut = set_up(&stream, system, Path::InProcess, &mut off).sut;
        let pass = run_pass(&mut sut, &stream, Limits::first(REQUESTS), &mut off);
        assert_eq!(pass.outcomes.len(), REQUESTS);
        assert_eq!(
            pass.failed(),
            0,
            "{system:?}: every reply must match the oracle's"
        );
        let (digest, wrong) = sut.state_digest(Some(&oracle), &mut off);
        assert_eq!(
            wrong, 0,
            "{system:?}: every written key must hold the oracle's value"
        );
        digests.push(digest);

        // The check has teeth: an oracle that stopped early disagrees.
        let stale = stream.kv_expected_state(WARMUP + REQUESTS / 2);
        let (_, wrong) = sut.state_digest(Some(&stale), &mut off);
        assert!(wrong > 0, "{system:?}: a stale oracle must be caught");
    }
    assert_eq!(
        digests[0], digests[1],
        "Beldi and baseline must end in the same state"
    );
    assert!(
        oracle.written().count() > 100,
        "the run must have written many keys"
    );
}

#[test]
fn a_reply_the_oracle_does_not_expect_fails_the_request() {
    // Requests generated for one seed, sent to a store seeded with another:
    // the first read of a key nobody wrote returns a value the oracle of
    // the stream's seed does not expect.
    let stream = Stream::generate(Workload::KvZipf, 1, 50);
    let mut sut = Sut::build(Workload::KvZipf, System::Beldi, 2);
    let mut off = Tracer::new(false);
    let failed = stream
        .requests
        .iter()
        .enumerate()
        .filter(|(i, req)| !sut.issue(*i, req, &mut off).ok)
        .count();
    assert!(failed > 40, "only {failed} of 50 requests were caught");
}
