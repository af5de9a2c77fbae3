//! The generators: same seed, same bytes; another seed, another stream;
//! the Zipf sampler draws what the theory says.

use beldi_benchmark::adapter::{Stream, Workload};
use beldi_benchmark::gen::{
    kv_stream, kv_stream_digest, KvOpKind, KvOracle, Rng, Zipf, KV_KEYS, KV_THETA,
};

#[test]
fn same_seed_gives_the_same_stream_and_another_seed_another() {
    for workload in Workload::ALL {
        let digest = |seed| Stream::generate(workload, seed, 300).digest(300);
        assert_eq!(digest(42), digest(42), "{}", workload.name());
        assert_ne!(digest(42), digest(43), "{}", workload.name());
    }
    assert_eq!(kv_stream(7, 500), kv_stream(7, 500));
    assert_ne!(
        kv_stream_digest(&kv_stream(7, 500)),
        kv_stream_digest(&kv_stream(8, 500))
    );
}

#[test]
fn a_longer_stream_extends_a_shorter_one() {
    // The driver sizes the stream from `--seconds`; the prefix the pinned
    // digests cover must not depend on it.
    for workload in Workload::ALL {
        let short = Stream::generate(workload, 42, 200).digest(200);
        let long = Stream::generate(workload, 42, 900).digest(200);
        assert_eq!(short, long, "{}", workload.name());
    }
}

#[test]
fn kv_mix_is_half_reads_and_a_twentieth_conditional() {
    let stream = kv_stream(3, 20_000);
    let total = (stream.len() * 8) as f64;
    let share = |kind| stream.iter().flatten().filter(|op| op.kind == kind).count() as f64 / total;
    assert!((share(KvOpKind::Read) - 0.50).abs() < 0.01);
    assert!((share(KvOpKind::Write) - 0.45).abs() < 0.01);
    assert!((share(KvOpKind::CondWrite) - 0.05).abs() < 0.005);
}

#[test]
fn zipf_head_share_is_within_one_percent_of_theory() {
    let zipf = Zipf::new(KV_KEYS, KV_THETA);
    // Theory, summed independently of the sampler's table.
    let weight = |r: usize| 1.0 / ((r + 1) as f64).powf(KV_THETA);
    let total: f64 = (0..KV_KEYS).map(weight).sum();
    for head in [1usize, 10, 1_000] {
        let theory: f64 = (0..head).map(weight).sum::<f64>() / total;
        assert!((zipf.head_share(head) - theory).abs() < 1e-9);
        let mut rng = Rng::new(11);
        let draws = 400_000;
        let hits = (0..draws).filter(|_| zipf.sample(&mut rng) < head).count();
        let drawn = hits as f64 / draws as f64;
        assert!(
            (drawn - theory).abs() / theory < 0.01,
            "hottest {head}: drew {drawn:.5}, theory {theory:.5}"
        );
    }
    let mut rng = Rng::new(12);
    assert!((0..100_000).all(|_| zipf.sample(&mut rng) < KV_KEYS));
}

#[test]
fn oracle_models_reads_writes_and_conditional_writes() {
    use beldi_benchmark::gen::{kv_initial, kv_reply_cond, kv_reply_read, kv_value, Fnv, KvOp};
    let seed = 5;
    let mut oracle = KvOracle::new(seed);
    let op = |kind, key, arg| KvOp { kind, key, arg };
    let first = kv_initial(seed, 9);
    let request = [
        op(KvOpKind::Read, 9, 0),
        op(KvOpKind::Write, 9, 100),
        op(KvOpKind::CondWrite, 9, 50),  // 100 <= 50 fails.
        op(KvOpKind::CondWrite, 9, 200), // 100 <= 200 holds.
        op(KvOpKind::Read, 9, 0),
        op(KvOpKind::Read, 10, 0),
        op(KvOpKind::Read, 10, 0),
        op(KvOpKind::Read, 10, 0),
    ];
    let mut expect = Fnv::new();
    kv_reply_read(&mut expect, &kv_value(first));
    kv_reply_cond(&mut expect, false);
    kv_reply_cond(&mut expect, true);
    kv_reply_read(&mut expect, &kv_value(200));
    for _ in 0..3 {
        kv_reply_read(&mut expect, &kv_value(kv_initial(seed, 10)));
    }
    assert_eq!(oracle.apply(&request), expect.finish());
    assert_eq!(oracle.written().collect::<Vec<_>>(), vec![(9, 200)]);
    // Hex of equal width sorts like the number it spells.
    assert!(kv_value(0x0f) < kv_value(0x10) && kv_value(0x10) < kv_value(0xa0));
    assert_eq!(kv_value(1).len(), 64);
}
