//! Seeded input generation that needs no workspace symbol: the random
//! number generator, the Zipf sampler, the `kv-zipf` request stream with
//! its oracle, and the FNV digest used for workload identity.

/// FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn new() -> Self {
        Fnv::default()
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// SplitMix64: small, seedable, and good enough to draw workloads.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Exact Zipf sampler over ranks `0..n` (rank 0 is the hottest):
/// `P(rank r) ∝ 1 / (r + 1)^theta`, drawn by binary search in the
/// cumulative table.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf over no keys");
        let mut cdf = Vec::with_capacity(n);
        let mut sum = 0.0;
        for r in 0..n {
            sum += 1.0 / ((r + 1) as f64).powf(theta);
            cdf.push(sum);
        }
        for c in &mut cdf {
            *c /= sum;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|c| *c <= u)
            .min(self.cdf.len() - 1)
    }

    /// The probability that a draw lands in the `k` hottest ranks.
    pub fn head_share(&self, k: usize) -> f64 {
        self.cdf[k.clamp(1, self.cdf.len()) - 1]
    }
}

// ---- kv-zipf -------------------------------------------------------------

/// Keys in the store: twice the DAAL tail-cache capacity (65,536), so
/// the cache cannot hold the working set.
pub const KV_KEYS: usize = 131_072;
pub const KV_THETA: f64 = 0.99;
pub const KV_OPS_PER_REQUEST: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOpKind {
    Read,
    Write,
    /// Write `arg` only if the stored value is at most `arg`.
    CondWrite,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvOp {
    pub kind: KvOpKind,
    pub key: u32,
    /// The value to write, as the number [`kv_value`] spells out.
    pub arg: u64,
}

pub type KvRequest = [KvOp; KV_OPS_PER_REQUEST];

pub fn kv_key(key: u32) -> String {
    format!("k{key:06}")
}

/// The 64-byte value standing for `v`: sixteen hex digits, four times.
/// Fixed-width lowercase hex sorts like the number, which lets the
/// oracle decide conditional writes without the store.
pub fn kv_value(v: u64) -> String {
    format!("{v:016x}").repeat(4)
}

/// The value key `key` is seeded with.
pub fn kv_initial(seed: u64, key: u32) -> u64 {
    mix(seed ^ (u64::from(key) << 32) ^ 0x6b76)
}

/// `n` requests of 50 % reads, 45 % writes and 5 % conditional writes
/// over Zipf-distributed keys.
pub fn kv_stream(seed: u64, n: usize) -> Vec<KvRequest> {
    let zipf = Zipf::new(KV_KEYS, KV_THETA);
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|_| {
            std::array::from_fn(|_| {
                let roll = rng.next_u64() % 100;
                let kind = match roll {
                    0..=49 => KvOpKind::Read,
                    50..=94 => KvOpKind::Write,
                    _ => KvOpKind::CondWrite,
                };
                KvOp {
                    kind,
                    key: zipf.sample(&mut rng) as u32,
                    arg: rng.next_u64(),
                }
            })
        })
        .collect()
}

/// The generator's own model of the store: what every read must return
/// and what every key must hold at the end, worked out without running
/// the program.
pub struct KvOracle {
    seed: u64,
    state: Vec<u64>,
    written: Vec<bool>,
}

impl KvOracle {
    pub fn new(seed: u64) -> Self {
        KvOracle {
            seed,
            state: (0..KV_KEYS as u32).map(|k| kv_initial(seed, k)).collect(),
            written: vec![false; KV_KEYS],
        }
    }

    /// Applies one request and returns the digest of the reply the
    /// program must give (see [`kv_reply_digest`]).
    pub fn apply(&mut self, req: &KvRequest) -> u64 {
        let mut reply = Fnv::new();
        for op in req {
            let slot = &mut self.state[op.key as usize];
            match op.kind {
                KvOpKind::Read => kv_reply_read(&mut reply, &kv_value(*slot)),
                KvOpKind::Write => {
                    *slot = op.arg;
                    self.written[op.key as usize] = true;
                }
                KvOpKind::CondWrite => {
                    let holds = *slot <= op.arg;
                    if holds {
                        *slot = op.arg;
                        self.written[op.key as usize] = true;
                    }
                    kv_reply_cond(&mut reply, holds);
                }
            }
        }
        reply.finish()
    }

    /// Keys written at least once, with the value each must now hold.
    pub fn written(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        (0..KV_KEYS as u32)
            .filter(|k| self.written[*k as usize])
            .map(|k| (k, self.state[k as usize]))
    }

    /// Digest of the whole expected store.
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(self.seed);
        for v in &self.state {
            h.write_u64(*v);
        }
        h.finish()
    }
}

/// Folds one value returned by a read into a reply digest.
pub fn kv_reply_read(reply: &mut Fnv, value: &str) {
    reply.write(b"r");
    reply.write(value.as_bytes());
}

/// Folds one conditional-write outcome into a reply digest.
pub fn kv_reply_cond(reply: &mut Fnv, held: bool) {
    reply.write(if held { b"c1" } else { b"c0" });
}

/// Digest identifying a `kv-zipf` request stream.
pub fn kv_stream_digest(stream: &[KvRequest]) -> u64 {
    let mut h = Fnv::new();
    for op in stream.iter().flatten() {
        h.write(&[op.kind as u8]);
        h.write(&op.key.to_le_bytes());
        h.write_u64(op.arg);
    }
    h.finish()
}
