//! A deterministic 64-bit FNV-1a hasher.
//!
//! `std::collections::hash_map::DefaultHasher` is randomly keyed per
//! process, so anything that must hash identically across runs, threads,
//! or machines — benchmark state digests, and (seeded) storm kills and
//! platform ids — uses this fixed-basis hasher instead.
//! One shared implementation keeps the magic constants in one place.

use std::hash::{Hash, Hasher};

/// FNV-1a offset basis (64-bit).
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a with the fixed offset basis: a deterministic [`Hasher`].
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(OFFSET_BASIS)
    }
}

impl Fnv1a {
    /// Digest of `parts` in order, from the offset basis XOR `seed`: the
    /// same on every host. A caller separates parts of variable length.
    pub fn seeded(seed: u64, parts: &[&[u8]]) -> u64 {
        let mut h = Fnv1a(OFFSET_BASIS ^ seed);
        parts.iter().for_each(|part| h.write(part));
        h.finish()
    }

    /// Digest of one hashable value (e.g. a [`crate::Value`], whose
    /// `Hash` impl is content-based and platform-independent).
    pub fn digest<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut h = Fnv1a::default();
        value.hash(&mut h);
        h.finish()
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        let mut h = Fnv1a::default();
        h.write(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::default();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn digest_is_stable_and_discriminating() {
        assert_eq!(Fnv1a::digest("x"), Fnv1a::digest("x"));
        assert_ne!(Fnv1a::digest("x"), Fnv1a::digest("y"));
        let v = crate::vmap! { "a" => 1i64 };
        assert_eq!(Fnv1a::digest(&v), Fnv1a::digest(&v));
    }
}
