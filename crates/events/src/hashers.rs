//! Fast non-cryptographic hashing for the workspace's internal maps.
//!
//! Interned expressions carry precomputed structural hashes, and the maps
//! the request path probes above this crate — the ABox's tables in
//! `capra-dl`, tenants, bindings, score entries and feature rows in
//! `capra-core` — are keyed by dense ids the program handed out itself, so
//! lookups reduce to hashing a handful of words and std's keyed SipHash is
//! overkill there. [`MixHasher`] folds words with the same xorshift-multiply
//! mix the interner uses; [`FastMap`] is a `HashMap` using it. The keys are
//! fixed, so a hash is the same in every run and every process.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Xorshift-multiply word mixer (fixed keys; deterministic per process).
pub(crate) fn mix(a: u64, b: u64) -> u64 {
    let mut h = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 29;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ (h >> 32)
}

/// Word-at-a-time hasher over the crate's xorshift-multiply mix.
#[derive(Default)]
pub struct MixHasher(u64);

impl Hasher for MixHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_ne_bytes(buf));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = mix(self.0, n);
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// `HashMap` keyed through [`MixHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<MixHasher>>;
