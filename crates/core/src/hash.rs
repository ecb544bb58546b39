//! Hashing for the request path's maps.
//!
//! The maps a request probes per document or per user — the service's
//! tenant shards, tenants' bindings and score entries, feature rows — are
//! keyed by ids this program handed out itself ([`capra_dl::IndividualId`]
//! is the vocabulary's dense interner index), so std's keyed SipHash buys
//! nothing there and costs more than the probe it guards. [`IdHasher`]
//! folds words with a xorshift-multiply mix instead. No result depends on
//! the order of these maps: what iterates one sums counters, except for two
//! readers of the tenant shards — `TenantSessions::evict_lru`, which takes
//! the minimum over recency stamps that are unique, and `live_users`,
//! whose callers treat the ids as a set (and which iterated a
//! `RandomState` map before).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Word-at-a-time hasher (fixed keys; deterministic).
#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_ne_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let mut h = self.0 ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        self.0 = h ^ (h >> 32);
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }
}

/// `HashMap` keyed through [`IdHasher`].
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
