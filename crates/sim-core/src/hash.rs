//! A deterministic multiplicative hasher for the simulator's keyed tables.
//!
//! The machine layers key their per-connection state by small integers
//! (PE pairs, transaction ids, node/address pairs). The standard library's
//! SipHash is built to resist keys crafted to collide, which these
//! internally generated keys never are, and costs several times more per
//! lookup. [`DetHasher`] folds each written word in with one add and one
//! multiply (the rustc `FxHasher` scheme). `finish` takes the full 128-bit
//! product with the multiplier and XORs its halves, so the well-mixed high
//! bits reach the low bits a hash table indexes by — simulated addresses,
//! whose low 24 bits are zero, spread as well as random keys. It is
//! unseeded, so the same inserts build the same table in every run;
//! iteration order is still hash order, which the workspace lint keeps
//! out of simulated state either way.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (from `rustc-hash` 2).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Add-multiply word hasher; see the module docs.
#[derive(Debug, Default, Clone, Copy)]
pub struct DetHasher {
    h: u64,
}

impl DetHasher {
    #[inline]
    fn word(&mut self, w: u64) {
        self.h = self.h.wrapping_add(w).wrapping_mul(K);
    }
}

impl Hasher for DetHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            // panic-ok: chunks_exact yields 8-byte slices
            self.word(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(tail) ^ ((rest.len() as u64) << 59));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.word(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let full = self.h as u128 * K as u128;
        full as u64 ^ (full >> 64) as u64
    }
}

/// Builds [`DetHasher`]s; every instance hashes identically.
pub type DetBuildHasher = BuildHasherDefault<DetHasher>;
/// `HashMap` with the deterministic hasher. Construct with `default()`.
pub type DetHashMap<K, V> = HashMap<K, V, DetBuildHasher>;
/// `HashSet` with the deterministic hasher. Construct with `default()`.
pub type DetHashSet<T> = HashSet<T, DetBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn fresh_maps_from_one_insert_sequence_hash_alike() {
        let keys: Vec<(u32, u32)> = (0..500).map(|i| (i * 7 % 97, i / 3)).collect();
        let build = || {
            let mut m: DetHashMap<(u32, u32), u64> = DetHashMap::default();
            for (i, k) in keys.iter().enumerate() {
                m.insert(*k, i as u64);
            }
            m
        };
        let (a, b) = (build(), build());
        for k in &keys {
            assert_eq!(a.hasher().hash_one(k), b.hasher().hash_one(k));
        }
        // Same hashes and same inserts: the tables are laid out alike.
        let order = |m: &DetHashMap<(u32, u32), u64>| m.keys().copied().collect::<Vec<_>>();
        assert_eq!(order(&a), order(&b));
    }

    #[test]
    fn zero_low_bits_still_spread_over_low_hash_bits() {
        // Simulated addresses are multiples of 2^24; the table indexes by
        // the low hash bits, so those must still vary.
        let s = DetBuildHasher::default();
        let low: DetHashSet<u64> = (1..=256u64).map(|i| s.hash_one(i << 24) & 0xff).collect();
        assert!(low.len() > 128, "only {} distinct low bytes", low.len());
    }

    #[test]
    fn byte_writes_distinguish_lengths() {
        let s = DetBuildHasher::default();
        assert_ne!(
            s.hash_one([0u8; 3].as_slice()),
            s.hash_one([0u8; 4].as_slice())
        );
    }
}
