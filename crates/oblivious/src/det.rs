//! Deterministic hashed containers.
//!
//! `std::collections::HashMap` seeds SipHash from process-global randomness,
//! so its iteration order — and therefore the order in which the store's
//! merge/re-order pipeline consumes the DRBG — differs between runs. That was
//! the source of the last-digit drift in fig12a/fig12b/security_analysis
//! outputs (see ROADMAP). These aliases keep the O(1) hash-map shape on the
//! hot paths (buffer index, level manifests, membership, fetch sets) but swap
//! the hasher for a fixed-key FxHash-style mixer, so two runs of the same
//! program produce bit-for-bit identical behaviour.
//!
//! FxHash (the rustc-internal hasher) was chosen over `BTreeMap` after
//! benching both under `oblivious_baseline`: the map operations sit on the
//! read path (a lookup per level per read) where the Fx mixer's single
//! multiply beats tree descent, and determinism only needs a fixed key, not
//! ordering. The hasher is NOT collision-resistant against adversarial keys;
//! every key hashed here is a logical block id chosen by the store itself.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` with a fixed-seed deterministic hasher.
pub type DetHashMap<K, V> = HashMap<K, V, BuildHasherDefault<DetHasher>>;

/// A `HashSet` with a fixed-seed deterministic hasher.
pub type DetHashSet<K> = HashSet<K, BuildHasherDefault<DetHasher>>;

/// The FxHash multiplier: pi's fraction bits, the same constant rustc uses.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fixed-key FxHash-style hasher: rotate, xor, multiply per 8-byte word.
#[derive(Debug, Clone, Copy, Default)]
pub struct DetHasher {
    hash: u64,
}

impl DetHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for DetHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let (words, rest) = bytes.as_chunks::<8>();
        for &word in words {
            self.add_to_hash(u64::from_le_bytes(word));
        }
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail) | ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(f: impl Fn(&mut DetHasher)) -> u64 {
        let mut h = DetHasher::default();
        f(&mut h);
        h.finish()
    }

    #[test]
    fn same_input_same_hash() {
        assert_eq!(
            hash_of(|h| h.write_u64(0xdead_beef)),
            hash_of(|h| h.write_u64(0xdead_beef))
        );
        assert_eq!(
            hash_of(|h| h.write(b"hello world")),
            hash_of(|h| h.write(b"hello world"))
        );
    }

    #[test]
    fn different_inputs_differ() {
        let a = hash_of(|h| h.write_u64(1));
        let b = hash_of(|h| h.write_u64(2));
        assert_ne!(a, b);
        // Tail length disambiguates short byte strings against zero padding.
        let c = hash_of(|h| h.write(b"ab"));
        let d = hash_of(|h| h.write(b"ab\0"));
        assert_ne!(c, d);
    }

    #[test]
    fn u64_keys_spread_across_buckets() {
        // Sanity: sequential ids must not all collide modulo small powers of
        // two (the failure mode of an identity hash in a HashMap).
        let mut low_bits = DetHashSet::default();
        for id in 0..1024u64 {
            low_bits.insert(hash_of(|h| h.write_u64(id)) & 0xff);
        }
        assert!(
            low_bits.len() > 200,
            "only {} distinct low bytes",
            low_bits.len()
        );
    }

    #[test]
    fn map_iteration_order_is_reproducible() {
        let build = || {
            let mut m: DetHashMap<u64, u64> = DetHashMap::default();
            for id in 0..500u64 {
                m.insert(id * 7919, id);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
