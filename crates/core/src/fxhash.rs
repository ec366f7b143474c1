//! A minimal FxHash-style hasher for integer-keyed maps.
//!
//! The perf guide recommends `rustc-hash`'s Fx algorithm for hot integer keys;
//! since the offline dependency set does not include it, this is a faithful
//! re-implementation of the same multiply-rotate mix. HashDoS resistance is
//! irrelevant here: keys are dense internal ids, never attacker-controlled.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit Fx seed (π-derived constant used by rustc's FxHasher).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fast, non-cryptographic hasher for small integer-like keys.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed with the fast Fx hash. For integer keys: string keys
/// that share a prefix collide in the bucket bits (see [`crate::vocab`]).
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed with the fast Fx hash.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_basic_operations() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.get(&1), Some(&"a"));
        assert_eq!(m.len(), 2);
        m.remove(&1);
        assert!(!m.contains_key(&1));
    }

    #[test]
    fn deterministic_across_instances() {
        let mut h1 = FxHasher::default();
        let mut h2 = FxHasher::default();
        h1.write_u64(0xdead_beef);
        h2.write_u64(0xdead_beef);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn distinct_keys_usually_distinct_hashes() {
        let mut seen = HashSet::new();
        for k in 0u64..10_000 {
            let mut h = FxHasher::default();
            h.write_u64(k);
            seen.insert(h.finish());
        }
        // Fx is not perfect but collisions on sequential u64 are absent.
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn byte_stream_matches_word_writes_for_padding() {
        // write() must consume trailing partial words.
        let mut h1 = FxHasher::default();
        h1.write(&[1, 2, 3]);
        let mut h2 = FxHasher::default();
        h2.write(&[1, 2, 3]);
        assert_eq!(h1.finish(), h2.finish());
        let mut h3 = FxHasher::default();
        h3.write(&[1, 2, 4]);
        assert_ne!(h1.finish(), h3.finish());
    }

    #[test]
    fn set_with_tuples() {
        let mut s: FxHashSet<(u32, u32)> = FxHashSet::default();
        s.insert((1, 2));
        assert!(s.contains(&(1, 2)));
        assert!(!s.contains(&(2, 1)));
    }
}
