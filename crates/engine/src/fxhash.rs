//! A multiply-rotate hasher for the engine's integer-keyed maps.
//!
//! Page ids, OS-cache chunks, lock keys and full-page-write sets are keyed
//! by integers the simulator itself generates, so resistance to
//! adversarial keys (what SipHash, the std default, pays for) buys
//! nothing, while its per-lookup cost lands on every simulated page
//! access. This is the FxHash scheme: one add and one multiply per word,
//! with the well-mixed high bits of the product rotated down in
//! [`Hasher::finish`] so that keys differing only in their high bits
//! (the table id of a [`crate::bufferpool::PageId`]) still spread over the
//! low bits the table indexes by.
//!
//! Only lookups go through these maps — nothing iterates them in an order
//! that reaches the output — so the choice of hasher cannot change a
//! simulated result.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-distributed bits (as in rustc's FxHasher).
const K: u64 = 0xF135_7AEA_2E62_A9C5;

/// See the module docs.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed through [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn equal_keys_hash_equal_and_neighbours_differ() {
        assert_eq!(hash_of(42u64), hash_of(42u64));
        assert_ne!(hash_of(42u64), hash_of(43u64));
        assert_ne!(hash_of((1u32, 7u64)), hash_of((7u32, 1u64)));
    }

    #[test]
    fn table_id_bits_reach_the_low_bits() {
        // Same page number in different tables: the ids differ only above
        // bit 40, yet the low bits a hash table indexes by must differ.
        let lows: HashSet<u64> = (0..64u64).map(|t| hash_of((t << 40) | 5) & 0xFFF).collect();
        assert!(lows.len() > 48, "only {} distinct low-bit patterns", lows.len());
    }

    #[test]
    fn maps_behave_like_std_maps() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        for i in 0..10_000u64 {
            m.insert(i * 4_099, i as u32);
        }
        assert_eq!(m.len(), 10_000);
        assert_eq!(m.get(&(17 * 4_099)), Some(&17));
        assert!(m.remove(&0).is_some());
        assert!(!m.contains_key(&0));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(3));
        assert!(!s.insert(3));
    }
}
