//! A small deterministic hasher for the maps probed on every page fix.
//!
//! std's default `RandomState` is SipHash-1-3 with a per-map random key:
//! resistant to adversarial keys, but a dozen rounds per lookup and a
//! thread-local read per map. The keys here are page numbers and node ids
//! the engine itself produces, so [`FastHasher`] folds each integer in with
//! one add and one multiply (the rustc-hash construction) and rotates the
//! product so its well-mixed high bits pick the bucket. It has no state
//! beyond the running word, so a map hashes the same way in every run; the
//! maps that use it are only probed, never iterated, so their order is
//! never observed either.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed through [`FastHasher`]; build with `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// `HashSet` keyed through [`FastHasher`]; build with `FastSet::default()`.
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

/// An odd 64-bit constant with well-spread bits (the one rustc-hash uses).
const K: u64 = 0xF135_7AEA_2E62_A9C5;

/// Multiplicative integer hasher; see the module docs.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher(u64);

impl FastHasher {
    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        let (words, rest) = bytes.as_chunks::<8>();
        for &word in words {
            self.add(u64::from_le_bytes(word));
        }
        for &b in rest {
            self.add(u64::from(b));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash + ?Sized>(value: &T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(value)
    }

    #[test]
    fn hashing_is_deterministic_and_separates_nearby_keys() {
        assert_eq!(hash(&(3u16, 7u32, 1u16)), hash(&(3u16, 7u32, 1u16)));
        let hashes: FastSet<u64> = (0u32..4096).map(|page| hash(&page)).collect();
        assert_eq!(hashes.len(), 4096);
        assert_ne!(hash(&(1u16, 2u32)), hash(&(2u16, 1u32)));
    }

    #[test]
    fn byte_writes_cover_partial_words() {
        assert_ne!(hash(&[1u8; 9][..]), hash(&[1u8; 8][..]));
        assert_ne!(hash("pathix"), hash("pathiy"));
    }

    #[test]
    fn maps_probe_like_std_maps() {
        let mut map: FastMap<u32, usize> = FastMap::default();
        for page in 0..1000u32 {
            map.insert(page * 7, page as usize);
        }
        assert_eq!(map.get(&(42 * 7)), Some(&42));
        assert_eq!(map.get(&1), None);
        assert_eq!(map.remove(&0), Some(0));
        assert_eq!(map.len(), 999);
    }
}
