//! A deterministic, fixed-seed hasher for hot-path maps.
//!
//! `std`'s default `RandomState` seeds SipHash per map instance, which is
//! slow for the short keys this engine hashes (values, tuples, small key
//! slices). This is the classic FxHash multiply-rotate mix (as used by
//! rustc): not collision-resistant against adversaries, fine for trusted
//! workloads. Every [`crate::bag::Bag`] and [`crate::index::HashIndex`]
//! map uses it, and with no per-process seed a key hashes the same in
//! every map, process and run.

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Multiplicative mixing constant (golden-ratio derived, as in rustc's
/// FxHash).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash state: one `u64`, mixed by rotate-xor-multiply per word.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail) | ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
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

/// Zero-sized builder producing [`FxHasher`]s; every map built from it
/// hashes identically.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` with the deterministic fast hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` with the deterministic fast hasher.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// Hash one value with the fixed-seed hasher: the value any map built
/// from [`FxBuildHasher`] hashes it to, stable across processes and runs.
#[inline]
pub fn fx_hash_one<T: Hash + ?Sized>(v: &T) -> u64 {
    let mut h = FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_deterministic_across_hasher_instances() {
        let a = fx_hash_one("dept00042");
        let b = fx_hash_one("dept00042");
        assert_eq!(a, b);
        assert_ne!(fx_hash_one("dept00042"), fx_hash_one("dept00043"));
    }

    #[test]
    fn map_type_aliases_work() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        m.insert("x".into(), 1);
        assert_eq!(m.get("x"), Some(&1));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        s.insert(7);
        assert!(s.contains(&7));
    }

    #[test]
    fn unaligned_tails_do_not_collide_with_padding() {
        // A 3-byte string and the same bytes zero-padded to 8 must differ:
        // the tail word carries its length in the top byte.
        let short = fx_hash_one(b"abc".as_slice());
        let padded = fx_hash_one(b"abc\0\0\0\0\0".as_slice());
        assert_ne!(short, padded);
    }
}
