//! One fixed hasher for every map keyed by a tuple.
//!
//! The commit path's read and write sets, replay's per-key dependency
//! chains, the raw heaps of physical-log recovery and resync's key sets all
//! hash `(TableId, Key)` or `Key` — a few machine words each. std's default
//! SipHash spends more time on those words than the map spends on the rest
//! of the lookup, so these maps use [`KeyHasher`] instead: Fx-style, one
//! multiply-rotate per word, then a final fold.
//!
//! The fold matters. hashbrown takes a bucket from the hash's low bits, and
//! a product's low bits never depend on its factors' high bits — so without
//! the fold, keys that differ only above bit 32 (TPC-C packs warehouse and
//! district into bits 24–48) would share one bucket. `finish` xors the high
//! half onto the low half.
//!
//! The hasher is unseeded on purpose: the same key hashes to the same value
//! in every process, which keeps map behaviour reproducible run to run.
//! That gives up the flooding resistance of a random seed, which only
//! matters when an adversary picks the keys. Here every key comes from the
//! process's own workloads and its own logs; serving requests from the
//! network is not a goal of this system.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The Fx multiplier (odd, high entropy in every byte).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Fx-style word hasher with a final fold (see the module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct KeyHasher {
    hash: u64,
}

impl KeyHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for KeyHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash ^ (self.hash >> 32)
    }
}

/// Builds [`KeyHasher`]s (stateless: every map hashes alike).
pub type BuildKeyHasher = BuildHasherDefault<KeyHasher>;

/// A `HashMap` hashed by [`KeyHasher`].
pub type KeyMap<K, V> = HashMap<K, V, BuildKeyHasher>;

/// A `HashSet` hashed by [`KeyHasher`].
pub type KeySet<K> = HashSet<K, BuildKeyHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyPacker;
    use crate::{Key, TableId};
    use std::hash::BuildHasher;

    fn hash<T: std::hash::Hash>(x: T) -> u64 {
        BuildKeyHasher::default().hash_one(x)
    }

    /// Share of the 2^16 low-16-bit buckets `keys` land in.
    fn low16_spread(keys: impl Iterator<Item = u64>) -> f64 {
        let mut hit = vec![false; 1 << 16];
        for h in keys {
            hit[(h & 0xffff) as usize] = true;
        }
        hit.iter().filter(|&&b| b).count() as f64 / (1 << 16) as f64
    }

    #[test]
    fn hashes_are_fixed_constants() {
        assert_eq!(hash(42u64), 0x5e77_c80c_35e2_747e);
        assert_eq!(hash((TableId::new(3), 42 as Key)), 0xc958_75be_a2bd_f3da);
        // A tuple key hashes as its two words: the id, then the key.
        let mut h = KeyHasher::default();
        h.write_u32(3);
        h.write_u64(42);
        assert_eq!(h.finish(), hash((TableId::new(3), 42 as Key)));
        // Byte input pads its last word with zeros.
        let mut b = KeyHasher::default();
        b.write(&[42, 0, 0]);
        assert_eq!(b.finish(), hash(42u64));
    }

    #[test]
    fn high_key_bits_reach_the_low_hash_bits() {
        let shifted = || (0..1u64 << 16).map(|k| k << 32);
        assert!(low16_spread(shifted().map(hash)) >= 0.6);
        assert!(low16_spread(shifted().map(|k| hash((TableId::new(2), k)))) >= 0.6);

        // The TPC-C packer shapes, varying only the fields above bit 24.
        let customer = KeyPacker::new([16, 8, 24]);
        let stock = KeyPacker::new([16, 24]);
        let order = KeyPacker::new([16, 8, 32]);
        let wd = || (0..256u64).flat_map(|w| (0..256u64).map(move |d| (w, d)));
        let shapes: [(&str, Vec<Key>); 3] = [
            (
                "customer",
                wd().map(|(w, d)| customer.pack([w, d, 0])).collect(),
            ),
            (
                "stock",
                (0..1u64 << 16).map(|w| stock.pack([w, 0])).collect(),
            ),
            ("order", wd().map(|(w, d)| order.pack([w, d, 1])).collect()),
        ];
        for (name, keys) in &shapes {
            let spread = low16_spread(keys.iter().map(|&k| hash((TableId::new(2), k))));
            assert!(spread >= 0.6, "{name}: {spread:.3}");
        }

        // Without the fold, a plain Fx hash maps every shifted key to one
        // low-16-bit bucket.
        let plain = |k: u64| {
            let mut h = KeyHasher::default();
            h.write_u64(k);
            h.hash
        };
        assert!(low16_spread(shifted().map(plain)) < 0.001);
    }
}
