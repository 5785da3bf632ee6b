//! A multiply-rotate hasher for the join's id-keyed maps.
//!
//! The engine's per-pair maps — the semi-join estimator's first-item table
//! and `processed` set, the semi-join's per-item `d_max` table and the
//! ids its reported set holds beyond its bit string, the decoded-view
//! cache and the item arena's map for ids too large for its direct
//! tables — are keyed by node and object ids: a few machine words
//! that come from the indexes, never from an adversary. The standard library's SipHash defends against
//! hash flooding that cannot happen here, and it is the dearest part of
//! every lookup on these keys. [`IdHasher`] instead spends one rotate, two
//! xors, a shift and one multiply per word:
//!
//! * the previous state is rotated and xored with the word, whose high half
//!   is first folded onto its low half, so a tag packed into the top bits
//!   (the arena's side and kind) still changes the product's bucket bits;
//! * the multiply by an odd constant carries every input bit upwards;
//! * [`IdHasher::finish`] rotates the well-mixed high product bits down to
//!   where the table takes its bucket index. For sequential ids this is
//!   Fibonacci hashing, which spreads them more evenly than a random hash.
//!
//! The hash is deterministic, so table capacities — and with them the
//! arena's byte accounting — no longer vary from run to run. Nothing
//! observable depends on iteration order: no map built on this hasher is
//! iterated except by a unique tick (the view cache's LRU victim).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier: 2^64 divided by the golden ratio.
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Rotation of the state before each word is mixed in.
const ROUND_ROT: u32 = 5;

/// Rotation in `finish`: brings the top product bits down to bucket bits.
const FINISH_ROT: u32 = 26;

/// Multiply-rotate hasher over machine words; see the module docs.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct IdHasher {
    hash: u64,
}

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROUND_ROT) ^ word ^ (word >> 32)).wrapping_mul(MUL);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
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
        self.hash.rotate_left(FINISH_ROT)
    }
}

/// [`std::hash::BuildHasher`] for [`IdHasher`].
pub(crate) type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A `HashMap` under [`IdHasher`].
pub(crate) type IdHashMap<K, V> = HashMap<K, V, IdBuildHasher>;

/// A `HashSet` under [`IdHasher`].
pub(crate) type IdHashSet<T> = HashSet<T, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    use crate::pair::ItemId;

    fn hash_of<T: Hash>(value: &T) -> u64 {
        IdBuildHasher::default().hash_one(value)
    }

    #[test]
    fn deterministic_and_discriminating() {
        assert_eq!(hash_of(&ItemId::Node(7)), hash_of(&ItemId::Node(7)));
        assert_ne!(hash_of(&ItemId::Node(7)), hash_of(&ItemId::Object(7)));
        assert_ne!(
            hash_of(&(ItemId::Node(1), ItemId::Node(2))),
            hash_of(&(ItemId::Node(2), ItemId::Node(1)))
        );
    }

    #[test]
    fn high_tag_bits_reach_the_bucket_bits() {
        // The item arena packs side and kind into bits 61..63 of its key;
        // keys differing only there must not share a small table's bucket.
        let mask = (1u64 << 10) - 1;
        let id = 12_345u64;
        let buckets: HashSet<u64> = (0..8u64)
            .map(|tag| hash_of(&(tag << 61 | id)) & mask)
            .collect();
        assert_eq!(buckets.len(), 8, "tags collide in the low bits");
    }

    #[test]
    fn sequential_ids_spread_over_buckets() {
        let mask = (1u64 << 12) - 1;
        let used: HashSet<u64> = (0..4096u64).map(|i| hash_of(&i) & mask).collect();
        // A uniform hash fills about 1 - 1/e (63 %) of the buckets;
        // multiplicative hashing of consecutive ids fills nearly all.
        assert!(
            used.len() > 3_600,
            "only {} of 4096 buckets used",
            used.len()
        );
    }
}
