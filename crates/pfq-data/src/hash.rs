//! A fast, deterministic word hasher for the engine's own hash maps.
//!
//! The interner's index, the memo tables and the join index hash
//! computation states, id pairs and value rows. SipHash's per-write cost
//! was most of the interner's time, and the resistance to chosen
//! collisions it buys protects nothing here: the values come from the
//! query's own input, and whoever writes that input also writes the
//! program, whose exact evaluation can already take exponential time
//! (the node and chain budgets bound it). [`FxHasher`] folds each word
//! in with a rotate, an xor and a multiply (the Fx scheme of rustc's
//! hash maps), and [`Hasher::finish`] rotates so that the multiply's
//! well-mixed high bits also reach the low bits a table indexes buckets
//! by.
//!
//! Map identity is still decided by `Eq`: two keys that collide cost a
//! comparison, never an answer.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The Fx multiplier (rustc-hash 2).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// A word-at-a-time hasher: a rotate, an xor and a multiply per word.
/// Deterministic: the same writes give the same hash in every run.
#[derive(Clone, Copy, Default, Debug)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
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
        self.hash.rotate_left(26)
    }
}

/// Builds [`FxHasher`]s for a `HashMap`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tuple, Tuple};
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn hashing_is_deterministic() {
        let t = tuple![1, "abc", pfq_num::Ratio::new(1, 3)];
        assert_eq!(hash_of(&t), hash_of(&t.clone()));
        assert_eq!(hash_of(&t), hash_of(&Tuple::from_slice(t.values())));
        // Fixed across runs and hosts: no random state.
        let mut h = FxHasher::default();
        h.write_u64(1);
        assert_eq!(h.finish(), K.rotate_left(26));
    }

    #[test]
    fn bytes_fold_in_words_with_a_padded_tail() {
        let mut whole = FxHasher::default();
        whole.write(b"0123456789");
        let mut words = FxHasher::default();
        words.write_u64(u64::from_le_bytes(*b"01234567"));
        words.write_u64(u64::from_le_bytes(*b"89\0\0\0\0\0\0"));
        assert_eq!(whole.finish(), words.finish());
    }
}
