//! The Fx hash: a fast, non-cryptographic hash for small integer keys.

use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of the Fx hash (the hash rustc uses for its own tables).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A [`Hasher`] that folds each written word into the state with a rotate,
/// an xor and a multiply.
///
/// It is much cheaper than the standard library's SipHash on the keys this
/// workspace hashes — term ids, transaction and key ids, and terms built
/// from them — and offers no protection against adversarial keys, which
/// none of these are. The term pool hashes its terms with it, and the
/// constraint encoder keys its memo tables with [`FxBuildHasher`].
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`FxHasher`]s, e.g. for `HashMap<K, V, FxBuildHasher>`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

#[cfg(test)]
mod tests {
    use std::hash::{BuildHasher, Hash};

    use super::*;

    fn hash_of(value: impl Hash) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn equal_values_hash_equally_and_neighbours_differ() {
        assert_eq!(hash_of((3u32, 7u32)), hash_of((3u32, 7u32)));
        assert_ne!(hash_of((3u32, 7u32)), hash_of((7u32, 3u32)));
        assert_ne!(hash_of(1u32), hash_of(2u32));
        // Byte slices of different lengths are told apart by the length
        // prefix `Hash` writes.
        assert_ne!(hash_of([0u8; 3].as_slice()), hash_of([0u8; 4].as_slice()));
    }
}
