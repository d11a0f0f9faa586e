//! The hasher of the flow table's maps.
//!
//! `std`'s default SipHash costs more than the rest of a table probe put
//! together, and a lookup makes several probes. The keys, however, come
//! off the wire — an NF pins whatever 5-tuple it flags — so the function
//! must not be predictable either. This one folds each written word into
//! the state with one 64×64→128-bit multiply, and both the initial state
//! and the multiplier are secret: every table draws its own
//! [`TableHashKey`] from one `RandomState`.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// The per-table secret, and the `BuildHasher` of the table's maps.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TableHashKey {
    seed: u64,
    multiplier: u64,
}

impl Default for TableHashKey {
    fn default() -> Self {
        let draw = RandomState::new();
        TableHashKey {
            seed: draw.hash_one(0u8),
            // Odd, so multiplying by it loses no bit of the state.
            multiplier: draw.hash_one(1u8) | 1,
        }
    }
}

impl BuildHasher for TableHashKey {
    type Hasher = MixHasher;

    fn build_hasher(&self) -> MixHasher {
        MixHasher {
            state: self.seed,
            multiplier: self.multiplier,
        }
    }
}

/// A keyed multiply-mix hasher: one folded multiply per word written.
pub(crate) struct MixHasher {
    state: u64,
    multiplier: u64,
}

impl MixHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        let product = u128::from(self.state ^ word) * u128::from(self.multiplier);
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for MixHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, value: u8) {
        self.mix(u64::from(value));
    }

    #[inline]
    fn write_u16(&mut self, value: u16) {
        self.mix(u64::from(value));
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.mix(u64::from(value));
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.mix(value);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.mix(value as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash(key: &TableHashKey, value: impl std::hash::Hash) -> u64 {
        key.hash_one(value)
    }

    #[test]
    fn tables_draw_different_keys() {
        let (a, b) = (TableHashKey::default(), TableHashKey::default());
        assert_ne!(hash(&a, 7u32), hash(&b, 7u32));
        assert_eq!(hash(&a, 7u32), hash(&a, 7u32));
    }

    #[test]
    fn nearby_keys_spread_over_low_and_high_bits() {
        // hashbrown indexes by the low bits and tags by the top seven.
        let key = TableHashKey::default();
        let mut low = std::collections::HashSet::new();
        let mut high = std::collections::HashSet::new();
        for port in 0..4096u32 {
            let h = hash(&key, (0x0a00_0001u32, port));
            low.insert(h & 0xfff);
            high.insert(h >> 57);
        }
        assert!(low.len() > 2048, "low bits collapse: {}", low.len());
        assert_eq!(high.len(), 128);
    }

    #[test]
    fn byte_strings_hash_by_content_and_length() {
        let key = TableHashKey::default();
        assert_ne!(hash(&key, [1u8, 2, 3, 4]), hash(&key, [1u8, 2, 3, 5]));
        assert_ne!(hash(&key, &[0u8; 3][..]), hash(&key, &[0u8; 4][..]));
    }
}
