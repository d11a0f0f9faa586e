//! The hasher of the flow table's maps, and of any other per-flow map on
//! the packet path (the IDS's flagged-flow set).
//!
//! `std`'s default SipHash costs more than the rest of a table probe put
//! together, and a lookup makes several probes. The keys, however, come
//! off the wire — an NF pins whatever 5-tuple it flags — so the function
//! must not be predictable either. This one folds each written word into
//! the state with one 64×64→128-bit multiply; the initial state is secret,
//! drawn per map owner from a `RandomState`.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// 2^64 / φ, odd. A fixed multiplier, because a random one is now and then
/// a bad one (close to a power of two, say) and nothing would show it.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// The per-table secret, and the `BuildHasher` of the table's maps. Its
/// `Default` draws a fresh secret: a map keyed by 5-tuples off the wire
/// (`HashMap<FlowKey, _, TableHashKey>`) gets it with `HashMap::default()`.
#[derive(Debug, Clone, Copy)]
pub struct TableHashKey {
    seed: u64,
}

impl Default for TableHashKey {
    fn default() -> Self {
        TableHashKey {
            seed: RandomState::new().hash_one(0u8),
        }
    }
}

impl BuildHasher for TableHashKey {
    type Hasher = MixHasher;

    fn build_hasher(&self) -> MixHasher {
        MixHasher { state: self.seed }
    }
}

/// A keyed multiply-mix hasher: one folded multiply per word written.
pub struct MixHasher {
    state: u64,
}

impl MixHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        let product = u128::from(self.state ^ word) * u128::from(MULTIPLIER);
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

    /// The map indexes by the low bits and tags by the top seven; the last
    /// word written reaches the low ones mostly through the fold's low
    /// half, which a counter-like word steps through evenly rather than
    /// randomly. The shift lets the high half break that up.
    #[inline]
    fn finish(&self) -> u64 {
        self.state ^ (self.state >> 29)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::Hash;

    fn hash(key: &TableHashKey, value: impl Hash) -> u64 {
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
        // 4096 keys that differ in one counter, as the last word written
        // and as the first, under 100 seeds: 4096 balls thrown at random
        // into 4096 bins fill about 2589 of them.
        for seed in 0..100u64 {
            let key = TableHashKey {
                seed: seed.wrapping_mul(0xD6E8_FEB8_6659_FD93),
            };
            for counter_last in [true, false] {
                let mut low = HashSet::new();
                let mut high = HashSet::new();
                for n in 0..4096u32 {
                    let h = if counter_last {
                        hash(&key, (0x0a00_0001u32, n))
                    } else {
                        hash(&key, (0x0a00_0000u32 + n, 80u16, 6u8))
                    };
                    low.insert(h & 0xfff);
                    high.insert(h >> 57);
                }
                assert!(low.len() > 2400, "seed {seed}: {} low values", low.len());
                assert_eq!(high.len(), 128, "seed {seed}");
            }
        }
    }

    #[test]
    fn byte_strings_hash_by_content_and_length() {
        let key = TableHashKey::default();
        assert_ne!(hash(&key, [1u8, 2, 3, 4]), hash(&key, [1u8, 2, 3, 5]));
        assert_ne!(hash(&key, &[0u8; 3][..]), hash(&key, &[0u8; 4][..]));
    }
}
