//! Seeded property tests for the SPSC ring, the packet pool and the
//! shared packet handle: each property runs over `CASES` inputs drawn from
//! an in-file SplitMix64 with fixed seeds, so a failure names its case and
//! replays exactly.

use sdnfv_proto::packet::PacketBuilder;
use sdnfv_ring::{spsc_ring, PacketPool, PushError, SharedPacket};

const CASES: u64 = 256;

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `low..high`.
    fn between(&mut self, low: u64, high: u64) -> u64 {
        low + self.next() % (high - low)
    }
}

/// The ring never loses, duplicates, or reorders elements for any
/// interleaving of pushes and pops drawn as an operation script.
#[test]
fn ring_preserves_fifo_order() {
    for case in 0..CASES {
        let mut rng = SplitMix64(case);
        let cap = rng.between(1, 32) as usize;
        let ops = rng.between(1, 200);
        let (tx, rx) = spsc_ring(cap);
        let mut next_in = 0u32;
        let mut next_out = 0u32;
        for _ in 0..ops {
            if rng.next() & 1 == 1 {
                match tx.push(next_in) {
                    Ok(()) => next_in += 1,
                    Err(PushError(v)) => {
                        assert_eq!(v, next_in, "case {case}");
                        assert!(tx.is_full(), "case {case}");
                    }
                }
            } else {
                match rx.pop() {
                    Some(v) => {
                        assert_eq!(v, next_out, "case {case}");
                        next_out += 1;
                    }
                    None => assert!(rx.is_empty(), "case {case}"),
                }
            }
            assert_eq!(rx.len() as u32, next_in - next_out, "case {case}");
            assert!(rx.len() <= cap, "case {case}");
        }
        // Drain and check nothing was lost.
        while let Some(v) = rx.pop() {
            assert_eq!(v, next_out, "case {case}");
            next_out += 1;
        }
        assert_eq!(next_out, next_in, "case {case}");
    }
}

/// The pool never hands out more packets than its capacity and always
/// recovers slots when handles are dropped.
#[test]
fn pool_never_exceeds_capacity() {
    for case in 0..CASES {
        let mut rng = SplitMix64(case);
        let cap = rng.between(1, 16) as usize;
        let allocs = rng.between(1, 64) as usize;
        let drop_every = rng.between(1, 8) as usize;
        let pool = PacketPool::new(cap);
        let mut held = Vec::new();
        let mut succeeded = 0u64;
        for i in 0..allocs {
            let pkt = PacketBuilder::udp().payload(&[i as u8]).build();
            if let Some(handle) = pool.alloc(pkt) {
                held.push(handle);
                succeeded += 1;
            }
            assert!(pool.in_use() <= cap, "case {case}");
            if i % drop_every == 0 && !held.is_empty() {
                held.remove(0);
            }
        }
        assert_eq!(pool.stats().allocated, succeeded, "case {case}");
        drop(held);
        assert_eq!(pool.in_use(), 0, "case {case}");
    }
}

/// Exactly one of N parallel completions observes "last", whatever N — in
/// the first round and in one re-armed by `recycle`.
#[test]
fn shared_packet_single_last_completion() {
    for readers in 1u32..16 {
        let mut sp = SharedPacket::new(PacketBuilder::udp().build(), readers);
        for round in 0..2 {
            if round > 0 {
                sp = sp
                    .recycle(PacketBuilder::udp().build(), readers, ())
                    .expect("the only handle recycles");
            }
            let mut lasts = 0;
            for _ in 0..readers {
                if sp.complete_one() {
                    lasts += 1;
                }
            }
            assert_eq!(lasts, 1, "{readers} readers, round {round}");
            assert_eq!(sp.remaining(), 0, "{readers} readers, round {round}");
        }
    }
}
