//! Property tests for the SPSC ring and packet pool invariants.

#![cfg(feature = "proptest")]
// Gated off by default: the real `proptest` crate is unavailable in the
// offline build environment (see shims/README.md and ROADMAP.md).
use proptest::prelude::*;
use sdnfv_proto::packet::PacketBuilder;
use sdnfv_ring::{spsc_ring, PacketPool, PushError, SharedPacket};

proptest! {
    /// The ring never loses, duplicates, or reorders elements for any
    /// interleaving of pushes and pops generated from an operation script.
    #[test]
    fn ring_preserves_fifo_order(ops in proptest::collection::vec(any::<bool>(), 1..200), cap in 1usize..32) {
        let (tx, rx) = spsc_ring(cap);
        let mut next_in = 0u32;
        let mut next_out = 0u32;
        for push in ops {
            if push {
                match tx.push(next_in) {
                    Ok(()) => next_in += 1,
                    Err(PushError(v)) => {
                        prop_assert_eq!(v, next_in);
                        prop_assert!(tx.is_full());
                    }
                }
            } else {
                match rx.pop() {
                    Some(v) => {
                        prop_assert_eq!(v, next_out);
                        next_out += 1;
                    }
                    None => prop_assert!(rx.is_empty()),
                }
            }
            prop_assert_eq!(rx.len() as u32, next_in - next_out);
            prop_assert!(rx.len() <= cap);
        }
        // Drain and check nothing was lost.
        while let Some(v) = rx.pop() {
            prop_assert_eq!(v, next_out);
            next_out += 1;
        }
        prop_assert_eq!(next_out, next_in);
    }

    /// The pool never hands out more packets than its capacity and always
    /// recovers slots when handles are dropped.
    #[test]
    fn pool_never_exceeds_capacity(cap in 1usize..16, allocs in 1usize..64, drop_every in 1usize..8) {
        let pool = PacketPool::new(cap);
        let mut held = Vec::new();
        let mut succeeded = 0u64;
        for i in 0..allocs {
            let pkt = PacketBuilder::udp().payload(&[i as u8]).build();
            if let Some(handle) = pool.alloc(pkt) {
                held.push(handle);
                succeeded += 1;
            }
            prop_assert!(pool.in_use() <= cap);
            if i % drop_every == 0 && !held.is_empty() {
                held.remove(0);
            }
        }
        prop_assert_eq!(pool.stats().allocated, succeeded);
        drop(held);
        prop_assert_eq!(pool.in_use(), 0);
    }

    /// Exactly one of N parallel completions observes "last", regardless of
    /// N — in the first round and in one re-armed by `recycle`.
    #[test]
    fn shared_packet_single_last_completion(readers in 1u32..16) {
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
            prop_assert_eq!(lasts, 1);
            prop_assert_eq!(sp.remaining(), 0);
        }
    }
}
