//! Packet frames in flight between the dispatcher and its NFs.
//!
//! When the NF Manager dispatches one packet to several read-only NFs at the
//! same time (paper §4.2), each NF receives a [`SharedPacket`] handle over
//! the same underlying buffer. The handle carries the explicit reference
//! counter the paper adds to the DPDK packet descriptor: the RX thread
//! initializes it to the parallelization factor and each NF decrements it on
//! completion; whoever performs the final decrement learns that the packet is
//! ready for the TX thread's conflict-resolution step.
//!
//! The descriptor also carries the NFs' requested actions (§4.2): one
//! atomic **verdict word** that every NF merges its request into with a
//! single `fetch_max`. The word is a priority key ([`verdict_key`]) ordered
//! drop > transmit > steer > default, an earlier position in the action
//! list beating a later one — so the merged word *is* the resolved verdict,
//! whatever order the parallel NFs finish in, with no lock and no per-packet
//! collection to allocate.
//!
//! # Ownership rule
//!
//! The paper's descriptor is asymmetric on purpose: a packet on a
//! *sequential* chain is owned by one NF at a time, and only a *parallel*
//! dispatch — which the paper allows for read-only NFs alone — pays for a
//! reference counter. A packet in flight is a [`Frame`], and its variant
//! says which:
//!
//! * **one target ⇒ [`Frame::Sole`]**: the packet and the verdict key of
//!   its NF in a boxed [`SolePacket`], plain memory. Whoever holds the box
//!   owns the packet — the type is the proof — so serving the hop takes no
//!   lock, no read-modify-write and no test, and the NF may write the
//!   packet. Completing it merges the NF's key into the frame's verdict
//!   ([`Frame::complete`], a plain `max`).
//! * **several read-only targets ⇒ [`Frame::Shared`]**: one
//!   [`SharedPacket`] handle per target over an **immutable** packet. Every
//!   NF reads it through `&Packet` ([`SharedPacket::packet`]) with no lock,
//!   merges its request with [`SharedPacket::merge_verdict`] and counts down
//!   with [`SharedPacket::complete_one`]. No handle can write the packet, so
//!   a writer is never handed one: the dispatcher runs a parallel rule that
//!   names a mutating NF as owned hops in list order instead, merging each
//!   NF's key into the one frame — the same word a fan-out would resolve to.
//!
//! A fan-out's exit is a uniqueness test, [`SharedPacket::exclusive`]: once
//! every other handle is gone, the holder gets the packet and the merged
//! verdict as plain memory and moves them into an owned frame. While a
//! straggler NF still holds its clone (it completed but has not dropped it
//! yet) the test fails, and the dispatcher defers the completion to a later
//! turn — there is no locked path to fall back to.
//!
//! `exclusive` and [`SharedPacket::recycle`] (the one way to re-arm a
//! descriptor) are sound in safe Rust because they are built on
//! `Arc::get_mut` and the atomics' `get_mut`: `Arc::get_mut` hands out
//! `&mut` only after proving no other strong or weak handle exists — its
//! acquire pairs with the release every dropped clone performs, so every
//! read an NF made through its handle happens-before — and while that
//! borrow lives the `&mut self` it came from forbids cloning this one.
//! Either kind of frame reaches its next owner through whatever moves it
//! there (a ring push/pop is a release/acquire pair).

use crate::sync::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use sdnfv_proto::Packet;

/// What an NF asks the TX thread to do with a packet, by conflict
/// priority (paper §4.2): a drop beats an explicit transmit, which beats an
/// explicit steer, which beats following the flow table's default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum VerdictClass {
    /// Follow the flow table (the word's reset state).
    Default = 0,
    /// Steer to a service; the payload is the service id.
    ToService = 1,
    /// Transmit out a NIC port; the payload is the port.
    ToPort = 2,
    /// Drop the packet.
    Discard = 3,
}

const VERDICT_CLASS_SHIFT: u32 = 48;
const VERDICT_POSITION_SHIFT: u32 = 32;

/// Packs one NF's request into the key [`SharedPacket::merge_verdict`]
/// maximises: class in the top bits, then the *inverted* position of the NF
/// in the dispatched action list (so position 0 is the largest), then the
/// payload. [`VerdictClass::Default`] is always key 0 and every
/// [`VerdictClass::Discard`] is the same key — neither has a payload to
/// tell apart.
pub fn verdict_key(class: VerdictClass, position: u16, payload: u32) -> u64 {
    match class {
        VerdictClass::Default => 0,
        VerdictClass::Discard => (class as u64) << VERDICT_CLASS_SHIFT,
        VerdictClass::ToService | VerdictClass::ToPort => {
            (class as u64) << VERDICT_CLASS_SHIFT
                | u64::from(u16::MAX - position) << VERDICT_POSITION_SHIFT
                | u64::from(payload)
        }
    }
}

/// Splits a merged verdict word back into its class and payload.
pub fn verdict_parts(word: u64) -> (VerdictClass, u32) {
    let class = match word >> VERDICT_CLASS_SHIFT {
        0 => VerdictClass::Default,
        1 => VerdictClass::ToService,
        2 => VerdictClass::ToPort,
        _ => VerdictClass::Discard,
    };
    (class, word as u32)
}

struct SharedInner<M> {
    /// Immutable while shared: written only through a handle proven unique.
    packet: Packet,
    remaining: AtomicU32,
    /// The largest [`verdict_key`] merged since the descriptor was armed.
    verdict: AtomicU64,
    readers: u32,
    meta: M,
}

/// A packet shared, read-only, between several concurrently running NFs.
/// `M` is what the dispatcher keeps with the packet for its whole trip
/// (say, its flow key), readable through every handle.
pub struct SharedPacket<M = ()> {
    inner: Arc<SharedInner<M>>,
}

impl<M> Clone for SharedPacket<M> {
    fn clone(&self) -> Self {
        SharedPacket {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// A packet owned by exactly one NF hop (see the module docs' ownership
/// rule): the frame, the [`verdict_key`] its NF asked for, and the
/// dispatcher's `meta`, as plain memory.
#[derive(Debug)]
pub struct SolePacket<M = ()> {
    /// The frame.
    pub packet: Packet,
    /// The largest key its NFs' verdicts merged into it since the
    /// dispatcher last reset it; 0 (follow the flow table) until an NF
    /// answers otherwise.
    pub verdict: u64,
    /// What the dispatcher keeps with the packet for its whole trip.
    pub meta: M,
}

/// A packet in flight between the dispatcher and its NFs: owned outright
/// by a single-target hop, or shared by a fan-out's handles. Either way it
/// carries the dispatcher's per-packet `meta`, so a ring slot need not.
#[derive(Debug)]
pub enum Frame<M = ()> {
    /// The one target's packet; no other handle exists.
    Sole(Box<SolePacket<M>>),
    /// One of a fan-out's handles on a reference-counted descriptor.
    Shared(SharedPacket<M>),
}

impl<M> Frame<M> {
    /// The packet, for reading — with no lock whichever kind of frame
    /// carries it.
    #[inline]
    pub fn packet(&self) -> &Packet {
        match self {
            Frame::Sole(sole) => &sole.packet,
            Frame::Shared(shared) => shared.packet(),
        }
    }

    /// Records that this frame's NF finished with the request `key`.
    /// Returns `true` when the packet is ready for the dispatcher: at once
    /// for a sole frame (the key merges into its verdict with a plain
    /// `max`), at the final completion for a shared one
    /// ([`SharedPacket::merge_verdict`] then [`SharedPacket::complete_one`]).
    #[inline]
    pub fn complete(&mut self, key: u64) -> bool {
        match self {
            Frame::Sole(sole) => {
                sole.verdict = sole.verdict.max(key);
                true
            }
            Frame::Shared(shared) => {
                shared.merge_verdict(key);
                shared.complete_one()
            }
        }
    }
}

/// Plain-memory view of a descriptor whose handle is provably the only one
/// — a fan-out's exit test passed (see the module docs' ownership rule):
/// what [`SharedPacket::exclusive`] returns.
pub struct Exclusive<'a> {
    packet: &'a mut Packet,
    verdict: u64,
}

impl Exclusive<'_> {
    /// The merged verdict word of the finished round.
    pub fn verdict(&self) -> u64 {
        self.verdict
    }

    /// Moves the frame out of the descriptor, leaving an empty packet
    /// behind for [`SharedPacket::recycle`] to replace — how a packet
    /// leaves a fan-out without being copied.
    pub fn take_packet(self) -> Packet {
        std::mem::replace(self.packet, Packet::from_bytes(Vec::new()))
    }
}

impl<M> std::fmt::Debug for SharedPacket<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedPacket")
            .field("remaining", &self.remaining())
            .field("readers", &self.inner.readers)
            .finish()
    }
}

impl SharedPacket {
    /// Wraps `packet` for dispatch to `readers` parallel NFs.
    ///
    /// # Panics
    ///
    /// Panics if `readers` is zero.
    pub fn new(packet: Packet, readers: u32) -> Self {
        SharedPacket::with_meta(packet, readers, ())
    }
}

impl<M> SharedPacket<M> {
    /// [`SharedPacket::new`] for a packet the dispatcher keeps `meta` with.
    ///
    /// # Panics
    ///
    /// Panics if `readers` is zero.
    pub fn with_meta(packet: Packet, readers: u32, meta: M) -> Self {
        assert!(readers > 0, "a shared packet needs at least one reader");
        SharedPacket {
            inner: Arc::new(SharedInner {
                packet,
                remaining: AtomicU32::new(readers),
                verdict: AtomicU64::new(0),
                readers,
                meta,
            }),
        }
    }

    /// The dispatcher's per-packet data.
    pub fn meta(&self) -> &M {
        &self.inner.meta
    }

    /// The packet, for reading. Every NF of a fan-out reads through its own
    /// handle at the same time, with no lock: nobody can write the packet
    /// while a second handle exists.
    #[inline]
    pub fn packet(&self) -> &Packet {
        &self.inner.packet
    }

    /// The descriptor as plain memory, if this handle is the only one —
    /// `None` while any clone is alive, including one whose NF completed
    /// but has not dropped it yet. A fan-out's exit test: costs one
    /// compare-and-swap (the uniqueness test of `Arc::get_mut`) whatever
    /// the answer.
    pub fn exclusive(&mut self) -> Option<Exclusive<'_>> {
        let inner = Arc::get_mut(&mut self.inner)?;
        Some(Exclusive {
            packet: &mut inner.packet,
            verdict: *inner.verdict.get_mut(),
        })
    }

    /// Records that one parallel NF finished with the packet. Returns `true`
    /// for the final completion, i.e. when the caller should hand the packet
    /// to the TX thread for conflict resolution.
    pub fn complete_one(&self) -> bool {
        // ORDER: AcqRel — classic refcount-release protocol: the release
        // half publishes this NF's verdict merge before the decrement, the
        // acquire half makes the *final* decrementer (who returns `true` and
        // hands the packet to TX conflict resolution) happen-after every
        // earlier decrementer's work. The packet itself is never written
        // while shared: who takes it out goes through `exclusive`, whose
        // `Arc::get_mut` orders every clone's reads before the take.
        // Model-checked.
        let prev = self.inner.remaining.fetch_sub(1, Ordering::AcqRel);
        assert!(prev > 0, "complete_one called more times than readers");
        prev == 1
    }

    /// Merges one NF's requested action (a [`verdict_key`]) into the
    /// descriptor. Must precede that NF's [`SharedPacket::complete_one`].
    pub fn merge_verdict(&self, key: u64) {
        if key == 0 {
            // Default never raises the maximum: skip the RMW entirely.
            return;
        }
        // ORDER: Relaxed — RMW atomicity alone makes the merge lossless;
        // publication rides the release half of the `complete_one` that
        // follows on the same thread. Model-checked (`verdict_cell`).
        self.inner.verdict.fetch_max(key, Ordering::Relaxed);
    }

    /// The merged verdict word of the current dispatch round. Meaningful
    /// once the final [`SharedPacket::complete_one`] returned `true`, on the
    /// thread that saw it or one the descriptor was handed to afterwards.
    pub fn verdict(&self) -> u64 {
        // ORDER: Relaxed — the reader happens-after every merge through the
        // `remaining` refcount chain (each merger's `complete_one` releases,
        // the final one acquires) and the ring hand-off, and coherence then
        // forbids observing anything older than the last merge.
        self.inner.verdict.load(Ordering::Relaxed)
    }

    /// Number of parallel NFs that have not yet completed.
    pub fn remaining(&self) -> u32 {
        // ORDER: Acquire — pairs with the release half of `complete_one`,
        // so a dispatcher that observes 0 also observes all NFs' completed
        // work.
        self.inner.remaining.load(Ordering::Acquire)
    }

    /// The parallelization factor the packet was dispatched with.
    pub fn readers(&self) -> u32 {
        self.inner.readers
    }

    /// Re-initialises a descriptor for a new packet and dispatch round,
    /// reusing its allocation — the one way a descriptor is re-armed. Only
    /// a handle proven unique can be recycled: if an NF still holds a clone
    /// (it completed but has not dropped its handle yet) the packet and
    /// `meta` are handed back and the caller allocates a fresh descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `readers` is zero, or if the handle is the only one but
    /// its round still has readers outstanding (a handle was dropped
    /// without completing).
    pub fn recycle(mut self, packet: Packet, readers: u32, meta: M) -> Result<Self, (Packet, M)> {
        assert!(readers > 0, "a shared packet needs at least one reader");
        let Some(inner) = Arc::get_mut(&mut self.inner) else {
            return Err((packet, meta));
        };
        let outstanding = *inner.remaining.get_mut();
        assert_eq!(
            outstanding, 0,
            "recycle called while {outstanding} readers are still outstanding"
        );
        inner.packet = packet;
        *inner.remaining.get_mut() = readers;
        *inner.verdict.get_mut() = 0;
        inner.readers = readers;
        inner.meta = meta;
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnfv_proto::packet::PacketBuilder;
    use std::thread;

    fn pkt() -> Packet {
        PacketBuilder::udp().payload(b"shared").build()
    }

    #[test]
    fn completion_counting() {
        let sp = SharedPacket::new(pkt(), 3);
        assert_eq!(sp.remaining(), 3);
        assert_eq!(sp.readers(), 3);
        assert!(!sp.complete_one());
        assert!(!sp.complete_one());
        assert!(sp.complete_one());
        assert_eq!(sp.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "more times than readers")]
    fn over_completion_panics() {
        let sp = SharedPacket::new(pkt(), 1);
        let _ = sp.complete_one();
        let _ = sp.complete_one();
    }

    #[test]
    #[should_panic(expected = "at least one reader")]
    fn zero_readers_panics() {
        let _ = SharedPacket::new(pkt(), 0);
    }

    #[test]
    fn parallel_reads_see_same_data() {
        let sp = SharedPacket::new(pkt(), 4);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let sp = sp.clone();
            handles.push(thread::spawn(move || {
                let payload = sp.packet().l4_payload().unwrap().to_vec();
                sp.complete_one();
                payload
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), b"shared");
        }
        assert_eq!(sp.remaining(), 0);
    }

    #[test]
    fn verdict_word_orders_class_then_position() {
        use VerdictClass::*;
        // Class dominates position and payload.
        assert!(verdict_key(Discard, 9, 0) > verdict_key(ToPort, 0, u32::MAX));
        assert!(verdict_key(ToPort, 9, 0) > verdict_key(ToService, 0, u32::MAX));
        assert!(verdict_key(ToService, u16::MAX, 0) > verdict_key(Default, 0, 7));
        // Within a class the earlier position wins whatever the payload.
        assert!(verdict_key(ToPort, 0, 1) > verdict_key(ToPort, 1, 2));
        assert_eq!(verdict_parts(verdict_key(ToPort, 3, 80)), (ToPort, 80));
        assert_eq!(verdict_parts(verdict_key(ToService, 0, 7)), (ToService, 7));
        assert_eq!(verdict_parts(verdict_key(Discard, 5, 0)), (Discard, 0));
        assert_eq!(verdict_parts(0), (Default, 0));
    }

    #[test]
    fn into_packet_when_sole_owner() {
        let mut sp = SharedPacket::new(pkt(), 2);
        let clone = sp.clone();
        assert!(sp.exclusive().is_none(), "a clone is alive");
        drop(clone);
        let packet = sp.exclusive().expect("the only handle").take_packet();
        assert_eq!(packet.l4_payload().unwrap(), b"shared");
    }

    #[test]
    fn re_arm_allows_sequential_reuse() {
        // `recycle` is the one re-arm: a finished round's only handle takes
        // the next round's packet and readers in place.
        let sp = SharedPacket::new(pkt(), 1);
        assert!(sp.complete_one());
        let sp = sp.recycle(pkt(), 2, ()).expect("the only handle");
        assert_eq!(sp.remaining(), 2);
        assert!(!sp.complete_one());
        assert!(sp.complete_one());
    }

    #[test]
    #[should_panic(expected = "still outstanding")]
    fn re_arm_with_outstanding_readers_panics() {
        // The only handle, but its round never completed: a handle was
        // dropped without counting down.
        let sp = SharedPacket::new(pkt(), 2);
        drop(sp.clone());
        let _ = sp.recycle(pkt(), 1, ());
    }

    #[test]
    fn merged_verdict_is_order_independent_and_reset_by_re_arm() {
        use VerdictClass::*;
        let keys = [
            verdict_key(ToPort, 1, 2),
            verdict_key(ToPort, 0, 1),
            verdict_key(ToService, 2, 9),
        ];
        for order in [[0, 1, 2], [2, 1, 0], [1, 2, 0]] {
            let sp = SharedPacket::new(pkt(), 3);
            assert_eq!(sp.verdict(), 0, "a fresh descriptor asks for the default");
            for index in order {
                sp.merge_verdict(keys[index]);
                sp.complete_one();
            }
            assert_eq!(verdict_parts(sp.verdict()), (ToPort, 1));
            let sp = sp.recycle(pkt(), 1, ()).expect("the only handle");
            assert_eq!(
                sp.verdict(),
                0,
                "recycle clears the previous round's verdict"
            );
        }
    }

    #[test]
    fn exclusive_is_refused_while_any_clone_is_alive() {
        let mut sp = SharedPacket::new(pkt(), 2);
        assert!(sp.exclusive().is_some(), "a fresh handle is the only one");
        let straggler = sp.clone();
        assert!(sp.exclusive().is_none());
        // The clone's NF completing is not enough: it still holds the
        // handle, and could still be reading the frame through it.
        straggler.merge_verdict(verdict_key(VerdictClass::ToPort, 1, 4));
        assert!(!straggler.complete_one());
        assert!(sp.complete_one());
        assert!(sp.exclusive().is_none());
        drop(straggler);
        let descriptor = sp.exclusive().expect("the clone is gone");
        assert_eq!(
            verdict_parts(descriptor.verdict()),
            (VerdictClass::ToPort, 4)
        );
        assert_eq!(descriptor.take_packet().l4_payload().unwrap(), b"shared");
        assert!(sp.packet().is_empty(), "descriptor left empty");
    }

    #[test]
    fn take_packet_moves_the_frame_without_copying() {
        let packet = pkt();
        let frame = packet.data().as_ptr();
        let mut sp = SharedPacket::new(packet, 1);
        assert!(sp.complete_one());
        let out = sp.exclusive().expect("the only handle").take_packet();
        assert_eq!(out.data().as_ptr(), frame, "same buffer, not a copy");
        assert!(sp.packet().is_empty(), "descriptor left empty");
    }

    /// The verdict word a completed frame carries.
    fn word(frame: &Frame) -> u64 {
        match frame {
            Frame::Sole(sole) => sole.verdict,
            Frame::Shared(shared) => shared.verdict(),
        }
    }

    fn sole() -> Frame {
        Frame::Sole(Box::new(SolePacket {
            packet: pkt(),
            verdict: 0,
            meta: (),
        }))
    }

    #[test]
    fn a_frame_completes_as_the_shared_path_completes() {
        use VerdictClass::*;
        // A sole frame's one NF answers and the frame is ready: its key is
        // the verdict, exactly what a one-reader descriptor resolves to.
        for class in [Default, ToService, ToPort, Discard] {
            let key = verdict_key(class, 0, 7);
            let mut sole = sole();
            let mut shared = Frame::Shared(SharedPacket::new(pkt(), 1));
            assert!(sole.complete(key));
            assert!(shared.complete(key));
            assert_eq!(word(&sole), word(&shared), "{class:?}");
            assert_eq!(word(&sole), key);
        }
        // A fan-out's handles merge like `fetch_max` and count down: the
        // higher-priority request wins whichever completes first — and one
        // owned frame completed by each NF in turn merges to the same word.
        for order in [[0, 1], [1, 0]] {
            let keys = [verdict_key(ToPort, 1, 2), verdict_key(Discard, 0, 0)];
            let sp = SharedPacket::new(pkt(), 2);
            let mut handles = [Frame::Shared(sp.clone()), Frame::Shared(sp)];
            assert!(!handles[0].complete(keys[order[0]]));
            assert!(handles[1].complete(keys[order[1]]));
            assert_eq!(verdict_parts(word(&handles[1])), (Discard, 0));
            let mut owned = sole();
            assert!(owned.complete(keys[order[0]]));
            assert!(owned.complete(keys[order[1]]));
            assert_eq!(word(&owned), word(&handles[1]));
        }
    }

    #[test]
    fn either_kind_of_frame_reads_its_packet_without_a_lock() {
        let sole = sole();
        let sp = SharedPacket::new(pkt(), 2);
        let handles = [Frame::Shared(sp.clone()), Frame::Shared(sp)];
        // Two live borrows of one shared buffer, from one thread: nothing
        // to deadlock on.
        let (first, second) = (handles[0].packet(), handles[1].packet());
        assert!(std::ptr::eq(first, second));
        assert_eq!(first.l4_payload(), sole.packet().l4_payload());
    }

    #[test]
    fn meta_rides_either_kind_of_frame_and_recycle_replaces_it() {
        let sole = SolePacket {
            packet: pkt(),
            verdict: 0,
            meta: 7u64,
        };
        assert_eq!(sole.meta, 7);
        let shared = SharedPacket::with_meta(pkt(), 1, 8u64);
        let straggler = shared.clone();
        assert_eq!(*straggler.meta(), 8);
        assert!(straggler.complete_one());
        let Err((_, meta)) = shared.recycle(pkt(), 1, 9) else {
            panic!("a shared descriptor must not be recycled");
        };
        assert_eq!(meta, 9, "the new meta comes back with the packet");
        let recycled = straggler.recycle(pkt(), 1, meta).expect("now unique");
        assert_eq!(*recycled.meta(), 9);
    }

    #[test]
    fn recycle_reuses_a_unique_descriptor_and_refuses_a_shared_one() {
        let mut sp = SharedPacket::new(pkt(), 2);
        sp.merge_verdict(verdict_key(VerdictClass::Discard, 0, 0));
        sp.complete_one();
        sp.complete_one();
        drop(sp.exclusive().expect("the only handle").take_packet());
        // A clone is still out (an NF that has not dropped its handle).
        let straggler = sp.clone();
        let sp = match sp.recycle(pkt(), 1, ()) {
            Err((packet, ())) => {
                assert_eq!(packet.l4_payload().unwrap(), b"shared");
                straggler
            }
            Ok(_) => panic!("a shared descriptor must not be recycled"),
        };
        // Unique now: recycled in place, counters and verdict reset.
        let sp = sp.recycle(pkt(), 3, ()).expect("unique handle recycles");
        assert_eq!(sp.remaining(), 3);
        assert_eq!(sp.readers(), 3);
        assert_eq!(sp.verdict(), 0);
        assert_eq!(sp.packet().l4_payload().unwrap(), b"shared");
    }
}
