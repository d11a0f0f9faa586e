//! Reference-counted packet handles for parallel NF processing.
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
//! dispatch pays for a reference counter. A packet in flight is a
//! [`Frame`], and its variant says which:
//!
//! * **one target ⇒ [`Frame::Sole`]**: the packet and the verdict key of
//!   its one NF in a boxed [`SolePacket`], plain memory. Whoever holds the
//!   box owns the packet — the type is the proof — so serving a sequential
//!   hop takes no lock, no read-modify-write and no test. Completing it is
//!   a store of the key ([`Frame::complete`]).
//! * **several targets ⇒ [`Frame::Shared`]**: one [`SharedPacket`] handle
//!   per target, and every party goes through the `RwLock`,
//!   [`SharedPacket::merge_verdict`] and [`SharedPacket::complete_one`].
//!
//! The dispatcher converts a packet when its next hop's fan-out differs.
//! Sole → shared moves the packet into a descriptor. Shared → sole needs
//! every other handle gone, and [`SharedPacket::exclusive`] is that exit
//! test — the one uniqueness test left on the packet path, paid only by a
//! packet leaving a fan-out. While a straggler NF still holds its clone
//! (it completed but has not dropped it yet) the test fails and the packet
//! stays shared, on the locked path, for one more hop.
//!
//! `exclusive` is sound in safe Rust because it is built on
//! `Arc::get_mut`, `RwLock::get_mut` and the atomics' `get_mut`:
//! `Arc::get_mut` hands out `&mut` only after proving no other strong or
//! weak handle exists, and while that borrow lives the `&mut self` it came
//! from forbids cloning this one — so nobody can observe the plain writes
//! concurrently. Either kind of frame reaches its next owner through
//! whatever moves it there (a ring push/pop is a release/acquire pair).

use crate::sync::{AtomicU32, AtomicU64, Ordering};
use parking_lot::RwLock;
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
    packet: RwLock<Packet>,
    remaining: AtomicU32,
    /// The largest [`verdict_key`] merged since the last (re-)arm.
    verdict: AtomicU64,
    readers: u32,
    meta: M,
}

/// A packet shared (read-mostly) between several concurrently running NFs.
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
    /// The key its NF's verdict merges into the dispatch with; 0 (follow
    /// the flow table) until the NF answers.
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
    /// The dispatcher's per-packet data.
    #[inline]
    pub fn meta(&self) -> &M {
        match self {
            Frame::Sole(sole) => &sole.meta,
            Frame::Shared(shared) => shared.meta(),
        }
    }

    /// Records that this frame's NF finished with the request `key`.
    /// Returns `true` when the packet is ready for the dispatcher: at once
    /// for a sole frame (the key is its verdict), at the final completion
    /// for a shared one ([`SharedPacket::merge_verdict`] then
    /// [`SharedPacket::complete_one`]).
    #[inline]
    pub fn complete(&mut self, key: u64) -> bool {
        match self {
            Frame::Sole(sole) => {
                sole.verdict = key;
                true
            }
            Frame::Shared(shared) => {
                shared.merge_verdict(key);
                shared.complete_one()
            }
        }
    }

    /// The verdict of the dispatch round, once [`Frame::complete`] returned
    /// `true` (see [`SharedPacket::verdict`]).
    #[inline]
    pub fn verdict(&self) -> u64 {
        match self {
            Frame::Sole(sole) => sole.verdict,
            Frame::Shared(shared) => shared.verdict(),
        }
    }
}

/// Plain-memory view of a descriptor whose handle is provably the only one
/// — a fan-out's exit test passed (see the module docs' ownership rule):
/// what [`SharedPacket::exclusive`] returns. Its methods are the lock-free,
/// RMW-free twins of the shared ones and leave the descriptor in exactly
/// the state those would.
pub struct Exclusive<'a> {
    packet: &'a mut Packet,
    remaining: &'a mut u32,
    verdict: &'a mut u64,
}

impl Exclusive<'_> {
    /// [`SharedPacket::re_arm`].
    ///
    /// # Panics
    ///
    /// Panics if called while previous readers are still outstanding or if
    /// `readers` is zero.
    pub fn re_arm(self, readers: u32) {
        assert!(readers > 0, "a shared packet needs at least one reader");
        let previous = std::mem::replace(self.remaining, readers);
        assert_eq!(
            previous, 0,
            "re_arm called while {previous} readers are still outstanding"
        );
        *self.verdict = 0;
    }

    /// [`SharedPacket::take_packet`].
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
                packet: RwLock::new(packet),
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

    /// The descriptor as plain memory, if this handle is the only one —
    /// `None` while any clone is alive, including one whose NF completed
    /// but has not dropped it yet. A fan-out's exit test: costs one
    /// compare-and-swap (the uniqueness test of `Arc::get_mut`) whatever
    /// the answer.
    pub fn exclusive(&mut self) -> Option<Exclusive<'_>> {
        let inner = Arc::get_mut(&mut self.inner)?;
        Some(Exclusive {
            packet: inner.packet.get_mut(),
            remaining: inner.remaining.get_mut(),
            verdict: inner.verdict.get_mut(),
        })
    }

    /// Runs `f` with read access to the packet. Multiple NFs may hold read
    /// access simultaneously — this is the parallel fast path.
    pub fn with_read<R>(&self, f: impl FnOnce(&Packet) -> R) -> R {
        f(&self.inner.packet.read())
    }

    /// Acquires a read guard on the packet. Used by the batch dispatch path,
    /// which locks a whole burst of descriptors before handing the NF one
    /// [`PacketBatch`](../../sdnfv_nf/batch/struct.PacketBatch.html) over all
    /// of them.
    pub fn read_guard(&self) -> std::sync::RwLockReadGuard<'_, Packet> {
        self.inner.packet.read()
    }

    /// Acquires a write guard on the packet (batch twin of
    /// [`SharedPacket::with_write`]). The data plane only write-locks
    /// descriptors owned by exactly one NF, so the lock is uncontended.
    pub fn write_guard(&self) -> std::sync::RwLockWriteGuard<'_, Packet> {
        self.inner.packet.write()
    }

    /// Runs `f` with exclusive write access to the packet.
    ///
    /// The data plane only grants this to NFs that declared themselves
    /// non-read-only, which are never scheduled in parallel with others, so
    /// in practice the lock is uncontended.
    pub fn with_write<R>(&self, f: impl FnOnce(&mut Packet) -> R) -> R {
        f(&mut self.inner.packet.write())
    }

    /// Records that one parallel NF finished with the packet. Returns `true`
    /// for the final completion, i.e. when the caller should hand the packet
    /// to the TX thread for conflict resolution.
    pub fn complete_one(&self) -> bool {
        // ORDER: AcqRel — classic refcount-release protocol: the release
        // half publishes this NF's packet writes before the decrement, the
        // acquire half makes the *final* decrementer (who returns `true` and
        // hands the packet to TX conflict resolution) happen-after every
        // earlier decrementer's work. The RwLock also orders packet data,
        // but the descriptor handoff itself must not rely on it (the TX
        // thread reads the verdict without locking). Model-checked.
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
        // work before re-arming or reclaiming the descriptor.
        self.inner.remaining.load(Ordering::Acquire)
    }

    /// Re-arms the completion counter — and resets the verdict word — for
    /// another dispatch of the same packet (the TX thread does this when
    /// forwarding a packet to the next NF in a sequential chain, so the
    /// buffer is never copied).
    ///
    /// # Panics
    ///
    /// Panics if called while previous readers are still outstanding or if
    /// `readers` is zero.
    pub fn re_arm(&self, readers: u32) {
        assert!(readers > 0, "a shared packet needs at least one reader");
        // ORDER: Relaxed — the previous round's verdict was read by this
        // (TX) thread already; the reset is published to the next readers
        // by the release half of the `remaining` swap below.
        self.inner.verdict.store(0, Ordering::Relaxed);
        // ORDER: AcqRel — acquire so re-arming happens-after the previous
        // round's final `complete_one` (whose work the next readers may
        // read), release so the new readers' first decrement happens-after
        // the TX thread's forwarding decision.
        let previous = self.inner.remaining.swap(readers, Ordering::AcqRel);
        assert_eq!(
            previous, 0,
            "re_arm called while {previous} readers are still outstanding"
        );
    }

    /// The parallelization factor the packet was dispatched with.
    pub fn readers(&self) -> u32 {
        self.inner.readers
    }

    /// Returns `true` if both handles reference the same underlying packet
    /// buffer (used by batch dispatch to avoid locking one buffer twice).
    pub fn same_buffer(&self, other: &SharedPacket<M>) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Extracts the packet once all handles but this one are gone, or returns
    /// `self` if other NFs still reference it.
    pub fn try_into_packet(self) -> Result<Packet, SharedPacket<M>> {
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => Ok(inner.packet.into_inner()),
            Err(inner) => Err(SharedPacket { inner }),
        }
    }

    /// Moves the frame out of the descriptor, leaving an empty packet
    /// behind — how a packet leaves the host without being copied. Called
    /// by the TX thread after the final [`SharedPacket::complete_one`]:
    /// every NF dropped its guard before completing, so the write lock is
    /// free.
    pub fn take_packet(&self) -> Packet {
        std::mem::replace(
            &mut *self.inner.packet.write(),
            Packet::from_bytes(Vec::new()),
        )
    }

    /// Re-initialises an emptied descriptor for a new packet and dispatch
    /// round, reusing its allocation. Only a handle proven unique can be
    /// recycled: if an NF still holds a clone (it completed but has not
    /// dropped its handle yet) the packet and `meta` are handed back and
    /// the caller allocates a fresh descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `readers` is zero.
    pub fn recycle(mut self, packet: Packet, readers: u32, meta: M) -> Result<Self, (Packet, M)> {
        assert!(readers > 0, "a shared packet needs at least one reader");
        let Some(inner) = Arc::get_mut(&mut self.inner) else {
            return Err((packet, meta));
        };
        *inner.packet.get_mut() = packet;
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
                let payload = sp.with_read(|p| p.l4_payload().unwrap().to_vec());
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
    fn write_access_mutates_for_all() {
        let sp = SharedPacket::new(pkt(), 1);
        sp.with_write(|p| p.l4_payload_mut().unwrap()[0] = b'X');
        assert_eq!(sp.with_read(|p| p.l4_payload().unwrap()[0]), b'X');
    }

    #[test]
    fn into_packet_when_sole_owner() {
        let sp = SharedPacket::new(pkt(), 2);
        let clone = sp.clone();
        let sp = sp.try_into_packet().unwrap_err();
        drop(clone);
        let packet = sp.try_into_packet().unwrap();
        assert_eq!(packet.l4_payload().unwrap(), b"shared");
    }

    #[test]
    fn re_arm_allows_sequential_reuse() {
        let sp = SharedPacket::new(pkt(), 1);
        assert!(sp.complete_one());
        sp.re_arm(2);
        assert_eq!(sp.remaining(), 2);
        assert!(!sp.complete_one());
        assert!(sp.complete_one());
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
            sp.re_arm(1);
            assert_eq!(sp.verdict(), 0, "re_arm clears the previous hop's verdict");
        }
    }

    #[test]
    #[should_panic(expected = "still outstanding")]
    fn re_arm_with_outstanding_readers_panics() {
        let sp = SharedPacket::new(pkt(), 2);
        sp.re_arm(1);
    }

    #[test]
    fn take_packet_moves_the_frame_without_copying() {
        let packet = pkt();
        let frame = packet.data().as_ptr();
        let sp = SharedPacket::new(packet, 1);
        assert!(sp.complete_one());
        let out = sp.take_packet();
        assert_eq!(out.data().as_ptr(), frame, "same buffer, not a copy");
        assert!(sp.with_read(|p| p.is_empty()), "descriptor left empty");
    }

    #[test]
    fn exclusive_is_refused_while_any_clone_is_alive() {
        let mut sp = SharedPacket::new(pkt(), 2);
        assert!(sp.exclusive().is_some(), "a fresh handle is the only one");
        let straggler = sp.clone();
        assert!(sp.exclusive().is_none());
        // The clone's NF completing is not enough: it still holds the
        // handle, and could still be reading the frame through it.
        assert!(!straggler.complete_one());
        assert!(sp.complete_one());
        assert!(sp.exclusive().is_none());
        drop(straggler);
        let descriptor = sp.exclusive().expect("the clone is gone");
        assert_eq!(descriptor.take_packet().l4_payload().unwrap(), b"shared");
        assert!(sp.with_read(|p| p.is_empty()), "descriptor left empty");
    }

    #[test]
    fn an_exclusive_round_leaves_the_descriptor_as_a_shared_round_does() {
        use VerdictClass::*;
        for class in [Default, ToService, ToPort, Discard] {
            // Two descriptors at the end of the same finished round …
            let [shared, mut plain] = [(); 2].map(|_| {
                let sp = SharedPacket::new(pkt(), 1);
                sp.merge_verdict(verdict_key(class, 0, 7));
                assert!(sp.complete_one());
                sp
            });
            // … start the next from the same state: re-armed through the
            // atomics or in place.
            shared.re_arm(2);
            plain.exclusive().unwrap().re_arm(2);
            for handle in [&shared, &plain] {
                assert_eq!(handle.remaining(), 2);
                assert_eq!(handle.verdict(), 0);
                handle.merge_verdict(verdict_key(ToPort, 1, 9));
                assert!(!handle.complete_one());
                assert!(handle.complete_one());
                assert_eq!(verdict_parts(handle.verdict()), (ToPort, 9));
            }
            // And it leaves the same way: the frame taken out in place, the
            // emptied descriptor recycled.
            let frame = plain.exclusive().unwrap().take_packet();
            assert_eq!(frame.l4_payload().unwrap(), b"shared");
            assert!(plain.with_read(|p| p.is_empty()), "descriptor left empty");
            let plain = plain.recycle(pkt(), 3, ()).expect("unique handle recycles");
            assert_eq!(
                (plain.remaining(), plain.readers(), plain.verdict()),
                (3, 3, 0)
            );
        }
    }

    #[test]
    fn a_frame_completes_as_the_shared_path_completes() {
        use VerdictClass::*;
        // A sole frame's one NF answers and the frame is ready: its key is
        // the verdict, exactly what a one-reader descriptor resolves to.
        for class in [Default, ToService, ToPort, Discard] {
            let key = verdict_key(class, 0, 7);
            let mut sole = Frame::Sole(Box::new(SolePacket {
                packet: pkt(),
                verdict: 0,
                meta: (),
            }));
            let mut shared = Frame::Shared(SharedPacket::new(pkt(), 1));
            assert!(sole.complete(key));
            assert!(shared.complete(key));
            assert_eq!(sole.verdict(), shared.verdict(), "{class:?}");
            assert_eq!(sole.verdict(), key);
        }
        // A fan-out's handles merge like `fetch_max` and count down: the
        // higher-priority request wins whichever completes first.
        for order in [[0, 1], [1, 0]] {
            let keys = [verdict_key(ToPort, 1, 2), verdict_key(Discard, 0, 0)];
            let sp = SharedPacket::new(pkt(), 2);
            let mut handles = [Frame::Shared(sp.clone()), Frame::Shared(sp)];
            assert!(!handles[0].complete(keys[order[0]]));
            assert!(handles[1].complete(keys[order[1]]));
            assert_eq!(verdict_parts(handles[1].verdict()), (Discard, 0));
        }
    }

    #[test]
    fn meta_rides_either_kind_of_frame_and_recycle_replaces_it() {
        let sole = Frame::Sole(Box::new(SolePacket {
            packet: pkt(),
            verdict: 0,
            meta: 7u64,
        }));
        assert_eq!(*sole.meta(), 7);
        let shared = SharedPacket::with_meta(pkt(), 1, 8u64);
        let straggler = shared.clone();
        assert_eq!(*Frame::Shared(straggler.clone()).meta(), 8);
        let Err((_, meta)) = shared.recycle(pkt(), 1, 9) else {
            panic!("a shared descriptor must not be recycled");
        };
        assert_eq!(meta, 9, "the new meta comes back with the packet");
        let recycled = straggler.recycle(pkt(), 1, meta).expect("now unique");
        assert_eq!(*recycled.meta(), 9);
    }

    #[test]
    #[should_panic(expected = "still outstanding")]
    fn exclusive_re_arm_with_outstanding_readers_panics() {
        let mut sp = SharedPacket::new(pkt(), 2);
        sp.exclusive().unwrap().re_arm(1);
    }

    #[test]
    fn recycle_reuses_a_unique_descriptor_and_refuses_a_shared_one() {
        let sp = SharedPacket::new(pkt(), 2);
        sp.merge_verdict(verdict_key(VerdictClass::Discard, 0, 0));
        sp.complete_one();
        sp.complete_one();
        drop(sp.take_packet());
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
        let before = sp.clone();
        drop(sp);
        let sp = before
            .recycle(pkt(), 3, ())
            .expect("unique handle recycles");
        assert_eq!(sp.remaining(), 3);
        assert_eq!(sp.readers(), 3);
        assert_eq!(sp.verdict(), 0);
        assert_eq!(
            sp.with_read(|p| p.l4_payload().unwrap().to_vec()),
            b"shared"
        );
    }
}
