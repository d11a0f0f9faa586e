//! Bounded single-producer / single-consumer rings.
//!
//! The ring is a native lock-free Lamport queue: the producer owns the
//! `tail` cursor, the consumer owns the `head` cursor, and each side keeps a
//! mirror of its own cursor and a cached copy of the other's: staging and
//! taking touch no cursor's cache line, only a publish or a release stores
//! one, and only a full or empty view reloads the other side's. The [`Producer`] and [`Consumer`] handles are
//! separate owned (non-cloneable) types so that the single-producer /
//! single-consumer discipline the paper relies on for lock-freedom is
//! enforced by ownership rather than by convention.
//!
//! Batching is first-class, and a burst moves each element once: the
//! producer [`stage`](Producer::stage)s elements straight into their slots
//! and [`publish`](Producer::publish)es all of them with **one release
//! store** of its cursor; the consumer [`take`](Consumer::take)s them out
//! of their slots — or serves a run of them in place through
//! [`peek_mut`](Consumer::peek_mut) — and [`release`](Consumer::release)s
//! the slots with one release store of its own. This is DPDK's zero-copy
//! `rte_ring_*_zc_burst_start/finish` idiom; the paper's NF Manager hands
//! descriptors between NF rings in such bursts (§4.1). [`Producer::push_n`]
//! and [`Consumer::pop_n`] move a burst through a caller's `Vec` with the
//! same single cursor update.
//!
//! **Determinism.** When producer and consumer are driven from one thread
//! (the deterministic-simulation harness interleaves all actors on a
//! single scheduler thread), every operation is a pure function of the
//! call sequence: there is no internal concurrency, timing dependence or
//! randomized state, so a replayed call sequence yields identical results
//! — the property `sdnfv-dst` builds its byte-identical-replay guarantee
//! on.

use std::cell::Cell;
use std::sync::Arc;

use crate::sync::{AtomicUsize, Ordering, Slot};

/// Error returned by [`Producer::push`] when the ring is full; the rejected
/// element is handed back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub struct PushError<T>(pub T);

/// Pads a cursor to its own cache line so producer and consumer cursors do
/// not false-share.
#[repr(align(64))]
struct CachePadded<T>(T);

struct Shared<T> {
    buffer: Box<[Slot<T>]>,
    /// Index mask; the physical buffer length is a power of two.
    mask: usize,
    /// Logical capacity as requested by the caller (≤ physical length).
    capacity: usize,
    /// Consumer cursor: total elements ever dequeued.
    head: CachePadded<AtomicUsize>,
    /// Producer cursor: total elements ever enqueued.
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: the producer/consumer protocol guarantees a slot is accessed by
// exactly one side at a time (the cursors partition the buffer), so the ring
// is Sync whenever the element can be sent between threads.
unsafe impl<T: Send> Sync for Shared<T> {}
// SAFETY: same argument as Sync — the ring's contents are only `T`s (the
// slots) and cursors, all movable to another thread when `T: Send`.
unsafe impl<T: Send> Send for Shared<T> {}

impl<T> Shared<T> {
    #[inline]
    fn slot(&self, pos: usize) -> &Slot<T> {
        &self.buffer[pos & self.mask]
    }

    #[inline]
    fn len(&self) -> usize {
        // ORDER: Acquire on both cursors keeps this gauge as fresh as the
        // callers' other synchronization. Called from the producer, `tail`
        // is exact and a stale `head` only over-reports occupancy; from the
        // consumer, `head` is exact and a stale `tail` only under-reports —
        // both errors are on the conservative side for their callers
        // (backpressure and load-balancing decisions).
        let tail = self.tail.0.load(Ordering::Acquire);
        // ORDER: Acquire — same one-sided-staleness argument as above.
        let head = self.head.0.load(Ordering::Acquire);
        tail.wrapping_sub(head)
    }
}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Both handles are gone — the producer published what it staged,
        // the consumer released what it took — so `[head, tail)` is exactly
        // the elements still queued.
        let head = *self.head.0.get_mut();
        let tail = *self.tail.0.get_mut();
        let mut pos = head;
        while pos != tail {
            // SAFETY: `&mut self` proves exclusive access, and the cursors
            // delimit exactly the slots holding initialized, un-consumed
            // values.
            unsafe { self.slot(pos).drop_in_place() };
            pos = pos.wrapping_add(1);
        }
    }
}

/// Creates a bounded SPSC ring with space for `capacity` elements.
///
/// # Panics
///
/// Panics if `capacity` is zero.
pub fn spsc_ring<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0, "ring capacity must be non-zero");
    let physical = capacity.next_power_of_two();
    let buffer: Box<[Slot<T>]> = (0..physical).map(|_| Slot::new()).collect();
    let shared = Arc::new(Shared {
        buffer,
        mask: physical - 1,
        capacity,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
    });
    (
        Producer {
            shared: Arc::clone(&shared),
            cached_head: Cell::new(0),
            published: Cell::new(0),
            next: Cell::new(0),
            rejected: Cell::new(0),
        },
        Consumer {
            shared,
            cached_tail: Cell::new(0),
            released: Cell::new(0),
            next: Cell::new(0),
        },
    )
}

/// The producing side of an SPSC ring.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
    /// Last observed consumer cursor; refreshed only when the ring looks
    /// full, so steady-state pushes read no consumer-owned cache line.
    cached_head: Cell<usize>,
    /// The producer cursor as last published: `tail`, which only the
    /// producer stores, mirrored so staging reads no shared line.
    published: Cell<usize>,
    /// Where the next element goes: `published` plus the elements staged
    /// since.
    next: Cell<usize>,
    /// Pushes rejected because the ring was full (i.e. drops at this ring).
    rejected: Cell<u64>,
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        // Staged elements become queued ones, so the ring drops them.
        self.publish();
    }
}

impl<T> std::fmt::Debug for Producer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Producer")
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .finish()
    }
}

impl<T> Producer<T> {
    /// Returns how many slots are free from position `next` on, refreshing
    /// the cached consumer cursor if the cached view says fewer than
    /// `wanted` are available.
    #[inline]
    fn free_slots(&self, next: usize, wanted: usize) -> usize {
        let cap = self.shared.capacity;
        let mut free = cap - next.wrapping_sub(self.cached_head.get());
        if free < wanted {
            // ORDER: Acquire pairs with the consumer's Release store of
            // `head`: observing head == h proves the consumer has finished
            // reading every slot below h, so the producer may overwrite
            // them. (This is the edge that makes slot reuse race-free; the
            // model checker verifies it.)
            let head = self.shared.head.0.load(Ordering::Acquire);
            self.cached_head.set(head);
            free = cap - next.wrapping_sub(head);
        }
        free
    }

    /// Writes `value` into the next free slot without publishing it, or
    /// returns it in a [`PushError`] if the ring (staged elements counted)
    /// is full. The consumer sees it after the next
    /// [`publish`](Producer::publish).
    #[inline]
    pub fn stage(&self, value: T) -> Result<(), PushError<T>> {
        let next = self.next.get();
        if self.free_slots(next, 1) == 0 {
            self.rejected.set(self.rejected.get() + 1);
            return Err(PushError(value));
        }
        // SAFETY: `free_slots` proved slot `next` is unoccupied, and the
        // cursor protocol leaves it to the producer until it is published.
        unsafe { self.shared.slot(next).write(value) };
        self.next.set(next.wrapping_add(1));
        Ok(())
    }

    /// Makes every staged element visible to the consumer with one release
    /// store of the producer cursor. Returns how many it published.
    #[inline]
    pub fn publish(&self) -> usize {
        let next = self.next.get();
        let staged = next.wrapping_sub(self.published.get());
        if staged > 0 {
            // ORDER: Release publishes every staged slot write at once;
            // pairs with the consumer's Acquire load of `tail` in `visible`.
            self.shared.tail.0.store(next, Ordering::Release);
            self.published.set(next);
        }
        staged
    }

    /// Elements staged and not yet published.
    pub fn staged(&self) -> usize {
        self.next.get().wrapping_sub(self.published.get())
    }

    /// Enqueues `value` and publishes it together with anything staged
    /// before it, or returns it in a [`PushError`] if the ring is full.
    pub fn push(&self, value: T) -> Result<(), PushError<T>> {
        self.stage(value)?;
        self.publish();
        Ok(())
    }

    /// Enqueues a burst: moves as many elements as fit from the **front** of
    /// `items` (preserving order) and publishes them, and anything staged
    /// before them, with a single release store of the producer cursor.
    /// Returns how many were enqueued; the unpushed remainder stays in
    /// `items`.
    ///
    /// Every element that did not fit counts toward
    /// [`rejected`](Producer::rejected) — per call, so a caller that retries
    /// the remainder counts it again (exactly as retried scalar
    /// [`push`](Producer::push) calls do).
    pub fn push_n(&self, items: &mut Vec<T>) -> usize {
        let start = self.next.get();
        let fits = self.free_slots(start, items.len()).min(items.len());
        let unpushed = (items.len() - fits) as u64;
        if unpushed > 0 {
            self.rejected.set(self.rejected.get() + unpushed);
        }
        for (offset, value) in items.drain(..fits).enumerate() {
            // SAFETY: `free_slots` proved all `fits` slots from `start` on
            // are unoccupied and producer-owned until published.
            unsafe { self.shared.slot(start.wrapping_add(offset)).write(value) };
        }
        self.next.set(start.wrapping_add(fits));
        self.publish();
        fits
    }

    /// Number of elements currently queued: published and not yet
    /// released by the consumer (staged ones are not counted).
    pub fn len(&self) -> usize {
        self.shared.len()
    }

    /// Returns `true` if the ring holds no published elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if no slot is free (staged elements counted).
    pub fn is_full(&self) -> bool {
        self.free_space() == 0
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Slots currently free for staging or pushing: staged elements count
    /// as used. Exact from the producer side (the consumer only ever makes
    /// more room), so a single-threaded scheduler can use it to decide
    /// deterministically how much fits.
    pub fn free_space(&self) -> usize {
        self.capacity() - self.len() - self.staged()
    }

    /// Number of pushes rejected because the ring was full.
    pub fn rejected(&self) -> u64 {
        self.rejected.get()
    }
}

/// The consuming side of an SPSC ring.
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
    /// Last observed producer cursor; refreshed only when the ring looks
    /// empty, so a draining consumer reads no producer-owned cache line.
    cached_tail: Cell<usize>,
    /// The consumer cursor as last released: `head`, which only the
    /// consumer stores, mirrored so taking reads no shared line.
    released: Cell<usize>,
    /// The oldest element not yet taken: `released` plus the elements
    /// taken since.
    next: Cell<usize>,
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        // Taken elements were moved out: releasing their slots keeps the
        // ring from dropping them a second time.
        self.release();
    }
}

impl<T> std::fmt::Debug for Consumer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Consumer")
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .finish()
    }
}

impl<T> Consumer<T> {
    /// Returns how many elements are visible from position `from`,
    /// refreshing the cached producer cursor if the cached view says fewer
    /// than `wanted`.
    #[inline]
    fn visible(&self, from: usize, wanted: usize) -> usize {
        let mut available = self.cached_tail.get().wrapping_sub(from);
        if available < wanted {
            // ORDER: Acquire pairs with the producer's Release store of
            // `tail`: observing tail == t makes every slot write below t
            // visible, so the consumer may read those slots. (The model
            // checker's seeded-bug suite proves weakening either side of
            // this pair to Relaxed is caught as a data race.)
            let tail = self.shared.tail.0.load(Ordering::Acquire);
            self.cached_tail.set(tail);
            available = tail.wrapping_sub(from);
        }
        available
    }

    /// Moves the oldest unread element out of its slot, if any. The slot
    /// stays the consumer's until the next [`release`](Consumer::release).
    #[inline]
    pub fn take(&self) -> Option<T> {
        let next = self.next.get();
        if self.visible(next, 1) == 0 {
            return None;
        }
        // SAFETY: `visible` proved slot `next` holds a published value, and
        // the producer will not touch it again until `release` returns it;
        // `next` moves past it, so it is read only once.
        let value = unsafe { self.shared.slot(next).move_out() };
        self.next.set(next.wrapping_add(1));
        Some(value)
    }

    /// An in-place view of up to `max` unread elements, oldest first: two
    /// slices when the run wraps the end of the buffer (the second empty
    /// otherwise). The elements stay unread — [`take`](Consumer::take)
    /// moves them out afterwards.
    pub fn peek_mut(&mut self, max: usize) -> (&mut [T], &mut [T]) {
        let next = self.next.get();
        let len = self.visible(next, max).min(max);
        if len == 0 {
            return (&mut [], &mut []);
        }
        let buffer = &self.shared.buffer;
        let start = next & self.shared.mask;
        let first = len.min(buffer.len() - start);
        let front = Slot::run_ptr(&buffer[start..start + first]);
        let back = Slot::run_ptr(&buffer[..len - first]);
        // SAFETY: `visible` proved all `len` slots from `next` hold
        // published values; they are the consumer's until released, and
        // `&mut self` keeps `take` off them while the views live. The two
        // runs are disjoint: `len` never exceeds the capacity.
        unsafe {
            (
                std::slice::from_raw_parts_mut(front, first),
                std::slice::from_raw_parts_mut(back, len - first),
            )
        }
    }

    /// Returns every taken element's slot to the producer with one release
    /// store of the consumer cursor. Returns how many it released.
    #[inline]
    pub fn release(&self) -> usize {
        let next = self.next.get();
        let taken = next.wrapping_sub(self.released.get());
        if taken > 0 {
            // ORDER: Release returns every taken slot at once, after their
            // reads; pairs with the producer's Acquire load of `head` in
            // `free_slots`.
            self.shared.head.0.store(next, Ordering::Release);
            self.released.set(next);
        }
        taken
    }

    /// Dequeues the oldest element, if any, releasing its slot together
    /// with any taken before it.
    pub fn pop(&self) -> Option<T> {
        let value = self.take();
        self.release();
        value
    }

    /// Dequeues a burst: appends up to `max` elements to `out` and retires
    /// them, and any taken before them, with a single release store of the
    /// consumer cursor. Returns how many were dequeued.
    pub fn pop_n(&self, out: &mut Vec<T>, max: usize) -> usize {
        let popped = self.visible(self.next.get(), max).min(max);
        out.reserve(popped);
        out.extend(std::iter::from_fn(|| self.take()).take(popped));
        self.release();
        popped
    }

    /// Number of elements whose slots the consumer has not released yet:
    /// the ring's occupancy, which the shard worker's telemetry reports as
    /// queue depth.
    pub fn len(&self) -> usize {
        self.shared.len()
    }

    /// Returns `true` if the ring holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Total elements ever dequeued.
    pub fn dequeued(&self) -> u64 {
        // ORDER: Acquire so a caller that learned of traffic through other
        // synchronization (e.g. the DST oracle after quiescence) sees a
        // cursor at least as fresh; a stale value only under-reports.
        self.shared.head.0.load(Ordering::Acquire) as u64
    }

    /// Total elements ever enqueued.
    pub fn enqueued(&self) -> u64 {
        // ORDER: Acquire — same freshness argument as `dequeued`.
        self.shared.tail.0.load(Ordering::Acquire) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// Pops up to `max` elements into a fresh vector.
    fn popped<T>(rx: &Consumer<T>, max: usize) -> Vec<T> {
        let mut out = Vec::new();
        rx.pop_n(&mut out, max);
        out
    }

    #[test]
    fn push_pop_in_order() {
        let (tx, rx) = spsc_ring(4);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        tx.push(3).unwrap();
        assert_eq!(rx.len(), 3);
        assert_eq!(rx.pop(), Some(1));
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), Some(3));
        assert_eq!(rx.pop(), None);
        assert!(rx.is_empty());
    }

    #[test]
    fn full_ring_rejects_and_counts() {
        let (tx, rx) = spsc_ring(2);
        tx.push(10).unwrap();
        tx.push(11).unwrap();
        assert!(tx.is_full());
        assert_eq!(tx.push(12), Err(PushError(12)));
        assert_eq!(tx.rejected(), 1);
        assert_eq!(rx.pop(), Some(10));
        tx.push(13).unwrap();
        assert_eq!(popped(&rx, 10), vec![11, 13]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = spsc_ring::<u8>(0);
    }

    #[test]
    fn free_space_is_exact_for_the_producer() {
        let (tx, rx) = spsc_ring(4);
        assert_eq!(tx.free_space(), 4);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        assert_eq!(tx.free_space(), 2);
        assert_eq!(rx.pop(), Some(1));
        assert_eq!(tx.free_space(), 3);
        tx.push(3).unwrap();
        tx.push(4).unwrap();
        tx.push(5).unwrap();
        assert_eq!(tx.free_space(), 0);
        assert!(tx.is_full());
    }

    /// Single-threaded driving (the DST harness's mode) is deterministic:
    /// the same call sequence yields the same results, twice.
    #[test]
    fn single_threaded_replay_is_identical() {
        let run = || {
            let (tx, rx) = spsc_ring(8);
            let mut log = Vec::new();
            for round in 0..50u32 {
                let mut batch: Vec<u32> = (0..(round % 5)).map(|i| round * 10 + i).collect();
                log.push(tx.push_n(&mut batch) as u32);
                log.push(tx.free_space() as u32);
                log.extend(popped(&rx, (round % 3) as usize + 1));
                log.push(rx.len() as u32);
            }
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn counters_track_traffic() {
        let (tx, rx) = spsc_ring(8);
        for i in 0..5 {
            tx.push(i).unwrap();
        }
        assert_eq!(rx.enqueued(), 5);
        let _ = popped(&rx, 3);
        assert_eq!(rx.dequeued(), 3);
        assert_eq!(rx.len(), 2);
    }

    #[test]
    fn non_power_of_two_capacity_is_respected() {
        let (tx, rx) = spsc_ring(3);
        assert_eq!(tx.capacity(), 3);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        tx.push(3).unwrap();
        assert!(tx.is_full());
        assert_eq!(tx.push(4), Err(PushError(4)));
        assert_eq!(popped(&rx, 8), vec![1, 2, 3]);
    }

    #[test]
    fn push_n_moves_a_prefix_and_preserves_order() {
        let (tx, rx) = spsc_ring(4);
        let mut burst = vec![1, 2, 3, 4, 5, 6];
        assert_eq!(tx.push_n(&mut burst), 4);
        assert_eq!(burst, vec![5, 6], "unpushed remainder stays put");
        assert_eq!(tx.rejected(), 2, "partial push counts the remainder");
        assert!(tx.is_full());
        assert_eq!(tx.push_n(&mut burst), 0);
        assert_eq!(tx.rejected(), 4, "full-ring push counts the whole burst");
        assert_eq!(popped(&rx, 10), vec![1, 2, 3, 4]);
        assert_eq!(tx.push_n(&mut burst), 2);
        assert!(burst.is_empty());
        assert_eq!(tx.rejected(), 4, "successful burst adds nothing");
        assert_eq!(popped(&rx, 10), vec![5, 6]);
    }

    #[test]
    fn pop_n_appends_and_respects_max() {
        let (tx, rx) = spsc_ring(8);
        for i in 0..6 {
            tx.push(i).unwrap();
        }
        let mut out = vec![99];
        assert_eq!(rx.pop_n(&mut out, 4), 4);
        assert_eq!(out, vec![99, 0, 1, 2, 3]);
        assert_eq!(rx.pop_n(&mut out, 4), 2);
        assert_eq!(out, vec![99, 0, 1, 2, 3, 4, 5]);
        assert_eq!(rx.pop_n(&mut out, 4), 0);
    }

    #[test]
    fn batch_ops_wrap_around_the_buffer() {
        let (tx, rx) = spsc_ring(4);
        // Advance the cursors so bursts straddle the wrap point repeatedly.
        for round in 0..100u64 {
            let mut burst = vec![round * 3, round * 3 + 1, round * 3 + 2];
            assert_eq!(tx.push_n(&mut burst), 3);
            let mut out = Vec::new();
            assert_eq!(rx.pop_n(&mut out, 3), 3);
            assert_eq!(out, vec![round * 3, round * 3 + 1, round * 3 + 2]);
        }
    }

    #[test]
    fn queued_elements_are_dropped_with_the_ring() {
        let payload = Arc::new(());
        let (tx, rx) = spsc_ring(8);
        for _ in 0..5 {
            tx.push(Arc::clone(&payload)).unwrap();
        }
        let _ = rx.pop();
        drop(tx);
        drop(rx);
        assert_eq!(Arc::strong_count(&payload), 1, "queued clones were dropped");
    }

    #[test]
    fn a_staged_item_is_invisible_until_publish() {
        let (tx, rx) = spsc_ring(4);
        tx.stage(1).unwrap();
        tx.stage(2).unwrap();
        assert_eq!(tx.staged(), 2);
        assert_eq!(rx.take(), None, "staged items are not published");
        assert!(rx.is_empty());
        assert_eq!(tx.publish(), 2);
        assert_eq!(tx.staged(), 0);
        assert_eq!(tx.publish(), 0, "nothing left to publish");
        assert_eq!(rx.take(), Some(1));
        assert_eq!(rx.take(), Some(2));
        assert_eq!(rx.take(), None);
        assert_eq!(rx.release(), 2);
        assert!(rx.is_empty());
    }

    #[test]
    fn free_space_counts_staged_items() {
        let (tx, _rx) = spsc_ring(3);
        tx.stage(1).unwrap();
        assert_eq!(tx.free_space(), 2);
        tx.stage(2).unwrap();
        tx.stage(3).unwrap();
        assert_eq!(tx.free_space(), 0);
        assert!(tx.is_full());
        assert_eq!(tx.stage(4), Err(PushError(4)));
        assert_eq!(tx.rejected(), 1);
        tx.publish();
        assert_eq!(tx.free_space(), 0, "published items still hold their slots");
    }

    #[test]
    fn push_after_stage_keeps_fifo_order() {
        let (tx, rx) = spsc_ring(8);
        tx.stage(1).unwrap();
        tx.push(2).unwrap();
        tx.stage(3).unwrap();
        let mut burst = vec![4, 5];
        assert_eq!(tx.push_n(&mut burst), 2);
        assert_eq!(tx.staged(), 0, "push and push_n publish what was staged");
        assert_eq!(popped(&rx, 8), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn the_producer_sees_no_room_until_release() {
        let (tx, rx) = spsc_ring(2);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        assert_eq!(rx.take(), Some(1));
        assert_eq!(rx.take(), Some(2));
        assert_eq!(
            tx.stage(3),
            Err(PushError(3)),
            "taken slots are not free yet"
        );
        assert_eq!(tx.free_space(), 0);
        assert_eq!(rx.len(), 2, "taken elements hold their slots");
        assert_eq!(rx.release(), 2);
        assert_eq!(tx.free_space(), 2);
        tx.stage(3).unwrap();
        tx.publish();
        assert_eq!(rx.pop(), Some(3));
        assert_eq!(rx.dequeued(), 3);
    }

    #[test]
    fn peek_mut_across_the_wrap_returns_two_slices_in_order() {
        let (tx, mut rx) = spsc_ring(4);
        for v in 0..3 {
            tx.push(v).unwrap();
        }
        assert_eq!(popped(&rx, 3), vec![0, 1, 2]);
        // The next four elements occupy slots 3, 0, 1, 2.
        for v in 3..7 {
            tx.stage(v).unwrap();
        }
        tx.publish();
        let (front, back) = rx.peek_mut(8);
        assert_eq!((&*front, &*back), (&[3][..], &[4, 5, 6][..]));
        for v in front.iter_mut().chain(back.iter_mut()) {
            *v *= 10;
        }
        let (front, back) = rx.peek_mut(2);
        assert_eq!(
            (&*front, &*back),
            (&[30][..], &[40][..]),
            "max bounds the view"
        );
        assert_eq!(rx.take(), Some(30));
        let (front, back) = rx.peek_mut(8);
        assert_eq!(
            (&*front, &*back),
            (&[40, 50, 60][..], &[][..]),
            "the view starts past taken items"
        );
        assert_eq!(popped(&rx, 8), vec![40, 50, 60], "in-place writes stick");
        let (front, back) = rx.peek_mut(8);
        assert!(front.is_empty() && back.is_empty());
    }

    /// Counts its drops in a shared counter.
    #[derive(Debug)]
    struct Counted(Arc<std::sync::atomic::AtomicUsize>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    #[test]
    fn dropping_the_ring_drops_staged_items_once_and_taken_ones_never_again() {
        let drops = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let counted = || Counted(Arc::clone(&drops));
        let dropped = || drops.load(std::sync::atomic::Ordering::Relaxed);
        // Staged and never published: the ring drops each once.
        let (tx, rx) = spsc_ring(4);
        tx.push(counted()).unwrap();
        tx.stage(counted()).unwrap();
        tx.stage(counted()).unwrap();
        drop(tx);
        drop(rx);
        assert_eq!(dropped(), 3);
        // Taken and never released: the taker dropped them, the ring must
        // not drop them again; the untaken one is the ring's.
        let (tx, rx) = spsc_ring(4);
        for _ in 0..3 {
            tx.push(counted()).unwrap();
        }
        drop(rx.take());
        drop(rx.take());
        assert_eq!(dropped(), 5);
        drop(rx);
        drop(tx);
        assert_eq!(dropped(), 6);
    }

    #[test]
    fn cross_thread_delivery_preserves_all_elements() {
        let (tx, rx) = spsc_ring(64);
        const N: u64 = 100_000;
        let producer = thread::spawn(move || {
            for i in 0..N {
                let mut v = i;
                loop {
                    match tx.push(v) {
                        Ok(()) => break,
                        Err(PushError(back)) => {
                            v = back;
                            std::hint::spin_loop();
                        }
                    }
                }
            }
        });
        let consumer = thread::spawn(move || {
            let mut next = 0u64;
            while next < N {
                if let Some(v) = rx.pop() {
                    assert_eq!(v, next, "elements must arrive in order");
                    next += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
            next
        });
        producer.join().unwrap();
        assert_eq!(consumer.join().unwrap(), N);
    }

    #[test]
    fn cross_thread_batched_delivery_preserves_all_elements() {
        let (tx, rx) = spsc_ring(64);
        const N: u64 = 100_000;
        let producer = thread::spawn(move || {
            let mut pending: Vec<u64> = Vec::new();
            let mut next = 0u64;
            while next < N || !pending.is_empty() {
                while pending.len() < 32 && next < N {
                    pending.push(next);
                    next += 1;
                }
                if tx.push_n(&mut pending) == 0 {
                    std::hint::spin_loop();
                }
            }
        });
        let consumer = thread::spawn(move || {
            let mut next = 0u64;
            let mut out = Vec::new();
            while next < N {
                out.clear();
                if rx.pop_n(&mut out, 32) == 0 {
                    std::hint::spin_loop();
                    continue;
                }
                for v in &out {
                    assert_eq!(*v, next, "elements must arrive in order");
                    next += 1;
                }
            }
            next
        });
        producer.join().unwrap();
        assert_eq!(consumer.join().unwrap(), N);
    }
}
