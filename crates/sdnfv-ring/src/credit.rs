//! Credit-based admission control for a bounded pipeline stage.
//!
//! A [`CreditGate`] is a shared counter of "packet slots" a pipeline shard is
//! willing to hold in flight. Every admitted packet holds one credit; the
//! ingress side takes a burst's credits with one
//! [`CreditGate::acquire_up_to`] (a lone packet with
//! [`CreditGate::try_acquire`]`(1)`), and the egress side releases a credit
//! when its packet reaches a terminal state (transmitted, dropped by a
//! verdict, punted). Packets the gate has no credit for are *throttled* —
//! handed back to the caller instead of silently dropped inside the
//! pipeline, which is the backpressure scheme the sharded
//! [`sdnfv-dataplane`](../sdnfv_dataplane/index.html) runtime builds on. A
//! burst's grant covers a prefix of its packets, so a throttled packet is
//! never followed by an admitted one.
//!
//! The gate is a pair of atomics: `try_acquire` and `acquire_up_to` are CAS
//! loops, `release` a fetch-add. Any number of threads may acquire and
//! release concurrently.
//! The budget is **elastic**: [`CreditGate::resize`] grows or shrinks the
//! capacity while packets are in flight — shrinking lets the available
//! count go temporarily negative, so outstanding packets drain normally and
//! the gate converges to the new budget as their credits come back.

use crate::sync::{AtomicIsize, AtomicUsize, Ordering};

/// A shared, resizable pool of admission credits (see the module docs).
#[derive(Debug)]
pub struct CreditGate {
    capacity: AtomicUsize,
    /// Credits currently available. Negative while a shrink waits for
    /// in-flight packets to drain.
    available: AtomicIsize,
    /// High-watermark of every capacity this gate has ever had. The
    /// `release` overflow assert checks against this instead of the live
    /// capacity: a concurrent shrink can slip between `release`'s fetch-add
    /// and its capacity load (no ordering prevents that — it is a
    /// time-of-check race, found by the model checker's racing
    /// release-vs-resize check), but nothing ever lowers the watermark, so
    /// the bound it gives can never be transiently tighter than the credits
    /// legitimately outstanding.
    peak_capacity: AtomicUsize,
}

impl CreditGate {
    /// Creates a gate holding `capacity` credits, all available.
    pub fn new(capacity: usize) -> Self {
        CreditGate {
            capacity: AtomicUsize::new(capacity),
            available: AtomicIsize::new(capacity as isize),
            peak_capacity: AtomicUsize::new(capacity),
        }
    }

    /// The gate's current credit budget.
    pub fn capacity(&self) -> usize {
        // ORDER: Relaxed — a monotonic-enough gauge for telemetry; callers
        // that need a capacity consistent with credit movements get it via
        // the happens-before the AcqRel credit RMWs below already establish.
        // (Downgraded from Acquire; the model checker's racing-resize check
        // passes with Relaxed.)
        self.capacity.load(Ordering::Relaxed)
    }

    /// Credits currently available for acquisition (0 while a shrink is
    /// draining).
    pub fn available(&self) -> usize {
        // ORDER: Relaxed — gauge; see `capacity`.
        self.available.load(Ordering::Relaxed).max(0) as usize
    }

    /// Credits currently held (packets in flight behind this gate).
    pub fn in_flight(&self) -> usize {
        // ORDER: Relaxed — gauge; the two loads are not a consistent pair
        // under concurrent resize either way (the max(0) clamp absorbs the
        // transient), so stronger orderings buy nothing.
        let capacity = self.capacity.load(Ordering::Relaxed) as isize;
        // ORDER: Relaxed — same gauge argument as the load above.
        let available = self.available.load(Ordering::Relaxed);
        (capacity - available).max(0) as usize
    }

    /// Attempts to take `n` credits at once; returns `false` (taking none)
    /// if fewer than `n` are available.
    pub fn try_acquire(&self, n: usize) -> bool {
        let wanted = n as isize;
        // ORDER: Relaxed — this value is only a CAS hint; the CAS revalidates
        // it, so a stale read costs one retry, never correctness. (Downgraded
        // from Acquire; model-checked.)
        let mut current = self.available.load(Ordering::Relaxed);
        loop {
            if current < wanted {
                return false;
            }
            // ORDER: success AcqRel — the acquire half folds the releasing
            // threads' and resizer's history into this thread (so a later
            // `release` computes its overflow assert against a capacity at
            // least as new as the credits just consumed); the release half
            // keeps this RMW a link in the location's release sequence for
            // the next acquirer. Failure Relaxed — the returned value is
            // only the next CAS hint (downgraded from Acquire;
            // model-checked).
            match self.available.compare_exchange_weak(
                current,
                current - wanted,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => current = actual,
            }
        }
    }

    /// Takes as many of `n` credits as are available, at most `n`, in one
    /// compare-and-swap, and returns how many it took (0 when none are
    /// available or a shrink is draining).
    pub fn acquire_up_to(&self, n: usize) -> usize {
        let wanted = n as isize;
        // ORDER: Relaxed — a CAS hint, revalidated by the CAS; as in
        // `try_acquire`.
        let mut current = self.available.load(Ordering::Relaxed);
        loop {
            let granted = current.min(wanted);
            if granted <= 0 {
                return 0;
            }
            // ORDER: success AcqRel, failure Relaxed — the same reasons as
            // `try_acquire`'s CAS: the acquire half brings in the releasers'
            // and resizer's history, the release half keeps the RMW a link
            // in the release sequence, and a failed CAS yields only the next
            // hint. (Model-checked against a racing release and resize.)
            match self.available.compare_exchange_weak(
                current,
                current - granted,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return granted as usize,
                Err(actual) => current = actual,
            }
        }
    }

    /// Returns `n` credits to the pool.
    ///
    /// Releasing more credits than were acquired is a bookkeeping bug in the
    /// caller; debug builds assert on it.
    pub fn release(&self, n: usize) {
        if n == 0 {
            return;
        }
        // ORDER: AcqRel — the release half publishes this packet's terminal
        // state to the next acquirer of the credit; the acquire half
        // synchronizes with `resize` (whose own AcqRel fetch-add on this
        // location carries the capacity update), which is what makes the
        // assert below sound.
        let previous = self.available.fetch_add(n as isize, Ordering::AcqRel);
        // The bound is the capacity *high-watermark*, not the live capacity:
        // asserting against the live value is racy — the model checker found
        // a counterexample where a full shrink executes between the
        // fetch-add above and the capacity load, making a correct release
        // look like an overflow. No ordering fixes a time-of-check race;
        // the monotonic watermark does.
        // ORDER: Relaxed — sound because the AcqRel fetch-add above
        // happens-after any grow that handed out the credits being returned
        // (grow raises the watermark *before* its fetch-add), so coherence
        // forces even a relaxed load to observe the raised watermark; and
        // nothing ever lowers it. (Model-checked: the racing
        // release-vs-resize check proves the assert never fires.)
        debug_assert!(
            previous + n as isize <= self.peak_capacity.load(Ordering::Relaxed) as isize,
            "credit release overflow: {previous} + {n} > peak capacity {}",
            self.peak_capacity.load(Ordering::Relaxed)
        );
    }

    /// Changes the credit budget to `new_capacity` without interrupting
    /// traffic.
    ///
    /// Growing hands out the extra credits immediately. Shrinking withdraws
    /// credits that may currently be held by in-flight packets: the
    /// available count goes negative and recovers as those packets reach a
    /// terminal state and release — no packet is dropped and no new packet
    /// is admitted past the new budget.
    ///
    /// Concurrent `resize` calls race each other (last write to the capacity
    /// wins); the data-plane runtime serializes them on one control thread.
    pub fn resize(&self, new_capacity: usize) {
        // Ordering matters for the `release` overflow assert: when growing,
        // publish the larger capacity before handing out credits; when
        // shrinking, withdraw credits before publishing the smaller
        // capacity. Either way the assert's bound is never transiently
        // tighter than the credits actually outstanding.
        // ORDER: Relaxed — resize calls are serialized by the caller (see
        // above); the serializing handoff provides the happens-before that
        // makes this load see the previous resize's store, and coherence
        // does the rest. (Downgraded from Acquire; model-checked.)
        let old = self.capacity.load(Ordering::Relaxed);
        let delta = new_capacity as isize - old as isize;
        // ORDER: Relaxed — raised *before* any credits from a grow are
        // handed out (sequenced before the fetch-add below), so a `release`
        // whose RMW happens-after the grow observes the raised watermark by
        // coherence; the RMW's atomicity keeps concurrent resizes from
        // losing a max.
        self.peak_capacity
            .fetch_max(new_capacity, Ordering::Relaxed);
        if delta > 0 {
            // ORDER: Release store sequenced before the AcqRel fetch-add, so
            // any thread whose credit RMW happens-after ours also sees the
            // grown capacity (the `release` assert relies on this order).
            self.capacity.store(new_capacity, Ordering::Release);
            // ORDER: AcqRel — hands out the new credits while keeping this
            // RMW a release-sequence link for concurrent acquirers.
            self.available.fetch_add(delta, Ordering::AcqRel);
        } else if delta < 0 {
            // ORDER: withdraw first (AcqRel keeps the RMW chain intact),
            // publish the smaller capacity after — a concurrent `release`
            // may still read the old, larger capacity, which only loosens
            // its overflow bound.
            self.available.fetch_add(delta, Ordering::AcqRel);
            // ORDER: Release — pairs with the acquire half of the credit
            // RMWs so later credit movements see the shrunken budget.
            self.capacity.store(new_capacity, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn acquire_and_release_round_trip() {
        let gate = CreditGate::new(4);
        assert_eq!(gate.capacity(), 4);
        assert_eq!(gate.available(), 4);
        assert!(gate.try_acquire(3));
        assert_eq!(gate.available(), 1);
        assert_eq!(gate.in_flight(), 3);
        assert!(!gate.try_acquire(2), "only one credit left");
        assert!(gate.try_acquire(1));
        assert!(!gate.try_acquire(1), "exhausted");
        gate.release(4);
        assert_eq!(gate.available(), 4);
        assert_eq!(gate.in_flight(), 0);
    }

    #[test]
    fn acquire_up_to_takes_what_is_there() {
        let gate = CreditGate::new(5);
        assert_eq!(gate.acquire_up_to(3), 3);
        assert_eq!(gate.acquire_up_to(3), 2, "only two left");
        assert_eq!(gate.acquire_up_to(3), 0, "exhausted");
        assert_eq!(gate.in_flight(), 5);
        gate.release(5);
        assert_eq!(gate.acquire_up_to(0), 0);
        assert_eq!(gate.available(), 5);
        // A shrink that leaves the count negative grants nothing until the
        // overshoot drains.
        assert_eq!(gate.acquire_up_to(5), 5);
        gate.resize(2);
        assert_eq!(gate.acquire_up_to(1), 0);
        gate.release(4);
        assert_eq!(gate.acquire_up_to(4), 1, "one over budget still held");
    }

    #[test]
    fn zero_sized_operations_are_no_ops() {
        let gate = CreditGate::new(2);
        assert!(gate.try_acquire(0));
        gate.release(0);
        assert_eq!(gate.available(), 2);
    }

    #[test]
    fn grow_hands_out_credits_immediately() {
        let gate = CreditGate::new(2);
        assert!(gate.try_acquire(2));
        assert!(!gate.try_acquire(1));
        gate.resize(5);
        assert_eq!(gate.capacity(), 5);
        assert_eq!(gate.available(), 3);
        assert_eq!(gate.in_flight(), 2);
        assert!(gate.try_acquire(3));
    }

    #[test]
    fn shrink_drains_through_in_flight_packets() {
        let gate = CreditGate::new(8);
        assert!(gate.try_acquire(6)); // 6 in flight, 2 available
        gate.resize(4);
        assert_eq!(gate.capacity(), 4);
        // 6 in flight against a budget of 4: nothing available, nothing
        // admitted until the overshoot drains.
        assert_eq!(gate.available(), 0);
        assert_eq!(gate.in_flight(), 6);
        assert!(!gate.try_acquire(1));
        gate.release(2);
        assert_eq!(gate.available(), 0, "still one over budget");
        assert!(!gate.try_acquire(1));
        gate.release(4);
        assert_eq!(gate.available(), 4);
        assert_eq!(gate.in_flight(), 0);
        assert!(gate.try_acquire(4));
    }

    #[test]
    fn shrink_with_idle_gate_takes_effect_immediately() {
        let gate = CreditGate::new(8);
        gate.resize(3);
        assert_eq!(gate.available(), 3);
        assert!(gate.try_acquire(3));
        assert!(!gate.try_acquire(1));
        gate.release(3);
        assert_eq!(gate.available(), 3);
    }

    #[test]
    fn concurrent_acquire_release_conserves_credits() {
        let gate = Arc::new(CreditGate::new(64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let gate = Arc::clone(&gate);
            handles.push(std::thread::spawn(move || {
                let mut acquired = 0u64;
                for _ in 0..10_000 {
                    if gate.try_acquire(1) {
                        acquired += 1;
                        gate.release(1);
                    } else {
                        std::hint::spin_loop();
                    }
                }
                acquired
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0);
        assert_eq!(gate.available(), 64, "all credits returned");
    }
}
