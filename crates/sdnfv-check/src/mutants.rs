//! Seeded-bug variants that prove the model checker has teeth.
//!
//! Each scenario here re-implements one of the shipping algorithms on the
//! same instrumented atomics, with a single deliberate bug selected by an
//! enum knob — the textbook mistakes the checker exists to catch: a
//! `Release` publish weakened to `Relaxed`, a weakened `Acquire` observe,
//! an off-by-one in the ring's free-slot computation, a deferred publish
//! weakened to `Relaxed`, a slot released before the take that reads it, a
//! dropped credit
//! release, torn (load-then-store) read-modify-writes, a descriptor
//! re-arm that forgets to reset the verdict word, a flow-table write
//! that publishes its generation before the change or to the wrong
//! partition, a table answer that claims to hold for every flow while the
//! step has exact rules, a step memo that keeps its first decision, and a
//! bucket-drain count whose finish publishes nothing or whose admit comes
//! after the packet is visible to the worker, and an NF-message hand-back
//! whose worker drains before it takes, whose NF publishes before it
//! sends, or whose NF answers a request before a burst it holds.
//! The `None`
//! variant of every knob is the faithful algorithm and must pass
//! exhaustively; every other variant must produce a violation. The
//! mutation self-tests in `tests/model_mutants.rs` assert both directions,
//! so a regression that blinds the checker (or a checker change that
//! starts flagging correct code) fails CI.
//!
//! The mini implementations are deliberately minimal — a handful of
//! atomic operations per thread — so the bounded-exhaustive search covers
//! them in milliseconds.

use std::cell::Cell;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};

use sdnfv_dataplane::rehome::BucketTracker;
use sdnfv_dataplane::LookupCache;
use sdnfv_flowtable::{
    generation_partition, Action, Decision, FlowMatch, FlowRule, FlowTable, RulePort,
    GENERATION_PARTITIONS,
};
use sdnfv_proto::flow::{FlowKey, IpProtocol};
use sdnfv_proto::packet::PacketBuilder;
use sdnfv_ring::model::{self, CheckOpts, CheckReport};
use sdnfv_ring::sync::{AtomicIsize, AtomicU32, AtomicU64, AtomicUsize, Ordering, Slot};
use sdnfv_ring::{
    spsc_ring, verdict_key, verdict_parts, Consumer, Producer, SharedPacket, VerdictClass,
};

/// Which bug (if any) to seed into the miniature SPSC ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingBug {
    /// Faithful algorithm; must pass.
    None,
    /// The producer publishes the new tail with `Relaxed` instead of
    /// `Release`: the consumer can observe the cursor before the slot
    /// write — a data race / uninitialized read.
    RelaxedPublish,
    /// The consumer observes the tail with `Relaxed` instead of `Acquire`:
    /// same race, from the other side of the edge.
    RelaxedObserve,
    /// The free-slot computation over-counts by one, letting the producer
    /// overwrite a slot the consumer has not consumed yet.
    WrapOffByOne,
}

/// A miniature Lamport SPSC ring over the instrumented atomics, with a
/// seeded-bug knob. Mirrors the cursor/publish protocol of
/// [`sdnfv_ring::spsc`] without the burst machinery.
struct MiniRing {
    head: AtomicUsize,
    tail: AtomicUsize,
    slots: Box<[Slot<u64>]>,
    capacity: usize,
    bug: RingBug,
}

// SAFETY: the scenario below upholds the one-producer/one-consumer
// discipline by construction (one pushing thread, one popping thread), and
// the model checker independently verifies every slot access for races.
unsafe impl Sync for MiniRing {}
// SAFETY: the payload is `u64`; moving the ring between threads is safe.
unsafe impl Send for MiniRing {}

impl MiniRing {
    fn new(capacity: usize, bug: RingBug) -> Self {
        MiniRing {
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            capacity,
            bug,
        }
    }

    fn push(&self, value: u64) -> bool {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        let used = tail.wrapping_sub(head);
        let free = if self.bug == RingBug::WrapOffByOne {
            // Seeded bug: one phantom slot of headroom.
            self.capacity + 1 - used
        } else {
            self.capacity - used
        };
        if free == 0 {
            return false;
        }
        // SAFETY: producer-owned slot under the cursor protocol; under the
        // WrapOffByOne bug this is exactly the overwrite the checker must
        // catch (via the FIFO assertion or a race on the slot).
        unsafe { self.slots[tail % self.capacity].write(value) };
        let publish = if self.bug == RingBug::RelaxedPublish {
            Ordering::Relaxed
        } else {
            Ordering::Release
        };
        self.tail.store(tail.wrapping_add(1), publish);
        true
    }

    fn pop(&self) -> Option<u64> {
        let head = self.head.load(Ordering::Relaxed);
        let observe = if self.bug == RingBug::RelaxedObserve {
            Ordering::Relaxed
        } else {
            Ordering::Acquire
        };
        let tail = self.tail.load(observe);
        if tail == head {
            return None;
        }
        // SAFETY: consumer-owned slot in `[head, tail)`; under the
        // weakened-ordering bugs the checker flags this access as a race.
        let value = unsafe { self.slots[head % self.capacity].move_out() };
        self.head.store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }
}

impl Drop for MiniRing {
    fn drop(&mut self) {
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        for pos in head..tail {
            // SAFETY: `&mut self` proves exclusivity; `[head, tail)` holds
            // initialized values (u64 — dropping is a no-op, kept for
            // protocol fidelity).
            unsafe { self.slots[pos % self.capacity].drop_in_place() };
        }
    }
}

/// Runs a 1P×1C scenario over [`MiniRing`] with the given seeded bug and
/// returns the raw report. `RingBug::None` must pass exhaustively; every
/// other knob must yield a violation.
pub fn ring_scenario(bug: RingBug, opts: CheckOpts) -> CheckReport {
    model::explore(opts, move || {
        let ring = Arc::new(MiniRing::new(2, bug));
        let p = {
            let ring = Arc::clone(&ring);
            model::spawn(move || {
                let mut pushed = 0u64;
                for v in 1..=3u64 {
                    if !ring.push(v) {
                        break;
                    }
                    pushed = v;
                }
                pushed
            })
        };
        let c = {
            let ring = Arc::clone(&ring);
            model::spawn(move || {
                let mut got = Vec::new();
                for _ in 0..3 {
                    if let Some(v) = ring.pop() {
                        got.push(v);
                    }
                }
                got
            })
        };
        let pushed = p.join();
        let mut got = c.join();
        while let Some(v) = ring.pop() {
            got.push(v);
        }
        let expect: Vec<u64> = (1..=pushed).collect();
        assert_eq!(got, expect, "ring lost, duplicated or reordered items");
    })
}

/// The producing side of a ring with deferred publish, as
/// [`staged_rounds`] drives it.
pub(crate) trait StagingProducer: Send + 'static {
    /// Writes `value` into the next free slot unpublished; `false` if full.
    fn stage(&self, value: u64) -> bool;
    /// Makes every staged value visible to the consumer.
    fn publish(&self);
}

/// The consuming side of a ring with deferred release, as
/// [`staged_rounds`] drives it.
pub(crate) trait TakingConsumer: Send + 'static {
    /// What an in-place view of up to `max` unread values shows.
    fn peek(&mut self, max: usize) -> Vec<u64>;
    /// Moves the oldest unread value out; its slot stays unreleased.
    fn take(&self) -> Option<u64>;
    /// Returns every taken value's slot to the producer.
    fn release(&self);
}

impl StagingProducer for Producer<u64> {
    fn stage(&self, value: u64) -> bool {
        Producer::stage(self, value).is_ok()
    }

    fn publish(&self) {
        Producer::publish(self);
    }
}

impl TakingConsumer for Consumer<u64> {
    fn peek(&mut self, max: usize) -> Vec<u64> {
        let (front, back) = self.peek_mut(max);
        front.iter().chain(back.iter()).copied().collect()
    }

    fn take(&self) -> Option<u64> {
        Consumer::take(self)
    }

    fn release(&self) {
        Consumer::release(self);
    }
}

/// The staged-ring program over a capacity-2 ring: the producer stages two
/// values and publishes them, then stages a third (one retry, then it gives
/// up: the ring may still be full) and publishes again; the consumer views
/// the unread values in place, takes one and releases, takes another and
/// releases; the root, which happens-after both, takes what is left. The
/// view agrees with the takes that follow it, and the values arrive in
/// order, each once.
pub(crate) fn staged_rounds<P: StagingProducer, C: TakingConsumer>(producer: P, consumer: C) {
    let p = model::spawn(move || {
        assert!(
            producer.stage(1) && producer.stage(2),
            "an empty ring has room"
        );
        producer.publish();
        let third = producer.stage(3) || producer.stage(3);
        if third {
            producer.publish();
        }
        third
    });
    let c = model::spawn(move || {
        let mut consumer = consumer;
        let seen = consumer.peek(2);
        let mut got = Vec::new();
        for _ in 0..2 {
            if let Some(v) = consumer.take() {
                got.push(v);
            }
            consumer.release();
        }
        assert!(
            seen.iter().zip(&got).all(|(viewed, taken)| viewed == taken),
            "the in-place view {seen:?} disagrees with the takes {got:?}"
        );
        (consumer, got)
    });
    let third = p.join();
    let (consumer, mut got) = c.join();
    while let Some(v) = consumer.take() {
        got.push(v);
    }
    consumer.release();
    let expect: Vec<u64> = if third { vec![1, 2, 3] } else { vec![1, 2] };
    assert_eq!(
        got, expect,
        "staged ring lost, duplicated or reordered items"
    );
}

/// Which bug (if any) to seed into the miniature staged ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StagedBug {
    /// Faithful algorithm; must pass.
    None,
    /// `publish` stores the tail with `Relaxed` instead of `Release`: the
    /// consumer can take a value before the stage's slot write is visible.
    RelaxedPublish,
    /// `take` releases the slot before it reads it: the producer can stage
    /// into the slot while the consumer is still reading it.
    ReleaseBeforeTake,
}

/// The cursors and slots of a miniature ring with deferred publish and
/// release, mirroring [`sdnfv_ring::spsc`]'s stage/publish and
/// take/release without its cached cursors.
struct MiniStagedRing {
    head: AtomicUsize,
    tail: AtomicUsize,
    slots: Box<[Slot<u64>]>,
    bug: StagedBug,
}

// SAFETY: each half touches the slots its cursor protocol hands it (one
// producing thread, one consuming thread, the root after both join), and
// the model checker independently verifies every slot access for races.
unsafe impl Sync for MiniStagedRing {}
// SAFETY: the payload is `u64`; moving the ring between threads is safe.
unsafe impl Send for MiniStagedRing {}

impl MiniStagedRing {
    fn slot(&self, pos: usize) -> &Slot<u64> {
        &self.slots[pos % self.slots.len()]
    }
}

/// The producing half of a [`MiniStagedRing`].
struct MiniStager {
    ring: Arc<MiniStagedRing>,
    staged: Cell<usize>,
}

impl StagingProducer for MiniStager {
    fn stage(&self, value: u64) -> bool {
        let next = self.ring.tail.load(Ordering::Relaxed) + self.staged.get();
        if next - self.ring.head.load(Ordering::Acquire) == self.ring.slots.len() {
            return false;
        }
        // SAFETY: a free slot is the producer's until it is published.
        unsafe { self.ring.slot(next).write(value) };
        self.staged.set(self.staged.get() + 1);
        true
    }

    fn publish(&self) {
        let order = if self.ring.bug == StagedBug::RelaxedPublish {
            Ordering::Relaxed
        } else {
            Ordering::Release
        };
        let tail = self.ring.tail.load(Ordering::Relaxed);
        self.ring.tail.store(tail + self.staged.take(), order);
    }
}

/// The consuming half of a [`MiniStagedRing`].
struct MiniTaker {
    ring: Arc<MiniStagedRing>,
    taken: Cell<usize>,
}

impl MiniTaker {
    fn next_unread(&self) -> usize {
        self.ring.head.load(Ordering::Relaxed) + self.taken.get()
    }
}

impl TakingConsumer for MiniTaker {
    fn peek(&mut self, max: usize) -> Vec<u64> {
        let next = self.next_unread();
        let visible = self.ring.tail.load(Ordering::Acquire) - next;
        (next..next + visible.min(max))
            // SAFETY: a published, unreleased slot is the consumer's; the
            // view reads it in place.
            .map(|pos| unsafe { *Slot::run_ptr(std::slice::from_ref(self.ring.slot(pos))) })
            .collect()
    }

    fn take(&self) -> Option<u64> {
        let next = self.next_unread();
        if self.ring.tail.load(Ordering::Acquire) == next {
            return None;
        }
        self.taken.set(self.taken.get() + 1);
        if self.ring.bug == StagedBug::ReleaseBeforeTake {
            // Seeded bug: the slot goes back before it is read.
            self.release();
        }
        // SAFETY: a published slot is the consumer's until released; under
        // the ReleaseBeforeTake bug this read is the race the checker must
        // catch.
        Some(unsafe { self.ring.slot(next).move_out() })
    }

    fn release(&self) {
        let head = self.ring.head.load(Ordering::Relaxed);
        self.ring
            .head
            .store(head + self.taken.take(), Ordering::Release);
    }
}

/// Runs [`staged_rounds`] over a capacity-2 [`MiniStagedRing`] with the
/// given seeded bug. `StagedBug::None` must pass exhaustively; both seeded
/// bugs must yield a violation.
pub fn staged_scenario(bug: StagedBug, opts: CheckOpts) -> CheckReport {
    model::explore(opts, move || {
        let ring = Arc::new(MiniStagedRing {
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            slots: (0..2).map(|_| Slot::new()).collect(),
            bug,
        });
        staged_rounds(
            MiniStager {
                ring: Arc::clone(&ring),
                staged: Cell::new(0),
            },
            MiniTaker {
                ring,
                taken: Cell::new(0),
            },
        );
    })
}

/// Which bug (if any) to seed into the miniature credit gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateBug {
    /// Faithful algorithm; must pass.
    None,
    /// A worker that acquired a credit never returns it — the leak the
    /// conservation invariant exists to catch.
    DroppedRelease,
    /// `release` is a torn load-then-store instead of a `fetch_add`: two
    /// concurrent releases can lose one credit.
    TornRelease,
}

/// A miniature credit gate (CAS acquire, fetch-add release) with a
/// seeded-bug knob, mirroring [`sdnfv_ring::CreditGate`].
struct MiniGate {
    available: AtomicIsize,
    capacity: isize,
    bug: GateBug,
}

impl MiniGate {
    fn new(capacity: isize, bug: GateBug) -> Self {
        MiniGate {
            available: AtomicIsize::new(capacity),
            capacity,
            bug,
        }
    }

    fn try_acquire(&self) -> bool {
        let mut current = self.available.load(Ordering::Relaxed);
        loop {
            if current < 1 {
                return false;
            }
            match self.available.compare_exchange_weak(
                current,
                current - 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => current = actual,
            }
        }
    }

    fn release(&self) {
        match self.bug {
            GateBug::DroppedRelease => {}
            GateBug::TornRelease => {
                // Seeded bug: a non-atomic read-modify-write.
                let current = self.available.load(Ordering::Relaxed);
                self.available.store(current + 1, Ordering::Release);
            }
            GateBug::None => {
                self.available.fetch_add(1, Ordering::AcqRel);
            }
        }
    }
}

/// Two workers race acquire/release on a two-credit gate; conservation is
/// asserted after quiescence. `GateBug::None` must pass exhaustively;
/// both seeded bugs must violate the conservation assertion.
pub fn gate_scenario(bug: GateBug, opts: CheckOpts) -> CheckReport {
    model::explore(opts, move || {
        let gate = Arc::new(MiniGate::new(2, bug));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let gate = Arc::clone(&gate);
                model::spawn(move || {
                    if gate.try_acquire() {
                        gate.release();
                    }
                })
            })
            .collect();
        for w in workers {
            w.join();
        }
        let available = gate.available.load(Ordering::Acquire);
        assert_eq!(
            available, gate.capacity,
            "credits not conserved: {available} != {}",
            gate.capacity
        );
    })
}

/// Which bug (if any) to seed into the miniature histogram recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistBug {
    /// Faithful algorithm; must pass.
    None,
    /// `record` is a torn load-then-store on the bucket counter: two
    /// concurrent recorders into the same bucket can lose an increment.
    TornRecord,
}

/// Two recorders hit the same bucket of a one-bucket "histogram"; the
/// total is asserted after quiescence — the lost-update shape the real
/// histogram's shared form (`record_shared`, a relaxed `fetch_add`) is
/// immune to by RMW atomicity. `TornRecord` is exactly what the
/// single-recorder `record` does, so this mutant is the reason that
/// method must never have two callers.
pub fn hist_scenario(bug: HistBug, opts: CheckOpts) -> CheckReport {
    model::explore(opts, move || {
        let bucket = Arc::new(AtomicU64::new(0));
        let recorders: Vec<_> = (0..2)
            .map(|_| {
                let bucket = Arc::clone(&bucket);
                model::spawn(move || match bug {
                    HistBug::TornRecord => {
                        let current = bucket.load(Ordering::Relaxed);
                        bucket.store(current + 1, Ordering::Relaxed);
                    }
                    HistBug::None => {
                        bucket.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for r in recorders {
            r.join();
        }
        assert_eq!(
            bucket.load(Ordering::Acquire),
            2,
            "bucket lost an increment"
        );
    })
}

/// One NF's request in a verdict round: class and payload (the position is
/// the index in the round).
type Request = (VerdictClass, u32);

/// The two dispatch rounds of the verdict-cell scenario, as list-ordered
/// requests. Round one mixes all three explicit classes with two competing
/// ports; round two's answer is *lower* than round one's, so a verdict that
/// survives the re-arm cannot hide behind the new maximum.
const VERDICT_ROUNDS: [[Request; 3]; 2] = [
    [
        (VerdictClass::ToService, 7),
        (VerdictClass::ToPort, 2),
        (VerdictClass::ToPort, 1),
    ],
    [
        (VerdictClass::Default, 0),
        (VerdictClass::ToService, 9),
        (VerdictClass::Default, 0),
    ],
];

/// `resolve_parallel_verdicts`, restated over [`Request`]s (this crate sits
/// below the data plane): a drop wins, then the first listed transmit, then
/// the first listed steer, then the default. `sdnfv-dataplane`'s conflict
/// tests pin `Verdict` ⇄ key to the real function.
fn resolve(list: &[Request]) -> Request {
    [
        VerdictClass::Discard,
        VerdictClass::ToPort,
        VerdictClass::ToService,
    ]
    .iter()
    .find_map(|class| list.iter().find(|(c, _)| c == class).copied())
    .unwrap_or((VerdictClass::Default, 0))
}

/// The verdict-cell program, over any descriptor: per round, three NFs
/// each merge their request and complete; whichever performs the final
/// completion reads the merged word, which must equal [`resolve`] of the
/// list-ordered requests on every interleaving. The root thread (the TX
/// role, which happens-after the round through the joins, so its handle is
/// the only one left) recycles the descriptor between rounds.
pub(crate) fn verdict_rounds<D: Clone + Send + 'static>(
    mut descriptor: D,
    merge_and_complete: fn(&D, u64) -> Option<u64>,
    recycle: fn(D, u32) -> D,
) {
    for (round, requests) in VERDICT_ROUNDS.iter().enumerate() {
        if round > 0 {
            descriptor = recycle(descriptor, requests.len() as u32);
        }
        let nfs: Vec<_> = requests
            .iter()
            .enumerate()
            .map(|(position, &(class, payload))| {
                let descriptor = descriptor.clone();
                let key = verdict_key(class, position as u16, payload);
                model::spawn(move || merge_and_complete(&descriptor, key))
            })
            .collect();
        let read: Vec<u64> = nfs.into_iter().filter_map(|nf| nf.join()).collect();
        assert_eq!(read.len(), 1, "exactly one NF sees the final completion");
        assert_eq!(
            verdict_parts(read[0]),
            resolve(requests),
            "round {round}: merged word is not the resolved verdict"
        );
    }
}

/// Which bug (if any) to seed into the miniature packet descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictBug {
    /// Faithful algorithm; must pass.
    None,
    /// The merge is a load-then-store instead of a `fetch_max`: two NFs
    /// merging concurrently can overwrite each other — a lost verdict.
    TornMerge,
    /// `recycle` re-arms the counter but forgets to reset the verdict
    /// word: the next hop inherits the previous hop's verdict.
    StaleReArm,
}

/// The descriptor's two atomics (completion counter and verdict word) with
/// a seeded-bug knob, mirroring [`sdnfv_ring::SharedPacket`].
struct MiniDescriptor {
    remaining: AtomicU32,
    verdict: AtomicU64,
    bug: VerdictBug,
}

impl MiniDescriptor {
    fn merge_and_complete(&self, key: u64) -> Option<u64> {
        if self.bug == VerdictBug::TornMerge {
            // Seeded bug: a non-atomic read-modify-write.
            let current = self.verdict.load(Ordering::Relaxed);
            self.verdict.store(current.max(key), Ordering::Relaxed);
        } else {
            self.verdict.fetch_max(key, Ordering::Relaxed);
        }
        (self.remaining.fetch_sub(1, Ordering::AcqRel) == 1)
            .then(|| self.verdict.load(Ordering::Relaxed))
    }

    /// `SharedPacket::recycle`: plain writes through the handle proven
    /// unique.
    fn recycle(mut descriptor: Arc<Self>, readers: u32) -> Arc<Self> {
        let unique = Arc::get_mut(&mut descriptor).expect("a joined round leaves one handle");
        *unique.remaining.get_mut() = readers;
        if unique.bug != VerdictBug::StaleReArm {
            *unique.verdict.get_mut() = 0;
        }
        descriptor
    }
}

/// Runs [`verdict_rounds`] over [`MiniDescriptor`] with the given seeded
/// bug. `VerdictBug::None` must pass exhaustively; both seeded bugs must
/// fail the merged-word assertion.
pub fn verdict_scenario(bug: VerdictBug, opts: CheckOpts) -> CheckReport {
    model::explore(opts, move || {
        verdict_rounds(
            Arc::new(MiniDescriptor {
                remaining: AtomicU32::new(3),
                verdict: AtomicU64::new(0),
                bug,
            }),
            |d, key| d.merge_and_complete(key),
            MiniDescriptor::recycle,
        );
    })
}

/// The table lock as the model sees it: a try-lock on one recording atomic
/// (`Acquire` take, `Release` give-back), held around every use of the
/// table's own lock so that one is never contended — a model thread blocked
/// on a real lock would stall the explorer, which runs one thread at a
/// time. A bounded program cannot wait, so a thread that finds the lock
/// taken skips its critical section; the schedules in which that section
/// runs before or after the holder's are explored as their own branches.
pub(crate) struct ModelLock(AtomicU64);

impl ModelLock {
    pub(crate) fn new() -> Self {
        ModelLock(AtomicU64::new(0))
    }

    /// Runs `f` under the lock; `None` if the lock was busy.
    pub(crate) fn try_with<R>(&self, f: impl FnOnce() -> R) -> Option<R> {
        self.0
            .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .ok()?;
        let result = f();
        self.0.store(0, Ordering::Release);
        Some(result)
    }
}

/// A flow table as the generation ↔ lookup-cache protocol sees it: the
/// shipping `SharedFlowTable` in `checks::table_generation`, a seeded-bug
/// copy in [`table_scenario`].
pub(crate) trait GenerationTable: Send + Sync + 'static {
    /// The generation a cached decision for a flow of `hash` is tagged with.
    fn generation_for(&self, hash: u64) -> u64;
    /// A lookup under the table lock; `None` if the lock was busy.
    fn lookup(&self, step: RulePort, key: &FlowKey) -> Option<Option<Decision>>;
    /// The writer: installs the exact rule `pin` and publishes it, under the
    /// table lock (nothing if the lock was busy).
    fn pin(&self, pin: FlowRule);
    /// Makes `action` the default of every rule that allows it (a wildcard
    /// change: every partition moves), under the table lock.
    fn promote(&self, action: Action);
}

/// A lookup cache as the protocol sees it: the shipping `LookupCache`, or a
/// seeded-bug copy of its step memo in [`memo_scenario`].
pub(crate) trait GenerationCache: Send + 'static {
    /// The lookup path for `key` at [`STEP`], tagged `generation` (read
    /// before `table` runs); `table` gives the table's answer, `None` if it
    /// has none or was busy. Returns the answer and whether a step memo
    /// gave it.
    fn lookup(
        &mut self,
        key: &FlowKey,
        generation: u64,
        table: impl FnOnce() -> Option<Decision>,
    ) -> Option<(Decision, bool)>;

    /// Cached answers kept per flow (a step memo is not one).
    fn per_flow(&self) -> usize;
}

impl GenerationCache for LookupCache {
    fn lookup(
        &mut self,
        key: &FlowKey,
        generation: u64,
        table: impl FnOnce() -> Option<Decision>,
    ) -> Option<(Decision, bool)> {
        let memo_hits = self.memo_hits();
        let answer = self
            .lookup_with(key.stable_hash(), key, STEP, generation, 0, 0, table)?
            .clone();
        Some((answer, self.memo_hits() > memo_hits))
    }

    fn per_flow(&self) -> usize {
        self.len()
    }
}

/// The step every lookup of the table-generation program is made at.
const STEP: RulePort = RulePort::Nic(0);

/// The rule every flow follows before the writer runs: the only rule a
/// [`generation_rounds`] table starts with. Its second action is the
/// default the program's last step promotes.
pub(crate) fn forward_rule() -> FlowRule {
    FlowRule::new(
        FlowMatch::at_step(STEP),
        vec![Action::ToPort(1), Action::ToPort(3)],
    )
}

fn flow(src_port: u16) -> FlowKey {
    FlowKey::new(
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 2),
        src_port,
        80,
        IpProtocol::Tcp,
    )
}

/// The table-generation program, over a table holding [`forward_rule`] and
/// an empty cache: the root looks up flow K′, whose answer holds for every
/// flow and so fills the step's memo; then a writer pins flow K (another
/// partition) while the worker runs the cached-lookup protocol for K — load
/// K's generation as the tag, look K up under the lock, fill the cache, then
/// probe again. A probe that saw the writer's bump must not answer with the
/// decision from before the pin; once both are done, K is not answered from
/// the memo and the cache may answer for K only what the table answers,
/// while K′ still hits the memo. Last, the root changes the step's default:
/// K′'s next answer must be the new one.
pub(crate) fn generation_rounds<T: GenerationTable, C: GenerationCache>(table: Arc<T>, cache: C) {
    let pinned = flow(1);
    let other = (2..)
        .map(flow)
        .find(|key| {
            generation_partition(key.stable_hash()) != generation_partition(pinned.stable_hash())
        })
        .expect("a flow in another partition");
    let mut cache = cache;
    let tag = table.generation_for(other.stable_hash());
    let (before, _) = cache
        .lookup(&other, tag, || {
            table.lookup(STEP, &other).expect("nothing else runs yet")
        })
        .expect("the forward rule matches");
    assert_eq!(cache.per_flow(), 0, "the first fill went to the step memo");
    let stale = before.rule_id;
    let untouched = table.generation_for(pinned.stable_hash());
    let writer = {
        let table = Arc::clone(&table);
        model::spawn(move || {
            table.pin(FlowRule::new(
                FlowMatch::exact(STEP, &pinned),
                vec![Action::ToPort(2)],
            ))
        })
    };
    let worker = {
        let table = Arc::clone(&table);
        model::spawn(move || {
            let hash = pinned.stable_hash();
            let tag = table.generation_for(hash);
            cache.lookup(&pinned, tag, || table.lookup(STEP, &pinned).flatten());
            let seen = table.generation_for(hash);
            if let Some((answer, _)) = cache.lookup(&pinned, seen, || None) {
                assert!(
                    seen == untouched || answer.rule_id != stale,
                    "a probe that saw the bump answered with the decision from before the pin"
                );
            }
            cache
        })
    };
    writer.join();
    let mut cache = worker.join();
    // The root happens-after both threads.
    let now = table
        .lookup(STEP, &pinned)
        .expect("quiescent")
        .expect("a rule matches");
    let generation = table.generation_for(pinned.stable_hash());
    if let Some((answer, from_memo)) = cache.lookup(&pinned, generation, || None) {
        assert_eq!(
            answer.rule_id, now.rule_id,
            "a stale decision outlived the pin"
        );
        // (Unless the writer found the lock busy and never pinned.)
        assert!(
            !from_memo || now.rule_id == stale,
            "the memo answered for the pinned flow"
        );
    }
    let generation = table.generation_for(other.stable_hash());
    let (_, from_memo) = cache
        .lookup(&other, generation, || None)
        .expect("the pin invalidated another partition's entry");
    assert!(from_memo, "another partition's flow missed the memo");
    // A default change moves every partition, and K′'s next answer is a
    // new decision for every flow.
    table.promote(Action::ToPort(3));
    let generation = table.generation_for(other.stable_hash());
    let (after, _) = cache
        .lookup(&other, generation, || {
            table.lookup(STEP, &other).expect("quiescent")
        })
        .expect("the forward rule matches");
    assert_eq!(
        after.default_action(),
        Some(Action::ToPort(3)),
        "the memo answered with the default from before the change"
    );
}

/// Which bug (if any) to seed into the miniature table's write path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableBug {
    /// Faithful: mutate, then publish the pin's partition, under the lock.
    None,
    /// The generation moves before the write lock is taken (the window PR
    /// 15 found by inspection): a reader can pair the new generation with
    /// the old table and cache that for good.
    BumpBeforeMutate,
    /// The pin is published to a partition that is not its key's: the
    /// pinned flow's stale entry is never invalidated.
    WrongPartition,
    /// `Decision::any_flow` ignores the step's exact rules: the pinned
    /// flow's answer is kept in the step memo, as if every flow had it.
    AnyFlowIgnoresExact,
}

/// `SharedFlowTable`'s write and read paths restated over a plain
/// [`FlowTable`] and 64 recording atomics, with a seeded-bug knob.
struct MiniTable {
    lock: ModelLock,
    /// Touched only by the [`ModelLock`] holder, so never contended.
    table: Mutex<FlowTable>,
    generations: Vec<AtomicU64>,
    bug: TableBug,
}

impl MiniTable {
    fn new(bug: TableBug) -> Self {
        let mut table = FlowTable::new();
        table.insert(forward_rule());
        MiniTable {
            lock: ModelLock::new(),
            table: Mutex::new(table),
            generations: (0..GENERATION_PARTITIONS)
                .map(|_| AtomicU64::new(0))
                .collect(),
            bug,
        }
    }

    fn table(&self) -> std::sync::MutexGuard<'_, FlowTable> {
        self.table.lock().expect("no panic while held")
    }

    fn bump(&self, hash: u64) {
        self.generations[generation_partition(hash)].fetch_add(1, Ordering::Release);
    }
}

impl GenerationTable for MiniTable {
    fn generation_for(&self, hash: u64) -> u64 {
        self.generations[generation_partition(hash)].load(Ordering::Acquire)
    }

    fn lookup(&self, step: RulePort, key: &FlowKey) -> Option<Option<Decision>> {
        self.lock.try_with(|| {
            let decision = self.table().lookup(step, key)?;
            // Seeded bug: the table's one wildcard shape constrains no
            // field, so without the exact rules every answer is any flow's.
            let any_flow = decision.any_flow || self.bug == TableBug::AnyFlowIgnoresExact;
            Some(Decision {
                any_flow,
                ..decision
            })
        })
    }

    fn pin(&self, pin: FlowRule) {
        let (_, key) = pin.matcher.exact_key().expect("a pin is an exact rule");
        let hash = key.stable_hash();
        if self.bug == TableBug::BumpBeforeMutate {
            self.bump(hash);
        }
        self.lock.try_with(|| {
            self.table().insert(pin);
            match self.bug {
                // Seeded bug: the neighbouring partition.
                TableBug::WrongPartition => self.bump(hash ^ 1 << 58),
                TableBug::BumpBeforeMutate => {}
                TableBug::None | TableBug::AnyFlowIgnoresExact => self.bump(hash),
            }
        });
    }

    fn promote(&self, action: Action) {
        self.lock.try_with(|| {
            self.table()
                .promote_where_allowed(&FlowMatch::any(), action);
            for partition in 0..GENERATION_PARTITIONS {
                self.generations[partition].fetch_add(1, Ordering::Release);
            }
        });
    }
}

/// Runs [`generation_rounds`] over [`MiniTable`] with the given seeded bug
/// and the shipping `LookupCache`. `TableBug::None` must pass exhaustively;
/// every seeded bug must fail an assertion.
pub fn table_scenario(bug: TableBug, opts: CheckOpts) -> CheckReport {
    model::explore(opts, move || {
        generation_rounds(Arc::new(MiniTable::new(bug)), LookupCache::new(8));
    })
}

/// Which bug (if any) to seed into the miniature lookup cache's step memo.
///
/// Not seeded: a memo that keeps its tags when a new decision replaces its
/// own. Every change of a step's any-flow answer moves all 64 partitions
/// (the answer does not depend on the flow, so only a wildcard or default
/// change can move it), so a tag taken before the change can never match
/// again; that mutant is equivalent, and no check can catch it. Dropping
/// the tags keeps the memo's invariant local: every tag vouches for the
/// memo's own decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoBug {
    /// Faithful: a different decision replaces the memo's and drops its
    /// tags.
    None,
    /// The memo keeps the decision it was created with; a new answer only
    /// re-tags it, so after a default change it answers with the old one.
    KeepsDecision,
}

/// `LookupCache`'s lookup path for one step restated: the step memo (one
/// decision, a tag per partition) checked first, then one entry per flow,
/// then the table — with a seeded-bug knob on the memo.
struct MiniCache {
    memo: Option<(Decision, [u64; GENERATION_PARTITIONS])>,
    flows: Vec<(FlowKey, u64, Decision)>,
    bug: MemoBug,
}

impl GenerationCache for MiniCache {
    fn lookup(
        &mut self,
        key: &FlowKey,
        generation: u64,
        table: impl FnOnce() -> Option<Decision>,
    ) -> Option<(Decision, bool)> {
        let partition = generation_partition(key.stable_hash());
        if let Some((decision, tags)) = &self.memo {
            if tags[partition] == generation {
                return Some((decision.clone(), true));
            }
        }
        if let Some((_, _, decision)) = self
            .flows
            .iter()
            .find(|(flow, tag, _)| flow == key && *tag == generation)
        {
            return Some((decision.clone(), false));
        }
        let decision = table()?;
        if decision.any_flow && !decision.timed {
            let (held, tags) = self
                .memo
                .get_or_insert_with(|| (decision.clone(), [u64::MAX; GENERATION_PARTITIONS]));
            if *held != decision && self.bug == MemoBug::None {
                *held = decision.clone();
                *tags = [u64::MAX; GENERATION_PARTITIONS];
            }
            tags[partition] = generation;
            return Some((held.clone(), false));
        }
        self.flows.retain(|(flow, ..)| flow != key);
        self.flows.push((*key, generation, decision.clone()));
        Some((decision, false))
    }

    fn per_flow(&self) -> usize {
        self.flows.len()
    }
}

/// Runs [`generation_rounds`] over the faithful [`MiniTable`] and a
/// [`MiniCache`] with the given seeded bug. `MemoBug::None` must pass
/// exhaustively; the seeded bug must fail an assertion.
pub fn memo_scenario(bug: MemoBug, opts: CheckOpts) -> CheckReport {
    model::explore(opts, move || {
        generation_rounds(
            Arc::new(MiniTable::new(TableBug::None)),
            MiniCache {
                memo: None,
                flows: Vec::new(),
                bug,
            },
        );
    })
}

/// The two sides of a steering bucket's in-flight count, as the re-home
/// drain uses them: the host admits, a worker finishes, the host reads.
pub(crate) trait DrainCounts: Send + Sync + 'static {
    fn admit(&self, bucket: usize);
    fn finish(&self, hash: u64);
    fn in_flight(&self, bucket: usize) -> usize;
}

impl DrainCounts for BucketTracker {
    fn admit(&self, bucket: usize) {
        BucketTracker::admit(self, bucket);
    }

    fn finish(&self, hash: u64) {
        BucketTracker::finish(self, hash);
    }

    fn in_flight(&self, bucket: usize) -> usize {
        BucketTracker::in_flight(self, bucket)
    }
}

/// The one packet of the drain program: its flow hash picks bucket 1 of 4.
const DRAIN_HASH: u64 = 5;
const DRAIN_BUCKET: usize = 1;

/// The bucket-drain program: the host admits one packet of a bucket and
/// publishes it on a ring (or, with `admit_after_publish`, publishes
/// first); a worker pops it, writes a table cell and finishes it; a gauge
/// reads the count meanwhile, and the host reads it after publishing. No
/// read may go below zero (a wrapped count reads above one), and a host
/// that reads none in flight must see the worker's table write — the
/// guarantee a re-home's export relies on.
pub(crate) fn drain_rounds<T: DrainCounts>(tracker: Arc<T>, admit_after_publish: bool) {
    let (producer, consumer) = spsc_ring::<u64>(2);
    let cell = Arc::new(AtomicU64::new(0));
    let worker = {
        let (tracker, cell) = (Arc::clone(&tracker), Arc::clone(&cell));
        model::spawn(move || {
            // Two bounded pop attempts; a packet still queued is finished
            // by the root below.
            for _ in 0..2 {
                if let Some(hash) = consumer.pop() {
                    cell.store(1, Ordering::Relaxed);
                    tracker.finish(hash);
                    return None;
                }
            }
            Some(consumer)
        })
    };
    let gauge = {
        let tracker = Arc::clone(&tracker);
        model::spawn(move || {
            let seen = tracker.in_flight(DRAIN_BUCKET);
            assert!(seen <= 1, "a gauge read {seen} in flight: below zero");
        })
    };
    let host = {
        let (tracker, cell) = (Arc::clone(&tracker), Arc::clone(&cell));
        model::spawn(move || {
            if !admit_after_publish {
                tracker.admit(DRAIN_BUCKET);
            }
            producer.push(DRAIN_HASH).expect("an empty ring has room");
            if admit_after_publish {
                tracker.admit(DRAIN_BUCKET);
            }
            let seen = tracker.in_flight(DRAIN_BUCKET);
            assert!(seen <= 1, "the host read {seen} in flight: below zero");
            if seen == 0 {
                assert_eq!(
                    cell.load(Ordering::Relaxed),
                    1,
                    "the bucket read drained before its packet's table write was visible"
                );
            }
        })
    };
    host.join();
    gauge.join();
    if let Some(consumer) = worker.join() {
        let hash = consumer.pop().expect("the packet the worker missed");
        tracker.finish(hash);
    }
    // The root happens-after every thread: the bucket is drained.
    assert_eq!(tracker.in_flight(DRAIN_BUCKET), 0);
}

/// Which bug (if any) to seed into the bucket-drain protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainBug {
    /// Faithful: admit before publishing, finish with `Release`.
    None,
    /// The worker's `finish` is `Relaxed`: a host that reads the bucket
    /// drained need not see the packet's table write.
    RelaxedFinish,
    /// The host admits after the push that publishes the packet: a worker
    /// can finish the packet before it is counted, and a reader sees the
    /// count below zero.
    AdmitAfterPublish,
}

/// `BucketTracker`'s drain counts restated for one bucket — a host-written
/// admitted count, a worker-written finished count — with a seeded-bug
/// knob on the finish.
struct MiniTracker {
    admitted: AtomicUsize,
    finished: AtomicUsize,
    bug: DrainBug,
}

impl DrainCounts for MiniTracker {
    fn admit(&self, _bucket: usize) {
        let admitted = self.admitted.load(Ordering::Relaxed);
        self.admitted.store(admitted + 1, Ordering::Relaxed);
    }

    fn finish(&self, _hash: u64) {
        let order = if self.bug == DrainBug::RelaxedFinish {
            Ordering::Relaxed
        } else {
            Ordering::Release
        };
        self.finished.fetch_add(1, order);
    }

    fn in_flight(&self, _bucket: usize) -> usize {
        let finished = self.finished.load(Ordering::Acquire);
        let admitted = self.admitted.load(Ordering::Acquire);
        admitted.wrapping_sub(finished)
    }
}

/// Runs [`drain_rounds`] over [`MiniTracker`] with the given seeded bug.
/// `DrainBug::None` must pass exhaustively; every seeded bug must fail an
/// assertion.
pub fn drain_scenario(bug: DrainBug, opts: CheckOpts) -> CheckReport {
    model::explore(opts, move || {
        let tracker = MiniTracker {
            admitted: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            bug,
        };
        drain_rounds(Arc::new(tracker), bug == DrainBug::AdmitAfterPublish);
    })
}

/// Which bug (if any) to seed into the NF-message hand-back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageBug {
    /// Faithful: an NF puts a burst's messages on its message ring before
    /// it publishes the burst's completions, and the worker takes the
    /// completions it will route before it drains the message rings.
    None,
    /// The worker drains the message rings before it takes completions: a
    /// completion published after the drain is routed before the
    /// messages its NF sent first.
    DrainBeforeTake,
    /// The NF publishes a burst's completions (and counts its fan-out
    /// handle down) before it puts the burst's messages on its ring.
    CompletionBeforeMessages,
    /// The NF serves its control ring before it hands back a burst held
    /// for room on the message ring: an export's response overtakes the
    /// pin the held burst sent.
    RequestsBeforeHeldBurst,
}

/// Packet 1 is owned by NF `a`; packet 2 fans out to `a` and `b`.
const OWNED: u64 = 1;
const FANNED: u64 = 2;

/// The NF-message hand-back on the shipping rings and packet handle: NF
/// `a` serves one burst — packet 1, owned, and its handle on fan-out
/// packet 2 — sending one message for each, then hands the burst back; NF
/// `b` finishes the fan-out from its own handle. The worker makes two
/// rounds of take, drain and route, and the root the rest. Every packet is
/// routed once, and only after the messages sent for it were applied — a
/// fan-out sibling's included.
pub(crate) fn message_rounds(bug: MessageBug) {
    let packet = PacketBuilder::udp().payload(b"msg").build();
    let fan_out = SharedPacket::new(packet, 2);
    let (messages_a, drain_a) = spsc_ring::<u64>(2);
    let (done_a, taken_a) = spsc_ring::<u64>(2);
    let (done_b, taken_b) = spsc_ring::<u64>(2);
    let nf_a = {
        let handle = fan_out.clone();
        model::spawn(move || {
            let hand_back = || {
                done_a.stage(OWNED).expect("room for packet 1");
                if handle.complete_one() {
                    done_a.stage(FANNED).expect("room for packet 2");
                }
                done_a.publish();
            };
            if bug == MessageBug::CompletionBeforeMessages {
                hand_back();
            }
            messages_a
                .stage(OWNED)
                .expect("room for packet 1's message");
            messages_a
                .stage(FANNED)
                .expect("room for packet 2's message");
            messages_a.publish();
            if bug != MessageBug::CompletionBeforeMessages {
                hand_back();
            }
        })
    };
    let nf_b = model::spawn(move || {
        if fan_out.complete_one() {
            done_b.push(FANNED).expect("room for packet 2");
        }
    });
    let worker = model::spawn(move || {
        let mut applied = Vec::new();
        let mut routed = Vec::new();
        let drain = |applied: &mut Vec<u64>| {
            while let Some(message) = drain_a.pop() {
                applied.push(message);
            }
        };
        for _ in 0..2 {
            if bug == MessageBug::DrainBeforeTake {
                drain(&mut applied);
            }
            let mut taken = Vec::new();
            for done in [&taken_a, &taken_b] {
                while let Some(packet) = done.take() {
                    taken.push(packet);
                }
            }
            if bug != MessageBug::DrainBeforeTake {
                drain(&mut applied);
            }
            for packet in taken {
                assert!(
                    applied.contains(&packet),
                    "packet {packet} routed before its message was applied"
                );
                routed.push(packet);
            }
            taken_a.release();
            taken_b.release();
        }
        (drain_a, taken_a, taken_b, applied, routed)
    });
    nf_a.join();
    nf_b.join();
    let (drain_a, taken_a, taken_b, mut applied, mut routed) = worker.join();
    // The root happens-after every thread: what is left is all published.
    while let Some(message) = drain_a.pop() {
        applied.push(message);
    }
    for done in [&taken_a, &taken_b] {
        while let Some(packet) = done.pop() {
            routed.push(packet);
        }
    }
    routed.sort_unstable();
    assert_eq!(applied, [OWNED, FANNED], "messages lost or reordered");
    assert_eq!(routed, [OWNED, FANNED], "a packet lost or routed twice");
}

/// Entries of the state-exchange scenario: an earlier burst's message, the
/// held burst's pin, the export request and its response.
const EARLIER: u64 = 3;
const PIN: u64 = 4;
const EXPORT: u64 = 5;
const EXPORTED: u64 = 6;

/// One NF step of the state-exchange scenario: hand back what is held, in
/// order, then serve the control ring, each response going onto the
/// message ring or, when it is full, behind what is held. The seeded bug
/// serves first.
fn state_step(bug: MessageBug, out: &Producer<u64>, requests: &Consumer<u64>, held: &mut Vec<u64>) {
    let hand_back = |entry: u64, held: &mut Vec<u64>| {
        if !held.is_empty() || out.push(entry).is_err() {
            held.push(entry);
        }
    };
    let serve = |held: &mut Vec<u64>| {
        while let Some(request) = requests.pop() {
            assert_eq!(request, EXPORT);
            if bug == MessageBug::RequestsBeforeHeldBurst {
                if out.push(EXPORTED).is_err() {
                    held.push(EXPORTED);
                }
            } else {
                hand_back(EXPORTED, held);
            }
        }
    };
    if bug == MessageBug::RequestsBeforeHeldBurst {
        serve(held);
    }
    while let Some(&entry) = held.first() {
        if out.push(entry).is_err() {
            return;
        }
        held.remove(0);
    }
    if bug != MessageBug::RequestsBeforeHeldBurst {
        serve(held);
    }
}

/// The worker's pop of the message ring: a state response is read after
/// every message the replica handed back before it was applied.
fn state_read(popped: &Consumer<u64>, applied: &mut Vec<u64>) {
    while let Some(entry) = popped.pop() {
        if entry == EXPORTED {
            assert!(
                applied.contains(&PIN),
                "export response read before the held burst's pin was applied"
            );
        }
        applied.push(entry);
    }
}

/// The state exchange behind a held burst, on the shipping rings: the NF's
/// one-entry message ring takes an earlier burst's message, so the next
/// burst's pin may be held for room; the worker posts an export on the
/// control ring and pops the message ring while the NF steps twice; the
/// root plays both sides to the end. The worker reads the export's
/// response only after it applied the held pin.
pub(crate) fn state_rounds(bug: MessageBug) {
    let (out, popped) = spsc_ring::<u64>(1);
    let (control, requests) = spsc_ring::<u64>(1);
    let nf = model::spawn(move || {
        let mut held = Vec::new();
        out.push(EARLIER).expect("the ring starts empty");
        if out.push(PIN).is_err() {
            held.push(PIN);
        }
        for _ in 0..2 {
            state_step(bug, &out, &requests, &mut held);
        }
        (out, requests, held)
    });
    let worker = model::spawn(move || {
        control.push(EXPORT).expect("room for the export");
        let mut applied = Vec::new();
        for _ in 0..2 {
            state_read(&popped, &mut applied);
        }
        (popped, applied)
    });
    let (out, requests, mut held) = nf.join();
    let (popped, mut applied) = worker.join();
    while applied.len() < 3 {
        state_step(bug, &out, &requests, &mut held);
        state_read(&popped, &mut applied);
    }
    assert_eq!(
        applied,
        [EARLIER, PIN, EXPORTED],
        "entries lost or reordered"
    );
}

/// Runs [`message_rounds`], then [`state_rounds`], with the given seeded
/// bug, summing their executions. `MessageBug::None` must pass both
/// exhaustively; every seeded bug must fail an assertion in one.
pub fn message_scenario(bug: MessageBug, opts: CheckOpts) -> CheckReport {
    let report = model::explore(opts, move || message_rounds(bug));
    if !report.exhaustive_pass() {
        return report;
    }
    let mut state = model::explore(opts, move || state_rounds(bug));
    state.executions += report.executions;
    state
}
