//! Bounded-exhaustive interleaving checks of the shipping primitives.
//!
//! Every function here builds a *fixed, finite* concurrent program out of
//! the real `sdnfv-ring` / `sdnfv-telemetry` / `sdnfv-flowtable` types — no
//! spin loops, a bounded number of operations per thread — and hands it to
//! [`sdnfv_ring::model::check`], which enumerates all interleavings up to
//! the preemption bound and panics with a replayable counterexample on the
//! first violation (data race, uninitialized read, assertion failure,
//! deadlock). Each function returns the number of executions explored, and
//! `check` itself asserts the search ran to exhaustion (was not truncated
//! by `max_executions`).
//!
//! The assertions after the `join`s run on the root thread, which
//! happens-after every spawned thread, so they state end-state invariants
//! (credit conservation, FIFO order, counter totals); assertions *inside*
//! the threads state per-step invariants the scheduler tries to break.

use std::sync::Arc;

use sdnfv_dataplane::rehome::BucketTracker;
use sdnfv_dataplane::LookupCache;
use sdnfv_flowtable::table::GenerationCell;
use sdnfv_flowtable::{Action, Decision, FlowMatch, FlowRule, RulePort, SharedFlowTable};
use sdnfv_ring::model::{self, CheckOpts};
use sdnfv_ring::sync::{AtomicU64, Ordering};
use sdnfv_ring::{spsc_ring, CreditGate, PacketPool, SharedPacket};
use sdnfv_telemetry::hist::LatencyHistogram;

use sdnfv_proto::flow::FlowKey;
use sdnfv_proto::packet::PacketBuilder;
use sdnfv_proto::Packet;

use crate::mutants::{self, GenerationTable, ModelLock};

fn pkt() -> Packet {
    PacketBuilder::udp().payload(b"chk").build()
}

/// 1 producer × 1 consumer over a capacity-4 ring, mixing single-item
/// `push`/`pop` with `push_n`/`pop_n` bursts. Verifies no unconsumed slot
/// is overwritten, no element is popped twice, and FIFO order holds across
/// burst boundaries.
pub fn spsc_burst(opts: CheckOpts) -> u64 {
    model::check("spsc_burst", opts, || {
        let (producer, consumer) = spsc_ring::<u64>(4);
        let p = model::spawn(move || {
            producer.push(1).expect("capacity 4 cannot be full");
            let mut burst = vec![2, 3];
            let pushed = producer.push_n(&mut burst);
            assert_eq!(pushed, 2, "burst must fit: 3 items in a 4-slot ring");
        });
        let c = model::spawn(move || {
            let mut got = Vec::new();
            // Exactly two bounded pop attempts — not a spin loop; whatever
            // is still in flight is drained below, after the joins.
            consumer.pop_n(&mut got, 2);
            if let Some(v) = consumer.pop() {
                got.push(v);
            }
            (consumer, got)
        });
        p.join();
        let (consumer, mut got) = c.join();
        // Root thread happens-after both; the drain must complete the
        // sequence exactly.
        while let Some(v) = consumer.pop() {
            got.push(v);
        }
        assert_eq!(
            got,
            vec![1, 2, 3],
            "ring lost, duplicated or reordered items"
        );
        assert_eq!(consumer.dequeued(), 3);
        assert!(consumer.is_empty());
    })
}

/// Capacity-2 ring driven past its capacity so the cursors wrap: the
/// producer attempts four pushes (keeping a FIFO prefix: it stops at the
/// first failure), the consumer makes bounded pop attempts. Exercises the
/// `free_slots` Acquire edge (slot reuse) under wraparound.
pub fn spsc_wraparound(opts: CheckOpts) -> u64 {
    model::check("spsc_wraparound", opts, || {
        let (producer, consumer) = spsc_ring::<u64>(2);
        let p = model::spawn(move || {
            let mut pushed = 0u64;
            for v in 1..=4u64 {
                // One retry per item, then give up — keeps the program
                // finite while still reaching wrapped cursor states.
                if producer.push(v).is_err() && producer.push(v).is_err() {
                    break;
                }
                pushed = v;
            }
            pushed
        });
        let c = model::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..4 {
                if let Some(v) = consumer.pop() {
                    got.push(v);
                }
            }
            (consumer, got)
        });
        let pushed = p.join();
        let (consumer, mut got) = c.join();
        while let Some(v) = consumer.pop() {
            got.push(v);
        }
        let expect: Vec<u64> = (1..=pushed).collect();
        assert_eq!(got, expect, "wrapped ring must stay FIFO and lossless");
    })
}

/// The deferred-publish protocol on the shipping ring (capacity 2): the
/// producer stages two items and publishes them, then stages a third and
/// publishes again; the consumer views what is unread in place, then takes
/// and releases twice; the root drains what is left. FIFO order, no loss
/// and no duplicate on every interleaving — the `publish` and `release`
/// stores and the in-place view (reported as writes of the slots it
/// exposes) are what this vouches for.
pub fn spsc_staged(opts: CheckOpts) -> u64 {
    model::check("spsc_staged", opts, || {
        let (producer, consumer) = spsc_ring::<u64>(2);
        mutants::staged_rounds(producer, consumer);
    })
}

/// Two credit holders race `try_acquire`/`release` — the second also takes
/// a partial grant with `acquire_up_to` — against a third thread resizing
/// the gate (grow then shrink). End-state invariants: credits are
/// conserved, the gate converges to the final budget, and `release`'s
/// overflow `debug_assert` (active in this build) never fires under any
/// interleaving.
pub fn credit_elastic(opts: CheckOpts) -> u64 {
    model::check("credit_elastic", opts, || {
        let gate = Arc::new(CreditGate::new(2));
        let a = {
            let gate = Arc::clone(&gate);
            model::spawn(move || {
                if gate.try_acquire(1) {
                    gate.release(1);
                }
            })
        };
        let b = {
            let gate = Arc::clone(&gate);
            model::spawn(move || {
                if gate.try_acquire(2) {
                    gate.release(2);
                }
                let granted = gate.acquire_up_to(3);
                assert!(granted <= 3, "granted more than asked");
                gate.release(granted);
            })
        };
        let r = {
            let gate = Arc::clone(&gate);
            model::spawn(move || {
                gate.resize(3);
                gate.resize(1);
            })
        };
        a.join();
        b.join();
        r.join();
        assert_eq!(gate.capacity(), 1, "last resize wins");
        assert_eq!(gate.in_flight(), 0, "all credits returned");
        assert_eq!(gate.available(), 1, "gate converged to the new budget");
    })
}

/// Credit conservation without resize: two threads acquire and release;
/// the pool must return to full. The `try_acquire` CAS loop's relaxed
/// hint load and relaxed failure ordering are what this check vouches for.
pub fn credit_conservation(opts: CheckOpts) -> u64 {
    model::check("credit_conservation", opts, || {
        let gate = Arc::new(CreditGate::new(1));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let gate = Arc::clone(&gate);
                model::spawn(move || {
                    let admitted = gate.try_acquire(1);
                    if admitted {
                        gate.release(1);
                    }
                    admitted
                })
            })
            .collect();
        let admitted = workers.into_iter().map(|w| w.join()).filter(|&a| a).count();
        assert!(admitted >= 1, "an uncontended credit must admit someone");
        assert_eq!(gate.available(), 1, "credit leaked or duplicated");
        assert_eq!(gate.in_flight(), 0);
    })
}

/// The single-recorder rule: one thread records through the plain
/// load + store [`LatencyHistogram::record`] while another snapshots. No
/// second writer exists, so every bucket count and maximum the snapshot
/// reads is a value the recorder wrote (or the initial zero) — never a
/// torn or invented one — and the snapshot taken after the join is exact.
pub fn hist_single_recorder(opts: CheckOpts) -> u64 {
    model::check("hist_single_recorder", opts, || {
        let hist = Arc::new(LatencyHistogram::new());
        let recorder = {
            let hist = Arc::clone(&hist);
            model::spawn(move || {
                hist.record(3);
                hist.record(3);
                hist.record(100);
            })
        };
        let reader = {
            let hist = Arc::clone(&hist);
            model::spawn(move || hist.snapshot())
        };
        let seen = reader.join();
        // Bucket 3 went 0 → 1 → 2 and the maximum 0 → 3 → 100; the bucket
        // of 100 went 0 → 1.
        assert!(seen.counts.get(3).is_none_or(|&count| count <= 2));
        assert!(seen.count() <= 3, "a count the recorder never wrote");
        assert!([0, 3, 100].contains(&seen.max), "max {}", seen.max);
        recorder.join();
        // Root happens-after the recorder: the snapshot must be exact.
        let snap = hist.snapshot();
        assert_eq!(snap.counts[3], 2, "a plain store lost an increment");
        assert_eq!(snap.count(), 3);
        assert_eq!(snap.max, 100);
    })
}

/// Two concurrent recorders into one histogram through the shared form
/// (`record_shared`, sharing a bucket, so the `fetch_add`s genuinely
/// contend), snapshot after quiescence. Verifies the all-`Relaxed`
/// read-modify-writes lose no counts and the running max is exact. With
/// the plain `record` in their place this is the lost update the
/// `HistBug::TornRecord` mutant exhibits — the reason `record` must never
/// have two callers.
pub fn hist_shared_recorders(opts: CheckOpts) -> u64 {
    model::check("hist_shared_recorders", opts, || {
        let hist = Arc::new(LatencyHistogram::new());
        let a = {
            let hist = Arc::clone(&hist);
            model::spawn(move || {
                hist.record_shared(3, 1);
                hist.record_shared(100, 1);
            })
        };
        let b = {
            let hist = Arc::clone(&hist);
            model::spawn(move || {
                hist.record_shared(3, 2);
            })
        };
        a.join();
        b.join();
        // Root happens-after both recorders: the snapshot must be exact.
        let snap = hist.snapshot();
        assert_eq!(snap.count(), 4, "relaxed bucket counters lost an increment");
        assert_eq!(snap.max, 100, "fetch_max lost the maximum");
        let mut merged = snap.clone();
        merged.merge(&snap);
        assert_eq!(merged.count(), 8, "merge must be element-wise exact");
    })
}

/// Two threads race one pool slot. Occupancy must never exceed capacity,
/// every allocation must be accounted, and the pool must drain to empty —
/// the invariants that justify the pool counter's `Relaxed` downgrade.
pub fn pool_occupancy(opts: CheckOpts) -> u64 {
    model::check("pool_occupancy", opts, || {
        let pool = PacketPool::new(1);
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let pool = pool.clone();
                model::spawn(move || pool.alloc(pkt()).is_some())
            })
            .collect();
        let admitted = workers.into_iter().map(|w| w.join()).filter(|&a| a).count() as u64;
        let stats = pool.stats();
        assert!(admitted >= 1, "an empty pool must admit someone");
        assert_eq!(stats.allocated, admitted);
        assert_eq!(
            stats.allocated + stats.exhausted,
            2,
            "every attempt accounted"
        );
        assert_eq!(pool.in_use(), 0, "handles dropped, pool must be empty");
    })
}

/// Two parallel NFs complete one shared packet, each reading the immutable
/// packet through its own handle: exactly one observes the final completion
/// (and hands the packet to TX). Once both have dropped their handles the
/// joined one is unique, so `recycle` re-arms it for the next dispatch —
/// the refcount handoff that `complete_one`'s `AcqRel` comment promises.
pub fn shared_completion(opts: CheckOpts) -> u64 {
    model::check("shared_completion", opts, || {
        let sp = SharedPacket::new(pkt(), 2);
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let sp = sp.clone();
                model::spawn(move || {
                    assert_eq!(sp.packet().l4_payload().ok(), Some(&b"chk"[..]));
                    sp.complete_one()
                })
            })
            .collect();
        let finals = workers.into_iter().map(|w| w.join()).filter(|&f| f).count();
        assert_eq!(finals, 1, "exactly one completer must see the handoff");
        assert_eq!(sp.remaining(), 0);
        let sp = recycled(sp, 1);
        assert_eq!(sp.remaining(), 1);
        assert!(sp.complete_one(), "re-armed descriptor completes again");
    })
}

/// Re-arms a descriptor whose fan-out is over (every NF joined, so every
/// clone dropped) for `readers` NFs, the one way the data plane re-arms.
fn recycled(sp: SharedPacket, readers: u32) -> SharedPacket {
    sp.recycle(pkt(), readers, ())
        .unwrap_or_else(|_| panic!("a joined fan-out leaves one handle"))
}

/// Three parallel NFs merge their verdicts into one descriptor, the final
/// completer reads the word, the TX role recycles the joined handle and a
/// second round runs: on every interleaving the word read equals the
/// resolver's answer for the list-ordered verdicts — the `Relaxed` merge,
/// the read through the refcount chain and the reset in `recycle` are what
/// this vouches for.
pub fn verdict_cell(opts: CheckOpts) -> u64 {
    model::check("verdict_cell", opts, || {
        crate::mutants::verdict_rounds(
            SharedPacket::new(pkt(), 3),
            |sp, key| {
                sp.merge_verdict(key);
                sp.complete_one().then(|| sp.verdict())
            },
            recycled,
        );
    })
}

/// A partition generation on the model's recording atomic: the cell the
/// checked `SharedFlowTable` is instantiated with.
#[derive(Debug)]
pub struct ModelGeneration(AtomicU64);

impl GenerationCell for ModelGeneration {
    fn new(value: u64) -> Self {
        ModelGeneration(AtomicU64::new(value))
    }

    fn load(&self, order: Ordering) -> u64 {
        self.0.load(order)
    }

    fn fetch_add(&self, value: u64, order: Ordering) -> u64 {
        self.0.fetch_add(value, order)
    }
}

/// The shipping table, its lock entered only under a [`ModelLock`].
struct CheckedTable {
    lock: ModelLock,
    table: SharedFlowTable<ModelGeneration>,
}

impl GenerationTable for CheckedTable {
    fn generation_for(&self, hash: u64) -> u64 {
        self.table.generation_for(hash)
    }

    fn lookup(&self, step: RulePort, key: &FlowKey) -> Option<Option<Decision>> {
        self.lock.try_with(|| self.table.lookup(step, key))
    }

    fn pin(&self, pin: FlowRule) {
        self.lock.try_with(|| self.table.insert(pin));
    }

    fn promote(&self, action: Action) {
        self.lock.try_with(|| {
            self.table
                .with_write(|t| t.promote_where_allowed(&FlowMatch::any(), action))
        });
    }
}

/// The table generation ↔ lookup cache protocol on the shipping
/// `SharedFlowTable` (its partition generations on the recording atomics)
/// and the worker's `LookupCache`: the first answer, which holds for every
/// flow, fills the step's memo; then a writer pins one flow while the
/// worker tags, looks up, fills and probes that flow. A probe that saw the
/// bump never answers with the decision from before the pin, no stale
/// decision outlives the pin, the memo no longer answers for the pinned
/// flow but still does for a flow of another partition, and after a
/// default change the memo gives the new default.
pub fn table_generation(opts: CheckOpts) -> u64 {
    model::check("table_generation", opts, || {
        let table = SharedFlowTable::<ModelGeneration>::default();
        table.insert(mutants::forward_rule());
        mutants::generation_rounds(
            Arc::new(CheckedTable {
                lock: ModelLock::new(),
                table,
            }),
            LookupCache::new(8),
        );
    })
}

/// The re-home drain on the shipping `BucketTracker` (its counts on the
/// recording atomics): the host admits a packet and publishes it, a worker
/// pops it, writes a table cell and finishes it, a gauge reads the count.
/// The count never reads below zero, and a host that reads the bucket
/// drained sees the table write.
pub fn bucket_drain(opts: CheckOpts) -> u64 {
    model::check("bucket_drain", opts, || {
        mutants::drain_rounds(Arc::new(BucketTracker::new(4)), false);
    })
}

/// The NF-message hand-back on the shipping rings and fan-out handle: an
/// NF sends messages for an owned packet and for its handle on a fan-out,
/// then publishes; a second NF finishes the fan-out; the worker takes
/// completions, then drains the message ring, then routes. No packet is
/// routed before the messages sent for it — a sibling's too — are applied.
/// Then the state exchange on the same message ring: the worker posts an
/// export on the control ring while the NF holds a burst whose pin found
/// the ring full, and it reads the export's response only after it
/// applied that pin. Last, a replica that answers and exits while the
/// worker polls: its export resolves with the answer, never empty on the
/// exit alone. Returns the three searches' executions.
pub fn nf_messages(opts: CheckOpts) -> u64 {
    model::check("nf_messages", opts, || {
        mutants::message_rounds(mutants::MessageBug::None);
    }) + model::check("nf_messages", opts, || {
        mutants::state_rounds(mutants::MessageBug::None);
    }) + model::check("nf_messages", opts, || {
        mutants::exit_rounds(mutants::MessageBug::None);
    })
}

/// One clean check: `(name, entry point, search options)`.
pub type Check = (&'static str, fn(CheckOpts) -> u64, CheckOpts);

/// Every clean check with its name and a tuned preemption bound, in the
/// order the `model` binary runs them.
pub fn all() -> Vec<Check> {
    let default = CheckOpts::default();
    vec![
        ("spsc_burst", spsc_burst as fn(CheckOpts) -> u64, default),
        ("spsc_wraparound", spsc_wraparound, default),
        ("spsc_staged", spsc_staged, default),
        ("credit_elastic", credit_elastic, default),
        ("credit_conservation", credit_conservation, default),
        ("hist_single_recorder", hist_single_recorder, default),
        ("hist_shared_recorders", hist_shared_recorders, default),
        ("pool_occupancy", pool_occupancy, default),
        ("shared_completion", shared_completion, default),
        ("verdict_cell", verdict_cell, default),
        ("table_generation", table_generation, default),
        ("bucket_drain", bucket_drain, default),
        ("nf_messages", nf_messages, default),
    ]
}
