//! State-safe re-homing of flow-steering buckets: one state machine for
//! every way a bucket's flows change hands.
//!
//! A bucket move takes one steering bucket — its packets, its exact-flow
//! rules, the wildcard mutations attributed to it and its NFs' per-flow
//! state — from its shard to one of three destinations ([`MoveTarget`]):
//!
//! * **another shard** of this host — a rebalance (`set_steering_weights`)
//!   or shard scale-out/in (`spawn_shard` / `retire_shard_at`);
//! * **the same shard** — a replica scale (`add_nf_replica` /
//!   `remove_nf_replica`): a flow's replica follows its bucket, so only the
//!   buckets whose replica pick changes move, and their state lands on
//!   each flow's new pick;
//! * **another host** — a cross-host handout (`begin_bucket_handout`),
//!   whose destination side the federation drives.
//!
//! Every move runs the same six steps, one [`BucketMove`] with one
//! [`MovePhase`]:
//!
//! 1. **Park** ([`MovePhase::Draining`]): the host marks the bucket parked
//!    in the [`BucketTracker`]; new arrivals wait in the move's pen (a full
//!    pen is ordinary backpressure, never a drop). A replica scale holds no
//!    pen: its arrivals are throttled back, so the shard's credit gate
//!    stays the bound;
//! 2. **Drain**: wait until the bucket's in-flight count reaches zero. The
//!    tracker keeps it as two one-sided counts: the injection side counts
//!    a packet admitted before the ring push that makes it visible to a
//!    worker, and the shard worker counts it finished at its last
//!    flow-state touchpoint; in flight is their difference;
//! 3. **Collect** ([`MovePhase::Collecting`]): ask the source shard's worker
//!    to export the bucket's NF-internal per-flow state — every NF replica
//!    is handed the bucket's flow keys (the partition's exact entries plus
//!    the NF's own key set) and detaches its state for them. A replica
//!    scale's export waits until all its buckets have drained and goes to
//!    the worker together with the replica change, export first;
//! 4. **Hand over the rules**: when the export arrives, a cross-shard move
//!    moves the bucket's exact rules and wildcard mutations into the new
//!    owner's partition
//!    ([`FlowTablePartitions::move_bucket_state`](sdnfv_flowtable::FlowTablePartitions::move_bucket_state))
//!    and flips the steering entry; a handout extracts them, with the NF
//!    state, into a portable [`BucketHandout`]; a replica scale's rules
//!    stay where they are;
//! 5. **Import** ([`MovePhase::Importing`]): the NF state waits for its
//!    destination — an [`ImportDelivery`] for a shard's control ring, a
//!    bundle for the federation — and the move waits for the import's
//!    acknowledgement: the destination worker's, or, for a handout,
//!    `finish_bucket_handout`, called once the adopting host acknowledged;
//! 6. **Release** ([`MovePhase::Releasing`]): the pen drains into the
//!    destination shard, or goes back to the federation whole, and the
//!    bucket unparks.
//!
//! [`RehomeState::check`] states the machine's invariant once; debug
//! builds check it at the end of every advance. Every step shows in
//! `take_rehome_events`, its [`RehomeEvent`] naming the destination.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use sdnfv_flowtable::{BucketStateBundle, ServiceId};
use sdnfv_nf::NfFlowState;
use sdnfv_proto::flow::FlowKey;
use sdnfv_proto::Packet;
// The drain counts take their atomics from the ring crate's facade, so the
// model checker can run the shipping tracker on its recording atomics.
use sdnfv_ring::sync::{AtomicUsize, Ordering};

/// Per-bucket in-flight packet counts for the drain step of a re-home, kept
/// as two one-sided counts so no cache line is written by both sides:
///
/// * `admitted` — written only by the host (injection) thread, as a plain
///   load and store, like [`LatencyHistogram::record`](sdnfv_telemetry::hist::LatencyHistogram::record):
///   counted *before* the ring push that makes the packet visible to a
///   worker, and taken back when the push hands the packet back;
/// * `finished` — written only by shard workers (a `fetch_add`), when a
///   packet makes its last possible flow-state touch: staged for egress,
///   dropped, or punted.
///
/// In flight is `admitted − finished`. A bucket with none in flight has no
/// packet anywhere between its shard's ingress ring and the release point.
/// Model-checked (`bucket_drain` in `sdnfv-check`) on the shipping type.
#[derive(Debug)]
pub struct BucketTracker {
    admitted: Vec<AtomicUsize>,
    finished: Vec<AtomicUsize>,
    /// `true` while a move holds the bucket — the host's one parked table,
    /// written only by the host. Injection reads it to pen (or throttle)
    /// the bucket's arrivals. Shard workers consult it before timing out
    /// exact-flow rules: a rule of a parked bucket may be mid-export, and
    /// evicting it would race the re-home (the evicted rule could be
    /// resurrected by the import, or the export could carry a rule the
    /// control plane was just told died). Such rules are deferred until
    /// the bucket settles.
    parked: Vec<AtomicBool>,
}

impl BucketTracker {
    /// Creates a tracker for `buckets` steering buckets, all idle.
    /// `buckets` must be a power of two (a flow's bucket is its hash's low
    /// bits).
    pub fn new(buckets: usize) -> Self {
        assert!(
            buckets.is_power_of_two(),
            "bucket count {buckets} is not a power of two"
        );
        let counts = || (0..buckets).map(|_| AtomicUsize::new(0)).collect();
        BucketTracker {
            admitted: counts(),
            finished: counts(),
            parked: (0..buckets).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Number of tracked buckets.
    pub fn buckets(&self) -> usize {
        self.admitted.len()
    }

    /// The bucket a flow belongs to.
    pub fn bucket_of(&self, key: &FlowKey) -> usize {
        self.bucket_of_hash(key.stable_hash())
    }

    /// [`BucketTracker::bucket_of`] for a caller that already holds the
    /// flow's `stable_hash` (the packet path: it rides the descriptor).
    pub fn bucket_of_hash(&self, hash: u64) -> usize {
        (hash & (self.admitted.len() as u64 - 1)) as usize
    }

    /// Records one packet of `bucket` entering a shard pipeline. Called by
    /// the host thread only, *before* the push that publishes the packet.
    pub fn admit(&self, bucket: usize) {
        let admitted = &self.admitted[bucket];
        // ORDER: Relaxed load + store, not a read-modify-write — the host
        // thread is the only writer, so the load returns its own last
        // store. Relaxed suffices: the ring push that follows is a Release
        // publish, so a worker that pops the packet, and any thread that
        // acquires that worker's `finish`, sees this count.
        admitted.store(admitted.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    /// Takes back a [`BucketTracker::admit`] whose push handed the packet
    /// back (it never reached a worker). Host thread only.
    pub fn unadmit(&self, bucket: usize) {
        let admitted = &self.admitted[bucket];
        // ORDER: Relaxed load + store — the single-writer argument of
        // `admit`; the packet was never published, so no worker counts it.
        admitted.store(admitted.load(Ordering::Relaxed) - 1, Ordering::Relaxed);
    }

    /// Records one packet of the flow hashing to `hash` leaving flow-state
    /// scope (egress-staged, dropped or punted). Called by shard workers.
    pub fn finish(&self, hash: u64) {
        let bucket = self.bucket_of_hash(hash);
        // ORDER: Release — pairs with the Acquire load in
        // `BucketTracker::in_flight`, so a drain observer that counts this
        // packet finished also sees every table write it caused.
        let previous = self.finished[bucket].fetch_add(1, Ordering::Release);
        if cfg!(debug_assertions) {
            // ORDER: Acquire, debug builds only — the packet was admitted
            // before the push this worker's pop acquired, so the count read
            // here covers it.
            let admitted = self.admitted[bucket].load(Ordering::Acquire);
            assert!(
                previous < admitted,
                "bucket {bucket} finished more than admitted"
            );
        }
    }

    /// Packets of `bucket` currently inside a shard pipeline.
    pub fn in_flight(&self, bucket: usize) -> usize {
        // ORDER: Acquire, `finished` first — pairs with `finish`'s Release,
        // so every packet counted here has its table writes visible; and
        // each of those packets was admitted before the push its worker
        // acquired, so the `admitted` load that follows counts it too: the
        // difference never goes below zero.
        let finished = self.finished[bucket].load(Ordering::Acquire);
        // ORDER: Acquire — see the load above.
        let admitted = self.admitted[bucket].load(Ordering::Acquire);
        debug_assert!(
            admitted >= finished,
            "bucket {bucket}: {finished} finished of {admitted} admitted"
        );
        admitted.wrapping_sub(finished)
    }

    /// Marks `bucket` as mid-re-home: its exact-flow rules become
    /// ineligible for timeout eviction until [`BucketTracker::unpark`].
    pub fn park(&self, bucket: usize) {
        // ORDER: Release — pairs with `is_parked`'s Acquire load.
        self.parked[bucket].store(true, Ordering::Release);
    }

    /// Clears the mid-re-home mark of `bucket`.
    pub fn unpark(&self, bucket: usize) {
        // ORDER: Release — pairs with `is_parked`'s Acquire load.
        self.parked[bucket].store(false, Ordering::Release);
    }

    /// Whether `bucket` is currently mid-re-home (eviction-protected).
    pub fn is_parked(&self, bucket: usize) -> bool {
        // ORDER: Acquire — a worker that sees the mark sees the host's
        // writes made before parking.
        self.parked[bucket].load(Ordering::Acquire)
    }
}

/// Where a bucket move takes its bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveTarget {
    /// A shard of this host: another shard for a cross-shard move, the
    /// source shard itself for a replica scale.
    Shard(usize),
    /// Another host: a cross-host handout.
    Host,
}

impl fmt::Display for MoveTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MoveTarget::Shard(shard) => write!(f, "{shard}"),
            MoveTarget::Host => f.write_str("another host"),
        }
    }
}

/// Where one bucket move stands in the handshake (see the module docs for
/// the full sequence).
#[derive(Debug, Clone)]
pub enum MovePhase {
    /// Waiting for the bucket's in-flight count to reach zero.
    Draining,
    /// NF-state export request `id` is in flight to the source shard's
    /// worker.
    Collecting {
        /// Matches the request to the worker's
        /// eventual export response (one request can cover many buckets).
        id: u64,
    },
    /// The rules are handed over; waiting for the destination to
    /// acknowledge that it imported the bucket's NF flow state.
    Importing {
        /// Set by the destination shard's worker once every replica
        /// absorbed its share (shared with the import command), or by
        /// `finish_bucket_handout` for a handout.
        done: Arc<AtomicBool>,
    },
    /// Imported; the pen is draining into the destination.
    Releasing,
}

/// One bucket mid-move: where it is going, how far the handshake has
/// progressed, and the pen of packets that arrived while it was parked.
#[derive(Debug)]
pub struct BucketMove {
    /// The bucket being moved.
    pub bucket: usize,
    /// The shard the bucket is leaving.
    pub from: usize,
    /// Where the bucket is going.
    pub to: MoveTarget,
    /// Handshake progress.
    pub phase: MovePhase,
    /// Packets of the bucket that arrived while it was parked (with their
    /// already-parsed flow keys), in arrival order. Released once the phase
    /// reaches [`MovePhase::Releasing`]; a replica scale's stays empty.
    pub pen: VecDeque<(Packet, FlowKey)>,
}

impl BucketMove {
    /// Whether this move is a replica scale: its bucket stays on its shard
    /// and its arrivals are throttled instead of penned.
    pub fn is_scale(&self) -> bool {
        self.to == MoveTarget::Shard(self.from)
    }
}

/// Everything one steering bucket carries across the host interconnect:
/// its shard-local flow-table state (exact rules and wildcard-mutation
/// records, already extracted from the source partition) and the
/// NF-internal per-flow state detached from the source shard's replicas.
/// Produced by the source host's handout, consumed by
/// [`ThreadedHost::absorb_bucket_handout`](crate::runtime::ThreadedHost::absorb_bucket_handout)
/// on the destination host.
#[derive(Debug)]
pub struct BucketHandout {
    /// The steering bucket (bucket indices are host-independent: every host
    /// hashes flows over the same [`STEER_BUCKETS`](crate::runtime::STEER_BUCKETS)).
    pub bucket: usize,
    /// Exact rules and wildcard-mutation records from the source partition.
    pub table_state: BucketStateBundle,
    /// NF per-flow state detached from the source shard's replicas.
    pub nf_states: Vec<(ServiceId, FlowKey, NfFlowState)>,
}

/// NF flow state collected on the old shard, on its way to the new owner's
/// worker (batched per destination shard; the shared `done` flag gates the
/// pen release of every bucket the batch covers).
#[derive(Debug)]
pub struct ImportDelivery {
    /// Destination shard.
    pub to: usize,
    /// The exported `(service, flow, state)` triples.
    pub states: Vec<(ServiceId, FlowKey, NfFlowState)>,
    /// Acknowledgement flag shared with the covered moves'
    /// [`MovePhase::Importing`] phases.
    pub done: Arc<AtomicBool>,
}

/// Counters describing the re-homing activity of a host, for benches and
/// acceptance tests (`packets lost`, `rules lost`, `wildcard mutations
/// lost` and `NF flow states lost` during a re-home must all be zero —
/// these counters make the mechanism observable).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RehomeReport {
    /// Buckets whose re-home handshake has completed.
    pub buckets_rehomed: u64,
    /// Shard-local exact-flow rules carried between partitions by
    /// completed re-homes.
    pub rules_rehomed: u64,
    /// Wildcard-rule mutations replayed into destination partitions.
    pub wildcard_mutations_rehomed: u64,
    /// Wildcard-mutation replays skipped because the destination held a
    /// newer conflicting mutation (last-writer-wins).
    pub wildcard_conflicts: u64,
    /// NF-internal per-flow state payloads carried to new shards.
    pub nf_flow_states_rehomed: u64,
    /// Packets that waited in a per-bucket pen during a re-home (every one
    /// of them was released into the bucket's new shard).
    pub packets_penned: u64,
    /// Injections rejected because a bucket's pen was full or a replica
    /// scale re-picks it (handed back as backpressure, not dropped).
    pub pen_throttled: u64,
    /// Buckets this host handed to another host (cross-host re-homes, as
    /// the source).
    pub buckets_handed_off: u64,
    /// Buckets this host adopted from another host (cross-host re-homes,
    /// as the destination).
    pub buckets_adopted: u64,
}

/// A shard being retired: all its buckets are re-homed first, then its
/// worker is stopped and joined, and finally its ports are removed once its
/// egress ring has been drained by the host.
#[derive(Debug)]
pub struct RetiringShard {
    /// The shard being drained away (any live index; a retired middle
    /// slot becomes a reusable tombstone, a retired tail slot is reaped).
    pub shard: usize,
    /// Whether the worker has been told to stop (set once every bucket has
    /// left the shard).
    pub stop_sent: bool,
}

/// Re-home events retained between [`RehomeState::take_events`] drains;
/// excess events are counted in `rehome_events_dropped` instead of growing
/// the buffer without bound.
pub const REHOME_EVENT_CAP: usize = 4096;

/// Which step of a bucket move a [`RehomeEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RehomeStep {
    /// The bucket was parked and its drain on the old shard began.
    Begun,
    /// The pen was released to the destination: the move is over.
    Completed,
}

/// One step of one bucket's re-home — the feed a control-plane flight
/// recorder journals so an operator can replay exactly when each bucket
/// left its old shard and when it resumed on the new one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RehomeEvent {
    /// Host-clock nanoseconds when the step happened.
    pub at_ns: u64,
    /// The bucket being moved.
    pub bucket: usize,
    /// The shard the bucket is leaving.
    pub from: usize,
    /// Where the bucket is going: another shard, the same shard (a replica
    /// scale) or another host (a handout).
    pub to: MoveTarget,
    /// Which step this event records.
    pub step: RehomeStep,
}

/// The host-side state of all in-progress re-homes.
#[derive(Debug, Default)]
pub struct RehomeState {
    /// Active bucket moves, at most one per bucket.
    pub moves: Vec<BucketMove>,
    /// NF-state deliveries awaiting a slot in their destination shard's
    /// control ring.
    pub outbox: Vec<ImportDelivery>,
    /// Handout bundles awaiting the federation's `take_ready_handouts`;
    /// their moves wait in [`MovePhase::Importing`].
    pub handouts: Vec<BucketHandout>,
    /// The shard currently being retired, if any.
    pub retiring: Option<RetiringShard>,
    /// Cumulative re-home counters.
    pub report: RehomeReport,
    /// Monotonic id generator for export requests.
    pub next_export_id: u64,
    /// Re-home steps awaiting a [`RehomeState::take_events`] drain, newest
    /// last, capped at [`REHOME_EVENT_CAP`].
    events: Vec<RehomeEvent>,
    /// Events dropped because the cap was reached.
    pub rehome_events_dropped: u64,
}

impl RehomeState {
    /// Whether any re-home work is pending.
    pub fn is_idle(&self) -> bool {
        self.moves.is_empty() && self.retiring.is_none() && self.outbox.is_empty()
    }

    /// Begins a move of `bucket` (which must not already be moving): parks
    /// it in `tracker` — shard workers then defer its exact rules' timeouts
    /// while its state is mid-export — and journals the
    /// [`RehomeStep::Begun`] event at `now_ns`.
    pub fn begin_move(
        &mut self,
        tracker: &BucketTracker,
        bucket: usize,
        from: usize,
        to: MoveTarget,
        now_ns: u64,
    ) {
        debug_assert!(!tracker.is_parked(bucket), "bucket {bucket} already moving");
        tracker.park(bucket);
        self.moves.push(BucketMove {
            bucket,
            from,
            to,
            phase: MovePhase::Draining,
            pen: VecDeque::new(),
        });
        self.record_event(RehomeEvent {
            at_ns: now_ns,
            bucket,
            from,
            to,
            step: RehomeStep::Begun,
        });
    }

    /// Journals one re-home step (bounded by [`REHOME_EVENT_CAP`]).
    pub fn record_event(&mut self, event: RehomeEvent) {
        if self.events.len() < REHOME_EVENT_CAP {
            self.events.push(event);
        } else {
            self.rehome_events_dropped += 1;
        }
    }

    /// Drains the journaled re-home steps, oldest first.
    pub fn take_events(&mut self) -> Vec<RehomeEvent> {
        std::mem::take(&mut self.events)
    }

    /// The move currently holding `bucket`, if any.
    pub fn move_for_bucket_mut(&mut self, bucket: usize) -> Option<&mut BucketMove> {
        self.moves.iter_mut().find(|m| m.bucket == bucket)
    }

    /// Whether a shard retirement or a replica scale is on.
    pub fn retiring_or_scaling(&self) -> bool {
        self.retiring.is_some() || self.moves.iter().any(BucketMove::is_scale)
    }

    /// Whether any active move or queued delivery still involves shard
    /// `shard` (as source or destination).
    pub fn shard_has_moves(&self, shard: usize) -> bool {
        self.moves
            .iter()
            .any(|m| m.from == shard || m.to == MoveTarget::Shard(shard))
            || self.outbox.iter().any(|d| d.to == shard)
    }

    /// The invariant of the move machine, against the host's bucket
    /// `tracker` and `steering` table:
    ///
    /// * a bucket is parked in the tracker iff exactly one move holds it;
    /// * from its drain until its release begins, a move has nothing in
    ///   flight (the tracker counts per bucket, so packets a release has
    ///   admitted into the destination count too);
    /// * a cross-shard move past collection has flipped its steering entry;
    /// * a replica scale holds no pen.
    pub fn check(&self, tracker: &BucketTracker, steering: &[usize]) -> Result<(), String> {
        let mut holders = vec![0usize; tracker.buckets()];
        for mv in &self.moves {
            let bucket = mv.bucket;
            holders[bucket] += 1;
            let drained = matches!(
                mv.phase,
                MovePhase::Collecting { .. } | MovePhase::Importing { .. }
            );
            if drained && tracker.in_flight(bucket) > 0 {
                return Err(format!(
                    "bucket {bucket}: packets in flight in phase {:?}",
                    mv.phase
                ));
            }
            let imported = matches!(mv.phase, MovePhase::Importing { .. } | MovePhase::Releasing);
            if let MoveTarget::Shard(to) = mv.to {
                if imported && to != mv.from && steering.get(bucket) != Some(&to) {
                    return Err(format!("bucket {bucket}: steering not flipped to {to}"));
                }
            }
            if mv.is_scale() && !mv.pen.is_empty() {
                return Err(format!("bucket {bucket}: a replica scale holds a pen"));
            }
        }
        for (bucket, &count) in holders.iter().enumerate() {
            if count > 1 || tracker.is_parked(bucket) != (count == 1) {
                return Err(format!(
                    "bucket {bucket}: parked {} with {count} moves",
                    tracker.is_parked(bucket)
                ));
            }
        }
        Ok(())
    }

    /// A fresh export-request id.
    pub fn allocate_export_id(&mut self) -> u64 {
        self.next_export_id += 1;
        self.next_export_id
    }

    /// Total packets currently parked in pens destined for `shard`, and the
    /// oldest such packet's arrival timestamp (host-clock nanoseconds) —
    /// the live inputs of the pen gauges.
    pub fn pen_gauges_for_shard(&self, shard: usize) -> (usize, Option<u64>) {
        let mut depth = 0;
        let mut oldest: Option<u64> = None;
        for mv in self
            .moves
            .iter()
            .filter(|m| m.to == MoveTarget::Shard(shard))
        {
            depth += mv.pen.len();
            if let Some((packet, _)) = mv.pen.front() {
                oldest = Some(match oldest {
                    Some(current) => current.min(packet.timestamp_ns),
                    None => packet.timestamp_ns,
                });
            }
        }
        (depth, oldest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnfv_proto::flow::IpProtocol;
    use std::net::Ipv4Addr;

    fn key(last: u8) -> FlowKey {
        FlowKey::new(
            Ipv4Addr::new(10, 0, 0, last),
            Ipv4Addr::new(10, 0, 0, 2),
            1000,
            80,
            IpProtocol::Udp,
        )
    }

    #[test]
    fn tracker_counts_per_bucket() {
        let tracker = BucketTracker::new(8);
        assert_eq!(tracker.buckets(), 8);
        let k = key(1);
        let bucket = tracker.bucket_of(&k);
        assert!(bucket < 8);
        assert_eq!(tracker.in_flight(bucket), 0);
        tracker.admit(bucket);
        tracker.admit(bucket);
        assert_eq!(tracker.in_flight(bucket), 2);
        tracker.finish(k.stable_hash());
        assert_eq!(tracker.in_flight(bucket), 1);
        tracker.finish(k.stable_hash());
        assert_eq!(tracker.in_flight(bucket), 0);
    }

    #[test]
    fn a_push_handed_back_takes_its_admission_back() {
        let tracker = BucketTracker::new(4);
        tracker.admit(3);
        tracker.admit(3);
        tracker.unadmit(3);
        assert_eq!(tracker.in_flight(3), 1);
        tracker.finish(3);
        assert_eq!(tracker.in_flight(3), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "finished more than admitted")]
    fn finishing_an_uncounted_packet_panics_in_debug_builds() {
        // A packet the host never counted: what a worker meets if the admit
        // comes after the push.
        BucketTracker::new(4).finish(2);
    }

    #[test]
    fn a_bucket_is_the_hashs_low_bits() {
        let tracker = BucketTracker::new(1024);
        for hash in [0, 1, 1023, 1024, 0xdead_beef, u64::MAX] {
            assert_eq!(tracker.bucket_of_hash(hash), (hash % 1024) as usize);
        }
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn a_bucket_count_must_be_a_power_of_two() {
        BucketTracker::new(6);
    }

    #[test]
    fn tracker_park_bit_round_trips() {
        let tracker = BucketTracker::new(4);
        assert!(!tracker.is_parked(2));
        tracker.park(2);
        assert!(tracker.is_parked(2));
        assert!(!tracker.is_parked(1));
        tracker.unpark(2);
        assert!(!tracker.is_parked(2));
    }

    #[test]
    fn bucket_of_is_stable() {
        let tracker = BucketTracker::new(1024);
        for last in 0..32 {
            let k = key(last);
            assert_eq!(tracker.bucket_of(&k), tracker.bucket_of(&k));
        }
    }

    #[test]
    fn state_tracks_parked_buckets_and_moves() {
        let tracker = BucketTracker::new(8);
        let mut state = RehomeState::default();
        assert!(state.is_idle());
        state.begin_move(&tracker, 3, 0, MoveTarget::Shard(1), 0);
        assert!(!state.is_idle());
        assert!(tracker.is_parked(3));
        assert!(state.shard_has_moves(0));
        assert!(state.shard_has_moves(1));
        assert!(!state.shard_has_moves(2));
        assert!(!state.retiring_or_scaling());
        let mv = state.move_for_bucket_mut(3).expect("bucket 3 is moving");
        assert_eq!((mv.from, mv.to), (0, MoveTarget::Shard(1)));
        assert!(matches!(mv.phase, MovePhase::Draining));
        assert!(state.move_for_bucket_mut(4).is_none());
        assert_eq!(state.check(&tracker, &[0; 8]), Ok(()));
        // A handout involves its source shard; a replica scale is a scale.
        state.begin_move(&tracker, 4, 2, MoveTarget::Host, 0);
        assert!(state.shard_has_moves(2));
        state.begin_move(&tracker, 5, 6, MoveTarget::Shard(6), 0);
        assert!(state.retiring_or_scaling());
        let journal = state.take_events();
        let targets: Vec<MoveTarget> = journal.iter().map(|e| e.to).collect();
        assert_eq!(
            targets,
            [MoveTarget::Shard(1), MoveTarget::Host, MoveTarget::Shard(6)]
        );
    }

    /// Every clause of [`RehomeState::check`] trips on a state built to
    /// break it, and passes on the same state put right.
    #[test]
    fn a_hand_built_violation_trips_the_move_invariant() {
        let steering = [0usize; 8];
        type BreakIt = fn(&BucketTracker, &mut RehomeState);
        let violations: [(&str, BreakIt); 6] = [
            ("a parked bucket no move holds", |tracker, _| {
                tracker.park(2)
            }),
            ("a moving bucket the tracker does not park", |tracker, _| {
                tracker.unpark(1)
            }),
            ("two moves of one bucket", |_, state| {
                state.moves.push(BucketMove {
                    bucket: 1,
                    from: 0,
                    to: MoveTarget::Host,
                    phase: MovePhase::Draining,
                    pen: VecDeque::new(),
                })
            }),
            ("a packet in flight past the drain", |tracker, state| {
                tracker.admit(1);
                state.moves[0].phase = MovePhase::Collecting { id: 1 };
            }),
            ("an imported move that never flipped", |_, state| {
                let done = Arc::new(AtomicBool::new(false));
                state.moves[0].phase = MovePhase::Importing { done };
            }),
            ("a replica scale with a pen", |_, state| {
                use sdnfv_proto::packet::PacketBuilder;
                let packet = PacketBuilder::udp().build();
                let key = packet.flow_key().unwrap();
                state.moves[0].to = MoveTarget::Shard(0);
                state.moves[0].pen.push_back((packet, key));
            }),
        ];
        for (what, break_it) in violations {
            let tracker = BucketTracker::new(8);
            let mut state = RehomeState::default();
            state.begin_move(&tracker, 1, 0, MoveTarget::Shard(1), 0);
            assert_eq!(state.check(&tracker, &steering), Ok(()), "{what}");
            break_it(&tracker, &mut state);
            assert!(state.check(&tracker, &steering).is_err(), "{what}");
        }
        // The same imported move is sound once its entry has flipped.
        let tracker = BucketTracker::new(8);
        let mut state = RehomeState::default();
        state.begin_move(&tracker, 1, 0, MoveTarget::Shard(1), 0);
        let done = Arc::new(AtomicBool::new(false));
        state.moves[0].phase = MovePhase::Importing { done };
        let mut flipped = steering;
        flipped[1] = 1;
        assert_eq!(state.check(&tracker, &flipped), Ok(()));
    }

    #[test]
    fn outbox_deliveries_count_as_shard_involvement() {
        let mut state = RehomeState::default();
        state.outbox.push(ImportDelivery {
            to: 2,
            states: Vec::new(),
            done: Arc::new(AtomicBool::new(false)),
        });
        assert!(state.shard_has_moves(2));
        assert!(!state.is_idle());
    }

    #[test]
    fn export_ids_are_unique() {
        let mut state = RehomeState::default();
        let a = state.allocate_export_id();
        let b = state.allocate_export_id();
        assert_ne!(a, b);
    }

    #[test]
    fn pen_gauges_report_depth_and_oldest_arrival() {
        use sdnfv_proto::packet::PacketBuilder;
        let tracker = BucketTracker::new(4);
        let mut state = RehomeState::default();
        state.begin_move(&tracker, 0, 0, MoveTarget::Shard(1), 0);
        state.begin_move(&tracker, 1, 0, MoveTarget::Shard(1), 0);
        assert_eq!(state.pen_gauges_for_shard(1), (0, None));
        let mut early = PacketBuilder::udp().src_port(1).build();
        early.timestamp_ns = 100;
        let k1 = early.flow_key().unwrap();
        let mut late = PacketBuilder::udp().src_port(2).build();
        late.timestamp_ns = 500;
        let k2 = late.flow_key().unwrap();
        state
            .move_for_bucket_mut(0)
            .unwrap()
            .pen
            .push_back((late, k2));
        state
            .move_for_bucket_mut(1)
            .unwrap()
            .pen
            .push_back((early, k1));
        let (depth, oldest) = state.pen_gauges_for_shard(1);
        assert_eq!(depth, 2);
        assert_eq!(oldest, Some(100), "oldest arrival across all pens");
        assert_eq!(state.pen_gauges_for_shard(0), (0, None));
    }
}
