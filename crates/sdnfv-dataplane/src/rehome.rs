//! State-safe re-homing of flow-steering buckets between shards.
//!
//! Moving a steering bucket from one shard to another is only safe if no
//! packet of the bucket's flows is mid-pipeline on the old shard when the
//! steering entry flips: an in-flight packet could still install or consult
//! shard-local exact-flow rules there, mutate a wildcard rule, or touch
//! NF-internal per-flow state — and all of that must travel with the flows.
//! The runtime therefore re-homes buckets with a **state-complete
//! quiesce-then-move handshake**:
//!
//! 1. **Park** the bucket ([`MovePhase::Draining`]): new arrivals are held
//!    in a small per-bucket pen instead of entering the old shard's
//!    pipeline (the pen overflows into ordinary backpressure, never into
//!    drops);
//! 2. **Drain**: wait until the bucket's in-flight count reaches zero. A
//!    [`BucketTracker`] keeps it as two one-sided counts: the injection side
//!    counts a packet admitted before the ring push that makes it visible to
//!    a worker, and the shard worker counts it finished at its last
//!    flow-state touchpoint; in flight is their difference;
//! 3. **Collect** ([`MovePhase::Collecting`]): ask the old shard's worker
//!    to export the bucket's NF-internal per-flow state — every NF replica
//!    is handed the bucket's flow keys (the partition's exact entries plus
//!    the NF's own key set) and detaches its state for them;
//! 4. **Move & flip**: the bucket's shard-local exact-flow rules *and* the
//!    wildcard mutations attributed to it are exported into the new owner's
//!    flow-table partition
//!    ([`FlowTablePartitions::move_bucket_state`](sdnfv_flowtable::FlowTablePartitions::move_bucket_state)),
//!    then the steering entry flips;
//! 5. **Import** ([`MovePhase::Importing`]): the collected NF state is
//!    shipped to the new shard's worker, which routes it into its replicas;
//!    only once the import is acknowledged —
//! 6. **Release** ([`MovePhase::Releasing`]): the pen drains into the new
//!    shard, whose NFs now hold the flows' state.
//!
//! Plain steering rebalances (`set_steering_weights`), shard scale-out/in
//! (`spawn_shard` / `retire_shard`) and replica scaling (`add_nf_replica` /
//! `remove_nf_replica`) all go through this machinery, so none can lose
//! packets, flow-table state, wildcard-rule mutations or NF-internal flow
//! state. A replica scale is the same handshake with `from == to`: only
//! the shard's buckets whose replica pick changes park, their arrivals are
//! throttled back (not penned: the shard's credit gate stays the bound),
//! their export and the replica change are pushed together once all of
//! them have drained, and step 5 lands each flow's state on its new pick.
//! Its moves show in `take_rehome_events` like any other.

use std::collections::VecDeque;
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
    /// `true` while the bucket is mid-re-home. Shard workers consult this
    /// before timing out exact-flow rules: a rule of a parked bucket may
    /// be mid-export, and evicting it would race the re-home (the evicted
    /// rule could be resurrected by the import, or the export could carry
    /// a rule the control plane was just told died). Such rules are
    /// deferred until the bucket settles.
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

/// Where one bucket move stands in the state-complete handshake (see the
/// module docs for the full sequence).
#[derive(Debug, Clone)]
pub enum MovePhase {
    /// Waiting for the bucket's in-flight count on the old shard to reach
    /// zero.
    Draining,
    /// NF-state export request `id` is in flight to the old shard's worker.
    Collecting {
        /// Matches the request to the worker's
        /// eventual export response (one request can cover many buckets).
        id: u64,
    },
    /// Flow-table state moved and steering flipped; waiting for the new
    /// shard's worker to confirm it imported the bucket's NF flow state
    /// (the flag is shared with the in-flight import command).
    Importing {
        /// Set by the destination worker once every replica absorbed its
        /// share of the state.
        done: Arc<AtomicBool>,
    },
    /// Fully state-moved; the pen is draining into the new shard.
    Releasing,
}

/// One bucket mid-re-home: where it is moving, how far the handshake has
/// progressed, and the pen of packets that arrived while it was parked.
#[derive(Debug)]
pub struct BucketMove {
    /// The bucket being moved.
    pub bucket: usize,
    /// The shard the bucket is leaving.
    pub from: usize,
    /// The shard the bucket is moving to.
    pub to: usize,
    /// Handshake progress.
    pub phase: MovePhase,
    /// Packets of the bucket that arrived while it was parked (with their
    /// already-parsed flow keys), in arrival order. Released into the new
    /// shard once the phase reaches [`MovePhase::Releasing`].
    pub pen: VecDeque<(Packet, FlowKey)>,
}

impl BucketMove {
    /// Whether the steering entry has flipped (rules exported, new shard
    /// owns the bucket).
    pub fn flipped(&self) -> bool {
        matches!(
            self.phase,
            MovePhase::Importing { .. } | MovePhase::Releasing
        )
    }
}

/// Where one **cross-host** bucket handout stands on the source host. The
/// phases mirror [`MovePhase`] up to collection; from there the bundle
/// leaves the host and the federation (which owns the wire and the
/// destination host) drives the import and the release.
#[derive(Debug, Clone)]
pub enum HandoutPhase {
    /// Waiting for the bucket's in-flight count on its shard to reach zero.
    Draining,
    /// NF-state export request `id` is in flight to the shard's worker.
    Collecting {
        /// Matches the request to the worker's eventual export response.
        id: u64,
    },
    /// The portable bundle is assembled, waiting for
    /// [`ThreadedHost::take_ready_handouts`](crate::runtime::ThreadedHost::take_ready_handouts).
    Ready,
    /// The bundle left the host; the pen keeps absorbing stray arrivals
    /// until the federation confirms the destination's import
    /// ([`ThreadedHost::finish_bucket_handout`](crate::runtime::ThreadedHost::finish_bucket_handout)).
    AwaitingRelease,
}

/// One bucket leaving this host for another host: the outbound half of a
/// cross-host re-home. The pen plays the same role as [`BucketMove::pen`] —
/// arrivals while the bucket is parked wait here, in order — but it is
/// returned to the federation at finish rather than drained into a local
/// shard, because the bucket's new pipeline lives on another machine.
#[derive(Debug)]
pub struct OutboundHandout {
    /// The bucket being handed to another host.
    pub bucket: usize,
    /// The shard that owns the bucket here.
    pub from: usize,
    /// Handshake progress.
    pub phase: HandoutPhase,
    /// Packets of the bucket that arrived while it was parked, with their
    /// parsed flow keys, in arrival order.
    pub pen: VecDeque<(Packet, FlowKey)>,
    /// The assembled bundle, between collection and
    /// [`HandoutPhase::Ready`] pickup.
    pub bundle: Option<BucketHandout>,
}

/// Everything one steering bucket carries across the host interconnect:
/// its shard-local flow-table state (exact rules and wildcard-mutation
/// records, already extracted from the source partition) and the
/// NF-internal per-flow state detached from the source shard's replicas.
/// Produced by the source host's handout machinery, consumed by
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

/// How many pen-age samples [`RehomeState`] retains for percentile
/// reporting before older samples are dropped (the gauges in
/// [`TelemetrySnapshot`](sdnfv_telemetry::TelemetrySnapshot) are live and
/// unaffected by this cap).
pub const PEN_AGE_SAMPLE_CAP: usize = 4096;

/// Re-home events retained between [`RehomeState::take_events`] drains;
/// excess events are counted in `rehome_events_dropped` instead of growing
/// the buffer without bound.
pub const REHOME_EVENT_CAP: usize = 4096;

/// Which step of a bucket move a [`RehomeEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RehomeStep {
    /// The bucket was parked and its drain on the old shard began.
    Begun,
    /// The pen finished draining into the destination: the move is over.
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
    /// The shard the bucket is moving to.
    pub to: usize,
    /// Which step this event records.
    pub step: RehomeStep,
}

/// The host-side state of all in-progress re-homes.
#[derive(Debug, Default)]
pub struct RehomeState {
    /// Active bucket moves, at most one per bucket.
    pub moves: Vec<BucketMove>,
    /// Active cross-host handouts, at most one per bucket (a bucket is
    /// never simultaneously in `moves` and `outbound`).
    pub outbound: Vec<OutboundHandout>,
    /// `parked[bucket]` is `true` while the bucket is mid-move (sized to
    /// the steering table; empty until the first re-home).
    pub parked: Vec<bool>,
    /// NF-state deliveries awaiting a slot in their destination shard's
    /// control ring.
    pub outbox: Vec<ImportDelivery>,
    /// The shard currently being retired, if any.
    pub retiring: Option<RetiringShard>,
    /// Cumulative re-home counters.
    pub report: RehomeReport,
    /// Monotonic id generator for export requests.
    pub next_export_id: u64,
    /// Ages (nanoseconds spent parked) of packets released from pens, newest
    /// last, capped at [`PEN_AGE_SAMPLE_CAP`] samples.
    pen_ages_ns: Vec<u64>,
    /// Samples dropped because the cap was reached.
    pub pen_age_samples_dropped: u64,
    /// Re-home steps awaiting a [`RehomeState::take_events`] drain, newest
    /// last, capped at [`REHOME_EVENT_CAP`].
    events: Vec<RehomeEvent>,
    /// Events dropped because the cap was reached.
    pub rehome_events_dropped: u64,
}

impl RehomeState {
    /// Whether any re-home work is pending.
    pub fn is_idle(&self) -> bool {
        self.moves.is_empty()
            && self.outbound.is_empty()
            && self.retiring.is_none()
            && self.outbox.is_empty()
    }

    /// Whether `bucket` is currently parked (mid-move).
    pub fn is_parked(&self, bucket: usize) -> bool {
        self.parked.get(bucket).copied().unwrap_or(false)
    }

    /// Ensures the parked table covers `buckets` entries.
    pub fn ensure_parked_table(&mut self, buckets: usize) {
        if self.parked.len() < buckets {
            self.parked.resize(buckets, false);
        }
    }

    /// Begins a move for `bucket` (which must not already be moving),
    /// journaling the [`RehomeStep::Begun`] event at `now_ns`.
    pub fn begin_move(&mut self, bucket: usize, from: usize, to: usize, now_ns: u64) {
        debug_assert!(!self.is_parked(bucket), "bucket {bucket} already moving");
        self.parked[bucket] = true;
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

    /// The cross-host handout currently holding `bucket`, if any.
    pub fn outbound_for_bucket_mut(&mut self, bucket: usize) -> Option<&mut OutboundHandout> {
        self.outbound.iter_mut().find(|h| h.bucket == bucket)
    }

    /// Begins a cross-host handout for `bucket` (which must not already be
    /// moving), journaling the [`RehomeStep::Begun`] event at `now_ns` with
    /// the destination recorded as the source shard itself (the real
    /// destination is another host, outside this journal's shard space).
    pub fn begin_handout(&mut self, bucket: usize, from: usize, now_ns: u64) {
        debug_assert!(!self.is_parked(bucket), "bucket {bucket} already moving");
        self.parked[bucket] = true;
        self.outbound.push(OutboundHandout {
            bucket,
            from,
            phase: HandoutPhase::Draining,
            pen: VecDeque::new(),
            bundle: None,
        });
        self.record_event(RehomeEvent {
            at_ns: now_ns,
            bucket,
            from,
            to: from,
            step: RehomeStep::Begun,
        });
    }

    /// Whether a shard retirement or a replica scale (`from == to`) is on.
    pub fn retiring_or_scaling(&self) -> bool {
        self.retiring.is_some() || self.moves.iter().any(|m| m.from == m.to)
    }

    /// Whether any active move still involves shard `shard` (as source or
    /// destination).
    pub fn shard_has_moves(&self, shard: usize) -> bool {
        self.moves.iter().any(|m| m.from == shard || m.to == shard)
            || self.outbound.iter().any(|h| h.from == shard)
            || self.outbox.iter().any(|d| d.to == shard)
    }

    /// A fresh export-request id.
    pub fn allocate_export_id(&mut self) -> u64 {
        self.next_export_id += 1;
        self.next_export_id
    }

    /// Records how long a packet sat in a pen before release.
    pub fn record_pen_age(&mut self, age_ns: u64) {
        if self.pen_ages_ns.len() < PEN_AGE_SAMPLE_CAP {
            self.pen_ages_ns.push(age_ns);
        } else {
            self.pen_age_samples_dropped += 1;
        }
    }

    /// Drains the recorded pen-age samples (nanoseconds).
    pub fn take_pen_ages_ns(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.pen_ages_ns)
    }

    /// Total packets currently parked in pens destined for `shard`, and the
    /// oldest such packet's arrival timestamp (host-clock nanoseconds) —
    /// the live inputs of the pen gauges.
    pub fn pen_gauges_for_shard(&self, shard: usize) -> (usize, Option<u64>) {
        let mut depth = 0;
        let mut oldest: Option<u64> = None;
        for mv in self.moves.iter().filter(|m| m.to == shard) {
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
        let mut state = RehomeState::default();
        assert!(state.is_idle());
        assert!(!state.is_parked(3));
        state.ensure_parked_table(8);
        state.begin_move(3, 0, 1, 0);
        assert!(!state.is_idle());
        assert!(state.is_parked(3));
        assert!(state.shard_has_moves(0));
        assert!(state.shard_has_moves(1));
        assert!(!state.shard_has_moves(2));
        let mv = state.move_for_bucket_mut(3).expect("bucket 3 is moving");
        assert_eq!((mv.from, mv.to), (0, 1));
        assert!(matches!(mv.phase, MovePhase::Draining));
        assert!(!mv.flipped());
        mv.phase = MovePhase::Importing {
            done: Arc::new(AtomicBool::new(false)),
        };
        assert!(mv.flipped());
        assert!(state.move_for_bucket_mut(4).is_none());
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
    fn pen_age_samples_are_capped() {
        let mut state = RehomeState::default();
        for age in 0..(PEN_AGE_SAMPLE_CAP as u64 + 10) {
            state.record_pen_age(age);
        }
        assert_eq!(state.take_pen_ages_ns().len(), PEN_AGE_SAMPLE_CAP);
        assert_eq!(state.pen_age_samples_dropped, 10);
        // Taking drains.
        assert!(state.take_pen_ages_ns().is_empty());
    }

    #[test]
    fn pen_gauges_report_depth_and_oldest_arrival() {
        use sdnfv_proto::packet::PacketBuilder;
        let mut state = RehomeState::default();
        state.ensure_parked_table(4);
        state.begin_move(0, 0, 1, 0);
        state.begin_move(1, 0, 1, 0);
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
