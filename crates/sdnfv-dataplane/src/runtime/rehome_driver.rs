//! The host's re-home driver: the [`ThreadedHost`] half of the bucket move
//! machine in [`crate::rehome`]. A cross-shard move, a replica scale and a
//! cross-host handout all advance through one pass,
//! [`ThreadedHost::advance_rehoming`]; they differ only in what collection
//! produces ([`ThreadedHost::absorb_exports`]: a partition move or a
//! portable bundle) and where release sends the pen
//! ([`ThreadedHost::release_pens`]: into a shard or back to the federation).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use sdnfv_proto::flow::FlowKey;
use sdnfv_proto::Packet;
use sdnfv_ring::PushError;
use sdnfv_telemetry::ShardLifecycleEvent;

use super::{
    replica_of_bucket, BucketStateExport, IngressFrame, InjectResult, ShardCommand, TaskHandle,
    ThreadedHost, REHOME_PEN, STEER_BUCKETS,
};
use crate::rehome::{
    BucketHandout, ImportDelivery, MovePhase, MoveTarget, RehomeEvent, RehomeState, RehomeStep,
};

/// A pen handed back to the federation by a finished handout: the bucket
/// and its packets, with their flow keys, in arrival order.
type HandedBack = (usize, VecDeque<(Packet, FlowKey)>);

impl ThreadedHost {
    /// Parks a packet whose bucket is mid-move in the move's pen; a full
    /// pen, or a replica scale (which holds none), throttles it back.
    pub(super) fn park(&self, bucket: usize, packet: Packet, key: FlowKey) -> InjectResult {
        let mut state = self.rehome.borrow_mut();
        let mv = state
            .move_for_bucket_mut(bucket)
            .expect("a parked bucket has an active move");
        // A throttle counts on the shard the bucket resumes on here.
        let shard = match mv.to {
            MoveTarget::Shard(to) => to,
            MoveTarget::Host => mv.from,
        };
        if !mv.is_scale() && mv.pen.len() < REHOME_PEN {
            mv.pen.push_back((packet, key));
            state.report.packets_penned += 1;
            return InjectResult::Admitted;
        }
        state.report.pen_throttled += 1;
        drop(state);
        self.shards.borrow()[shard].stats.add_throttled(1);
        InjectResult::Throttled(packet)
    }

    /// Begins a replica scale: `change` is pushed at once if it re-picks none
    /// of the shard's buckets, else after their same-shard move drains them
    /// ([`ThreadedHost::request_exports`]). Hands `change` back if refused.
    pub(super) fn scale_replicas(
        &self,
        shard: usize,
        change: ShardCommand,
    ) -> Result<(), ShardCommand> {
        self.advance_rehoming();
        let shards = self.shards.borrow();
        let ports = &shards[shard];
        let (_, count, next) = ports.replica_counts(&change);
        let steering = self.steering.borrow();
        let mut state = self.rehome.borrow_mut();
        if ports.retired.get()
            || next == 0
            || (shards.len() > 1 && steering.is_empty())
            || state.shard_has_moves(shard)
        {
            return Err(change);
        }
        // 0 → 1 replica re-picks nothing: no replica held any state.
        let repicked: Vec<usize> = (0..STEER_BUCKETS)
            .filter(|&bucket| {
                steering.get(bucket).is_none_or(|&owner| owner == shard)
                    && replica_of_bucket(bucket, count) != replica_of_bucket(bucket, next)
            })
            .collect();
        if repicked.is_empty() {
            return ports.push_replica_change(change);
        }
        for bucket in repicked {
            let now_ns = self.clock.now_ns();
            state.begin_move(
                &self.tracker,
                bucket,
                shard,
                MoveTarget::Shard(shard),
                now_ns,
            );
        }
        *ports.replica_change.borrow_mut() = Some(change);
        Ok(())
    }

    /// Rebalances flow steering: shard `s` is assigned a share of the
    /// [`STEER_BUCKETS`] hash buckets proportional to `weights[s]`,
    /// moving as few buckets as possible from the current assignment.
    ///
    /// Every moved bucket goes through the state-safe re-home handshake:
    /// the bucket is quiesced (arrivals parked), the old shard drains its
    /// in-flight packets, the bucket's shard-local exact-flow rules are
    /// exported into the new owner's flow-table partition, and only then
    /// does the steering entry flip — no packet and no flow-table state is
    /// lost. Idle buckets complete the handshake immediately; busy ones
    /// finish over subsequent injection/polling calls. Buckets already
    /// mid-re-home are left to finish their current move.
    ///
    /// Returns `false` for single-shard hosts, a weight-count mismatch, an
    /// all-zero weight vector, or while a shard retirement or a replica
    /// scale is in progress.
    pub fn set_steering_weights(&self, weights: &[u32]) -> bool {
        self.advance_rehoming();
        let num_shards = self.shards.borrow().len();
        if num_shards <= 1 || weights.len() != num_shards || self.steering.borrow().is_empty() {
            return false;
        }
        if self.rehome.borrow().retiring_or_scaling() {
            return false;
        }
        // Tombstoned slots can never receive buckets, whatever the caller
        // asked for (an all-tombstone-weighted request degenerates to
        // all-zero and is rejected below).
        let weights: Vec<u32> = {
            let shards = self.shards.borrow();
            weights
                .iter()
                .enumerate()
                .map(|(s, &w)| if shards[s].retired.get() { 0 } else { w })
                .collect()
        };
        let buckets = self.steering.borrow().len();
        let Some(target) = apportion_targets(&weights, buckets) else {
            return false;
        };
        self.rebalance_to_targets(&target);
        true
    }

    /// Moves buckets (via the re-home handshake) until each shard owns
    /// `target[shard]` buckets, taking as few buckets as possible from
    /// over-quota shards. Buckets already mid-move are skipped; their
    /// destination counts toward its shard's quota.
    pub(super) fn rebalance_to_targets(&self, target: &[usize]) {
        let steering = self.steering.borrow();
        let mut state = self.rehome.borrow_mut();
        let buckets = steering.len();
        // Effective ownership: a bucket moving to another shard already
        // belongs to it.
        let mut current = vec![0usize; target.len()];
        for (bucket, &owner) in steering.iter().enumerate() {
            let effective = match state.moves.iter().find(|m| m.bucket == bucket) {
                Some(mv) => match mv.to {
                    MoveTarget::Shard(to) => to,
                    MoveTarget::Host => owner,
                },
                None => owner,
            };
            current[effective] += 1;
        }
        // Over-quota shards give up their highest-index (non-moving)
        // buckets, under-quota shards absorb them in order.
        let mut freed: Vec<usize> = Vec::new();
        for bucket in (0..buckets).rev() {
            if self.tracker.is_parked(bucket) {
                continue;
            }
            let owner = steering[bucket];
            if current[owner] > target[owner] {
                current[owner] -= 1;
                freed.push(bucket);
            }
        }
        let mut receiver = 0usize;
        for bucket in freed {
            while current[receiver] >= target[receiver] {
                receiver += 1;
            }
            current[receiver] += 1;
            let from = steering[bucket];
            if from == receiver {
                continue;
            }
            // Every move — even of an already-idle bucket — goes through
            // the phased handshake: the old shard's NFs may hold per-flow
            // state for the bucket's (idle) flows, and collecting it needs
            // a round trip through the shard's worker and NF threads.
            let now_ns = self.clock.now_ns();
            state.begin_move(
                &self.tracker,
                bucket,
                from,
                MoveTarget::Shard(receiver),
                now_ns,
            );
        }
    }

    /// Advances every bucket move one pass through the machine (drain →
    /// collect → hand over the rules → import → release) and finalizes a
    /// shard retirement once its pipeline is empty. Called opportunistically
    /// from injection and polling, so the handshake needs no dedicated
    /// thread.
    pub(super) fn advance_rehoming(&self) {
        if self.rehome.borrow().is_idle() {
            return;
        }
        let now_ns = self.now_ns();
        let mut state = self.rehome.borrow_mut();
        let mut steering = self.steering.borrow_mut();
        // Draining → Collecting.
        self.request_exports(&mut state);
        // Collecting → Importing.
        self.absorb_exports(&mut state, &mut steering, now_ns);
        self.flush_import_outbox(&mut state);
        // Importing → Releasing → done.
        let handed_back = self.release_pens(&mut state, now_ns);
        debug_assert!(
            handed_back.is_empty(),
            "only finish_bucket_handout acknowledges a handout"
        );

        let retiring = state.retiring.as_ref().map(|r| (r.shard, r.stop_sent));
        if let Some((s, mut stop_sent)) = retiring {
            if !stop_sent && !state.shard_has_moves(s) && !steering.contains(&s) {
                // Every bucket has left the shard and drained: nothing can
                // reach its pipeline any more (its gate may transiently
                // hold credits for egress-staged packets, which the worker
                // releases as it flushes). Stop its worker (which retires
                // the shard's NF threads in turn).
                self.shards.borrow()[s].stop.store(true, Ordering::Release);
                stop_sent = true;
                state.retiring.as_mut().expect("retiring").stop_sent = true;
            }
            if stop_sent {
                let finished = self.handles.borrow()[s]
                    .as_ref()
                    .is_some_and(TaskHandle::is_finished);
                let egress_empty = self.shards.borrow()[s].egress.is_empty();
                if finished && egress_empty {
                    if let Some(handle) = self.handles.borrow_mut()[s].take() {
                        handle.join();
                    }
                    self.shards.borrow()[s].retired.set(true);
                    // Reap trailing tombstones: a tail retirement (and any
                    // middle tombstones it uncovers) fully releases its
                    // slots, partitions included. Middle tombstones keep
                    // their slot — indices stay stable — until reuse.
                    loop {
                        let trailing_retired = {
                            let shards = self.shards.borrow();
                            shards.len() > 1 && shards.last().is_some_and(|p| p.retired.get())
                        };
                        if !trailing_retired {
                            break;
                        }
                        self.shards.borrow_mut().pop();
                        self.handles.borrow_mut().pop();
                        self.tables.remove_last_partition();
                    }
                    self.events.borrow_mut().push(ShardLifecycleEvent::Retired {
                        shard: s,
                        at_ns: self.clock.now_ns(),
                    });
                    state.retiring = None;
                }
            }
        }
        debug_assert_eq!(state.check(&self.tracker, &steering), Ok(()));
    }

    /// Draining → Collecting: asks the source shards' workers for the NF
    /// state of every drained move, one export per batch — a cross-shard
    /// batch is every drained move off one source shard (the control ring
    /// is shallow; per-bucket commands would not scale to a rebalance
    /// moving hundreds of buckets), a replica scale's is all of its
    /// shard's re-picked buckets, and a handout's is its bucket alone (its
    /// state is extracted into a bundle, so it shares an id with nothing).
    /// A full control ring leaves a batch in `Draining` for the next pass.
    fn request_exports(&self, state: &mut RehomeState) {
        #[derive(PartialEq)]
        enum Batch {
            Moves,
            Scale,
            Handout(usize),
        }
        // (source shard, batch, indices of its drained moves, whether any
        // of its moves is still draining)
        let mut batches: Vec<(usize, Batch, Vec<usize>, bool)> = Vec::new();
        for (index, mv) in state.moves.iter().enumerate() {
            if !matches!(mv.phase, MovePhase::Draining) {
                continue;
            }
            let batch = match mv.to {
                MoveTarget::Host => Batch::Handout(mv.bucket),
                _ if mv.is_scale() => Batch::Scale,
                MoveTarget::Shard(_) => Batch::Moves,
            };
            let at = match batches
                .iter()
                .position(|(from, b, ..)| *from == mv.from && *b == batch)
            {
                Some(at) => at,
                None => {
                    batches.push((mv.from, batch, Vec::new(), false));
                    batches.len() - 1
                }
            };
            let (.., drained, draining) = &mut batches[at];
            if self.tracker.in_flight(mv.bucket) > 0 {
                *draining = true;
            } else {
                drained.push(index);
            }
        }
        for (from, batch, drained, draining) in batches {
            let ports = &self.shards.borrow()[from];
            // A replica scale waits for every re-picked bucket, and for
            // room to push its export and its change together: the worker
            // posts the export to the replicas before it spawns or stops
            // one.
            let scale = batch == Batch::Scale;
            if drained.is_empty() || (scale && (draining || ports.control.free_space() < 2)) {
                continue;
            }
            let buckets: Vec<usize> = drained.iter().map(|&i| state.moves[i].bucket).collect();
            let id = state.allocate_export_id();
            let export = ShardCommand::ExportBucketState {
                id,
                exact_keys: self.exact_keys(from, &buckets),
                buckets,
            };
            if scale {
                let change = ports
                    .replica_change
                    .take()
                    .expect("a scale awaits its change");
                let pushed =
                    ports.control.push(export).is_ok() && ports.push_replica_change(change).is_ok();
                assert!(pushed, "the control ring had room for both");
            } else if ports.control.push(export).is_err() {
                continue; // retry next pass; the moves stay Draining
            }
            for i in drained {
                state.moves[i].phase = MovePhase::Collecting { id };
            }
        }
    }

    /// The flows of `buckets` with exact rules in `shard`'s partition: the
    /// keys an export hands every replica (which add their own key sets).
    fn exact_keys(&self, shard: usize, buckets: &[usize]) -> Vec<FlowKey> {
        self.tables.shard(shard).with_read(|table| {
            table
                .exact_rules()
                .map(|(_, (_, key), _)| key)
                .filter(|key| buckets.contains(&self.tracker.bucket_of(key)))
                .collect()
        })
    }

    /// Collecting → Importing: drains every shard's export ring and hands
    /// each covered move's rules over. A cross-shard move moves its exact
    /// rules and wildcard mutations into the destination's partition and
    /// flips its steering entry; a replica scale's stay put; a handout's
    /// are extracted into a [`BucketHandout`] that waits for
    /// [`ThreadedHost::take_ready_handouts`]. The NF state follows in
    /// export order: into one [`ImportDelivery`] per export and
    /// destination shard (its `done` flag shared with the moves it
    /// covers), or into the handout's bundle.
    fn absorb_exports(&self, state: &mut RehomeState, steering: &mut [usize], now_ns: u64) {
        let mut exports: Vec<BucketStateExport> = Vec::new();
        for ports in self.shards.borrow().iter() {
            while let Some(export) = ports.exports.pop() {
                exports.push(export);
            }
        }
        if exports.is_empty() {
            return;
        }
        enum Route {
            Delivery(usize),
            Handout(usize),
        }
        let RehomeState {
            moves,
            outbox,
            handouts,
            report,
            ..
        } = state;
        // (export index, replica scale, delivery), created in move order.
        let mut deliveries: Vec<(usize, bool, ImportDelivery)> = Vec::new();
        let mut routes: HashMap<usize, Route> = HashMap::new();
        for mv in moves.iter_mut() {
            let MovePhase::Collecting { id } = mv.phase else {
                continue;
            };
            let Some(export) = exports.iter().position(|e| e.id == id) else {
                continue;
            };
            let in_bucket = |key: &FlowKey| self.tracker.bucket_of(key) == mv.bucket;
            let done = match mv.to {
                MoveTarget::Host => {
                    let table_state = self
                        .tables
                        .extract_bucket_state(mv.from, mv.bucket, now_ns, in_bucket);
                    report.wildcard_conflicts += table_state.conflicts_at_source as u64;
                    routes.insert(mv.bucket, Route::Handout(handouts.len()));
                    handouts.push(BucketHandout {
                        bucket: mv.bucket,
                        table_state,
                        nf_states: Vec::new(),
                    });
                    Arc::new(AtomicBool::new(false))
                }
                MoveTarget::Shard(to) => {
                    let scale = mv.is_scale();
                    if !scale {
                        let moved = self
                            .tables
                            .move_bucket_state(mv.from, to, mv.bucket, in_bucket);
                        report.rules_rehomed += moved.exact_rules as u64;
                        report.wildcard_mutations_rehomed += moved.wildcard_mutations as u64;
                        report.wildcard_conflicts += moved.wildcard_conflicts as u64;
                        steering[mv.bucket] = to;
                    }
                    let at = deliveries
                        .iter()
                        .position(|(e, _, d)| *e == export && d.to == to)
                        .unwrap_or_else(|| {
                            let done = Arc::new(AtomicBool::new(false));
                            let states = Vec::new();
                            deliveries.push((export, scale, ImportDelivery { to, states, done }));
                            deliveries.len() - 1
                        });
                    routes.insert(mv.bucket, Route::Delivery(at));
                    Arc::clone(&deliveries[at].2.done)
                }
            };
            mv.phase = MovePhase::Importing { done };
        }
        for export in exports {
            for (service, key, nf_state) in export.states {
                match routes.get(&self.tracker.bucket_of(&key)) {
                    Some(Route::Delivery(at)) => {
                        deliveries[*at].2.states.push((service, key, nf_state))
                    }
                    Some(Route::Handout(at)) => {
                        handouts[*at].nf_states.push((service, key, nf_state))
                    }
                    None => {}
                }
            }
        }
        // Queued in export order, each export's destinations in move order.
        deliveries.sort_by_key(|(export, ..)| *export);
        for (_, scale, delivery) in deliveries {
            if delivery.states.is_empty() {
                delivery.done.store(true, Ordering::Release);
                continue;
            }
            let moved = delivery.states.len() as u64;
            if scale {
                self.shards.borrow()[delivery.to]
                    .stats
                    .add_nf_state_handoffs(moved);
            } else {
                report.nf_flow_states_rehomed += moved;
            }
            outbox.push(delivery);
        }
    }

    /// Pushes queued NF-state deliveries into their destination shards'
    /// control rings (a full ring leaves the delivery queued for the next
    /// tick; its moves wait in [`MovePhase::Importing`] meanwhile).
    fn flush_import_outbox(&self, state: &mut RehomeState) {
        let shards = self.shards.borrow();
        state.outbox.retain_mut(|delivery| {
            let command = ShardCommand::ImportBucketState {
                states: std::mem::take(&mut delivery.states),
                done: Arc::clone(&delivery.done),
            };
            match shards[delivery.to].control.push(command) {
                Ok(()) => false,
                Err(PushError(ShardCommand::ImportBucketState { states, .. })) => {
                    delivery.states = states;
                    true
                }
                Err(PushError(_)) => unreachable!("the rejected command is the one we pushed"),
            }
        });
    }

    /// Importing → Releasing → done, for every move whose import is
    /// acknowledged: the pen drains into the destination shard in arrival
    /// order (as far as its credits and ingress ring allow; the rest waits
    /// for the next pass), or, for a handout, goes back whole in the
    /// returned list, for the federation to forward. The bucket then
    /// unparks and its [`RehomeStep::Completed`] is journaled.
    fn release_pens(&self, state: &mut RehomeState, now_ns: u64) -> Vec<HandedBack> {
        let RehomeState { moves, report, .. } = state;
        let mut released_ages: Vec<u64> = Vec::new();
        let mut completed: Vec<RehomeEvent> = Vec::new();
        let mut handed_back: Vec<HandedBack> = Vec::new();
        moves.retain_mut(|mv| {
            match &mv.phase {
                MovePhase::Draining | MovePhase::Collecting { .. } => return true,
                MovePhase::Importing { done } => {
                    if !done.load(Ordering::Acquire) {
                        return true;
                    }
                    mv.phase = MovePhase::Releasing;
                }
                MovePhase::Releasing => {}
            }
            match mv.to {
                MoveTarget::Shard(to) => {
                    let shards = self.shards.borrow();
                    let ports = &shards[to];
                    while let Some((packet, key)) = mv.pen.pop_front() {
                        if !ports.gate.try_acquire(1) {
                            mv.pen.push_front((packet, key));
                            return true;
                        }
                        let age_ns = now_ns.saturating_sub(packet.timestamp_ns);
                        // Counted before the push, as in `inject`.
                        self.tracker.admit(mv.bucket);
                        match ports.ingress.push(IngressFrame {
                            packet,
                            key: Some(key),
                            hash: key.stable_hash(),
                        }) {
                            Ok(()) => {
                                released_ages.push(age_ns);
                                // Pen dwell lands in the destination shard's
                                // histograms: that is where the packet resumes.
                                ports.latency.pen_dwell.record(age_ns);
                            }
                            Err(PushError(frame)) => {
                                self.tracker.unadmit(mv.bucket);
                                ports.gate.release(1);
                                let key = frame.key.expect("penned packets are keyed");
                                mv.pen.push_front((frame.packet, key));
                                return true;
                            }
                        }
                    }
                    report.buckets_rehomed += 1;
                }
                MoveTarget::Host => {
                    let ages = mv
                        .pen
                        .iter()
                        .map(|(p, _)| now_ns.saturating_sub(p.timestamp_ns));
                    released_ages.extend(ages);
                    handed_back.push((mv.bucket, std::mem::take(&mut mv.pen)));
                    report.buckets_handed_off += 1;
                }
            }
            self.tracker.unpark(mv.bucket);
            completed.push(RehomeEvent {
                at_ns: now_ns,
                bucket: mv.bucket,
                from: mv.from,
                to: mv.to,
                step: RehomeStep::Completed,
            });
            false
        });
        for age_ns in released_ages {
            state.record_pen_age(age_ns);
        }
        for event in completed {
            state.record_event(event);
        }
        handed_back
    }

    /// Begins handing `bucket`'s entire serving state out of this host —
    /// the source half of a **cross-host** re-home. The bucket is parked
    /// (arrivals pen, exactly as for a local move), its owning shard
    /// drains, and once quiesced the bucket's exact-flow rules, attributed
    /// wildcard mutations and NF per-flow state are extracted into a
    /// portable [`BucketHandout`]. The federation collects the bundle with
    /// [`ThreadedHost::take_ready_handouts`], delivers it to the adopting
    /// host's [`ThreadedHost::absorb_bucket_handout`], and — once the
    /// import is acknowledged — calls
    /// [`ThreadedHost::finish_bucket_handout`] here to reclaim the pen.
    ///
    /// Returns `false` if the bucket is already mid-move or mid-handout.
    pub fn begin_bucket_handout(&self, bucket: usize) -> bool {
        self.advance_rehoming();
        if self.tracker.is_parked(bucket) {
            return false;
        }
        let from = self.shard_of_bucket(bucket);
        let now_ns = self.clock.now_ns();
        self.rehome
            .borrow_mut()
            .begin_move(&self.tracker, bucket, from, MoveTarget::Host, now_ns);
        self.advance_rehoming();
        true
    }

    /// Collects every handout whose bundle is assembled (drain complete,
    /// state extracted). Each returned [`BucketHandout`] is on its way to
    /// another host; its bucket stays parked here — pen absorbing stray
    /// arrivals — until [`ThreadedHost::finish_bucket_handout`].
    pub fn take_ready_handouts(&self) -> Vec<BucketHandout> {
        self.advance_rehoming();
        std::mem::take(&mut self.rehome.borrow_mut().handouts)
    }

    /// Completes a cross-host handout after the destination host
    /// acknowledged its import: unparks the bucket and returns the pen —
    /// every packet that arrived mid-handout, with its parsed key, in
    /// arrival order — for the federation to forward to the bucket's new
    /// host. Returns an empty pen if no handout of `bucket` is awaiting
    /// release (its bundle not yet taken).
    pub fn finish_bucket_handout(&self, bucket: usize) -> Vec<(Packet, FlowKey)> {
        let now_ns = self.now_ns();
        let mut state = self.rehome.borrow_mut();
        let taken = !state.handouts.iter().any(|h| h.bucket == bucket);
        let awaiting = state
            .moves
            .iter()
            .find(|mv| mv.bucket == bucket && mv.to == MoveTarget::Host);
        match awaiting.map(|mv| &mv.phase) {
            Some(MovePhase::Importing { done }) if taken => done.store(true, Ordering::Release),
            _ => return Vec::new(),
        }
        let handed_back = self.release_pens(&mut state, now_ns);
        debug_assert_eq!(state.check(&self.tracker, &self.steering.borrow()), Ok(()));
        handed_back
            .into_iter()
            .find(|(handed, _)| *handed == bucket)
            .map_or_else(Vec::new, |(_, pen)| pen.into())
    }

    /// Adopts a bucket handed out by another host — the destination half of
    /// a cross-host re-home. The bundle's exact rules and wildcard-mutation
    /// records are absorbed into the partition of the shard that owns the
    /// bucket here (replay skips records this host already superseded:
    /// last-writer-wins by mutation sequence), and its NF flow state is
    /// queued for import into that shard's replicas. Returns the import
    /// acknowledgement flag: once it reads `true`, every replica holds its
    /// share of the state and the federation may release the source host's
    /// pen into this host.
    pub fn absorb_bucket_handout(&self, handout: &BucketHandout) -> Arc<AtomicBool> {
        let to = self.shard_of_bucket(handout.bucket);
        let moved = self
            .tables
            .absorb_bucket_state(to, &handout.table_state, self.now_ns());
        let done = {
            let mut state = self.rehome.borrow_mut();
            state.report.rules_rehomed += moved.exact_rules as u64;
            state.report.wildcard_mutations_rehomed += moved.wildcard_mutations as u64;
            state.report.wildcard_conflicts += moved.wildcard_conflicts as u64;
            state.report.buckets_adopted += 1;
            let done = Arc::new(AtomicBool::new(handout.nf_states.is_empty()));
            if !handout.nf_states.is_empty() {
                state.report.nf_flow_states_rehomed += handout.nf_states.len() as u64;
                state.outbox.push(ImportDelivery {
                    to,
                    states: handout.nf_states.clone(),
                    done: Arc::clone(&done),
                });
            }
            done
        };
        self.advance_rehoming();
        done
    }
}

/// Largest-remainder apportionment of `buckets` bucket slots over weighted
/// shards; `None` if the weights sum to zero.
pub(super) fn apportion_targets(weights: &[u32], buckets: usize) -> Option<Vec<usize>> {
    let total: u64 = weights.iter().map(|w| u64::from(*w)).sum();
    if total == 0 {
        return None;
    }
    let num_shards = weights.len();
    let mut target = vec![0usize; num_shards];
    let mut remainder = vec![0u64; num_shards];
    let mut assigned = 0usize;
    for shard in 0..num_shards {
        let exact = buckets as u64 * u64::from(weights[shard]);
        target[shard] = (exact / total) as usize;
        remainder[shard] = exact % total;
        assigned += target[shard];
    }
    let mut order: Vec<usize> = (0..num_shards).collect();
    order.sort_by(|a, b| remainder[*b].cmp(&remainder[*a]).then(a.cmp(b)));
    for shard in order.iter().take(buckets - assigned) {
        target[*shard] += 1;
    }
    Some(target)
}
