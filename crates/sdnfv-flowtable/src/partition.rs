//! Per-shard flow-table partitions.
//!
//! The sharded data plane steers every packet of a flow to one shard, so no
//! per-flow table state is ever read or written from two shards. A single
//! [`SharedFlowTable`] would still funnel all shards through one
//! reader/writer lock — every lookup takes the write lock (hit counters),
//! making the table the last shared hot lock on the packet path.
//!
//! [`FlowTablePartitions`] removes it: the **template** table (the one the
//! control plane configured) is forked once per shard at start, and each
//! shard's worker and NF threads touch only their own partition. Control
//! lives at the template layer: rules installed through
//! [`FlowTablePartitions::install`] are broadcast to the template and every
//! partition, while NF cross-layer messages (which only concern the sending
//! shard's flows) are applied to that shard's partition alone.
//!
//! The partition set is **elastic**: [`FlowTablePartitions::add_partition`]
//! forks a fresh partition for a shard spawned mid-run, and
//! [`FlowTablePartitions::remove_last_partition`] retires one when a shard
//! is drained away. When flow-steering buckets are re-homed between shards,
//! [`FlowTablePartitions::move_bucket_state`] carries the moved flows'
//! shard-local state along — both their exact-flow rules and the wildcard
//! mutations attributed to the bucket in the source partition's
//! [`MutationLog`] (replayed last-writer-wins) — the flow-table half of the
//! bucket-drain handshake that makes rebalancing and shard scaling
//! state-safe.

use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use sdnfv_proto::flow::FlowKey;

use crate::provenance::{MutationLog, MutationRecord};
use crate::rule::{FlowRule, RuleId};
use crate::table::{RuleAge, SharedFlowTable, Timers};
use crate::types::RulePort;

/// A template flow table plus one independent partition per shard (see the
/// module docs). For a host started with a single shard the partition *is*
/// the template — the unsharded topology keeps its exact semantics,
/// including visibility of post-start mutations through the original table
/// handle — and stays the template even if more (forked) partitions are
/// added later.
#[derive(Debug, Clone)]
pub struct FlowTablePartitions {
    template: SharedFlowTable,
    partitions: Arc<RwLock<Vec<SharedFlowTable>>>,
    /// One wildcard-mutation provenance log per partition (see
    /// [`MutationLog`]); all logs draw from one sequence counter so replay
    /// conflicts resolve last-writer-wins across the whole set.
    logs: Arc<RwLock<Vec<Arc<MutationLog>>>>,
    /// The shared mutation sequence counter.
    seq: Arc<AtomicU64>,
    /// Whether partition 0 shares the template's storage (single-shard
    /// start). Broadcast installs must then skip it: the template insert
    /// already reached it. Cleared if partition 0 is ever
    /// [reset](FlowTablePartitions::reset_partition) (the reset re-forks
    /// it, giving it independent storage).
    aliased: Arc<AtomicBool>,
}

/// What one [`FlowTablePartitions::move_bucket_state`] call carried between
/// partitions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BucketStateMoved {
    /// Shard-local exact-flow rules moved into the destination.
    pub exact_rules: usize,
    /// Wildcard mutations replayed into the destination.
    pub wildcard_mutations: usize,
    /// Wildcard mutations skipped because the destination already held a
    /// newer conflicting mutation (last-writer-wins).
    pub wildcard_conflicts: usize,
}

/// The portable flow-table state of one steering bucket, extracted from a
/// source partition set for a move that crosses a **host boundary** — where
/// source and destination share no storage, no locks and no sequence
/// counter, so the state must travel by value.
/// [`FlowTablePartitions::extract_bucket_state`] produces it on the source
/// host; [`FlowTablePartitions::absorb_bucket_state`] replays it on the
/// destination.
#[derive(Debug, Clone)]
pub struct BucketStateBundle {
    /// The steering bucket the state belongs to.
    pub bucket: usize,
    /// Exact-flow rules removed from the source partition, each with the
    /// lookup step and 5-tuple it was indexed under and its age on the
    /// source host's clock at the extract.
    pub exact_rules: Vec<(RulePort, FlowKey, FlowRule, RuleAge)>,
    /// Wildcard mutation records to replay, in sequence order.
    pub mutations: Vec<MutationRecord>,
    /// Mutations dropped at extract time because the source log held a
    /// newer conflicting record attributed to a staying bucket
    /// (last-writer-wins, resolved before the bundle crosses the wire).
    pub conflicts_at_source: usize,
}

impl FlowTablePartitions {
    /// Builds partitions for `num_shards` shards from `template`.
    ///
    /// With one shard the partition shares the template's storage; with
    /// more, each shard receives a [fork](SharedFlowTable::fork) of the
    /// template's rules and from then on its own lock and counters.
    pub fn new(template: &SharedFlowTable, num_shards: usize) -> Self {
        let num_shards = num_shards.max(1);
        let aliased = num_shards == 1;
        let partitions = if aliased {
            vec![template.clone()]
        } else {
            (0..num_shards).map(|_| template.fork()).collect()
        };
        let seq = Arc::new(AtomicU64::new(0));
        let logs = (0..partitions.len())
            .map(|_| Arc::new(MutationLog::new(Arc::clone(&seq))))
            .collect();
        FlowTablePartitions {
            template: template.clone(),
            partitions: Arc::new(RwLock::new(partitions)),
            logs: Arc::new(RwLock::new(logs)),
            seq,
            aliased: Arc::new(AtomicBool::new(aliased)),
        }
    }

    /// Number of per-shard partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.read().len()
    }

    /// The template layer — the table the control plane configured. Shard
    /// packet paths never touch it when more than one partition exists
    /// (except partition 0 of a host started single-shard, which keeps the
    /// template's storage for life).
    pub fn template(&self) -> &SharedFlowTable {
        &self.template
    }

    /// The partition serving `shard` (a cheap shared handle).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard(&self, shard: usize) -> SharedFlowTable {
        self.partitions.read()[shard].clone()
    }

    /// The wildcard-mutation provenance log of `shard`'s partition (a cheap
    /// shared handle). The shard's NF dispatch records every wildcard
    /// mutation it applies here, attributed to the mutating flow's steering
    /// bucket, so [`FlowTablePartitions::move_bucket_state`] can replay it
    /// when the bucket leaves.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn mutation_log(&self, shard: usize) -> Arc<MutationLog> {
        Arc::clone(&self.logs.read()[shard])
    }

    /// Forks a fresh partition from the template's **current** rules for a
    /// newly spawned shard and returns its index.
    pub fn add_partition(&self) -> usize {
        let mut partitions = self.partitions.write();
        partitions.push(self.template.fork());
        self.logs
            .write()
            .push(Arc::new(MutationLog::new(Arc::clone(&self.seq))));
        partitions.len() - 1
    }

    /// Drops the highest-index partition (its shard has been drained and
    /// retired). The last partition is never removed.
    pub fn remove_last_partition(&self) {
        let mut partitions = self.partitions.write();
        if partitions.len() > 1 {
            partitions.pop();
            self.logs.write().pop();
        }
    }

    /// Installs a rule at the template layer and broadcasts it to every
    /// partition (the control-plane write path). Returns the rule's id *in
    /// the template*; partition-local ids may differ and are an
    /// implementation detail.
    pub fn install(&self, rule: FlowRule) -> RuleId {
        let id = self.template.insert(rule.clone());
        let aliased = self.aliased.load(Ordering::Relaxed);
        let partitions = self.partitions.read();
        for (shard, partition) in partitions.iter().enumerate() {
            if aliased && shard == 0 {
                continue; // shares the template's storage: already inserted
            }
            partition.insert(rule.clone());
        }
        id
    }

    /// Re-initializes partition `shard` in place: a fresh fork of the
    /// template's **current** rules and an empty mutation log (still drawing
    /// from the shared sequence counter). Used when a retired shard's slot
    /// is reused by a later spawn — the old partition's shard-local state
    /// died with the shard (its buckets re-homed away first, carrying their
    /// state), and the new incarnation must not inherit stale leftovers.
    ///
    /// Resetting partition 0 of an aliased (single-shard-start) set ends the
    /// aliasing: the reset partition gets its own storage, and broadcast
    /// installs reach it explicitly from then on.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn reset_partition(&self, shard: usize) {
        let mut partitions = self.partitions.write();
        partitions[shard] = self.template.fork();
        self.logs.write()[shard] = Arc::new(MutationLog::new(Arc::clone(&self.seq)));
        if shard == 0 {
            self.aliased.store(false, Ordering::Relaxed);
        }
    }

    /// Moves all of steering bucket `bucket`'s shard-local flow-table state
    /// from shard `from`'s partition into shard `to`'s — the flow-table half
    /// of a bucket re-home:
    ///
    /// 1. **Exact-flow rules** whose 5-tuple satisfies `belongs` are moved
    ///    (removed from the source, installed in the destination); rules the
    ///    destination already holds at the same `(step, key)` are left in
    ///    place (template rules broadcast to both sides stay put). A moved
    ///    rule keeps its install and last-hit times: both partitions run on
    ///    the host's clock, so a move restarts no idle or hard timeout.
    /// 2. **Wildcard mutations** recorded for the bucket in the source's
    ///    [`MutationLog`] (plus every unattributed mutation) are replayed
    ///    into the destination in sequence order. A mutation the destination
    ///    log already holds (an earlier move carried it) is skipped
    ///    silently; one the destination has a *newer conflicting* mutation
    ///    for is skipped and counted as a conflict (last-writer-wins).
    ///
    /// The caller must have quiesced the moved flows first: no packet of a
    /// moved flow may be in flight on `from` when this runs, or a
    /// cross-layer message could mutate state after the export.
    ///
    /// # Panics
    ///
    /// Panics if `from` or `to` is out of range, or if `from == to`.
    pub fn move_bucket_state(
        &self,
        from: usize,
        to: usize,
        bucket: usize,
        belongs: impl Fn(&FlowKey) -> bool,
    ) -> BucketStateMoved {
        assert_ne!(from, to, "a state move needs two distinct partitions");
        let (source, destination, source_log, destination_log) = {
            let partitions = self.partitions.read();
            let logs = self.logs.read();
            (
                partitions[from].clone(),
                partitions[to].clone(),
                Arc::clone(&logs[from]),
                Arc::clone(&logs[to]),
            )
        };
        let mut moved = BucketStateMoved::default();
        // Collect candidates under the source lock, filter against the
        // destination under its own lock, then install — never holding two
        // partition locks at once, so no ordering can deadlock against the
        // shards' packet paths.
        let candidates: Vec<_> = source.with_read(|table| {
            table
                .exact_rules()
                .filter(|(_, step_key, _)| belongs(&step_key.1))
                .filter_map(|(id, step_key, rule)| {
                    Some((id, step_key, rule.clone(), table.timers(id)?))
                })
                .collect()
        });
        for (id, (step, key), rule, timers) in candidates {
            let present = destination.with_read(|d| d.exact_rule_id(step, &key).is_some());
            if present {
                continue;
            }
            destination.with_write(|d| d.insert_timed(rule, timers));
            source.remove(id);
            moved.exact_rules += 1;
        }
        // Replay the bucket's wildcard mutations, oldest first. Entries stay
        // in the source log: a wildcard mutation also governs the source's
        // remaining flows, and unattributed entries must travel with every
        // future departing bucket too.
        for record in source_log.records_for_bucket(bucket) {
            if destination_log.contains_seq(record.seq) {
                continue; // an earlier move already carried it
            }
            // Last-writer-wins against *both* logs: the destination may
            // hold a newer conflicting mutation of its own, and the source
            // may hold one attributed to a different (staying) bucket that
            // superseded this record — replaying the older record would
            // resurrect a state the global sequence order already retired.
            let superseded = |log: &MutationLog| {
                log.newest_conflicting_seq(&record.mutation)
                    .is_some_and(|newest| newest > record.seq)
            };
            if superseded(&destination_log) || superseded(&source_log) {
                moved.wildcard_conflicts += 1;
                continue;
            }
            destination.with_write(|table| record.mutation.apply(table));
            destination_log.absorb(record);
            moved.wildcard_mutations += 1;
        }
        moved
    }

    /// Extracts steering bucket `bucket`'s shard-local flow-table state from
    /// shard `from`'s partition into a portable [`BucketStateBundle`] — the
    /// source-host half of a **cross-host** bucket re-home. Exact-flow rules
    /// whose 5-tuple satisfies `belongs` are *removed* from the partition
    /// (they now live in the bundle), each with its [`RuleAge`] at `now_ns`
    /// on the source host's clock — expired rules the sweep has not reached
    /// yet included, since their age says they expired and the destination
    /// evicts them; the bucket's wildcard mutation records
    /// (plus every unattributed record) are *cloned* in sequence order —
    /// they stay behind because they also govern the source's remaining
    /// flows. Records the source log itself supersedes (a newer conflicting
    /// record of a staying bucket) are dropped here and counted, so the wire
    /// never carries state the global order already retired.
    ///
    /// The caller must have quiesced the bucket first, exactly as for
    /// [`FlowTablePartitions::move_bucket_state`].
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range.
    pub fn extract_bucket_state(
        &self,
        from: usize,
        bucket: usize,
        now_ns: u64,
        belongs: impl Fn(&FlowKey) -> bool,
    ) -> BucketStateBundle {
        let (source, source_log) = {
            let partitions = self.partitions.read();
            let logs = self.logs.read();
            (partitions[from].clone(), Arc::clone(&logs[from]))
        };
        let candidates: Vec<(RuleId, (RulePort, FlowKey), FlowRule, RuleAge)> =
            source.with_read(|table| {
                let now_ns = now_ns.max(table.clock_ns());
                table
                    .exact_rules()
                    .filter(|(_, step_key, _)| belongs(&step_key.1))
                    .filter_map(|(id, step_key, rule)| {
                        let age = table.timers(id)?.age_at(now_ns);
                        Some((id, step_key, rule.clone(), age))
                    })
                    .collect()
            });
        let mut exact_rules = Vec::with_capacity(candidates.len());
        for (id, (step, key), rule, age) in candidates {
            source.remove(id);
            exact_rules.push((step, key, rule, age));
        }
        let mut conflicts_at_source = 0;
        let mutations: Vec<MutationRecord> = source_log
            .records_for_bucket(bucket)
            .into_iter()
            .filter(|record| {
                let superseded = source_log
                    .newest_conflicting_seq(&record.mutation)
                    .is_some_and(|newest| newest > record.seq);
                if superseded {
                    conflicts_at_source += 1;
                }
                !superseded
            })
            .collect();
        BucketStateBundle {
            bucket,
            exact_rules,
            mutations,
            conflicts_at_source,
        }
    }

    /// Replays a [`BucketStateBundle`] into shard `to`'s partition — the
    /// destination-host half of a cross-host bucket re-home. Exact rules the
    /// destination already holds at the same `(step, key)` stay put
    /// (template rules broadcast to both hosts); the others are installed
    /// with their ages re-based onto the destination's clock at `now_ns`.
    /// Two hosts' clocks are not comparable, but an age is: a rule keeps
    /// what was left of its idle and hard timeouts, as in a same-host
    /// [`FlowTablePartitions::move_bucket_state`], and a rule that expired
    /// before the handout neither answers on the destination nor outlives
    /// the destination's next sweep, which evicts and reports it — also
    /// when the destination's clock reads less than the rule's age, which
    /// places its install before that clock's zero. Mutation
    /// records the destination log already carries are skipped silently,
    /// and records the destination holds a newer conflicting mutation for
    /// are skipped and counted (last-writer-wins). The destination's
    /// sequence counter is raised to at least the newest absorbed sequence
    /// number, so mutations the destination records *after* the move
    /// supersede everything that arrived with it.
    ///
    /// # Panics
    ///
    /// Panics if `to` is out of range.
    pub fn absorb_bucket_state(
        &self,
        to: usize,
        bundle: &BucketStateBundle,
        now_ns: u64,
    ) -> BucketStateMoved {
        let (destination, destination_log) = {
            let partitions = self.partitions.read();
            let logs = self.logs.read();
            (partitions[to].clone(), Arc::clone(&logs[to]))
        };
        let mut moved = BucketStateMoved::default();
        for (step, key, rule, age) in &bundle.exact_rules {
            let present = destination.with_read(|d| d.exact_rule_id(*step, key).is_some());
            if present {
                continue;
            }
            destination.with_write(|d| {
                let timers = Timers::aged(*age, now_ns.max(d.clock_ns()));
                d.insert_timed(rule.clone(), timers)
            });
            moved.exact_rules += 1;
        }
        for record in &bundle.mutations {
            self.seq.fetch_max(record.seq, Ordering::Relaxed);
            if destination_log.contains_seq(record.seq) {
                continue;
            }
            let superseded = destination_log
                .newest_conflicting_seq(&record.mutation)
                .is_some_and(|newest| newest > record.seq);
            if superseded {
                moved.wildcard_conflicts += 1;
                continue;
            }
            destination.with_write(|table| record.mutation.apply(table));
            destination_log.absorb(record.clone());
            moved.wildcard_mutations += 1;
        }
        moved
    }

    /// Raises the partition set's mutation sequence counter to at least
    /// `floor`. A federation assigns each host's partition set a disjoint
    /// sequence range (e.g. `host_index << 32`) so records minted on
    /// different hosts never collide when a bucket's state crosses the wire.
    pub fn raise_seq_floor(&self, floor: u64) {
        self.seq.fetch_max(floor, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::FlowMatch;
    use crate::rule::Action;
    use crate::table::EvictReason;
    use crate::types::RulePort;
    use sdnfv_proto::flow::{FlowKey, IpProtocol};
    use std::net::Ipv4Addr;

    fn key(last: u8) -> FlowKey {
        FlowKey::new(
            Ipv4Addr::new(10, 0, 0, last),
            Ipv4Addr::new(10, 0, 0, 200),
            1000,
            80,
            IpProtocol::Udp,
        )
    }

    fn forward_rule() -> FlowRule {
        FlowRule::new(
            FlowMatch::at_step(RulePort::Nic(0)),
            vec![Action::ToPort(1)],
        )
    }

    fn exact_drop_rule(last: u8) -> FlowRule {
        FlowRule::new(
            FlowMatch::exact(RulePort::Nic(0), &key(last)),
            vec![Action::Drop],
        )
        .with_priority(50)
    }

    #[test]
    fn single_shard_partition_is_the_template() {
        let template = SharedFlowTable::new();
        let parts = FlowTablePartitions::new(&template, 1);
        assert_eq!(parts.num_partitions(), 1);
        // Post-construction inserts through the original handle are visible
        // to the shard: same storage.
        template.insert(forward_rule());
        assert_eq!(parts.shard(0).len(), 1);
        // And shard lookups show up on the template's counters.
        assert!(parts.shard(0).lookup(RulePort::Nic(0), &key(1)).is_some());
        assert_eq!(parts.template().stats().hits, 1);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let template = SharedFlowTable::new();
        assert_eq!(FlowTablePartitions::new(&template, 0).num_partitions(), 1);
    }

    #[test]
    fn multi_shard_partitions_are_independent() {
        let template = SharedFlowTable::new();
        template.insert(forward_rule());
        let parts = FlowTablePartitions::new(&template, 3);
        assert_eq!(parts.num_partitions(), 3);
        // Every partition starts with the template's rules.
        for shard in 0..3 {
            assert_eq!(parts.shard(shard).len(), 1);
            assert!(parts
                .shard(shard)
                .lookup(RulePort::Nic(0), &key(1))
                .is_some());
        }
        // Shard lookups never touch the template's lock or counters.
        assert_eq!(parts.template().stats().lookups, 0);
        // A mutation on shard 0 (an NF message path) is invisible elsewhere.
        let g1 = parts.shard(1).generation();
        parts.shard(0).with_write(|t| {
            t.insert(FlowRule::new(FlowMatch::any(), vec![Action::Drop]));
        });
        assert_eq!(parts.shard(0).len(), 2);
        assert_eq!(parts.shard(1).len(), 1);
        assert_eq!(parts.shard(1).generation(), g1, "no cross-shard bump");
        assert_eq!(parts.template().len(), 1);
    }

    #[test]
    fn install_broadcasts_to_every_partition() {
        let template = SharedFlowTable::new();
        let parts = FlowTablePartitions::new(&template, 2);
        parts.install(forward_rule());
        assert_eq!(parts.template().len(), 1);
        assert_eq!(parts.shard(0).len(), 1);
        assert_eq!(parts.shard(1).len(), 1);
    }

    #[test]
    fn install_does_not_double_insert_into_aliased_partition() {
        let template = SharedFlowTable::new();
        let parts = FlowTablePartitions::new(&template, 1);
        // Grow the aliased single-shard set: partition 0 stays the template,
        // partition 1 is a fork.
        assert_eq!(parts.add_partition(), 1);
        parts.install(forward_rule());
        assert_eq!(parts.template().len(), 1, "no duplicate in the template");
        assert_eq!(parts.shard(0).len(), 1);
        assert_eq!(parts.shard(1).len(), 1);
    }

    #[test]
    fn add_and_remove_partitions() {
        let template = SharedFlowTable::new();
        template.insert(forward_rule());
        let parts = FlowTablePartitions::new(&template, 2);
        // A shard-local rule in shard 1, then grow: the new partition forks
        // the template (without shard 1's local rule).
        parts.shard(1).with_write(|t| {
            t.insert(exact_drop_rule(9));
        });
        assert_eq!(parts.add_partition(), 2);
        assert_eq!(parts.num_partitions(), 3);
        assert_eq!(parts.shard(2).len(), 1, "fork carries template rules only");
        parts.remove_last_partition();
        assert_eq!(parts.num_partitions(), 2);
        // The last partition is never removed.
        parts.remove_last_partition();
        parts.remove_last_partition();
        assert_eq!(parts.num_partitions(), 1);
    }

    #[test]
    fn move_bucket_state_carries_shard_local_exact_rules() {
        let template = SharedFlowTable::new();
        template.insert(forward_rule());
        let parts = FlowTablePartitions::new(&template, 2);
        // Shard-local exact rules for flows 1 and 2 on shard 0.
        parts.shard(0).with_write(|t| {
            t.insert(exact_drop_rule(1));
            t.insert(exact_drop_rule(2));
        });
        // Move only flow 1's rules to shard 1.
        let moved = parts.move_bucket_state(0, 1, 0, |k| *k == key(1));
        assert_eq!(moved.exact_rules, 1);
        assert_eq!(moved.wildcard_mutations, 0);
        assert!(parts
            .shard(1)
            .with_read(|t| t.exact_rule_id(RulePort::Nic(0), &key(1)).is_some()));
        assert!(
            parts
                .shard(0)
                .with_read(|t| t.exact_rule_id(RulePort::Nic(0), &key(1)).is_none()),
            "moved rule left the source"
        );
        assert!(
            parts
                .shard(0)
                .with_read(|t| t.exact_rule_id(RulePort::Nic(0), &key(2)).is_some()),
            "unmoved flow keeps its rule"
        );
        // The moved rule governs the flow on its new shard.
        let decision = parts.shard(1).lookup(RulePort::Nic(0), &key(1)).unwrap();
        assert_eq!(&decision.actions[..], &[Action::Drop]);
    }

    #[test]
    fn a_moved_rule_keeps_its_deadlines() {
        let template = SharedFlowTable::new();
        template.insert(forward_rule());
        let parts = FlowTablePartitions::new(&template, 2);
        // Both partitions run on the host's clock, as a host's shards do.
        let tick = |now_ns| {
            for shard in 0..2 {
                assert!(parts
                    .shard(shard)
                    .sweep_expired(now_ns, 16, |_| false)
                    .is_empty());
            }
        };
        parts.shard(0).with_write(|t| {
            t.insert(exact_drop_rule(1).with_hard_timeout_ns(Some(1_000)));
            t.insert(exact_drop_rule(2).with_idle_timeout_ns(Some(1_000)));
        });
        tick(500);
        assert!(parts.shard(0).lookup(RulePort::Nic(0), &key(2)).is_some());
        // At 90 % of the hard pin's life its bucket moves.
        tick(900);
        assert_eq!(parts.move_bucket_state(0, 1, 0, |_| true).exact_rules, 2);
        let destination = parts.shard(1);
        assert!(destination.sweep_expired(999, 16, |_| false).is_empty());
        let hard = destination.sweep_expired(1_000, 16, |_| false);
        assert_eq!(hard.len(), 1, "the hard pin goes at its original deadline");
        assert_eq!(hard[0].exact, Some((RulePort::Nic(0), key(1))));
        assert_eq!(hard[0].reason, EvictReason::Hard);
        // The idle pin's last hit, at 500, travels too.
        assert!(destination.sweep_expired(1_499, 16, |_| false).is_empty());
        let idle = destination.sweep_expired(1_500, 16, |_| false);
        assert_eq!(idle.len(), 1);
        assert_eq!(idle[0].exact, Some((RulePort::Nic(0), key(2))));
        assert_eq!(idle[0].reason, EvictReason::Idle);
    }

    #[test]
    fn move_bucket_state_skips_rules_the_destination_already_has() {
        let template = SharedFlowTable::new();
        // An exact template rule is broadcast to both partitions by the
        // fork; moving its bucket must not duplicate it.
        template.insert(exact_drop_rule(3));
        let parts = FlowTablePartitions::new(&template, 2);
        assert_eq!(
            parts.move_bucket_state(0, 1, 0, |_| true),
            BucketStateMoved::default()
        );
        assert_eq!(parts.shard(0).len(), 1, "template rule stays in place");
        assert_eq!(parts.shard(1).len(), 1);
    }

    #[test]
    fn move_bucket_state_replays_the_buckets_wildcard_mutations() {
        use crate::provenance::WildcardMutation;
        let template = SharedFlowTable::new();
        let worker = crate::types::ServiceId::new(7);
        template.insert(FlowRule::new(
            FlowMatch::at_step(worker),
            vec![Action::ToPort(1), Action::ToPort(2)],
        ));
        let parts = FlowTablePartitions::new(&template, 2);
        // A wildcard ChangeDefault lands in shard 0's partition, attributed
        // to bucket 5 (the mutating flow's bucket).
        let mutation = WildcardMutation::ChangeDefault {
            service: worker,
            flows: FlowMatch::any(),
            new_default: Action::ToPort(2),
            force: false,
        };
        parts
            .shard(0)
            .with_write(|t| assert_eq!(mutation.apply(t), 1));
        parts.mutation_log(0).record(Some(5), mutation);

        // Moving a different bucket does not carry it…
        let moved = parts.move_bucket_state(0, 1, 6, |_| false);
        assert_eq!(moved.wildcard_mutations, 0);
        // …moving bucket 5 replays it into shard 1's partition.
        let moved = parts.move_bucket_state(0, 1, 5, |_| false);
        assert_eq!(moved.wildcard_mutations, 1);
        assert_eq!(moved.wildcard_conflicts, 0);
        assert_eq!(
            parts.shard(1).with_read(|t| t
                .peek(RulePort::Service(worker), &key(1))
                .unwrap()
                .default_action()),
            Some(Action::ToPort(2)),
            "the mutation now governs the flow on its new shard"
        );
        // Replaying again (e.g. the bucket bounces back and forth) is
        // idempotent: the destination log already holds the record.
        let again = parts.move_bucket_state(0, 1, 5, |_| false);
        assert_eq!(again.wildcard_mutations, 0);
        assert_eq!(again.wildcard_conflicts, 0);
    }

    #[test]
    fn move_bucket_state_resolves_conflicts_last_writer_wins() {
        use crate::provenance::WildcardMutation;
        let template = SharedFlowTable::new();
        let worker = crate::types::ServiceId::new(7);
        template.insert(FlowRule::new(
            FlowMatch::at_step(worker),
            vec![Action::ToPort(1), Action::ToPort(2), Action::ToPort(3)],
        ));
        let parts = FlowTablePartitions::new(&template, 2);
        let change_to = |port: u16| WildcardMutation::ChangeDefault {
            service: worker,
            flows: FlowMatch::any(),
            new_default: Action::ToPort(port),
            force: false,
        };
        // Older mutation in shard 0 (bucket 5), newer one in shard 1.
        let older = change_to(2);
        parts.shard(0).with_write(|t| older.apply(t));
        parts.mutation_log(0).record(Some(5), older);
        let newer = change_to(3);
        parts.shard(1).with_write(|t| newer.apply(t));
        parts.mutation_log(1).record(Some(9), newer);

        // Bucket 5 moves to shard 1: its older mutation loses.
        let moved = parts.move_bucket_state(0, 1, 5, |_| false);
        assert_eq!(moved.wildcard_mutations, 0);
        assert_eq!(moved.wildcard_conflicts, 1);
        assert_eq!(
            parts.shard(1).with_read(|t| t
                .peek(RulePort::Service(worker), &key(1))
                .unwrap()
                .default_action()),
            Some(Action::ToPort(3)),
            "the destination's newer mutation stays in force"
        );
    }

    #[test]
    fn move_bucket_state_does_not_resurrect_mutations_superseded_at_the_source() {
        use crate::provenance::WildcardMutation;
        let template = SharedFlowTable::new();
        let worker = crate::types::ServiceId::new(7);
        template.insert(FlowRule::new(
            FlowMatch::at_step(worker),
            vec![Action::ToPort(1), Action::ToPort(2), Action::ToPort(3)],
        ));
        let parts = FlowTablePartitions::new(&template, 2);
        let change_to = |port: u16| WildcardMutation::ChangeDefault {
            service: worker,
            flows: FlowMatch::any(),
            new_default: Action::ToPort(port),
            force: false,
        };
        // Bucket 5's flow mutates first; bucket 6's flow (staying put)
        // supersedes it in the same partition. Record-time compaction keeps
        // both (different bucket attributions), and the table reflects the
        // newer one.
        let older = change_to(2);
        parts.shard(0).with_write(|t| older.apply(t));
        parts.mutation_log(0).record(Some(5), older);
        let newer = change_to(3);
        parts.shard(0).with_write(|t| newer.apply(t));
        parts.mutation_log(0).record(Some(6), newer);

        // Moving bucket 5 alone must not replay the superseded mutation
        // into a partition whose own log would let it pass.
        let moved = parts.move_bucket_state(0, 1, 5, |_| false);
        assert_eq!(moved.wildcard_mutations, 0);
        assert_eq!(moved.wildcard_conflicts, 1);
        assert_eq!(
            parts.shard(1).with_read(|t| t
                .peek(RulePort::Service(worker), &key(1))
                .unwrap()
                .default_action()),
            Some(Action::ToPort(1)),
            "the destination keeps its own lineage instead of the retired state"
        );
        // Bucket 6's later move carries the winning mutation.
        let moved = parts.move_bucket_state(0, 1, 6, |_| false);
        assert_eq!(moved.wildcard_mutations, 1);
        assert_eq!(
            parts.shard(1).with_read(|t| t
                .peek(RulePort::Service(worker), &key(1))
                .unwrap()
                .default_action()),
            Some(Action::ToPort(3))
        );
    }

    #[test]
    fn unattributed_mutations_travel_with_every_departing_bucket() {
        use crate::provenance::WildcardMutation;
        let template = SharedFlowTable::new();
        let worker = crate::types::ServiceId::new(7);
        template.insert(FlowRule::new(
            FlowMatch::at_step(worker),
            vec![Action::ToPort(1), Action::ToPort(2)],
        ));
        let parts = FlowTablePartitions::new(&template, 3);
        let mutation = WildcardMutation::ChangeDefault {
            service: worker,
            flows: FlowMatch::any(),
            new_default: Action::ToPort(2),
            force: false,
        };
        parts.shard(0).with_write(|t| mutation.apply(t));
        parts.mutation_log(0).record(None, mutation);
        // Any bucket leaving shard 0 carries the unattributed mutation.
        assert_eq!(
            parts
                .move_bucket_state(0, 1, 11, |_| false)
                .wildcard_mutations,
            1
        );
        assert_eq!(
            parts
                .move_bucket_state(0, 2, 12, |_| false)
                .wildcard_mutations,
            1
        );
    }

    #[test]
    fn extract_and_absorb_carry_bucket_state_across_partition_sets() {
        use crate::provenance::WildcardMutation;
        let worker = crate::types::ServiceId::new(7);
        let menu_rule = FlowRule::new(
            FlowMatch::at_step(worker),
            vec![Action::ToPort(1), Action::ToPort(2)],
        );
        // Two independent partition sets standing in for two hosts: no
        // shared storage, locks or sequence counter.
        let host_a = FlowTablePartitions::new(&SharedFlowTable::new(), 2);
        let host_b = FlowTablePartitions::new(&SharedFlowTable::new(), 2);
        host_a.install(menu_rule.clone());
        host_b.install(menu_rule);
        host_b.raise_seq_floor(1 << 32);
        // Shard-local exact pin + an attributed wildcard mutation on host A.
        host_a.shard(0).with_write(|t| {
            t.insert(exact_drop_rule(1));
        });
        let mutation = WildcardMutation::ChangeDefault {
            service: worker,
            flows: FlowMatch::any(),
            new_default: Action::ToPort(2),
            force: false,
        };
        host_a.shard(0).with_write(|t| mutation.apply(t));
        host_a.mutation_log(0).record(Some(5), mutation);

        let bundle = host_a.extract_bucket_state(0, 5, 0, |k| *k == key(1));
        assert_eq!(bundle.exact_rules.len(), 1);
        assert_eq!(bundle.mutations.len(), 1);
        assert_eq!(bundle.conflicts_at_source, 0);
        assert!(
            host_a
                .shard(0)
                .with_read(|t| t.exact_rule_id(RulePort::Nic(0), &key(1)).is_none()),
            "extracted rule left the source host"
        );

        let absorbed = host_b.absorb_bucket_state(1, &bundle, 0);
        assert_eq!(absorbed.exact_rules, 1);
        assert_eq!(absorbed.wildcard_mutations, 1);
        assert_eq!(absorbed.wildcard_conflicts, 0);
        let decision = host_b.shard(1).lookup(RulePort::Nic(0), &key(1)).unwrap();
        assert_eq!(&decision.actions[..], &[Action::Drop]);
        assert_eq!(
            host_b.shard(1).with_read(|t| t
                .peek(RulePort::Service(worker), &key(2))
                .unwrap()
                .default_action()),
            Some(Action::ToPort(2)),
            "wildcard mutation replayed on the destination host"
        );
        // Absorbing the same bundle again is idempotent.
        let again = host_b.absorb_bucket_state(1, &bundle, 0);
        assert_eq!(again.exact_rules, 0, "rule already present, not duplicated");
        assert_eq!(again.wildcard_mutations, 0, "mutation replay deduped");
        // A mutation host B records after the move supersedes the carried
        // one: its sequence counter was raised past the absorbed records.
        let newer = WildcardMutation::ChangeDefault {
            service: worker,
            flows: FlowMatch::any(),
            new_default: Action::ToPort(1),
            force: false,
        };
        let seq = host_b.mutation_log(1).record(Some(5), newer);
        assert!(seq > bundle.mutations[0].seq);
    }

    /// Hands `rules`, installed at 0 on host A's shard 0, over to host B's
    /// shard 1 at `handout_at_ns` on A's clock, when B's reads
    /// `absorb_at_ns`. Before that, each of `hits` looks its flow up at its
    /// time on A. Returns both partitions.
    fn hand_over(
        rules: &[FlowRule],
        hits: &[(u64, u8)],
        handout_at_ns: u64,
        absorb_at_ns: u64,
    ) -> (SharedFlowTable, SharedFlowTable) {
        let host_a = FlowTablePartitions::new(&SharedFlowTable::new(), 2);
        let host_b = FlowTablePartitions::new(&SharedFlowTable::new(), 2);
        let (source, destination) = (host_a.shard(0), host_b.shard(1));
        for rule in rules {
            source.insert(rule.clone());
        }
        for &(at_ns, last) in hits {
            assert!(source.sweep_expired(at_ns, 16, |_| false).is_empty());
            assert!(source.lookup(RulePort::Nic(0), &key(last)).is_some());
        }
        // The bucket is mid-handout: the source's sweep defers its rules.
        assert!(source.sweep_expired(handout_at_ns, 16, |_| true).is_empty());
        let bundle = host_a.extract_bucket_state(0, 5, handout_at_ns, |_| true);
        assert_eq!(bundle.exact_rules.len(), rules.len());
        assert!(destination
            .sweep_expired(absorb_at_ns, 16, |_| false)
            .is_empty());
        let absorbed = host_b.absorb_bucket_state(1, &bundle, absorb_at_ns);
        assert_eq!(absorbed.exact_rules, rules.len());
        assert!(source.sweep_expired(u64::MAX, 16, |_| false).is_empty());
        assert_eq!(source.len(), 0, "the rules left the source host");
        (source, destination)
    }

    #[test]
    fn a_handout_does_not_revive_an_expired_pin() {
        // A 100 ns pin handed out at 200: expired, not yet swept.
        let pin = exact_drop_rule(1).with_hard_timeout_ns(Some(100));
        let (source, destination) = hand_over(&[pin], &[], 200, 10_000);
        assert!(
            destination.lookup(RulePort::Nic(0), &key(1)).is_none(),
            "the expired pin does not answer on the destination"
        );
        let evicted = destination.sweep_expired(10_000, 16, |_| false);
        assert_eq!(evicted.len(), 1, "the destination's next sweep evicts it");
        assert_eq!(evicted[0].exact, Some((RulePort::Nic(0), key(1))));
        assert_eq!(evicted[0].reason, EvictReason::Hard);
        assert!(destination.sweep_expired(20_000, 16, |_| false).is_empty());
        let hard = |table: &SharedFlowTable| table.stats().evicted_hard;
        assert_eq!((hard(&source), hard(&destination)), (0, 1), "counted once");
    }

    #[test]
    fn a_handout_to_a_younger_clock_does_not_revive_an_expired_pin() {
        // A 100 ns pin handed out at 200 on the source's clock and absorbed
        // when the destination's reads 50: it expired before the
        // destination's zero.
        let pin = exact_drop_rule(1).with_hard_timeout_ns(Some(100));
        let (source, destination) = hand_over(&[pin], &[], 200, 50);
        assert!(
            destination.lookup(RulePort::Nic(0), &key(1)).is_none(),
            "the expired pin does not answer on the destination"
        );
        let evicted = destination.sweep_expired(50, 16, |_| false);
        assert_eq!(evicted.len(), 1, "the destination's next sweep evicts it");
        assert_eq!(evicted[0].exact, Some((RulePort::Nic(0), key(1))));
        assert_eq!(evicted[0].reason, EvictReason::Hard);
        assert!(destination.sweep_expired(1_000, 16, |_| false).is_empty());
        let hard = |table: &SharedFlowTable| table.stats().evicted_hard;
        assert_eq!((hard(&source), hard(&destination)), (0, 1), "counted once");
    }

    #[test]
    fn a_handed_out_pin_keeps_what_was_left_of_its_timeouts() {
        // Handed out at 900: the hard pin has 100 ns left, and the idle
        // pin, last hit at 500, has 600.
        let rules = [
            exact_drop_rule(1).with_hard_timeout_ns(Some(1_000)),
            exact_drop_rule(2).with_idle_timeout_ns(Some(1_000)),
        ];
        let (_, destination) = hand_over(&rules, &[(500, 2)], 900, 10_000);
        let decision = destination.lookup(RulePort::Nic(0), &key(1)).unwrap();
        assert_eq!(
            &decision.actions[..],
            &[Action::Drop],
            "the live pin answers"
        );
        assert!(destination.sweep_expired(10_099, 16, |_| false).is_empty());
        let hard = destination.sweep_expired(10_100, 16, |_| false);
        assert_eq!(hard.len(), 1, "the hard pin goes 100 ns after the absorb");
        assert_eq!(hard[0].exact, Some((RulePort::Nic(0), key(1))));
        assert_eq!(hard[0].reason, EvictReason::Hard);
        assert!(destination.sweep_expired(10_599, 16, |_| false).is_empty());
        let idle = destination.sweep_expired(10_600, 16, |_| false);
        assert_eq!(idle.len(), 1, "the idle pin goes 600 ns after the absorb");
        assert_eq!(idle[0].exact, Some((RulePort::Nic(0), key(2))));
        assert_eq!(idle[0].reason, EvictReason::Idle);
    }

    #[test]
    fn extract_drops_records_the_source_already_superseded() {
        use crate::provenance::WildcardMutation;
        let worker = crate::types::ServiceId::new(7);
        let parts = FlowTablePartitions::new(&SharedFlowTable::new(), 2);
        let change = |port: u16| WildcardMutation::ChangeDefault {
            service: worker,
            flows: FlowMatch::any(),
            new_default: Action::ToPort(port),
            force: false,
        };
        // Bucket 5's mutation is superseded by a staying bucket's newer one.
        parts.mutation_log(0).record(Some(5), change(2));
        parts.mutation_log(0).record(Some(6), change(1));
        let bundle = parts.extract_bucket_state(0, 5, 0, |_| false);
        assert_eq!(bundle.mutations.len(), 0);
        assert_eq!(bundle.conflicts_at_source, 1);
    }

    #[test]
    fn reset_partition_reforks_from_the_template() {
        let template = SharedFlowTable::new();
        template.insert(forward_rule());
        let parts = FlowTablePartitions::new(&template, 3);
        parts.shard(1).with_write(|t| {
            t.insert(exact_drop_rule(9));
        });
        parts.mutation_log(1).record(Some(3), {
            use crate::provenance::WildcardMutation;
            WildcardMutation::ChangeDefault {
                service: crate::types::ServiceId::new(7),
                flows: FlowMatch::any(),
                new_default: Action::Drop,
                force: false,
            }
        });
        parts.reset_partition(1);
        assert_eq!(parts.shard(1).len(), 1, "template rules only");
        assert!(
            parts.mutation_log(1).records_for_bucket(3).is_empty(),
            "fresh mutation log"
        );
        // The shared sequence counter survives: new records keep ascending.
        let seq_before = parts.mutation_log(0).record(None, {
            use crate::provenance::WildcardMutation;
            WildcardMutation::ChangeDefault {
                service: crate::types::ServiceId::new(7),
                flows: FlowMatch::any(),
                new_default: Action::Drop,
                force: false,
            }
        });
        assert!(seq_before >= 2, "sequence counter was not reset");
    }

    #[test]
    fn reset_partition_unaliases_a_single_shard_start() {
        let template = SharedFlowTable::new();
        let parts = FlowTablePartitions::new(&template, 1);
        assert_eq!(parts.add_partition(), 1);
        parts.reset_partition(0);
        // Partition 0 no longer shares the template's storage…
        template.insert(forward_rule());
        assert_eq!(parts.shard(0).len(), 0, "aliasing ended");
        // …and broadcast installs reach it explicitly (no double insert,
        // no miss).
        parts.install(exact_drop_rule(1));
        assert_eq!(parts.template().len(), 2);
        assert_eq!(parts.shard(0).len(), 1);
        assert_eq!(parts.shard(1).len(), 1);
    }

    #[test]
    fn fork_preserves_rules_and_resets_counters() {
        let template = SharedFlowTable::new();
        let id = template.insert(forward_rule());
        let _ = template.lookup(RulePort::Nic(0), &key(1));
        assert_eq!(template.stats().lookups, 1);
        let fork = template.fork();
        assert_eq!(fork.len(), 1);
        assert_eq!(fork.stats().lookups, 0, "counters reset");
        assert_eq!(fork.with_read(|t| t.hit_count(id)), 0, "hit counts reset");
        let decision = fork.lookup(RulePort::Nic(0), &key(2)).unwrap();
        assert_eq!(decision.rule_id, id, "rule ids preserved");
    }
}
