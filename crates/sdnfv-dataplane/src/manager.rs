//! The inline (synchronous) NF Manager engine.
//!
//! This engine owns the host's flow table and NF instances and walks each
//! packet through its service chain on the calling thread. It implements the
//! full SDNFV semantics — default actions, NF verdict validation, parallel
//! rule handling with conflict resolution, load balancing across replicas,
//! lookup caching, and cross-layer message application — in a deterministic
//! way, which is what the discrete-event simulator and most tests need.
//! The multi-threaded twin lives in [`crate::runtime`].

use std::collections::HashMap;

use sdnfv_flowtable::{Action, Decision, RulePort, ServiceId, SharedFlowTable};
use sdnfv_graph::{CompileOptions, ServiceGraph};
use sdnfv_nf::{
    BurstMemo, NetworkFunction, NfContext, NfMessage, PacketBatch, PacketBatchMut, Verdict,
    VerdictSlice,
};
use sdnfv_proto::flow::FlowKey;
use sdnfv_proto::packet::Port;
use sdnfv_proto::Packet;

use crate::cache::{cached_lookup, LookupCache, LOOKUP_CACHE_ENTRIES};
use crate::conflict::{resolve_parallel_verdicts, validate_steering};
use crate::loadbalance::{LoadBalancePolicy, LoadBalancer};
use crate::messages::{apply_nf_message, AppliedChange, NfManagerMessage};
use crate::scratch::recycle;
use crate::stats::HostStats;

/// Upper bound on hops a packet may take inside one host (cycle guard).
const MAX_CHAIN_HOPS: usize = 64;

/// Configuration of an [`NfManager`].
#[derive(Debug, Clone)]
pub struct NfManagerConfig {
    /// Policy for spreading packets over multiple instances of a service.
    pub load_balance: LoadBalancePolicy,
    /// Whether flow-table lookups are cached per flow and step.
    pub enable_lookup_cache: bool,
}

impl Default for NfManagerConfig {
    fn default() -> Self {
        NfManagerConfig {
            load_balance: LoadBalancePolicy::MinQueue,
            enable_lookup_cache: true,
        }
    }
}

/// What happened to a packet handed to [`NfManager::process_packet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketOutcome {
    /// The packet left the host through the given NIC port.
    Transmitted {
        /// Egress port.
        port: Port,
        /// The (possibly rewritten) packet.
        packet: Packet,
    },
    /// The packet was dropped (by an NF verdict, a drop rule, or because it
    /// was unparseable).
    Dropped,
    /// The flow table had no rule for the packet; it must be sent to the SDN
    /// controller (table-miss path).
    PuntedToController {
        /// The packet that missed.
        packet: Packet,
    },
}

struct NfInstance {
    nf: Box<dyn NetworkFunction>,
    invocations: u64,
    /// Emulated queue occupancy, settable by the simulator to exercise
    /// queue-length based load balancing.
    queue_len: usize,
}

/// Reusable per-round buffers for the grouped batch engine
/// ([`NfManager::invoke_grouped`]): one allocation for the manager's whole
/// life instead of a fresh context/verdict-slice/index-vector set per
/// instance group per round. The reference vectors park their (empty)
/// allocations at the `'static` type between rounds and are re-typed to
/// the round's borrow via [`recycle`].
struct RoundScratch {
    ctx: NfContext,
    verdicts: VerdictSlice,
    queue_lengths: Vec<usize>,
    picks: Vec<usize>,
    group: Vec<usize>,
    read_refs: Vec<&'static Packet>,
    write_refs: Vec<&'static mut Packet>,
}

impl RoundScratch {
    fn new() -> Self {
        RoundScratch {
            ctx: NfContext::new(0),
            verdicts: VerdictSlice::new(),
            queue_lengths: Vec::new(),
            picks: Vec::new(),
            group: Vec::new(),
            read_refs: Vec::new(),
            write_refs: Vec::new(),
        }
    }
}

/// The inline NF Manager engine.
pub struct NfManager {
    config: NfManagerConfig,
    table: SharedFlowTable,
    instances: HashMap<ServiceId, Vec<NfInstance>>,
    balancers: HashMap<ServiceId, LoadBalancer>,
    cache: LookupCache,
    stats: HostStats,
    outbox: Vec<NfManagerMessage>,
    round: RoundScratch,
}

impl std::fmt::Debug for NfManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NfManager")
            .field("services", &self.instances.keys().collect::<Vec<_>>())
            .field("rules", &self.table.len())
            .finish()
    }
}

impl Default for NfManager {
    fn default() -> Self {
        NfManager::new(NfManagerConfig::default())
    }
}

impl NfManager {
    /// Creates a manager with the given configuration.
    pub fn new(config: NfManagerConfig) -> Self {
        NfManager {
            config,
            table: SharedFlowTable::new(),
            instances: HashMap::new(),
            balancers: HashMap::new(),
            cache: LookupCache::new(LOOKUP_CACHE_ENTRIES),
            stats: HostStats::new(),
            outbox: Vec::new(),
            round: RoundScratch::new(),
        }
    }

    /// The host's flow table (shared with the control-plane connection).
    pub fn flow_table(&self) -> &SharedFlowTable {
        &self.table
    }

    /// Host statistics.
    pub fn stats(&self) -> &HostStats {
        &self.stats
    }

    /// Attaches an NF instance implementing `service`. Multiple instances of
    /// the same service are load-balanced (paper §3.3).
    ///
    /// The NF's `on_start` hook runs immediately; any messages it emits are
    /// applied/queued just like messages emitted while processing packets.
    pub fn add_nf(&mut self, service: ServiceId, mut nf: Box<dyn NetworkFunction>) {
        let mut ctx = NfContext::new(0);
        nf.on_start(&mut ctx);
        self.handle_messages(service, &mut ctx);
        self.instances.entry(service).or_default().push(NfInstance {
            nf,
            invocations: 0,
            queue_len: 0,
        });
        self.balancers
            .entry(service)
            .or_insert_with(|| LoadBalancer::new(self.config.load_balance));
    }

    /// Removes every instance of `service`, returning how many were removed.
    pub fn remove_service(&mut self, service: ServiceId) -> usize {
        self.balancers.remove(&service);
        self.instances
            .remove(&service)
            .map(|v| v.len())
            .unwrap_or(0)
    }

    /// Returns `true` if at least one instance of `service` is attached.
    pub fn has_service(&self, service: ServiceId) -> bool {
        self.instances.get(&service).is_some_and(|v| !v.is_empty())
    }

    /// Number of instances attached for `service`.
    pub fn instance_count(&self, service: ServiceId) -> usize {
        self.instances.get(&service).map_or(0, |v| v.len())
    }

    /// Total NF invocations for `service` across its instances.
    pub fn service_invocations(&self, service: ServiceId) -> u64 {
        self.instances
            .get(&service)
            .map_or(0, |v| v.iter().map(|i| i.invocations).sum())
    }

    /// Sets the emulated queue occupancy of one instance (used by the
    /// simulator to drive queue-length load balancing).
    pub fn set_instance_queue_len(&mut self, service: ServiceId, index: usize, len: usize) {
        if let Some(instance) = self
            .instances
            .get_mut(&service)
            .and_then(|v| v.get_mut(index))
        {
            instance.queue_len = len;
        }
    }

    /// Compiles `graph` with `options` and installs the resulting rules.
    pub fn install_graph(&mut self, graph: &ServiceGraph, options: &CompileOptions) {
        for rule in graph.compile(options) {
            self.table.insert(rule);
        }
    }

    /// Installs a single rule directly (as the SDN controller would).
    pub fn install_rule(&mut self, rule: sdnfv_flowtable::FlowRule) -> sdnfv_flowtable::RuleId {
        self.table.insert(rule)
    }

    /// Applies a cross-layer message on behalf of `from`, exactly as if an
    /// attached NF had emitted it (used by the control plane and tests).
    pub fn apply_message(&mut self, from: ServiceId, message: &NfMessage) -> AppliedChange {
        // NFs are untrusted (`force = false`): the SDNFV Application decides
        // whether to re-apply a rejected `ChangeDefault` with force.
        let change = self
            .table
            .with_write(|table| apply_nf_message(table, from, message, false));
        self.stats.add_nf_messages(1);
        self.outbox.push(NfManagerMessage {
            from,
            message: message.clone(),
        });
        change
    }

    /// Drains the messages NFs have emitted since the last call; the caller
    /// (the SDNFV Application / SDN controller connection) consumes these.
    pub fn take_messages(&mut self) -> Vec<NfManagerMessage> {
        std::mem::take(&mut self.outbox)
    }

    /// Applies and queues every message an NF left in its context.
    fn handle_messages(&mut self, from: ServiceId, ctx: &mut NfContext) {
        for message in ctx.take_messages() {
            self.apply_message(from, &message);
        }
    }

    /// Processes one packet to completion through the host.
    ///
    /// This runs the dedicated scalar walk (shared with the `len == 1` fast
    /// path of [`NfManager::process_burst`]): same semantics and statistics
    /// as the burst engine, none of its per-burst bookkeeping allocations —
    /// the cost profile the Table 2 / Figure 6 latency paths and the
    /// per-packet simulators rely on.
    pub fn process_packet(&mut self, packet: Packet, now_ns: u64) -> PacketOutcome {
        self.stats.add_received(1);
        self.process_single(packet, now_ns)
    }

    /// Processes a burst of packets to completion through the host,
    /// returning one outcome per packet in input order.
    ///
    /// The burst is walked through the service chains in lock-step rounds:
    /// each round resolves one flow-table action per in-flight packet
    /// (looking the table up **once per distinct flow** in the burst), then
    /// groups the packets bound for the same NF instance and invokes that
    /// NF's batch entry point once for the whole group. Cross-layer messages
    /// an NF emits anywhere inside a batch are applied before the next
    /// round's lookups, so a `SkipMe`/`ChangeDefault` affects every
    /// subsequent burst decision.
    ///
    /// A one-packet burst takes the scalar fast path: nothing can be
    /// amortized across a burst of one, so the lock-step machinery (and its
    /// per-round bookkeeping allocations) is skipped entirely.
    pub fn process_burst(&mut self, mut packets: Vec<Packet>, now_ns: u64) -> Vec<PacketOutcome> {
        self.stats.add_received(packets.len() as u64);
        if packets.len() == 1 {
            let packet = packets.pop().expect("length checked");
            return vec![self.process_single(packet, now_ns)];
        }
        let mut outcomes: Vec<Option<PacketOutcome>> = Vec::with_capacity(packets.len());
        outcomes.resize_with(packets.len(), || None);

        let mut active: Vec<InFlight> = Vec::with_capacity(packets.len());
        for (slot, packet) in packets.into_iter().enumerate() {
            match packet.flow_key() {
                Some(key) => {
                    let step = RulePort::Nic(packet.ingress_port);
                    active.push(InFlight {
                        slot,
                        packet,
                        key,
                        step,
                        forced: None,
                        hops: 0,
                    });
                }
                None => {
                    self.stats.add_dropped(1);
                    outcomes[slot] = Some(PacketOutcome::Dropped);
                }
            }
        }

        while !active.is_empty() {
            active = self.process_round(active, now_ns, &mut outcomes);
        }

        outcomes
            .into_iter()
            .map(|o| o.expect("every packet reaches an outcome"))
            .collect()
    }

    /// The scalar engine: walks one packet through its service chain with no
    /// per-burst bookkeeping. Semantics (and every counter) match the burst
    /// path exactly — the caller has already counted the packet as received.
    fn process_single(&mut self, mut packet: Packet, now_ns: u64) -> PacketOutcome {
        let Some(key) = packet.flow_key() else {
            self.stats.add_dropped(1);
            return PacketOutcome::Dropped;
        };
        let mut step = RulePort::Nic(packet.ingress_port);
        let mut forced: Option<Action> = None;
        let mut hops = 0usize;
        loop {
            if hops >= MAX_CHAIN_HOPS {
                // The hop bound was exceeded (mis-configured rules).
                self.stats.add_dropped(1);
                return PacketOutcome::Dropped;
            }
            hops += 1;
            let plan = if let Some(action) = forced.take() {
                Plan::from_action(action)
            } else {
                match self.lookup(step, &key) {
                    None => Plan::Punt,
                    Some(decision) if decision.parallel => Plan::Parallel(decision),
                    Some(decision) => match decision.default_action() {
                        Some(action) => Plan::from_action(action),
                        None => Plan::Drop,
                    },
                }
            };
            match plan {
                Plan::Drop => {
                    self.stats.add_dropped(1);
                    return PacketOutcome::Dropped;
                }
                Plan::Punt => {
                    self.stats.add_controller_punts(1);
                    return PacketOutcome::PuntedToController { packet };
                }
                Plan::Transmit(port) => {
                    self.stats.add_transmitted(1);
                    return PacketOutcome::Transmitted { port, packet };
                }
                Plan::Parallel(decision) => {
                    match self.run_parallel(&decision, &mut packet, &key, now_ns, &mut step) {
                        ParallelOutcome::Continue(next_forced) => forced = next_forced,
                        ParallelOutcome::Finished(outcome) => return outcome,
                    }
                }
                Plan::Invoke(service) => match self.invoke(service, &mut packet, &key, now_ns) {
                    None => {
                        // No instance of the service is attached: the packet
                        // cannot make progress.
                        self.stats.add_dropped(1);
                        return PacketOutcome::Dropped;
                    }
                    Some(verdict) => {
                        step = RulePort::Service(service);
                        forced = match verdict {
                            Verdict::Default => None,
                            Verdict::Discard => Some(Action::Drop),
                            other => {
                                let requested = other.as_action().expect("non-default verdict");
                                Some(self.validate_requested(step, &key, requested))
                            }
                        };
                    }
                },
            }
        }
    }

    /// Runs one lock-step round over the in-flight packets: resolve an
    /// action per packet, then invoke NFs in per-instance batches. Returns
    /// the packets still in flight.
    fn process_round(
        &mut self,
        mut active: Vec<InFlight>,
        now_ns: u64,
        outcomes: &mut [Option<PacketOutcome>],
    ) -> Vec<InFlight> {
        // Phase A: resolve one action per in-flight packet. Lookups within
        // the round are memoized per distinct (step, flow) — messages are
        // only applied between rounds, so the memo cannot go stale.
        let mut memo: BurstMemo<(RulePort, FlowKey), Option<Decision>> = BurstMemo::new();
        let mut plans: Vec<Plan> = Vec::with_capacity(active.len());
        for flight in active.iter_mut() {
            if flight.hops >= MAX_CHAIN_HOPS {
                // The hop bound was exceeded (mis-configured rules).
                plans.push(Plan::Drop);
                continue;
            }
            flight.hops += 1;
            let plan = if let Some(action) = flight.forced.take() {
                Plan::from_action(action)
            } else {
                let decision = memo
                    .get_or_insert_with((flight.step, flight.key), |(step, key)| {
                        self.lookup(*step, key)
                    })
                    .clone();
                match decision {
                    None => Plan::Punt,
                    Some(decision) if decision.parallel => Plan::Parallel(decision),
                    Some(decision) => match decision.default_action() {
                        Some(action) => Plan::from_action(action),
                        None => Plan::Drop,
                    },
                }
            };
            plans.push(plan);
        }

        // Phase B: finish terminal packets, and bucket the rest — packets
        // bound for one service together, packets governed by the same
        // parallel rule together.
        let mut buckets: Vec<(ServiceId, Vec<InFlight>)> = Vec::new();
        let mut parallel_buckets: Vec<(Decision, Vec<InFlight>)> = Vec::new();
        let mut survivors: Vec<InFlight> = Vec::with_capacity(active.len());
        for (flight, plan) in active.drain(..).zip(plans) {
            match plan {
                Plan::Drop => {
                    self.stats.add_dropped(1);
                    outcomes[flight.slot] = Some(PacketOutcome::Dropped);
                }
                Plan::Punt => {
                    self.stats.add_controller_punts(1);
                    outcomes[flight.slot] = Some(PacketOutcome::PuntedToController {
                        packet: flight.packet,
                    });
                }
                Plan::Transmit(port) => {
                    self.stats.add_transmitted(1);
                    outcomes[flight.slot] = Some(PacketOutcome::Transmitted {
                        port,
                        packet: flight.packet,
                    });
                }
                Plan::Parallel(decision) => {
                    match parallel_buckets
                        .iter_mut()
                        .find(|(d, _)| d.rule_id == decision.rule_id)
                    {
                        Some((_, members)) => members.push(flight),
                        None => parallel_buckets.push((decision, vec![flight])),
                    }
                }
                Plan::Invoke(service) => match buckets.iter_mut().find(|(s, _)| *s == service) {
                    Some((_, members)) => members.push(flight),
                    None => buckets.push((service, vec![flight])),
                },
            }
        }

        // Phase B': run each parallel rule's whole group through its
        // services, one batched NF invocation per instance per service —
        // the batched twin of the scalar `run_parallel`.
        for (decision, members) in parallel_buckets {
            self.run_parallel_batch(&decision, members, now_ns, outcomes, &mut survivors);
        }

        // Phase C: per service, pick an instance per packet (preserving the
        // per-packet load-balancing semantics) and invoke each instance once
        // over its whole group.
        for (service, members) in buckets {
            self.invoke_service_batch(service, members, now_ns, outcomes, &mut survivors);
        }
        survivors
    }

    /// Runs all services of one parallel rule over a whole group of packets
    /// (the burst twin of [`NfManager::run_parallel`]): for every service
    /// in the action list the group is invoked in per-instance batches, and
    /// each packet's verdicts are then conflict-resolved exactly as in the
    /// scalar path.
    fn run_parallel_batch(
        &mut self,
        decision: &Decision,
        mut members: Vec<InFlight>,
        now_ns: u64,
        outcomes: &mut [Option<PacketOutcome>],
        survivors: &mut Vec<InFlight>,
    ) {
        self.stats.add_parallel_dispatches(members.len() as u64);
        let mut verdicts_per_packet: Vec<Vec<Verdict>> = members
            .iter()
            .map(|_| Vec::with_capacity(decision.actions.len()))
            .collect();
        let mut last_service = None;
        for action in decision.actions.iter() {
            match action {
                Action::ToService(service) => {
                    last_service = Some(*service);
                    self.invoke_parallel_service_batch(
                        *service,
                        &mut members,
                        now_ns,
                        &mut verdicts_per_packet,
                    );
                }
                // Parallel lists only ever contain services (the compiler
                // guarantees it); anything else is treated as default.
                _ => {
                    for verdicts in &mut verdicts_per_packet {
                        verdicts.push(Verdict::Default);
                    }
                }
            }
        }
        let Some(last) = last_service else {
            for flight in members {
                self.stats.add_dropped(1);
                outcomes[flight.slot] = Some(PacketOutcome::Dropped);
            }
            return;
        };
        let step = RulePort::Service(last);
        for (mut flight, verdicts) in members.into_iter().zip(verdicts_per_packet) {
            flight.step = step;
            match resolve_parallel_verdicts(&verdicts) {
                Verdict::Default => {
                    flight.forced = None;
                    survivors.push(flight);
                }
                Verdict::Discard => {
                    self.stats.add_dropped(1);
                    outcomes[flight.slot] = Some(PacketOutcome::Dropped);
                }
                other => {
                    let requested = other.as_action().expect("non-default verdict");
                    flight.forced = Some(self.validate_requested(step, &flight.key, requested));
                    survivors.push(flight);
                }
            }
        }
    }

    /// Invokes `service` over a parallel group, batched per chosen
    /// instance, appending each packet's verdict to its per-packet verdict
    /// list. Packets keep flowing even if no instance is attached (the
    /// scalar path records a default verdict in that case).
    fn invoke_parallel_service_batch(
        &mut self,
        service: ServiceId,
        members: &mut [InFlight],
        now_ns: u64,
        verdicts_per_packet: &mut [Vec<Verdict>],
    ) {
        if !self.invoke_grouped(
            service,
            members,
            now_ns,
            GroupedVerdictSink::Collect(verdicts_per_packet),
        ) {
            for verdicts in verdicts_per_packet.iter_mut() {
                verdicts.push(Verdict::Default);
            }
        }
    }

    /// Invokes `service` over `members`, batched per chosen instance, and
    /// pushes the packets that continue their chain onto `survivors`.
    fn invoke_service_batch(
        &mut self,
        service: ServiceId,
        mut members: Vec<InFlight>,
        now_ns: u64,
        outcomes: &mut [Option<PacketOutcome>],
        survivors: &mut Vec<InFlight>,
    ) {
        if !self.invoke_grouped(service, &mut members, now_ns, GroupedVerdictSink::Forward) {
            // No instance of the service is attached: the packets cannot
            // make progress.
            for flight in members {
                self.stats.add_dropped(1);
                outcomes[flight.slot] = Some(PacketOutcome::Dropped);
            }
            return;
        }
        survivors.append(&mut members);
    }

    /// The shared mechanics of one service round over a grouped burst:
    /// pick an instance per packet (exactly as the scalar path does, so
    /// round-robin / flow-hash balancing observes every packet), invoke
    /// each instance once over its whole group, apply that batch's
    /// cross-layer messages, and hand the group's verdicts to `sink` —
    /// all before the next instance runs, so verdict validation (the
    /// [`GroupedVerdictSink::Forward`] sink) sees exactly the messages of
    /// the batch that produced the verdict.
    ///
    /// All per-round buffers live in the manager's [`RoundScratch`] —
    /// nothing is allocated per group; the borrow of `self.instances` is
    /// split from the scratch/table/cache borrows by destructuring.
    ///
    /// Returns `false` (doing nothing) if no instance of `service` is
    /// attached; the callers' recovery paths differ.
    fn invoke_grouped(
        &mut self,
        service: ServiceId,
        members: &mut [InFlight],
        now_ns: u64,
        mut sink: GroupedVerdictSink<'_>,
    ) -> bool {
        let NfManager {
            config,
            table,
            instances,
            balancers,
            cache,
            stats,
            outbox,
            round,
        } = self;
        let Some(service_instances) = instances.get_mut(&service) else {
            return false;
        };
        let instance_count = service_instances.len();
        if instance_count == 0 {
            return false;
        }
        round.queue_lengths.clear();
        round
            .queue_lengths
            .extend(service_instances.iter().map(|i| i.queue_len));
        let balancer = balancers
            .entry(service)
            .or_insert_with(|| LoadBalancer::new(config.load_balance));
        round.picks.clear();
        for flight in members.iter() {
            round.picks.push(
                balancer
                    .pick(&round.queue_lengths, Some(&flight.key))
                    .unwrap_or(0),
            );
        }

        #[allow(clippy::needless_range_loop)] // `service_instances` cannot stay
        // borrowed across the sink handling below, so indexing beats iteration
        for instance_index in 0..instance_count {
            round.group.clear();
            for (member_index, pick) in round.picks.iter().enumerate() {
                if *pick == instance_index {
                    round.group.push(member_index);
                }
            }
            if round.group.is_empty() {
                continue;
            }
            round.ctx.set_now_ns(now_ns);
            let slots = round.verdicts.reset(round.group.len());
            {
                let instance = &mut service_instances[instance_index];
                instance.invocations += round.group.len() as u64;
                if instance.nf.read_only() {
                    let mut refs: Vec<&Packet> = recycle(std::mem::take(&mut round.read_refs));
                    refs.extend(round.group.iter().map(|i| &members[*i].packet));
                    instance
                        .nf
                        .process_batch(&PacketBatch::new(&refs), slots, &mut round.ctx);
                    refs.clear();
                    round.read_refs = recycle(refs);
                } else {
                    // Collect disjoint mutable borrows in one pass.
                    let mut refs: Vec<&mut Packet> = recycle(std::mem::take(&mut round.write_refs));
                    let mut cursor = round.group.iter().peekable();
                    for (index, member) in members.iter_mut().enumerate() {
                        if cursor.peek() == Some(&&index) {
                            cursor.next();
                            refs.push(&mut member.packet);
                        }
                    }
                    let mut batch = PacketBatchMut::new(&mut refs);
                    instance
                        .nf
                        .process_batch_mut(&mut batch, slots, &mut round.ctx);
                    refs.clear();
                    round.write_refs = recycle(refs);
                }
            }
            stats.add_nf_invocations(round.group.len() as u64);
            // Apply the batch's cross-layer messages before any further
            // lookup — including the verdict validation just below and the
            // next round's table lookups.
            for message in round.ctx.take_messages() {
                stats.add_nf_messages(1);
                table.with_write(|t| apply_nf_message(t, service, &message, false));
                outbox.push(NfManagerMessage {
                    from: service,
                    message,
                });
            }

            match &mut sink {
                GroupedVerdictSink::Forward => {
                    let step = RulePort::Service(service);
                    for (verdict, member_index) in
                        round.verdicts.as_slice().iter().zip(round.group.iter())
                    {
                        let flight = &mut members[*member_index];
                        flight.step = step;
                        flight.forced = match verdict {
                            Verdict::Default => None,
                            Verdict::Discard => Some(Action::Drop),
                            other => {
                                let requested = other.as_action().expect("non-default verdict");
                                Some(validate_requested_in(
                                    table,
                                    cache,
                                    config.enable_lookup_cache,
                                    step,
                                    &flight.key,
                                    requested,
                                ))
                            }
                        };
                    }
                }
                GroupedVerdictSink::Collect(verdicts_per_packet) => {
                    for (verdict, member_index) in
                        round.verdicts.as_slice().iter().zip(round.group.iter())
                    {
                        verdicts_per_packet[*member_index].push(*verdict);
                    }
                }
            }
        }
        true
    }

    /// Looks up the decision for `(step, key)`, consulting the cache first.
    fn lookup(&mut self, step: RulePort, key: &FlowKey) -> Option<Decision> {
        // The inline manager does not drive rule timeouts, so its cache
        // entries never TTL out (now = 0, ttl = 0).
        cached_lookup(
            &self.table,
            &mut self.cache,
            self.config.enable_lookup_cache,
            step,
            key,
            0,
            0,
        )
    }

    /// Validates an NF's explicit steering request against the allowed next
    /// hops at its step; disallowed requests fall back to the default action
    /// (or drop if there is none).
    fn validate_requested(&mut self, step: RulePort, key: &FlowKey, requested: Action) -> Action {
        validate_requested_in(
            &self.table,
            &mut self.cache,
            self.config.enable_lookup_cache,
            step,
            key,
            requested,
        )
    }

    /// Invokes one instance of `service` on the packet, returning its
    /// verdict, or `None` if no instance is attached. `key` is the packet's
    /// ingress-time flow key — the balancing unit, kept stable even if an NF
    /// rewrote the packet's headers mid-chain (matching the burst path).
    fn invoke(
        &mut self,
        service: ServiceId,
        packet: &mut Packet,
        key: &FlowKey,
        now_ns: u64,
    ) -> Option<Verdict> {
        let instances = self.instances.get_mut(&service)?;
        if instances.is_empty() {
            return None;
        }
        let queue_lengths: Vec<usize> = instances.iter().map(|i| i.queue_len).collect();
        let balancer = self
            .balancers
            .entry(service)
            .or_insert_with(|| LoadBalancer::new(self.config.load_balance));
        let index = balancer.pick(&queue_lengths, Some(key)).unwrap_or(0);
        let instance = &mut instances[index];
        instance.invocations += 1;
        let mut ctx = NfContext::new(now_ns);
        let verdict = if instance.nf.read_only() {
            instance.nf.process(packet, &mut ctx)
        } else {
            instance.nf.process_mut(packet, &mut ctx)
        };
        self.stats.add_nf_invocations(1);
        self.handle_messages(service, &mut ctx);
        Some(verdict)
    }

    /// Runs all services of a parallel rule on the packet and resolves their
    /// verdicts. `step` is advanced to the last parallel service.
    fn run_parallel(
        &mut self,
        decision: &Decision,
        packet: &mut Packet,
        key: &FlowKey,
        now_ns: u64,
        step: &mut RulePort,
    ) -> ParallelOutcome {
        self.stats.add_parallel_dispatches(1);
        let mut verdicts = Vec::with_capacity(decision.actions.len());
        let mut last_service = None;
        for action in decision.actions.iter() {
            match action {
                Action::ToService(service) => {
                    last_service = Some(*service);
                    match self.invoke(*service, packet, key, now_ns) {
                        Some(v) => verdicts.push(v),
                        None => verdicts.push(Verdict::Default),
                    }
                }
                // Parallel lists only ever contain services (the compiler
                // guarantees it); anything else is treated as default.
                _ => verdicts.push(Verdict::Default),
            }
        }
        let Some(last) = last_service else {
            self.stats.add_dropped(1);
            return ParallelOutcome::Finished(PacketOutcome::Dropped);
        };
        *step = RulePort::Service(last);
        match resolve_parallel_verdicts(&verdicts) {
            Verdict::Default => ParallelOutcome::Continue(None),
            Verdict::Discard => {
                self.stats.add_dropped(1);
                ParallelOutcome::Finished(PacketOutcome::Dropped)
            }
            other => {
                let requested = other.as_action().expect("non-default verdict");
                let action = self.validate_requested(*step, key, requested);
                ParallelOutcome::Continue(Some(action))
            }
        }
    }
}

/// Verdict validation over the manager's parts (rather than `&mut self`),
/// so it can run while `self.instances` is mutably borrowed — the
/// split-borrow half of the per-round allocation hoist.
fn validate_requested_in(
    table: &SharedFlowTable,
    cache: &mut LookupCache,
    enable_cache: bool,
    step: RulePort,
    key: &FlowKey,
    requested: Action,
) -> Action {
    let decision = cached_lookup(table, cache, enable_cache, step, key, 0, 0);
    validate_steering(decision.as_ref(), requested)
}

enum ParallelOutcome {
    /// Keep walking the chain; an optional validated action overrides the
    /// next lookup's default.
    Continue(Option<Action>),
    Finished(PacketOutcome),
}

/// Where [`NfManager::invoke_grouped`] delivers each instance batch's
/// verdicts, immediately after that batch's cross-layer messages apply.
enum GroupedVerdictSink<'a> {
    /// Sequential chain: set each member's next step and validated forced
    /// action in place.
    Forward,
    /// Parallel rule: append each member's verdict to its per-packet list
    /// for later conflict resolution.
    Collect(&'a mut [Vec<Verdict>]),
}

/// Per-packet state while a burst walks the service chains in lock-step.
struct InFlight {
    /// Index of this packet's slot in the outcome vector (input order).
    slot: usize,
    packet: Packet,
    key: FlowKey,
    /// The flow-table step the next lookup uses.
    step: RulePort,
    /// A validated action from an NF verdict, overriding the next lookup.
    forced: Option<Action>,
    /// Rounds consumed so far (bounded by [`MAX_CHAIN_HOPS`]).
    hops: usize,
}

/// What one round decided to do with one in-flight packet.
enum Plan {
    Drop,
    Punt,
    Transmit(Port),
    Invoke(ServiceId),
    /// A parallel rule: all its services run on the packet this round.
    Parallel(Decision),
}

impl Plan {
    fn from_action(action: Action) -> Self {
        match action {
            Action::Drop => Plan::Drop,
            Action::ToPort(port) => Plan::Transmit(port),
            Action::ToController => Plan::Punt,
            Action::ToService(service) => Plan::Invoke(service),
            // The trace marker never reaches a decision's action list (the
            // table strips it), so treat a stray one as a punt.
            Action::Trace => Plan::Punt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnfv_flowtable::{FlowMatch, FlowRule};
    use sdnfv_graph::catalog;
    use sdnfv_nf::nfs::{ComputeNf, FirewallNf, NoOpNf, SamplerNf, ScrubberNf};
    use sdnfv_proto::packet::PacketBuilder;

    fn udp_packet(src_port: u16) -> Packet {
        PacketBuilder::udp()
            .src_ip([10, 0, 0, 1])
            .dst_ip([10, 9, 9, 9])
            .src_port(src_port)
            .dst_port(80)
            .ingress_port(0)
            .build()
    }

    /// source -> noop chain of `n` services -> port 1.
    fn chain_manager(n: usize, parallel: bool) -> NfManager {
        let names: Vec<(String, bool)> = (0..n).map(|i| (format!("nf{i}"), true)).collect();
        let refs: Vec<(&str, bool)> = names.iter().map(|(s, ro)| (s.as_str(), *ro)).collect();
        let (graph, ids) = catalog::chain(&refs);
        let mut manager = NfManager::default();
        manager.install_graph(
            &graph,
            &CompileOptions {
                ingress_ports: vec![0],
                egress_port: 1,
                enable_parallel: parallel,
                ..CompileOptions::default()
            },
        );
        for id in ids {
            manager.add_nf(id, Box::new(NoOpNf::new()));
        }
        manager
    }

    #[test]
    fn empty_table_punts_to_controller() {
        let mut manager = NfManager::default();
        match manager.process_packet(udp_packet(1), 0) {
            PacketOutcome::PuntedToController { .. } => {}
            other => panic!("expected punt, got {other:?}"),
        }
        assert_eq!(manager.stats().snapshot().controller_punts, 1);
    }

    #[test]
    fn sequential_chain_transmits() {
        let mut manager = chain_manager(3, false);
        match manager.process_packet(udp_packet(1), 0) {
            PacketOutcome::Transmitted { port, .. } => assert_eq!(port, 1),
            other => panic!("expected transmit, got {other:?}"),
        }
        let snap = manager.stats().snapshot();
        assert_eq!(snap.nf_invocations, 3);
        assert_eq!(snap.transmitted, 1);
        assert_eq!(snap.parallel_dispatches, 0);
    }

    #[test]
    fn parallel_chain_transmits_with_one_dispatch() {
        let mut manager = chain_manager(3, true);
        match manager.process_packet(udp_packet(1), 0) {
            PacketOutcome::Transmitted { port, .. } => assert_eq!(port, 1),
            other => panic!("expected transmit, got {other:?}"),
        }
        let snap = manager.stats().snapshot();
        assert_eq!(snap.nf_invocations, 3);
        assert_eq!(snap.parallel_dispatches, 1);
    }

    #[test]
    fn firewall_discard_drops_packet() {
        let (graph, ids) = catalog::chain(&[("firewall", true)]);
        let mut manager = NfManager::default();
        manager.install_graph(&graph, &CompileOptions::default());
        manager.add_nf(ids[0], Box::new(FirewallNf::deny_by_default()));
        assert_eq!(
            manager.process_packet(udp_packet(5), 0),
            PacketOutcome::Dropped
        );
        assert_eq!(manager.stats().snapshot().dropped, 1);
    }

    #[test]
    fn nf_steering_respects_allowed_edges() {
        // Graph: sampler may send to scrubber; a stray service is not allowed.
        let (graph, svcs) = catalog::anomaly_detection();
        let mut manager = NfManager::default();
        manager.install_graph(&graph, &CompileOptions::default());
        manager.add_nf(svcs.firewall, Box::new(NoOpNf::new()));
        // Sample every packet so traffic goes to the DDoS/IDS path.
        manager.add_nf(svcs.sampler, Box::new(SamplerNf::per_packet(svcs.ddos, 1)));
        manager.add_nf(svcs.ddos, Box::new(NoOpNf::new()));
        manager.add_nf(svcs.ids, Box::new(NoOpNf::new()));
        manager.add_nf(svcs.scrubber, Box::new(ScrubberNf::new()));
        match manager.process_packet(udp_packet(7), 0) {
            PacketOutcome::Transmitted { port, .. } => assert_eq!(port, 1),
            other => panic!("expected transmit, got {other:?}"),
        }
        // firewall, sampler, ddos, ids all ran; scrubber did not (clean pkt).
        assert_eq!(manager.service_invocations(svcs.scrubber), 0);
        assert_eq!(manager.service_invocations(svcs.ddos), 1);
    }

    #[test]
    fn missing_nf_instance_drops() {
        let mut manager = chain_manager(2, false);
        // Remove the second NF; packets reaching it are dropped.
        let (_, ids) = catalog::chain(&[("nf0", true), ("nf1", true)]);
        assert_eq!(manager.remove_service(ids[1]), 1);
        assert!(!manager.has_service(ids[1]));
        assert_eq!(
            manager.process_packet(udp_packet(9), 0),
            PacketOutcome::Dropped
        );
    }

    #[test]
    fn load_balances_across_instances() {
        let (graph, ids) = catalog::chain(&[("worker", true)]);
        let mut manager = NfManager::new(NfManagerConfig {
            load_balance: LoadBalancePolicy::RoundRobin,
            ..NfManagerConfig::default()
        });
        manager.install_graph(&graph, &CompileOptions::default());
        manager.add_nf(ids[0], Box::new(NoOpNf::new()));
        manager.add_nf(ids[0], Box::new(NoOpNf::new()));
        assert_eq!(manager.instance_count(ids[0]), 2);
        for i in 0..10 {
            manager.process_packet(udp_packet(i), 0);
        }
        // Round robin splits the 10 packets 5/5 between the two instances.
        assert_eq!(manager.service_invocations(ids[0]), 10);
        let per_instance: Vec<u64> = manager.instances[&ids[0]]
            .iter()
            .map(|i| i.invocations)
            .collect();
        assert_eq!(per_instance, vec![5, 5]);
    }

    #[test]
    fn lookup_cache_counts_hits() {
        let mut manager = chain_manager(2, false);
        for _ in 0..5 {
            manager.process_packet(udp_packet(1), 0);
        }
        assert!(
            manager.cache.hits() > 0,
            "repeated packets should hit the cache"
        );
        // Disabling the cache still works.
        let mut manager = NfManager::new(NfManagerConfig {
            enable_lookup_cache: false,
            ..NfManagerConfig::default()
        });
        let (graph, ids) = catalog::chain(&[("nf0", true)]);
        manager.install_graph(&graph, &CompileOptions::default());
        manager.add_nf(ids[0], Box::new(ComputeNf::new(1)));
        for _ in 0..3 {
            manager.process_packet(udp_packet(1), 0);
        }
        assert_eq!(manager.cache.hits(), 0);
    }

    #[test]
    fn messages_are_applied_and_queued() {
        let (graph, svcs) = catalog::anomaly_detection();
        let mut manager = NfManager::default();
        manager.install_graph(&graph, &CompileOptions::default());
        // Apply a ChangeDefault on behalf of the sampler: send everything to
        // the DDoS detector (an allowed edge).
        let change = manager.apply_message(
            svcs.sampler,
            &NfMessage::ChangeDefault {
                flows: FlowMatch::any(),
                service: svcs.sampler,
                new_default: Action::ToService(svcs.ddos),
            },
        );
        assert_eq!(change, AppliedChange::RulesUpdated(1));
        let messages = manager.take_messages();
        assert_eq!(messages.len(), 1);
        assert_eq!(messages[0].from, svcs.sampler);
        assert!(manager.take_messages().is_empty());
    }

    #[test]
    fn hop_bound_prevents_infinite_loops() {
        // A rule that points a service at itself would loop forever without
        // the hop guard.
        let mut manager = NfManager::default();
        let svc = ServiceId::new(1);
        manager.install_rule(FlowRule::new(
            FlowMatch::at_step(RulePort::Nic(0)),
            vec![Action::ToService(svc)],
        ));
        manager.install_rule(FlowRule::new(
            FlowMatch::at_step(svc),
            vec![Action::ToService(svc)],
        ));
        manager.add_nf(svc, Box::new(NoOpNf::new()));
        assert_eq!(
            manager.process_packet(udp_packet(3), 0),
            PacketOutcome::Dropped
        );
    }

    #[test]
    fn burst_outcomes_match_scalar_outcomes_in_order() {
        // The same traffic mix through a burst and through scalar calls must
        // yield identical outcomes and identical stats.
        let build = || {
            let (graph, ids) = catalog::chain(&[("fw", true), ("w", true)]);
            let mut manager = NfManager::default();
            manager.install_graph(&graph, &CompileOptions::default());
            manager.add_nf(
                ids[0],
                Box::new(FirewallNf::allow_by_default().with_rule(
                    sdnfv_nf::nfs::FirewallRule::deny(FlowMatch::any().with_src_port(666)),
                )),
            );
            manager.add_nf(ids[1], Box::new(NoOpNf::new()));
            manager
        };
        let packets = |_: ()| -> Vec<Packet> {
            vec![
                udp_packet(1),
                udp_packet(666), // firewalled
                udp_packet(2),
                Packet::from_bytes(vec![0u8; 8]), // unparseable
                udp_packet(1),                    // repeated flow: exercises the burst memo
            ]
        };

        let mut scalar = build();
        let scalar_outcomes: Vec<PacketOutcome> = packets(())
            .into_iter()
            .map(|p| scalar.process_packet(p, 7))
            .collect();

        let mut batched = build();
        let burst_outcomes = batched.process_burst(packets(()), 7);

        assert_eq!(burst_outcomes, scalar_outcomes);
        assert_eq!(
            batched.stats().snapshot().nf_invocations,
            scalar.stats().snapshot().nf_invocations
        );
        assert_eq!(
            batched.stats().snapshot().dropped,
            scalar.stats().snapshot().dropped
        );
        assert_eq!(
            batched.stats().snapshot().transmitted,
            scalar.stats().snapshot().transmitted
        );
    }

    #[test]
    fn parallel_burst_matches_scalar_and_batches_dispatch() {
        // A parallel-heavy graph: the firewall and the worker run as one
        // parallel segment. The batched fan-out must produce the same
        // outcomes and counters as the scalar walk — including conflict
        // resolution when the firewall discards — while invoking each NF in
        // batches rather than per packet.
        let build = || {
            let (graph, ids) = catalog::chain(&[("fw", true), ("w", true)]);
            let mut manager = NfManager::default();
            manager.install_graph(
                &graph,
                &CompileOptions {
                    enable_parallel: true,
                    ..CompileOptions::default()
                },
            );
            manager.add_nf(
                ids[0],
                Box::new(FirewallNf::allow_by_default().with_rule(
                    sdnfv_nf::nfs::FirewallRule::deny(FlowMatch::any().with_src_port(666)),
                )),
            );
            manager.add_nf(ids[1], Box::new(NoOpNf::new()));
            manager
        };
        let packets = || -> Vec<Packet> {
            vec![
                udp_packet(1),
                udp_packet(666), // discarded by the parallel firewall
                udp_packet(2),
                udp_packet(1), // repeated flow: exercises the burst memo
                udp_packet(666),
                udp_packet(3),
            ]
        };

        let mut scalar = build();
        let scalar_outcomes: Vec<PacketOutcome> = packets()
            .into_iter()
            .map(|p| scalar.process_packet(p, 7))
            .collect();

        let mut batched = build();
        let burst_outcomes = batched.process_burst(packets(), 7);

        assert_eq!(burst_outcomes, scalar_outcomes);
        let scalar_snap = scalar.stats().snapshot();
        let batched_snap = batched.stats().snapshot();
        assert_eq!(batched_snap.parallel_dispatches, 6);
        assert_eq!(
            batched_snap.parallel_dispatches,
            scalar_snap.parallel_dispatches
        );
        assert_eq!(batched_snap.nf_invocations, scalar_snap.nf_invocations);
        assert_eq!(batched_snap.dropped, scalar_snap.dropped);
        assert_eq!(batched_snap.transmitted, scalar_snap.transmitted);
    }

    #[test]
    fn parallel_burst_load_balances_across_replicas() {
        // Two replicas of each parallel service: the batched fan-out must
        // still pick an instance per packet.
        let (graph, ids) = catalog::chain(&[("a", true), ("b", true)]);
        let mut manager = NfManager::new(NfManagerConfig {
            load_balance: LoadBalancePolicy::RoundRobin,
            ..NfManagerConfig::default()
        });
        manager.install_graph(
            &graph,
            &CompileOptions {
                enable_parallel: true,
                ..CompileOptions::default()
            },
        );
        for id in &ids {
            manager.add_nf(*id, Box::new(NoOpNf::new()));
            manager.add_nf(*id, Box::new(NoOpNf::new()));
        }
        let burst: Vec<Packet> = (0..8).map(udp_packet).collect();
        let outcomes = manager.process_burst(burst, 0);
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, PacketOutcome::Transmitted { .. })));
        for id in &ids {
            let per_instance: Vec<u64> = manager.instances[id]
                .iter()
                .map(|i| i.invocations)
                .collect();
            assert_eq!(per_instance, vec![4, 4], "round robin inside the burst");
        }
        assert_eq!(manager.stats().snapshot().parallel_dispatches, 8);
    }

    #[test]
    fn burst_load_balances_per_packet() {
        let (graph, ids) = catalog::chain(&[("worker", true)]);
        let mut manager = NfManager::new(NfManagerConfig {
            load_balance: LoadBalancePolicy::RoundRobin,
            ..NfManagerConfig::default()
        });
        manager.install_graph(&graph, &CompileOptions::default());
        manager.add_nf(ids[0], Box::new(NoOpNf::new()));
        manager.add_nf(ids[0], Box::new(NoOpNf::new()));
        let burst: Vec<Packet> = (0..10).map(udp_packet).collect();
        let outcomes = manager.process_burst(burst, 0);
        assert_eq!(outcomes.len(), 10);
        // Round robin still splits a single burst 5/5 between the instances.
        let per_instance: Vec<u64> = manager.instances[&ids[0]]
            .iter()
            .map(|i| i.invocations)
            .collect();
        assert_eq!(per_instance, vec![5, 5]);
    }

    #[test]
    fn empty_burst_is_a_no_op() {
        let mut manager = chain_manager(1, false);
        assert!(manager.process_burst(Vec::new(), 0).is_empty());
        assert_eq!(manager.stats().snapshot().received, 0);
    }

    #[test]
    fn non_ip_packets_are_dropped() {
        let mut manager = chain_manager(1, false);
        let outcome = manager.process_packet(Packet::from_bytes(vec![0u8; 12]), 0);
        assert_eq!(outcome, PacketOutcome::Dropped);
    }
}
