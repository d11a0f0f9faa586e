//! Federation: one controller over many NF-hosts (paper §3.1, Figure 2).
//!
//! The paper's architecture is explicitly hierarchical — a single SDN
//! controller coordinating *many* smart NF-hosts, each running its own NF
//! Manager. [`Federation`] is that top layer over the threaded data plane:
//!
//! * it owns N [`ThreadedHost`]s plus a full mesh of bounded
//!   [`LoopbackWire`]s (the [`HostLink`] reference transport) between them;
//! * **cross-host chains**: [`Federation::install_chain`] walks a chain
//!   whose segments live on different hosts and installs the hand-off
//!   rules — on the segment's last host an egress rule to an allocated
//!   uplink port, on the next host an ingress rule at the allocated
//!   interconnect NIC port — so a flow traverses host A's firewall and
//!   host B's IDS with no host ever knowing the whole chain.
//!   [`Federation::install_placed_chain`] derives the segment-to-host
//!   mapping from an [`sdnfv_placement`] solver's [`Placement`], closing
//!   the loop from the MILP of §3.5 to installed rules;
//! * **cross-host flow re-homing**: [`Federation::rehome_bucket`] drives
//!   the same pen → drain → collect → import-ack → release handshake the
//!   intra-host re-home uses, but between hosts: the source host
//!   extracts the bucket's exact rules, wildcard-mutation records and NF
//!   per-flow state into a
//!   [`BucketHandout`](sdnfv_dataplane::BucketHandout), the destination
//!   absorbs it,
//!   and only after the import is acknowledged does the source release the
//!   penned packets — which then ride the interconnect to the new owner.
//!   Nothing is lost: packets, rules, wildcard mutations and NF state are
//!   all accounted in the per-host [`RehomeReport`]s;
//! * **one global view**: a per-host [`ObsHub`] (latency, traces, flight
//!   recorder) plus [`Federation::global_telemetry`], which folds every
//!   host's latest per-shard snapshots into one [`TelemetryHub`] with
//!   disjoint shard slots.
//!
//! The federation's pump is single-threaded by design (the hosts' workers
//! and NF threads do the heavy lifting); every wire is bounded and a full
//! wire backpressures into a per-link outbox rather than dropping, exactly
//! like the intra-host credit gates.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use sdnfv_dataplane::rehome::RehomeReport;
use sdnfv_dataplane::{
    HostLink, HostOutput, InjectResult, LoopbackWire, ThreadedHost, ThreadedHostConfig, WireFrame,
    STEER_BUCKETS,
};
use sdnfv_flowtable::{Action, FlowMatch, FlowRule, RulePort, ServiceId, SharedFlowTable};
use sdnfv_obs::ObsHub;
use sdnfv_placement::{Placement, PlacementProblem};
use sdnfv_proto::flow::FlowKey;
use sdnfv_proto::packet::{Packet, Port};
use sdnfv_telemetry::TelemetryHub;

use crate::elastic::{deploy_sharded, ShardPlacement};
use crate::orchestrator::NfvOrchestrator;
use crate::HostId;

/// Knobs of a [`Federation`].
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// Frames each directed host-to-host wire holds in flight.
    pub wire_capacity: usize,
    /// First NIC port number the federation allocates for chain hand-offs
    /// (uplink egress ports and interconnect ingress ports). Must be above
    /// every externally meaningful port of the deployment.
    pub handoff_port_base: Port,
    /// Egress frames pumped per host per [`Federation::pump`] call.
    pub egress_burst: usize,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            wire_capacity: 1024,
            handoff_port_base: 60_000,
            egress_burst: 64,
        }
    }
}

/// A packet that left the federation through a non-hand-off port — the
/// deployment's real egress.
#[derive(Debug)]
pub struct FederationOutput {
    /// The host the packet left from.
    pub host: HostId,
    /// The NIC port it left on.
    pub port: Port,
    /// The transmitted frame.
    pub packet: Packet,
    /// Its 5-tuple as parsed at ingress.
    pub key: FlowKey,
}

/// Per-directed-wire interconnect statistics, for the federation bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireStat {
    /// Source host.
    pub from: HostId,
    /// Destination host.
    pub to: HostId,
    /// Cumulative frames the wire accepted.
    pub transferred: u64,
    /// Highest in-flight occupancy ever observed.
    pub max_depth: usize,
}

/// Federation-level counters (the per-host [`RehomeReport`]s hold the
/// state-accounting half).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FederationReport {
    /// Frames delivered across the interconnect into a destination host.
    pub frames_delivered: u64,
    /// Cross-host bucket re-homes completed.
    pub buckets_rehomed: u64,
    /// Penned packets forwarded to a bucket's new host after its release.
    pub pen_packets_forwarded: u64,
}

/// Phase of one cross-host bucket re-home.
#[derive(Debug)]
enum FedMovePhase {
    /// Waiting for the source host's worker to export the bucket bundle.
    Collecting,
    /// The destination is importing; `done` flips when every NF acked.
    Importing { done: Arc<AtomicBool> },
}

/// One in-flight cross-host bucket re-home.
#[derive(Debug)]
struct FedMove {
    bucket: usize,
    from: HostId,
    to: HostId,
    phase: FedMovePhase,
}

/// One controller over many NF-hosts: cross-host chains, cross-host flow
/// re-homing, and a merged observability view. See the module docs.
#[derive(Debug)]
pub struct Federation {
    hosts: Vec<ThreadedHost>,
    obs: Vec<ObsHub>,
    /// `wires[src][dst]`; `None` on the diagonal.
    wires: Vec<Vec<Option<LoopbackWire>>>,
    /// Frames bounced off a full wire, per `[src][dst]`, FIFO.
    outbox: Vec<Vec<VecDeque<WireFrame>>>,
    /// Frames popped off a wire but refused by the destination's gate.
    inbound: Vec<VecDeque<WireFrame>>,
    /// `(src host, egress port)` → `(dst host, ingress port at dst)`.
    handoffs: HashMap<(HostId, Port), (HostId, Port)>,
    /// Which host serves each steering bucket (flows hash to buckets
    /// exactly as they do inside a host, so re-homing a bucket moves the
    /// same flow set the hosts track).
    bucket_host: Vec<HostId>,
    moves: Vec<FedMove>,
    next_handoff_port: Port,
    egress_burst: usize,
    report: FederationReport,
}

impl Federation {
    /// Federates `hosts` with a full mesh of loopback wires. Hosts must
    /// already be running; every bucket initially steers to host 0. Each
    /// host's wildcard-mutation sequence floor is raised to a disjoint
    /// per-host range (`host << 32`) so mutation records keep a total
    /// order across the federation.
    pub fn new(hosts: Vec<ThreadedHost>, config: FederationConfig) -> Self {
        assert!(!hosts.is_empty(), "a federation needs at least one host");
        let n = hosts.len();
        for (index, host) in hosts.iter().enumerate().skip(1) {
            host.raise_mutation_seq_floor((index as u64) << 32);
        }
        let wires = (0..n)
            .map(|src| {
                (0..n)
                    .map(|dst| (src != dst).then(|| LoopbackWire::new(config.wire_capacity)))
                    .collect()
            })
            .collect();
        Federation {
            obs: (0..n).map(|_| ObsHub::new()).collect(),
            wires,
            outbox: (0..n)
                .map(|_| (0..n).map(|_| VecDeque::new()).collect())
                .collect(),
            inbound: (0..n).map(|_| VecDeque::new()).collect(),
            handoffs: HashMap::new(),
            bucket_host: vec![0; STEER_BUCKETS],
            moves: Vec::new(),
            next_handoff_port: config.handoff_port_base,
            egress_burst: config.egress_burst.max(1),
            report: FederationReport::default(),
            hosts,
        }
    }

    /// Number of federated hosts.
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// The host serving `bucket` under the federation's steering.
    pub fn host_of_bucket(&self, bucket: usize) -> HostId {
        self.bucket_host[bucket % STEER_BUCKETS]
    }

    /// The host a flow's packets are injected into.
    pub fn host_of_flow(&self, key: &FlowKey) -> HostId {
        self.host_of_bucket((key.stable_hash() % STEER_BUCKETS as u64) as usize)
    }

    /// Direct access to a member host (tests, elastic loops).
    pub fn host(&self, host: HostId) -> &ThreadedHost {
        &self.hosts[host]
    }

    /// The per-host observability hub.
    pub fn obs(&self, host: HostId) -> &ObsHub {
        &self.obs[host]
    }

    /// Mutable per-host observability hub (to drain spans or the journal).
    pub fn obs_mut(&mut self, host: HostId) -> &mut ObsHub {
        &mut self.obs[host]
    }

    /// Federation-level counters.
    pub fn report(&self) -> FederationReport {
        self.report
    }

    /// Injects a packet at the federation's edge: it is steered to the
    /// host serving the flow's bucket (keyless packets go to host 0). The
    /// flow's 5-tuple is registered with the serving host's [`ObsHub`] so
    /// its trace spans join back to the flow.
    pub fn inject(&mut self, packet: Packet) -> InjectResult {
        match packet.flow_key() {
            Some(key) => {
                let host = self.host_of_flow(&key);
                self.obs[host].record_flow(&key);
                self.hosts[host].inject(packet)
            }
            None => self.hosts[0].inject(packet),
        }
    }

    /// Registers a hand-off: packets leaving `src` on `src_egress` cross
    /// the interconnect and enter `dst` at NIC port `dst_ingress`. Prefer
    /// [`Federation::install_chain`], which allocates ports itself.
    pub fn add_handoff(&mut self, src: HostId, src_egress: Port, dst: HostId, dst_ingress: Port) {
        assert_ne!(src, dst, "a hand-off must cross hosts");
        self.handoffs.insert((src, src_egress), (dst, dst_ingress));
    }

    fn allocate_handoff(&mut self, src: HostId, dst: HostId) -> (Port, Port) {
        let uplink = self.next_handoff_port;
        let remote = self.next_handoff_port + 1;
        self.next_handoff_port += 2;
        self.add_handoff(src, uplink, dst, remote);
        (uplink, remote)
    }

    /// Installs a service chain whose segments may live on different
    /// hosts. The flow enters at `Nic(ingress_port)` of `ingress_host`,
    /// traverses each `(host, service)` segment in order — crossing the
    /// interconnect wherever consecutive segments disagree on the host —
    /// and finally leaves on `egress_port` of the last segment's host.
    ///
    /// Every hop gets controller-installed hand-off rules: an egress rule
    /// to a freshly allocated uplink port on the sending host, and an
    /// ingress rule at the allocated interconnect port on the receiving
    /// host. No host ever holds a rule referring to another host's
    /// internals.
    pub fn install_chain(
        &mut self,
        ingress_host: HostId,
        ingress_port: Port,
        segments: &[(HostId, ServiceId)],
        egress_port: Port,
    ) {
        assert!(!segments.is_empty(), "a chain needs at least one segment");
        let mut host = ingress_host;
        let mut step = RulePort::Nic(ingress_port);
        for &(seg_host, service) in segments {
            if seg_host != host {
                let (uplink, remote) = self.allocate_handoff(host, seg_host);
                self.hosts[host].install_rule(FlowRule::new(
                    FlowMatch::at_step(step),
                    vec![Action::ToPort(uplink)],
                ));
                host = seg_host;
                step = RulePort::Nic(remote);
            }
            self.hosts[host].install_rule(FlowRule::new(
                FlowMatch::at_step(step),
                vec![Action::ToService(service)],
            ));
            step = RulePort::Service(service);
        }
        self.hosts[host].install_rule(FlowRule::new(
            FlowMatch::at_step(step),
            vec![Action::ToPort(egress_port)],
        ));
    }

    /// Installs the chain of `problem.flows[flow]` along the hosts an
    /// [`sdnfv_placement`] solver chose for it (topology nodes map 1:1 to
    /// federation hosts). Returns `false` if the solver rejected the flow
    /// or the assignment indexes a host this federation does not have.
    pub fn install_placed_chain(
        &mut self,
        problem: &PlacementProblem,
        placement: &Placement,
        flow: usize,
        ingress_port: Port,
        egress_port: Port,
    ) -> bool {
        let Some(segments) = chain_segments(problem, placement, flow) else {
            return false;
        };
        let Some(spec) = problem.flows.iter().find(|f| f.id == flow) else {
            return false;
        };
        if segments.iter().any(|(host, _)| *host >= self.hosts.len())
            || spec.ingress >= self.hosts.len()
        {
            return false;
        }
        self.install_chain(spec.ingress, ingress_port, &segments, egress_port);
        true
    }

    /// Begins re-homing `bucket` to another host via the state-safe
    /// handshake. Returns `false` if the bucket already lives on `to`, is
    /// already mid-move, or its current owner refused (e.g. the owner is
    /// itself re-homing the bucket between shards). The move completes
    /// asynchronously over subsequent [`Federation::pump`] calls; until it
    /// does, arriving packets keep steering to the old owner, which pens
    /// them.
    pub fn rehome_bucket(&mut self, bucket: usize, to: HostId) -> bool {
        let bucket = bucket % STEER_BUCKETS;
        if to >= self.hosts.len() {
            return false;
        }
        let from = self.bucket_host[bucket];
        if from == to || self.moves.iter().any(|m| m.bucket == bucket) {
            return false;
        }
        if !self.hosts[from].begin_bucket_handout(bucket) {
            return false;
        }
        self.moves.push(FedMove {
            bucket,
            from,
            to,
            phase: FedMovePhase::Collecting,
        });
        true
    }

    /// Cross-host re-homes still in flight.
    pub fn pending_rehomes(&self) -> usize {
        self.moves.len()
    }

    /// One federation tick: advance cross-host re-homes, sweep every
    /// host's egress (hand-off frames onto the wires, the rest returned as
    /// the deployment's real output), and deliver wire frames into their
    /// destination hosts. Call it from the same loop that feeds the
    /// federation.
    pub fn pump(&mut self) -> Vec<FederationOutput> {
        self.advance_moves();
        let external = self.sweep_egress();
        self.flush_outboxes();
        self.deliver();
        external
    }

    fn advance_moves(&mut self) {
        // Harvest ready bundles per distinct source host (one drain call
        // each — a host may have several outbound handouts collecting).
        let sources: BTreeSet<HostId> = self
            .moves
            .iter()
            .filter(|m| matches!(m.phase, FedMovePhase::Collecting))
            .map(|m| m.from)
            .collect();
        for src in sources {
            for handout in self.hosts[src].take_ready_handouts() {
                let Some(mv) = self.moves.iter_mut().find(|m| {
                    m.from == src
                        && m.bucket == handout.bucket
                        && matches!(m.phase, FedMovePhase::Collecting)
                }) else {
                    debug_assert!(false, "handout without a federation move");
                    continue;
                };
                let done = self.hosts[mv.to].absorb_bucket_handout(&handout);
                mv.phase = FedMovePhase::Importing { done };
            }
        }
        // Release buckets whose destination acknowledged the import. The
        // pen rides the interconnect so released packets stay behind any
        // frame already on the wire to the new owner.
        let mut index = 0;
        while index < self.moves.len() {
            let ready = match &self.moves[index].phase {
                FedMovePhase::Importing { done } => done.load(Ordering::Acquire),
                FedMovePhase::Collecting => false,
            };
            if !ready {
                index += 1;
                continue;
            }
            let mv = self.moves.swap_remove(index);
            let pen = self.hosts[mv.from].finish_bucket_handout(mv.bucket);
            self.bucket_host[mv.bucket] = mv.to;
            self.report.buckets_rehomed += 1;
            for (packet, key) in pen {
                self.report.pen_packets_forwarded += 1;
                let ingress_port = packet.ingress_port;
                self.queue_frame(
                    mv.from,
                    mv.to,
                    WireFrame {
                        packet,
                        key,
                        ingress_port,
                    },
                );
            }
        }
    }

    fn sweep_egress(&mut self) -> Vec<FederationOutput> {
        let mut external = Vec::new();
        for src in 0..self.hosts.len() {
            let outputs: Vec<HostOutput> = self.hosts[src].poll_egress_burst(self.egress_burst);
            for out in outputs {
                match self.handoffs.get(&(src, out.port)).copied() {
                    Some((dst, ingress_port)) => self.queue_frame(
                        src,
                        dst,
                        WireFrame {
                            packet: out.packet,
                            key: out.key,
                            ingress_port,
                        },
                    ),
                    None => external.push(FederationOutput {
                        host: src,
                        port: out.port,
                        packet: out.packet,
                        key: out.key,
                    }),
                }
            }
        }
        external
    }

    /// Queues a frame on the `src → dst` wire, spilling into the per-link
    /// outbox (FIFO) when the wire is full — backpressure, never a drop.
    fn queue_frame(&mut self, src: HostId, dst: HostId, frame: WireFrame) {
        let backlog = &mut self.outbox[src][dst];
        let wire = self.wires[src][dst]
            .as_ref()
            .expect("hand-offs and moves always cross hosts");
        if backlog.is_empty() {
            if let Err(frame) = wire.push(frame) {
                backlog.push_back(frame);
            }
        } else {
            backlog.push_back(frame);
        }
    }

    fn flush_outboxes(&mut self) {
        for src in 0..self.hosts.len() {
            for dst in 0..self.hosts.len() {
                let backlog = &mut self.outbox[src][dst];
                if backlog.is_empty() {
                    continue;
                }
                let wire = self.wires[src][dst]
                    .as_ref()
                    .expect("diagonal has no backlog");
                while let Some(frame) = backlog.pop_front() {
                    if let Err(frame) = wire.push(frame) {
                        backlog.push_front(frame);
                        break;
                    }
                }
            }
        }
    }

    fn deliver(&mut self) {
        for dst in 0..self.hosts.len() {
            // The stalled backlog goes first — its frames left their wires
            // before anything still enqueued there.
            while let Some(frame) = self.inbound[dst].pop_front() {
                if let Some(frame) = self.deliver_one(dst, frame) {
                    self.inbound[dst].push_front(frame);
                    break;
                }
            }
            if !self.inbound[dst].is_empty() {
                continue; // still stalled: keep wire order, try next tick
            }
            'sources: for src in 0..self.hosts.len() {
                while let Some(frame) = self.wires[src][dst].as_ref().and_then(HostLink::pop) {
                    if let Some(frame) = self.deliver_one(dst, frame) {
                        self.inbound[dst].push_back(frame);
                        break 'sources;
                    }
                }
            }
        }
    }

    /// Injects one wire frame into its destination host, rewriting the
    /// packet's ingress port to the hand-off port so the destination's
    /// `Nic(port)` rules match. Returns the frame on backpressure.
    fn deliver_one(&mut self, dst: HostId, frame: WireFrame) -> Option<WireFrame> {
        let WireFrame {
            mut packet,
            key,
            ingress_port,
        } = frame;
        packet.ingress_port = ingress_port;
        self.obs[dst].record_flow(&key);
        match self.hosts[dst].inject(packet) {
            InjectResult::Admitted => {
                self.report.frames_delivered += 1;
                None
            }
            InjectResult::Throttled(packet) => Some(WireFrame {
                packet,
                key,
                ingress_port,
            }),
        }
    }

    /// Frames somewhere between two hosts right now (on a wire, in a
    /// full-wire outbox, or bounced off a destination gate).
    pub fn frames_in_flight(&self) -> usize {
        let on_wires: usize = self
            .wires
            .iter()
            .flatten()
            .flatten()
            .map(HostLink::len)
            .sum();
        let staged: usize = self.outbox.iter().flatten().map(VecDeque::len).sum();
        let bounced: usize = self.inbound.iter().map(VecDeque::len).sum();
        on_wires + staged + bounced
    }

    /// `true` when no cross-host move is in flight, no frame is on the
    /// interconnect, and no member host has an intra-host re-home pending.
    pub fn is_idle(&self) -> bool {
        self.moves.is_empty()
            && self.frames_in_flight() == 0
            && self.hosts.iter().all(|h| h.pending_rehomes() == 0)
    }

    /// Drains every host's observability feeds into its per-host
    /// [`ObsHub`] (latency, traces, flight recorder).
    pub fn observe(&mut self) {
        for (host, obs) in self.hosts.iter().zip(self.obs.iter_mut()) {
            obs.observe(host);
        }
    }

    /// Folds every host's latest per-shard telemetry into one global
    /// [`TelemetryHub`]: host 0's shards occupy slots `0..n0`, host 1's
    /// `n0..n0+n1`, and so on. Call [`Federation::observe`] first so the
    /// per-host views are current.
    pub fn global_telemetry(&self) -> TelemetryHub {
        let mut global = TelemetryHub::new();
        let mut offset = 0;
        for (host, obs) in self.hosts.iter().zip(self.obs.iter()) {
            let snapshots = obs.telemetry().latest_all().into_iter().cloned().collect();
            global.absorb_offset(snapshots, offset);
            offset += host.num_shards();
        }
        global
    }

    /// Field-wise sum of every host's [`RehomeReport`] — the federation's
    /// zero-loss ledger (`buckets_handed_off` on sources must equal
    /// `buckets_adopted` on destinations, and the `*_rehomed` counters
    /// account for every rule and state payload that crossed hosts).
    pub fn global_rehome_report(&self) -> RehomeReport {
        let mut total = RehomeReport::default();
        for host in &self.hosts {
            let report = host.rehome_report();
            total.buckets_rehomed += report.buckets_rehomed;
            total.rules_rehomed += report.rules_rehomed;
            total.wildcard_mutations_rehomed += report.wildcard_mutations_rehomed;
            total.wildcard_conflicts += report.wildcard_conflicts;
            total.nf_flow_states_rehomed += report.nf_flow_states_rehomed;
            total.packets_penned += report.packets_penned;
            total.pen_throttled += report.pen_throttled;
            total.buckets_handed_off += report.buckets_handed_off;
            total.buckets_adopted += report.buckets_adopted;
        }
        total
    }

    /// Interconnect statistics for every directed wire.
    pub fn wire_stats(&self) -> Vec<WireStat> {
        let mut stats = Vec::new();
        for (src, row) in self.wires.iter().enumerate() {
            for (dst, wire) in row.iter().enumerate() {
                if let Some(wire) = wire {
                    stats.push(WireStat {
                        from: src,
                        to: dst,
                        transferred: wire.transferred(),
                        max_depth: wire.max_depth(),
                    });
                }
            }
        }
        stats
    }

    /// Stops every member host (joins their workers and NF threads).
    pub fn shutdown(self) {
        for host in self.hosts {
            host.shutdown();
        }
    }
}

/// The `(host, service)` segments a placement solver assigned to
/// `problem.flows[flow]`'s chain, in chain order (topology nodes map 1:1
/// to federation hosts). `None` if the flow was rejected or unknown.
/// Thin alias over [`Placement::chain_segments`] with federation naming.
pub fn chain_segments(
    problem: &PlacementProblem,
    placement: &Placement,
    flow: usize,
) -> Option<Vec<(HostId, ServiceId)>> {
    placement.chain_segments(problem, flow)
}

/// Provisions a whole federation from per-host placement decisions: each
/// host is deployed through [`deploy_sharded`] (every replica instantiated
/// via the orchestrator's registry), then federated with a full wire mesh.
/// `placements`, `tables` and the returned federation's hosts correspond
/// index-for-index.
pub fn deploy_federated(
    orchestrator: &mut NfvOrchestrator,
    placements: &[ShardPlacement],
    tables: Vec<SharedFlowTable>,
    config: &ThreadedHostConfig,
    federation_config: FederationConfig,
) -> Result<Federation, String> {
    if placements.len() != tables.len() {
        return Err(format!(
            "{} placements but {} flow tables",
            placements.len(),
            tables.len()
        ));
    }
    if placements.is_empty() {
        return Err("a federation needs at least one host".to_string());
    }
    let mut hosts = Vec::with_capacity(placements.len());
    for (placement, table) in placements.iter().zip(tables) {
        hosts.push(deploy_sharded(
            orchestrator,
            placement,
            table,
            config.clone(),
        )?);
    }
    Ok(Federation::new(hosts, federation_config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::NfvOrchestrator;
    use sdnfv_nf::nfs::NoOpNf;
    use sdnfv_nf::NfRegistry;
    use sdnfv_proto::packet::PacketBuilder;
    use std::time::{Duration, Instant};

    fn packet(src_port: u16) -> Packet {
        PacketBuilder::udp()
            .src_ip([10, 0, 0, 1])
            .dst_ip([10, 0, 0, 2])
            .src_port(src_port)
            .dst_port(80)
            .ingress_port(0)
            .total_size(256)
            .build()
    }

    fn forward_host() -> ThreadedHost {
        let table = SharedFlowTable::new();
        table.insert(FlowRule::new(
            FlowMatch::at_step(RulePort::Nic(0)),
            vec![Action::ToPort(1)],
        ));
        ThreadedHost::start(table, vec![], ThreadedHostConfig::default())
    }

    fn pump_until<F: FnMut(&mut Federation) -> bool>(
        fed: &mut Federation,
        outputs: &mut Vec<FederationOutput>,
        mut stop: F,
    ) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !stop(fed) && Instant::now() < deadline {
            outputs.extend(fed.pump());
            std::thread::yield_now();
        }
    }

    /// Pumps until `expected` external outputs have been collected (or a
    /// 5 s deadline passes).
    fn pump_outputs(fed: &mut Federation, outputs: &mut Vec<FederationOutput>, expected: usize) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while outputs.len() < expected && Instant::now() < deadline {
            outputs.extend(fed.pump());
            std::thread::yield_now();
        }
    }

    #[test]
    fn chain_split_across_two_hosts_forwards_through_both() {
        let service_a = ServiceId::new(1);
        let service_b = ServiceId::new(2);
        let host_table = || SharedFlowTable::new();
        let host_a = ThreadedHost::start(
            host_table(),
            vec![(service_a, Box::new(NoOpNf::new()) as _)],
            ThreadedHostConfig::default(),
        );
        let host_b = ThreadedHost::start(
            host_table(),
            vec![(service_b, Box::new(NoOpNf::new()) as _)],
            ThreadedHostConfig::default(),
        );
        let mut fed = Federation::new(vec![host_a, host_b], FederationConfig::default());
        // firewall@A → ids@B, entering at A's NIC 0, leaving B's NIC 9.
        fed.install_chain(0, 0, &[(0, service_a), (1, service_b)], 9);
        for i in 0..50 {
            assert!(fed.inject(packet(i)).is_admitted());
        }
        let mut outputs = Vec::new();
        pump_outputs(&mut fed, &mut outputs, 50);
        assert_eq!(outputs.len(), 50, "every packet crossed both hosts");
        assert!(outputs.iter().all(|o| o.host == 1 && o.port == 9));
        assert_eq!(fed.report().frames_delivered, 50);
        // Both hosts actually ran their NF.
        assert_eq!(fed.host(0).stats().snapshot().nf_invocations, 50);
        assert_eq!(fed.host(1).stats().snapshot().nf_invocations, 50);
        let stats = fed.wire_stats();
        let a_to_b = stats.iter().find(|w| w.from == 0 && w.to == 1).unwrap();
        assert_eq!(a_to_b.transferred, 50);
        assert!(a_to_b.max_depth >= 1);
        fed.shutdown();
    }

    #[test]
    fn external_egress_does_not_ride_the_wire() {
        let host_a = forward_host();
        let host_b = forward_host();
        let mut fed = Federation::new(vec![host_a, host_b], FederationConfig::default());
        for i in 0..10 {
            assert!(fed.inject(packet(i)).is_admitted());
        }
        let mut outputs = Vec::new();
        pump_outputs(&mut fed, &mut outputs, 10);
        assert_eq!(outputs.len(), 10);
        assert!(outputs.iter().all(|o| o.host == 0 && o.port == 1));
        assert_eq!(fed.report().frames_delivered, 0, "nothing crossed hosts");
        fed.shutdown();
    }

    #[test]
    fn rehome_bucket_moves_a_flow_to_another_host() {
        let host_a = forward_host();
        let host_b = forward_host();
        let mut fed = Federation::new(vec![host_a, host_b], FederationConfig::default());
        let flow = packet(7).flow_key().unwrap();
        let bucket = (flow.stable_hash() % STEER_BUCKETS as u64) as usize;
        assert_eq!(fed.host_of_flow(&flow), 0);
        for _ in 0..10 {
            assert!(fed.inject(packet(7)).is_admitted());
        }
        assert!(fed.rehome_bucket(bucket, 1));
        assert!(!fed.rehome_bucket(bucket, 1), "already mid-move");
        // Mid-move arrivals keep steering to the old owner's pen.
        assert_eq!(fed.host_of_flow(&flow), 0);
        assert!(fed.inject(packet(7)).is_admitted());
        let mut outputs = Vec::new();
        pump_until(&mut fed, &mut outputs, |fed| fed.pending_rehomes() == 0);
        assert_eq!(fed.pending_rehomes(), 0, "move completed");
        assert_eq!(fed.host_of_flow(&flow), 1, "steering flipped");
        pump_outputs(&mut fed, &mut outputs, 11);
        // 10 pre-move packets left A; the penned one crossed to B.
        assert_eq!(outputs.len(), 11);
        assert_eq!(outputs.iter().filter(|o| o.host == 0).count(), 10);
        assert_eq!(outputs.iter().filter(|o| o.host == 1).count(), 1);
        assert_eq!(fed.report().buckets_rehomed, 1);
        assert_eq!(fed.report().pen_packets_forwarded, 1);
        let ledger = fed.global_rehome_report();
        assert_eq!(ledger.buckets_handed_off, 1);
        assert_eq!(ledger.buckets_adopted, 1);
        // New arrivals land on B directly.
        assert!(fed.inject(packet(7)).is_admitted());
        pump_outputs(&mut fed, &mut outputs, 12);
        assert_eq!(outputs.iter().filter(|o| o.host == 1).count(), 2);
        fed.shutdown();
    }

    #[test]
    fn global_telemetry_folds_hosts_into_disjoint_shard_slots() {
        let host_a = forward_host();
        let host_b = forward_host();
        let mut fed = Federation::new(vec![host_a, host_b], FederationConfig::default());
        // Every bucket steers to host 0 at start, so drive host 1 directly
        // to make both hosts publish telemetry.
        for i in 0..10 {
            assert!(fed.inject(packet(i)).is_admitted());
            assert!(fed.host(1).inject(packet(100 + i)).is_admitted());
        }
        let mut outputs = Vec::new();
        pump_outputs(&mut fed, &mut outputs, 20);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            fed.observe();
            let global = fed.global_telemetry();
            if global.num_shards() == 2 || Instant::now() >= deadline {
                assert_eq!(global.num_shards(), 2, "one slot per host's shard");
                assert!(global.latest(0).is_some());
                assert!(global.latest(1).is_some());
                break;
            }
            std::thread::yield_now();
        }
        fed.shutdown();
    }

    #[test]
    fn placed_chain_installs_across_hosts() {
        use sdnfv_placement::{FlowSpec, PlacementSolver, ServiceSpec};
        use sdnfv_placement::{GreedySolver, Topology};
        let service_a = ServiceId::new(1);
        let service_b = ServiceId::new(2);
        // Two-host "topology": two one-core nodes joined by one link.
        let topology = Topology::new(
            vec![
                sdnfv_placement::topology::Node { cores: 1 },
                sdnfv_placement::topology::Node { cores: 1 },
            ],
            vec![sdnfv_placement::topology::Link {
                a: 0,
                b: 1,
                delay: 1.0,
                capacity: 100.0,
            }],
        );
        let problem = PlacementProblem {
            topology,
            services: vec![
                ServiceSpec::new(service_a, "a", 10),
                ServiceSpec::new(service_b, "b", 10),
            ],
            flows: vec![FlowSpec {
                id: 0,
                ingress: 0,
                egress: 1,
                bandwidth: 1.0,
                max_delay: 100.0,
                chain: vec![service_a, service_b],
            }],
        };
        let placement = GreedySolver.solve(&problem);
        let segments = chain_segments(&problem, &placement, 0).expect("flow placed");
        assert_eq!(segments.len(), 2);
        let host_for = |service: ServiceId| {
            segments
                .iter()
                .find(|(_, s)| *s == service)
                .map(|(h, _)| *h)
                .unwrap()
        };
        let make_host = |host: HostId| {
            let nfs: Vec<(ServiceId, Box<dyn sdnfv_nf::NetworkFunction>)> = segments
                .iter()
                .filter(|(h, _)| *h == host)
                .map(|(_, s)| (*s, Box::new(NoOpNf::new()) as _))
                .collect();
            ThreadedHost::start(SharedFlowTable::new(), nfs, ThreadedHostConfig::default())
        };
        let mut fed = Federation::new(
            vec![make_host(0), make_host(1)],
            FederationConfig::default(),
        );
        assert!(fed.install_placed_chain(&problem, &placement, 0, 0, 9));
        for i in 0..20 {
            assert!(fed.inject(packet(i)).is_admitted());
        }
        let mut outputs = Vec::new();
        pump_outputs(&mut fed, &mut outputs, 20);
        assert_eq!(outputs.len(), 20);
        let last_host = host_for(service_b);
        assert!(outputs.iter().all(|o| o.host == last_host && o.port == 9));
        fed.shutdown();
    }

    #[test]
    fn deploy_federated_provisions_hosts_from_placements() {
        let mut registry = NfRegistry::new();
        registry.register("noop", NoOpNf::new);
        let mut orchestrator = NfvOrchestrator::new(registry, 0);
        let service = ServiceId::new(1);
        let placements = vec![
            ShardPlacement::uniform(&[(service, "noop")], 1, 1),
            ShardPlacement::uniform(&[(service, "noop")], 2, 1),
        ];
        let tables = vec![SharedFlowTable::new(), SharedFlowTable::new()];
        let fed = deploy_federated(
            &mut orchestrator,
            &placements,
            tables,
            &ThreadedHostConfig::default(),
            FederationConfig::default(),
        )
        .expect("registry resolves every service");
        assert_eq!(fed.num_hosts(), 2);
        assert_eq!(fed.host(0).num_shards(), 1);
        assert_eq!(fed.host(1).num_shards(), 2);
        fed.shutdown();
    }
}
