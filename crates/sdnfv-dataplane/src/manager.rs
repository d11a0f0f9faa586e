//! The NF Manager as a synchronous driver (paper §4.2).
//!
//! [`NfManager`] runs the shipping engine: a one-shard host started with
//! [`ThreadedHost::start_sim_sharded`], so its worker and NF replicas are
//! step-actors and nothing runs on its own thread. Every call injects,
//! steps every actor until the host is quiescent and reads the result, so
//! a caller sees one packet (or burst) through to completion with no
//! threads, rings or credits in view. Lookup, replica pick, fan-out and
//! verdict merge are the engine's ([`crate::runtime`]); nothing here
//! decides where a packet goes. The simulators, the examples and the
//! paper-figure benches drive this type, so what they reproduce is the
//! code that ships.

use sdnfv_flowtable::{FlowRule, RuleId, ServiceId, SharedFlowTable};
use sdnfv_graph::{CompileOptions, ServiceGraph};
use sdnfv_nf::NetworkFunction;
use sdnfv_proto::packet::Port;
use sdnfv_proto::Packet;

use crate::messages::NfManagerMessage;
use crate::runtime::{HostOutput, ThreadedHost, ThreadedHostConfig};
use crate::sim::{SimActorKind, SimHandle};
use crate::stats::HostStats;

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
    /// The packet was dropped (by an NF verdict, a drop rule, a missing NF
    /// instance, the hop bound, or because it was unparseable).
    Dropped,
    /// The flow table had no rule for the packet: the engine counted the
    /// punt (`controller_punts`) and released the packet. A caller that
    /// forwards the miss to a controller keeps its own copy.
    PuntedToController,
}

/// A one-shard host driven synchronously on the calling thread.
pub struct NfManager {
    host: ThreadedHost,
    sim: SimHandle,
    /// The shard worker's actor id.
    worker: u64,
    /// Shard 0's flow-table partition: the table its worker writes for
    /// the NFs' messages.
    table: SharedFlowTable,
}

impl std::fmt::Debug for NfManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NfManager")
            .field("host", &self.host)
            .finish()
    }
}

impl Default for NfManager {
    fn default() -> Self {
        NfManager::new()
    }
}

impl NfManager {
    /// Starts an empty one-shard host on a virtual clock at 0.
    pub fn new() -> Self {
        let (host, sim) = ThreadedHost::start_sim_sharded(
            SharedFlowTable::new(),
            |_shard| Vec::new(),
            ThreadedHostConfig::default(),
        );
        let worker = sim
            .actors()
            .iter()
            .find(|actor| actor.kind == SimActorKind::Worker)
            .map(|actor| actor.id)
            .expect("a one-shard host registers its worker");
        let table = host.shard_table(0);
        NfManager {
            host,
            sim,
            worker,
            table,
        }
    }

    /// The flow table packets are looked up in (shard 0's partition), so
    /// reads see what NFs wrote.
    pub fn flow_table(&self) -> &SharedFlowTable {
        &self.table
    }

    /// Host statistics.
    pub fn stats(&self) -> &HostStats {
        self.host.stats()
    }

    /// Attaches an NF instance implementing `service`. Several instances of
    /// one service share its packets by steering bucket, so every packet of
    /// a flow reaches the same instance (paper §3.3); adding one moves the
    /// flow state of the buckets it takes over to it before this returns.
    ///
    /// The NF's `on_start` hook runs before this returns; any messages it
    /// emits are applied and queued like messages emitted while processing
    /// packets.
    pub fn add_nf(&mut self, service: ServiceId, nf: Box<dyn NetworkFunction>) {
        if self.host.add_nf_replica(0, service, nf).is_err() {
            panic!("a quiescent host's control ring has room");
        }
        self.settle(&mut Vec::new());
    }

    /// Total packets the instances of `service` have processed.
    pub fn service_invocations(&self, service: ServiceId) -> u64 {
        self.sim
            .with_worker(self.worker, |engine| engine.processed(service))
            .unwrap_or(0)
    }

    /// Compiles `graph` with `options` and installs the resulting rules.
    pub fn install_graph(&mut self, graph: &ServiceGraph, options: &CompileOptions) {
        for rule in graph.compile(options) {
            self.host.install_rule(rule);
        }
    }

    /// Installs a single rule directly (as the SDN controller would).
    pub fn install_rule(&mut self, rule: FlowRule) -> RuleId {
        self.host.install_rule(rule)
    }

    /// Drains the messages NFs have emitted since the last call; the caller
    /// (the SDNFV Application / SDN controller connection) consumes these.
    pub fn take_messages(&mut self) -> Vec<NfManagerMessage> {
        self.host.take_nf_messages()
    }

    /// Processes one packet to completion at virtual time `now_ns` (the
    /// clock never moves backwards).
    pub fn process_packet(&mut self, packet: Packet, now_ns: u64) -> PacketOutcome {
        self.advance_clock_to(now_ns);
        let punts = self.host.stats().snapshot().controller_punts;
        assert!(
            self.host.inject(packet).is_admitted(),
            "a quiescent host admits a packet"
        );
        let mut out = Vec::with_capacity(1);
        self.settle(&mut out);
        match out.pop() {
            Some(HostOutput { port, packet, .. }) => PacketOutcome::Transmitted { port, packet },
            None if self.host.stats().snapshot().controller_punts > punts => {
                PacketOutcome::PuntedToController
            }
            None => PacketOutcome::Dropped,
        }
    }

    /// Processes a burst to completion at virtual time `now_ns`, returning
    /// the transmitted packets in egress order; drops and punts are counted
    /// in [`NfManager::stats`]. The worker takes the burst in one RX pop
    /// (up to the burst size), so each NF serves it as one batch.
    pub fn process_burst(&mut self, packets: Vec<Packet>, now_ns: u64) -> Vec<HostOutput> {
        self.advance_clock_to(now_ns);
        let mut out = Vec::with_capacity(packets.len());
        let mut pending = packets;
        while !pending.is_empty() {
            let injection = self.host.inject_burst(pending);
            assert!(injection.admitted > 0, "a quiescent host admits a packet");
            self.settle(&mut out);
            pending = injection.throttled;
        }
        out
    }

    fn advance_clock_to(&self, now_ns: u64) {
        let current = self.sim.now_ns();
        if now_ns > current {
            self.sim.advance_clock_ns(now_ns - current);
        }
    }

    /// Steps every actor until the host is quiescent (no bucket move
    /// pending either), moving what egressed into `out` in egress order.
    fn settle(&mut self, out: &mut Vec<HostOutput>) {
        loop {
            while self.sim.step_all() > 0 {}
            let before = out.len();
            out.extend(self.host.poll_egress_burst(usize::MAX));
            if out.len() == before && self.host.pending_rehomes() == 0 {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnfv_flowtable::{Action, FlowMatch, RulePort};
    use sdnfv_graph::catalog;
    use sdnfv_nf::nfs::{FirewallNf, IdsNf, NoOpNf, SamplerNf, ScrubberNf};
    use sdnfv_nf::{NfContext, NfMessage, Verdict};
    use sdnfv_proto::flow::FlowKey;
    use sdnfv_proto::packet::PacketBuilder;
    use std::sync::{Arc, Mutex};

    fn udp_packet(src_port: u16) -> Packet {
        PacketBuilder::udp()
            .src_ip([10, 0, 0, 1])
            .dst_ip([10, 9, 9, 9])
            .src_port(src_port)
            .dst_port(80)
            .ingress_port(0)
            .build()
    }

    /// NIC 0 -> a chain of `n` services -> port 1, with NoOp NFs attached
    /// to the first `attached` services.
    fn chain_manager(n: usize, attached: usize, enable_parallel: bool) -> NfManager {
        let names: Vec<String> = (0..n).map(|i| format!("nf{i}")).collect();
        let refs: Vec<(&str, bool)> = names.iter().map(|s| (s.as_str(), true)).collect();
        let (graph, ids) = catalog::chain(&refs);
        let mut manager = NfManager::default();
        let options = CompileOptions {
            enable_parallel,
            ..CompileOptions::default()
        };
        manager.install_graph(&graph, &options);
        for id in ids.into_iter().take(attached) {
            manager.add_nf(id, Box::new(NoOpNf::new()));
        }
        manager
    }

    #[test]
    fn empty_table_punts_to_controller() {
        let mut manager = NfManager::default();
        assert_eq!(
            manager.process_packet(udp_packet(1), 0),
            PacketOutcome::PuntedToController
        );
        assert_eq!(manager.stats().snapshot().controller_punts, 1);
    }

    #[test]
    fn sequential_chain_transmits() {
        let mut manager = chain_manager(3, 3, false);
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
        let mut manager = chain_manager(3, 3, true);
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
        // The second service has no instance; packets reaching it drop.
        let mut manager = chain_manager(2, 1, false);
        assert_eq!(
            manager.process_packet(udp_packet(9), 0),
            PacketOutcome::Dropped
        );
        assert_eq!(manager.stats().snapshot().nf_invocations, 1);
    }

    /// A read-only NF that records the flow of every packet it serves.
    struct FlowRecorder {
        seen: Arc<Mutex<Vec<FlowKey>>>,
    }

    impl NetworkFunction for FlowRecorder {
        fn name(&self) -> &str {
            "flow-recorder"
        }

        fn process(&mut self, packet: &Packet, _ctx: &mut NfContext) -> Verdict {
            self.seen
                .lock()
                .unwrap()
                .push(packet.flow_key().expect("ipv4 packet"));
            Verdict::Default
        }
    }

    /// Attaches two [`FlowRecorder`] instances of `service`, returning what
    /// each records.
    fn two_recorders(manager: &mut NfManager, service: ServiceId) -> [Arc<Mutex<Vec<FlowKey>>>; 2] {
        let seen: [Arc<Mutex<Vec<FlowKey>>>; 2] = Default::default();
        for instance in &seen {
            let seen = Arc::clone(instance);
            manager.add_nf(service, Box::new(FlowRecorder { seen }));
        }
        seen
    }

    /// Every packet of a flow reached one instance, and the `flows` flows
    /// spread over both.
    fn assert_sticky_and_spread(seen: &[Arc<Mutex<Vec<FlowKey>>>; 2], flows: usize) {
        let [first, second] = seen.clone().map(|s| {
            let mut flows = s.lock().unwrap().clone();
            flows.sort_by_key(|k| k.src_port);
            flows.dedup();
            flows
        });
        assert!(!first.is_empty() && !second.is_empty(), "flows spread");
        assert_eq!(first.len() + second.len(), flows);
        assert!(first.iter().all(|flow| !second.contains(flow)), "sticky");
    }

    #[test]
    fn load_balances_across_instances() {
        // Two instances of one service, 16 flows of 4 packets (scalar and
        // burst).
        let (graph, ids) = catalog::chain(&[("worker", true)]);
        let mut manager = NfManager::default();
        manager.install_graph(&graph, &CompileOptions::default());
        let seen = two_recorders(&mut manager, ids[0]);
        for round in 0..2u64 {
            for flow in 0..16 {
                manager.process_packet(udp_packet(flow), round);
            }
            let burst: Vec<Packet> = (0..16).map(udp_packet).collect();
            assert_eq!(manager.process_burst(burst, round).len(), 16);
        }
        assert_eq!(manager.service_invocations(ids[0]), 64);
        assert_sticky_and_spread(&seen, 16);
    }

    #[test]
    fn parallel_burst_load_balances_across_replicas() {
        // Two instances of each service of a parallel rule: a fan-out picks
        // each service's instance by flow hash too.
        let (graph, ids) = catalog::chain(&[("a", true), ("b", true)]);
        let mut manager = NfManager::default();
        manager.install_graph(
            &graph,
            &CompileOptions {
                enable_parallel: true,
                ..CompileOptions::default()
            },
        );
        let seen: Vec<_> = ids
            .iter()
            .map(|id| two_recorders(&mut manager, *id))
            .collect();
        for round in 0..2u64 {
            let burst: Vec<Packet> = (0..16).map(udp_packet).collect();
            assert_eq!(manager.process_burst(burst, round).len(), 16);
        }
        for seen in &seen {
            assert_sticky_and_spread(seen, 16);
        }
        assert_eq!(manager.stats().snapshot().parallel_dispatches, 32);
    }

    #[test]
    fn lookup_cache_counts_hits() {
        let mut manager = chain_manager(2, 2, false);
        for _ in 0..5 {
            manager.process_packet(udp_packet(1), 0);
        }
        let hits = manager
            .sim
            .with_worker(manager.worker, |engine| engine.lookup_cache_hits())
            .expect("the worker is running");
        assert!(hits > 0, "repeated packets should hit the cache");
    }

    #[test]
    fn messages_are_applied_and_queued() {
        // The IDS pins a flow carrying an attack signature to the scrubber:
        // the pin lands in the table packets are looked up in, and the
        // control plane hears the ChangeDefault once, from the IDS.
        let (graph, svcs) = catalog::anomaly_detection();
        let mut manager = NfManager::default();
        manager.install_graph(&graph, &CompileOptions::default());
        manager.add_nf(svcs.firewall, Box::new(NoOpNf::new()));
        manager.add_nf(svcs.sampler, Box::new(SamplerNf::per_packet(svcs.ddos, 1)));
        manager.add_nf(svcs.ddos, Box::new(NoOpNf::new()));
        manager.add_nf(svcs.ids, Box::new(IdsNf::new(svcs.ids, svcs.scrubber)));
        manager.add_nf(svcs.scrubber, Box::new(NoOpNf::new()));
        let rules = manager.flow_table().len();
        let attack = PacketBuilder::tcp().payload(b"GET /?q=UNION SELECT");
        manager.process_packet(attack.ingress_port(0).build(), 0);
        assert_eq!(manager.flow_table().len(), rules + 1);
        assert_eq!(manager.service_invocations(svcs.scrubber), 1);
        assert!(matches!(
            manager.take_messages().as_slice(),
            [NfManagerMessage { from, message: NfMessage::ChangeDefault { .. } }]
                if *from == svcs.ids
        ));
        assert!(manager.take_messages().is_empty());
    }

    #[test]
    fn hop_bound_prevents_infinite_loops() {
        // A rule that points a service at itself would loop forever without
        // the hop guard.
        let mut manager = NfManager::default();
        let svc = ServiceId::new(1);
        for step in [RulePort::Nic(0), RulePort::Service(svc)] {
            let to_svc = vec![Action::ToService(svc)];
            manager.install_rule(FlowRule::new(FlowMatch::at_step(step), to_svc));
        }
        manager.add_nf(svc, Box::new(NoOpNf::new()));
        assert_eq!(
            manager.process_packet(udp_packet(3), 0),
            PacketOutcome::Dropped
        );
        assert_eq!(manager.stats().snapshot().dropped, 1);
        assert_eq!(
            manager.host.available_credits(0),
            manager.host.credit_capacity()
        );
    }

    #[test]
    fn empty_burst_is_a_no_op() {
        let mut manager = chain_manager(1, 1, false);
        assert!(manager.process_burst(Vec::new(), 0).is_empty());
        assert_eq!(manager.stats().snapshot().received, 0);
    }

    #[test]
    fn non_ip_packets_are_dropped() {
        let mut manager = chain_manager(1, 1, false);
        let outcome = manager.process_packet(Packet::from_bytes(vec![0u8; 12]), 0);
        assert_eq!(outcome, PacketOutcome::Dropped);
    }
}
