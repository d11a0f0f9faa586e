//! End-to-end tests of the data plane: service graphs compiled into flow
//! tables, NFs attached, packets pushed through the NF Manager and the
//! threaded host.

use sdnfv::dataplane::{NfManager, PacketOutcome, SimActorKind, ThreadedHost, ThreadedHostConfig};
use sdnfv::flowtable::{Action, FlowMatch, FlowRule, RulePort, ServiceId, SharedFlowTable};
use sdnfv::graph::{catalog, CompileOptions};
use sdnfv::nf::nfs::{ComputeNf, FirewallNf, IdsNf, NoOpNf, SamplerNf, ScrubberNf};
use sdnfv::nf::{NetworkFunction, NfContext, NfMessage, Verdict};
use sdnfv::proto::packet::{Packet, PacketBuilder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn web_packet(src_port: u16, body: &str) -> Packet {
    PacketBuilder::tcp()
        .src_ip([10, 0, 0, 50])
        .dst_ip([93, 184, 216, 34])
        .src_port(src_port)
        .dst_port(80)
        .payload(format!("GET /{body} HTTP/1.1\r\n\r\n").as_bytes())
        .ingress_port(0)
        .build()
}

#[test]
fn anomaly_detection_chain_scrubs_malicious_flows() {
    let (graph, svc) = catalog::anomaly_detection();
    let mut manager = NfManager::default();
    manager.install_graph(&graph, &CompileOptions::default());
    manager.add_nf(svc.firewall, Box::new(FirewallNf::allow_by_default()));
    // Sample everything so the IDS sees every packet.
    manager.add_nf(svc.sampler, Box::new(SamplerNf::per_packet(svc.ddos, 1)));
    manager.add_nf(svc.ddos, Box::new(NoOpNf::new()));
    manager.add_nf(svc.ids, Box::new(IdsNf::new(svc.ids, svc.scrubber)));
    manager.add_nf(
        svc.scrubber,
        Box::new(ScrubberNf::new().with_signature(b"UNION SELECT".to_vec())),
    );

    // A clean flow goes out; an attack flow is pinned to the scrubber and
    // its malicious packets are dropped there.
    assert!(matches!(
        manager.process_packet(web_packet(1000, "index.html"), 0),
        PacketOutcome::Transmitted { .. }
    ));
    assert!(matches!(
        manager.process_packet(web_packet(2000, "q?id=1 UNION SELECT secret"), 1),
        PacketOutcome::Dropped
    ));
    // The IDS emitted a ChangeDefault pinning the flow; later clean-looking
    // packets of the same flow still go through the scrubber (and pass).
    let outcome = manager.process_packet(web_packet(2000, "innocuous"), 2);
    assert!(matches!(outcome, PacketOutcome::Transmitted { .. }));
    assert!(manager.service_invocations(svc.scrubber) >= 2);
    let messages = manager.take_messages();
    assert!(messages.iter().any(|m| m.from == svc.ids));
}

#[test]
fn parallel_and_sequential_chains_agree_on_results() {
    for parallel in [false, true] {
        let (graph, ids) = catalog::chain(&[("a", true), ("b", true), ("c", true)]);
        let mut manager = NfManager::default();
        manager.install_graph(
            &graph,
            &CompileOptions {
                enable_parallel: parallel,
                ..CompileOptions::default()
            },
        );
        for id in &ids {
            manager.add_nf(*id, Box::new(ComputeNf::new(4)));
        }
        let mut transmitted = 0;
        for i in 0..200 {
            let pkt = PacketBuilder::udp()
                .src_port(1000 + i)
                .ingress_port(0)
                .total_size(512)
                .build();
            if let PacketOutcome::Transmitted { port, .. } =
                manager.process_packet(pkt, u64::from(i))
            {
                assert_eq!(port, 1);
                transmitted += 1;
            }
        }
        assert_eq!(transmitted, 200);
        let stats = manager.stats().snapshot();
        assert_eq!(stats.nf_invocations, 600);
        assert_eq!(stats.parallel_dispatches, if parallel { 200 } else { 0 });
    }
}

#[test]
fn flow_hash_load_balancing_keeps_flows_sticky() {
    let (graph, ids) = catalog::chain(&[("worker", true)]);
    let mut manager = NfManager::default();
    manager.install_graph(&graph, &CompileOptions::default());
    manager.add_nf(ids[0], Box::new(NoOpNf::new()));
    manager.add_nf(ids[0], Box::new(NoOpNf::new()));
    manager.add_nf(ids[0], Box::new(NoOpNf::new()));
    // Many packets from a handful of flows: total invocations must add up
    // (replicas are picked by flow hash, so every flow consistently hits
    // one instance; `manager::tests::load_balances_across_instances` checks
    // which).
    let run = |manager: &mut NfManager| {
        for flow in 0..6u16 {
            for i in 0..50u64 {
                let pkt = PacketBuilder::udp()
                    .src_port(4000 + flow)
                    .ingress_port(0)
                    .build();
                manager.process_packet(pkt, i);
            }
        }
        manager.service_invocations(ids[0])
    };
    assert_eq!(run(&mut manager), 300);
}

/// An NF that emits one cross-layer message from *inside* a batch (via the
/// per-packet adapter) the first time it sees the trigger src port.
struct Announcer {
    trigger_port: u16,
    message: Option<NfMessage>,
}

impl NetworkFunction for Announcer {
    fn name(&self) -> &str {
        "announcer"
    }

    fn process(&mut self, packet: &Packet, ctx: &mut NfContext) -> Verdict {
        let is_trigger = packet
            .flow_key()
            .map(|k| k.src_port == self.trigger_port)
            .unwrap_or(false);
        if is_trigger {
            if let Some(message) = self.message.take() {
                ctx.send(message);
            }
        }
        Verdict::Default
    }
}

#[test]
fn skip_me_sent_mid_batch_applies_before_next_bursts_lookups() {
    // Chain a -> b -> port 1. Service a announces SkipMe from inside the
    // first burst; the second burst's ingress lookups must already bypass a.
    let (graph, ids) = catalog::chain(&[("a", true), ("b", true)]);
    let mut manager = NfManager::default();
    manager.install_graph(&graph, &CompileOptions::default());
    manager.add_nf(
        ids[0],
        Box::new(Announcer {
            trigger_port: 1002,
            message: Some(NfMessage::SkipMe {
                flows: FlowMatch::any(),
            }),
        }),
    );
    manager.add_nf(ids[1], Box::new(NoOpNf::new()));

    let burst = |base: u16| -> Vec<Packet> {
        (0..6)
            .map(|i| {
                PacketBuilder::udp()
                    .src_port(base + i)
                    .ingress_port(0)
                    .build()
            })
            .collect()
    };

    // First burst: every packet still traverses a (the trigger fires on the
    // third packet of the batch, but the burst's ingress lookups happened
    // before the batch ran).
    let outputs = manager.process_burst(burst(1000), 0);
    assert_eq!(outputs.len(), 6);
    assert!(outputs.iter().all(|out| out.port == 1));
    assert_eq!(manager.service_invocations(ids[0]), 6);
    assert_eq!(manager.service_invocations(ids[1]), 6);

    // Second burst: the SkipMe is visible to the ingress lookups, so a is
    // bypassed entirely and traffic flows straight to b.
    let outputs = manager.process_burst(burst(2000), 1);
    assert_eq!(outputs.len(), 6);
    assert!(outputs.iter().all(|out| out.port == 1));
    assert_eq!(manager.service_invocations(ids[0]), 6, "a must be skipped");
    assert_eq!(manager.service_invocations(ids[1]), 12);

    // The message was also queued for the control plane, attributed to a.
    let messages = manager.take_messages();
    assert!(messages
        .iter()
        .any(|m| m.from == ids[0] && matches!(m.message, NfMessage::SkipMe { .. })));
}

#[test]
fn change_default_sent_mid_batch_pins_the_flow_for_later_bursts() {
    // Anomaly-detection graph: the sampler pins one "suspicious" flow to the
    // DDoS detector with a per-flow ChangeDefault sent from inside a batch.
    let (graph, svc) = catalog::anomaly_detection();
    let mut manager = NfManager::default();
    manager.install_graph(&graph, &CompileOptions::default());

    let attack = || {
        PacketBuilder::udp()
            .src_ip([10, 0, 0, 66])
            .dst_ip([10, 0, 0, 2])
            .src_port(4444)
            .dst_port(80)
            .ingress_port(0)
            .build()
    };
    let clean = |port: u16| {
        PacketBuilder::udp()
            .src_ip([10, 0, 0, 1])
            .dst_ip([10, 0, 0, 2])
            .src_port(port)
            .dst_port(80)
            .ingress_port(0)
            .build()
    };
    let attack_key = attack().flow_key().expect("ipv4 packet");
    let pin = NfMessage::ChangeDefault {
        flows: FlowMatch::exact(svc.sampler, &attack_key),
        service: svc.sampler,
        new_default: sdnfv::flowtable::Action::ToService(svc.ddos),
    };

    manager.add_nf(svc.firewall, Box::new(NoOpNf::new()));
    manager.add_nf(
        svc.sampler,
        Box::new(Announcer {
            trigger_port: 4444,
            message: Some(pin),
        }),
    );
    manager.add_nf(svc.ddos, Box::new(NoOpNf::new()));
    manager.add_nf(svc.ids, Box::new(NoOpNf::new()));
    manager.add_nf(svc.scrubber, Box::new(NoOpNf::new()));

    // Burst 1: clean, attack, clean. The pin is emitted inside the sampler's
    // batch; the attack packet's own next lookup already honours it.
    let outputs = manager.process_burst(vec![clean(100), attack(), clean(101)], 0);
    assert_eq!(outputs.len(), 3);
    let after_first = manager.service_invocations(svc.ddos);
    assert_eq!(after_first, 1, "only the attack flow visits the detector");

    // Burst 2: the pinned flow keeps going through the detector, clean flows
    // keep bypassing it — the rule survived the burst boundary (including
    // the lookup cache, whose generation the mid-batch message bumped).
    let outputs = manager.process_burst(vec![attack(), clean(102), attack()], 1);
    assert_eq!(outputs.len(), 3);
    assert_eq!(manager.service_invocations(svc.ddos), after_first + 2);
}

#[test]
fn threaded_host_handles_mixed_chain_with_rewriting_nf() {
    // a (read-only) -> b (mutating): exercises both the read and write paths
    // of the threaded runtime.
    struct Rewriter;
    impl NetworkFunction for Rewriter {
        fn name(&self) -> &str {
            "rewriter"
        }
        fn read_only(&self) -> bool {
            false
        }
        fn process(&mut self, _p: &Packet, _c: &mut sdnfv::nf::NfContext) -> sdnfv::nf::Verdict {
            sdnfv::nf::Verdict::Default
        }
        fn process_mut(
            &mut self,
            packet: &mut Packet,
            _ctx: &mut sdnfv::nf::NfContext,
        ) -> sdnfv::nf::Verdict {
            packet
                .set_dst_ip(std::net::Ipv4Addr::new(1, 2, 3, 4))
                .expect("ipv4 packet");
            sdnfv::nf::Verdict::Default
        }
    }

    let (graph, ids) = catalog::chain(&[("inspect", true), ("rewrite", false)]);
    let table = SharedFlowTable::new();
    for rule in graph.compile(&CompileOptions::default()) {
        table.insert(rule);
    }
    let nfs: Vec<(ServiceId, Box<dyn NetworkFunction>)> = vec![
        (ids[0], Box::new(NoOpNf::new())),
        (ids[1], Box::new(Rewriter)),
    ];
    let host = ThreadedHost::start(table, nfs, ThreadedHostConfig::default());
    for i in 0..100u16 {
        assert!(host
            .inject(
                PacketBuilder::udp()
                    .src_port(7000 + i)
                    .ingress_port(0)
                    .build()
            )
            .is_admitted());
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut outputs = Vec::new();
    while outputs.len() < 100 && Instant::now() < deadline {
        if let Some(out) = host.poll_egress() {
            outputs.push(out);
        }
    }
    assert_eq!(outputs.len(), 100);
    for out in &outputs {
        assert_eq!(out.port, 1);
        assert_eq!(
            out.packet.ipv4().unwrap().dst,
            std::net::Ipv4Addr::new(1, 2, 3, 4)
        );
    }
    host.shutdown();
}

/// Parallel NFs that ask for different ports: the earliest NF in the action
/// list wins (`resolve_parallel_verdicts`), whichever replica finishes
/// first. Stepped, so "B finishes before A" is forced, not hoped for.
#[test]
fn parallel_port_conflict_is_won_by_list_position_not_completion_order() {
    struct SteerTo(u16);
    impl NetworkFunction for SteerTo {
        fn name(&self) -> &str {
            "steer-to"
        }
        fn process(&mut self, _packet: &Packet, _ctx: &mut NfContext) -> Verdict {
            Verdict::ToPort(self.0)
        }
    }
    let (a, b) = (ServiceId::new(1), ServiceId::new(2));
    let table = SharedFlowTable::new();
    table.insert(FlowRule::parallel(
        FlowMatch::at_step(RulePort::Nic(0)),
        vec![Action::ToService(a), Action::ToService(b)],
    ));
    // The exit step (the last listed service) allows both requested ports.
    table.insert(FlowRule::new(
        FlowMatch::at_step(RulePort::Service(b)),
        vec![Action::Drop, Action::ToPort(1), Action::ToPort(2)],
    ));
    let (host, sim) = ThreadedHost::start_sim_sharded(
        table,
        |_shard| {
            vec![
                (a, Box::new(SteerTo(1)) as Box<dyn NetworkFunction>),
                (b, Box::new(SteerTo(2)) as Box<dyn NetworkFunction>),
            ]
        },
        ThreadedHostConfig::default(),
    );
    assert!(host.inject(web_packet(1000, "x")).is_admitted());
    let worker = sim.actors()[0].id;
    assert!(sim.step(worker), "RX dispatch fans the packet out");
    // Replicas register in `nfs_for_shard` order: A, then B.
    let nfs: Vec<u64> = sim
        .actors()
        .into_iter()
        .filter(|actor| actor.kind == SimActorKind::Nf)
        .map(|actor| actor.id)
        .collect();
    assert_eq!(nfs.len(), 2);
    assert!(sim.step(nfs[1]), "B completes first");
    assert!(
        sim.step(nfs[0]),
        "A completes last and hands the packet back"
    );
    assert!(sim.step(worker), "TX resolves the conflict");
    let out = host.poll_egress_burst(8);
    assert_eq!(out.len(), 1);
    assert_eq!(
        out[0].port, 1,
        "A is first in the action list, so A's port wins"
    );
    host.shutdown();
}

/// Counts the packets it is handed: per-service visit counts.
struct CountingNf {
    visits: Arc<AtomicU64>,
    read_only: bool,
}

impl NetworkFunction for CountingNf {
    fn name(&self) -> &str {
        "counting"
    }

    fn read_only(&self) -> bool {
        self.read_only
    }

    fn process(&mut self, _packet: &Packet, _ctx: &mut NfContext) -> Verdict {
        self.visits.fetch_add(1, Ordering::Relaxed);
        Verdict::Default
    }
}

fn counting_nfs(
    services: &[(ServiceId, bool)],
    counters: &[Arc<AtomicU64>],
) -> Vec<(ServiceId, Box<dyn NetworkFunction>)> {
    services
        .iter()
        .zip(counters)
        .map(|(&(id, read_only), visits)| {
            let nf = CountingNf {
                visits: Arc::clone(visits),
                read_only,
            };
            (id, Box::new(nf) as Box<dyn NetworkFunction>)
        })
        .collect()
}

/// A sequential rule goes to its default service only; the other services
/// it lists are steering targets. On the paper's video-optimizer graph the
/// policy engine's rule lists the quality detector (its default) and the
/// cache, so a packet that every NF lets follow the defaults visits all
/// seven services once — the transcoder included — whether the NF Manager
/// drives the engine or a test steps it by hand.
#[test]
fn video_optimizer_visits_every_service_the_same_in_both_engines() {
    let (graph, svc) = catalog::video_optimizer();
    let services = [
        (svc.firewall, true),
        (svc.video_detector, true),
        (svc.policy_engine, true),
        (svc.quality_detector, true),
        (svc.transcoder, false),
        (svc.cache, false),
        (svc.shaper, false),
    ];
    let counters = || services.map(|_| Arc::new(AtomicU64::new(0)));
    let visits = |counters: &[Arc<AtomicU64>]| -> Vec<u64> {
        counters
            .iter()
            .map(|visits| visits.load(Ordering::Relaxed))
            .collect()
    };
    let packets = || -> Vec<Packet> { (0..8).map(|i| web_packet(3000 + i, "clip.mp4")).collect() };

    let managed = counters();
    let mut manager = NfManager::default();
    manager.install_graph(&graph, &CompileOptions::default());
    for (id, nf) in counting_nfs(&services, &managed) {
        manager.add_nf(id, nf);
    }
    assert_eq!(manager.process_burst(packets(), 0).len(), 8);
    assert_eq!(visits(&managed), [8; 7]);

    let threaded = counters();
    let table = SharedFlowTable::new();
    for rule in graph.compile(&CompileOptions::default()) {
        table.insert(rule);
    }
    let for_host = threaded.clone();
    let (host, sim) = ThreadedHost::start_sim_sharded(
        table,
        move |_shard| counting_nfs(&services, &for_host),
        ThreadedHostConfig::default(),
    );
    assert!(host.inject_burst(packets()).throttled.is_empty());
    while sim.step_all() > 0 {}
    assert_eq!(host.poll_egress_burst(16).len(), 8);
    assert_eq!(visits(&threaded), [8; 7]);
    assert_eq!(host.stats().snapshot().parallel_dispatches, 0);
    host.shutdown();
}
