//! Cross-layer tests: NF → NF Manager → SDNFV Application → orchestrator,
//! plus the packet-in / flow-mod path through the SDN controller.

use sdnfv::control::{AppAction, NfvOrchestrator, SdnController, SdnfvApplication};
use sdnfv::dataplane::{NfManager, PacketOutcome};
use sdnfv::flowtable::{Action, FlowMatch, IpPrefix};
use sdnfv::graph::{catalog, CompileOptions};
use sdnfv::nf::nfs::ddos::DDOS_ALARM_KEY;
use sdnfv::nf::nfs::{DdosDetectorNf, NoOpNf, SamplerNf, ScrubberNf};
use sdnfv::nf::{NfMessage, NfRegistry};
use sdnfv::proto::packet::PacketBuilder;
use std::net::Ipv4Addr;

#[test]
fn table_miss_packet_in_flow_mod_roundtrip() {
    let (graph, svc) = catalog::anomaly_detection();
    let mut app = SdnfvApplication::new();
    app.register_graph(graph);
    let mut controller = SdnController::default();

    // A manager with no rules at all: the first packet misses.
    let mut manager = NfManager::default();
    manager.add_nf(svc.firewall, Box::new(NoOpNf::new()));
    manager.add_nf(svc.sampler, Box::new(NoOpNf::new()));
    let packet = PacketBuilder::udp()
        .src_port(1234)
        .dst_port(80)
        .ingress_port(0)
        .build();
    let key = packet.flow_key().unwrap();
    // The engine counts the punt and releases the packet; the controller
    // gets this test's own copy of it.
    let punted = packet.clone();
    assert_eq!(
        manager.process_packet(packet.clone(), 0),
        PacketOutcome::PuntedToController
    );

    // The controller asks the application for per-flow rules and replies
    // after its (serial) processing delay.
    let reply = controller
        .packet_in(0, 0, punted.ingress_port, &key, |host, port, key| {
            app.reactive_rules_for_flow(host, port, key)
        })
        .expect("controller accepts the request");
    assert_eq!(reply.ready_at_ns, controller.service_time_ns());
    assert!(!reply.rules.is_empty());
    for rule in reply.rules {
        manager.install_rule(rule);
    }

    // Re-injecting the packet (and more of the same flow) now flows through.
    assert!(matches!(
        manager.process_packet(packet.clone(), reply.ready_at_ns),
        PacketOutcome::Transmitted { .. }
    ));
    // A different flow still misses, because the installed rules were
    // flow-specific.
    let other = PacketBuilder::udp()
        .src_port(9999)
        .dst_port(80)
        .ingress_port(0)
        .build();
    assert!(matches!(
        manager.process_packet(other, reply.ready_at_ns + 1),
        PacketOutcome::PuntedToController
    ));
}

#[test]
fn ddos_alarm_launches_scrubber_and_requestme_reroutes_traffic() {
    let (graph, svc) = catalog::anomaly_detection();
    let mut manager = NfManager::default();
    manager.install_graph(&graph, &CompileOptions::default());
    manager.add_nf(svc.firewall, Box::new(NoOpNf::new()));
    manager.add_nf(svc.sampler, Box::new(SamplerNf::per_packet(svc.ddos, 1)));
    // Low threshold so a handful of packets triggers the alarm.
    manager.add_nf(
        svc.ddos,
        Box::new(DdosDetectorNf::new(1_000_000_000, 10_000, 16)),
    );
    manager.add_nf(svc.ids, Box::new(NoOpNf::new()));

    let mut app = SdnfvApplication::new();
    app.register_graph(graph);
    app.register_launch_trigger(DDOS_ALARM_KEY, "scrubber");
    let mut registry = NfRegistry::new();
    registry.register("scrubber", || {
        ScrubberNf::for_prefix(IpPrefix::new(Ipv4Addr::new(66, 0, 0, 0), 16))
    });
    let mut orchestrator = NfvOrchestrator::new(registry, 1_000_000);

    // Attack traffic until the detector raises its alarm.
    for i in 0..200u64 {
        let pkt = PacketBuilder::udp()
            .src_ip([66, 0, 0, 9])
            .src_port(2000 + (i % 50) as u16)
            .dst_port(53)
            .total_size(512)
            .ingress_port(0)
            .build();
        manager.process_packet(pkt, i * 1000);
    }
    let mut launched = None;
    for message in manager.take_messages() {
        for action in app.handle_manager_message(0, message.from, &message.message) {
            if let AppAction::LaunchNf { service_name, .. } = action {
                launched = orchestrator.launch(0, &service_name, 0);
            }
        }
    }
    let ticket = launched.expect("the DDoS alarm must launch a scrubber");
    assert_eq!(ticket.ready_at_ns, 1_000_000);

    // "Boot" completes: attach the scrubber; its RequestMe steals the
    // IDS's default edge so traffic now reaches it and gets dropped.
    manager.add_nf(svc.scrubber, ticket.nf);
    let before_drops = manager.stats().snapshot().dropped;
    for i in 0..50u64 {
        let pkt = PacketBuilder::udp()
            .src_ip([66, 0, 0, 9])
            .src_port(2000 + (i % 50) as u16)
            .dst_port(53)
            .total_size(512)
            .ingress_port(0)
            .build();
        manager.process_packet(pkt, 2_000_000 + i);
    }
    let after = manager.stats().snapshot();
    assert!(
        after.dropped > before_drops + 40,
        "attack traffic should be scrubbed once the scrubber is active"
    );
    assert!(manager.service_invocations(svc.scrubber) >= 40);
}

#[test]
fn application_rejects_off_graph_change_default() {
    let (graph, svc) = catalog::anomaly_detection();
    let mut app = SdnfvApplication::new();
    app.register_graph(graph);
    let actions = app.handle_manager_message(
        0,
        svc.firewall,
        &NfMessage::ChangeDefault {
            flows: FlowMatch::any(),
            service: svc.firewall,
            new_default: Action::ToService(svc.scrubber),
        },
    );
    assert_eq!(actions, vec![AppAction::Reject]);
}

#[test]
fn placement_plan_feeds_orchestrator() {
    use sdnfv::placement::{OptimalSolver, PlacementProblem};
    let (graph, _) = catalog::anomaly_detection();
    let mut app = SdnfvApplication::new();
    app.register_graph(graph);
    let problem = PlacementProblem::paper_figure5(10, 1.0, 5);
    let (placement, per_host) = app.plan_placement(&OptimalSolver::default(), &problem);
    assert!(
        placement.placed_flows() >= 8,
        "most of the 10 offered flows should be placed, got {}",
        placement.placed_flows()
    );
    // Every planned instance can actually be launched by an orchestrator
    // whose registry knows the J-services.
    let mut registry = NfRegistry::new();
    for service in &problem.services {
        registry.register(service.name.clone(), NoOpNf::new);
    }
    let mut orchestrator = NfvOrchestrator::new(registry, 0);
    let mut total = 0;
    for (host, instances) in per_host {
        for (service_id, count) in instances {
            let spec = problem
                .services
                .iter()
                .find(|s| s.id == service_id)
                .unwrap();
            for _ in 0..count {
                assert!(orchestrator.launch(host, &spec.name, 0).is_some());
                total += 1;
            }
        }
    }
    assert!(total > 0);
    assert_eq!(orchestrator.launched(), total);
}
