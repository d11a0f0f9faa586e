//! The anomaly-detection use case (paper §2.2 and §5.2) end to end:
//! firewall → sampler → {DDoS detector ∥ IDS} → scrubber, including the
//! cross-layer messages that reroute suspicious flows and launch a scrubber
//! when a volumetric attack is detected.
//!
//! Run with: `cargo run --example anomaly_detection`

use sdnfv::control::{AppAction, NfvOrchestrator, SdnfvApplication};
use sdnfv::dataplane::{NfManager, PacketOutcome};
use sdnfv::flowtable::IpPrefix;
use sdnfv::graph::{catalog, CompileOptions};
use sdnfv::nf::nfs::ddos::DDOS_ALARM_KEY;
use sdnfv::nf::nfs::{DdosDetectorNf, FirewallNf, IdsNf, SamplerNf, ScrubberNf};
use sdnfv::nf::NfRegistry;
use sdnfv::proto::packet::PacketBuilder;
use sdnfv::sim::ddos::DdosExperiment;
use std::net::Ipv4Addr;

fn main() {
    let (graph, services) = catalog::anomaly_detection();

    // Data plane: every service of the graph, with parallel dispatch of the
    // two read-only analysis NFs (DDoS detector and IDS).
    let mut manager = NfManager::default();
    manager.install_graph(
        &graph,
        &CompileOptions {
            enable_parallel: true,
            ..CompileOptions::default()
        },
    );
    manager.add_nf(services.firewall, Box::new(FirewallNf::allow_by_default()));
    manager.add_nf(
        services.sampler,
        Box::new(SamplerNf::per_packet(services.ddos, 2)),
    );
    manager.add_nf(
        services.ddos,
        Box::new(DdosDetectorNf::new(1_000_000_000, 1_000_000, 16)),
    );
    manager.add_nf(
        services.ids,
        Box::new(IdsNf::new(services.ids, services.scrubber)),
    );
    manager.add_nf(
        services.scrubber,
        Box::new(ScrubberNf::new().with_signature(b"UNION SELECT".to_vec())),
    );

    // Control plane: a DDoS alarm triggers launching another scrubber.
    let mut app = SdnfvApplication::new();
    app.register_graph(graph);
    app.register_launch_trigger(DDOS_ALARM_KEY, "scrubber");
    let mut registry = NfRegistry::new();
    registry.register("scrubber", || {
        ScrubberNf::for_prefix(IpPrefix::new(Ipv4Addr::new(66, 0, 0, 0), 16))
    });
    let mut orchestrator = NfvOrchestrator::with_paper_boot_time(registry);

    // Clean web traffic plus one flow carrying a SQL-injection payload.
    let mut dropped = 0;
    let mut transmitted = 0;
    for i in 0..200u16 {
        let malicious = i == 50;
        let payload = if malicious {
            "GET /q?id=1 UNION SELECT password FROM users HTTP/1.1\r\n\r\n".to_string()
        } else {
            format!("GET /page/{i} HTTP/1.1\r\nHost: example.com\r\n\r\n")
        };
        let pkt = PacketBuilder::tcp()
            .src_ip([10, 0, 0, 7])
            .dst_ip([93, 184, 216, 34])
            .src_port(20_000 + i)
            .dst_port(80)
            .payload(payload.as_bytes())
            .ingress_port(0)
            .build();
        match manager.process_packet(pkt, u64::from(i) * 1_000_000) {
            PacketOutcome::Transmitted { .. } => transmitted += 1,
            PacketOutcome::Dropped => dropped += 1,
            PacketOutcome::PuntedToController => {}
        }
    }
    println!("web traffic: {transmitted} transmitted, {dropped} dropped");
    println!(
        "IDS alerts pinned suspicious flows to the scrubber: {} cross-layer messages",
        manager.stats().snapshot().nf_messages
    );

    // Drive the manager's messages through the SDNFV Application.
    for message in manager.take_messages() {
        for action in app.handle_manager_message(0, message.from, &message.message) {
            match action {
                AppAction::LaunchNf { service_name, .. } => {
                    let ticket = orchestrator
                        .launch(0, &service_name, 0)
                        .expect("registered");
                    println!(
                        "orchestrator: launching `{}`, ready after {:.2}s (VM boot)",
                        ticket.service_name,
                        ticket.ready_at_ns as f64 / 1e9
                    );
                }
                other => println!("application action: {other:?}"),
            }
        }
    }

    // Finally, run the full Figure 9 scenario (attack ramp, detection,
    // scrubber boot, mitigation) in simulated time and print the summary.
    println!("\nrunning the Figure 9 DDoS scenario (simulated 200 s)...");
    let result = DdosExperiment::default().run();
    println!(
        "  attack detected at t={:.1}s, scrubber active at t={:.1}s",
        result.detection_secs.unwrap_or(f64::NAN),
        result.scrubber_active_secs.unwrap_or(f64::NAN)
    );
    println!(
        "  outgoing traffic at t=150s: {:.2} Gbps (incoming {:.2} Gbps)",
        result.outgoing.value_near(150.0).unwrap_or(f64::NAN),
        result.incoming.value_near(150.0).unwrap_or(f64::NAN),
    );
}
