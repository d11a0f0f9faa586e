//! Quickstart: build a service graph, install it on an NF Manager, and push
//! traffic through it — the shipping engine stepped on the calling thread —
//! and through the multi-threaded runtime.
//!
//! Run with: `cargo run --example quickstart`

use sdnfv::dataplane::{NfManager, ThreadedHost, ThreadedHostConfig};
use sdnfv::flowtable::{ServiceId, SharedFlowTable};
use sdnfv::graph::{catalog, CompileOptions};
use sdnfv::nf::nfs::{ComputeNf, FirewallNf, NoOpNf, SamplerNf};
use sdnfv::nf::NetworkFunction;
use sdnfv::proto::packet::PacketBuilder;

fn main() {
    // ------------------------------------------------------------ NF Manager
    // 1. A service graph: the paper's anomaly-detection application.
    let (graph, services) = catalog::anomaly_detection();
    println!(
        "service graph `{}` with {} services",
        graph.name(),
        graph.len()
    );
    println!("default path: {:?}", graph.default_path());

    // 2. An NF Manager with the graph's rules and one NF per service.
    let mut manager = NfManager::default();
    manager.install_graph(&graph, &CompileOptions::default());
    manager.add_nf(services.firewall, Box::new(FirewallNf::allow_by_default()));
    manager.add_nf(
        services.sampler,
        Box::new(SamplerNf::per_packet(services.ddos, 4)),
    );
    manager.add_nf(services.ddos, Box::new(NoOpNf::new()));
    manager.add_nf(services.ids, Box::new(NoOpNf::new()));
    manager.add_nf(services.scrubber, Box::new(NoOpNf::new()));

    // 3. Push traffic through in bursts (the batch-first fast path; use
    //    `process_packet` for one-off packets) and look at what happened.
    let mut transmitted = 0;
    for burst_index in 0..(1000 / 32u32) {
        let burst: Vec<_> = (0..32u32)
            .map(|i| {
                PacketBuilder::udp()
                    .src_ip([10, 0, 0, 1])
                    .dst_ip([10, 0, 1, 1])
                    .src_port(1024 + ((burst_index * 32 + i) % 64) as u16)
                    .dst_port(80)
                    .ingress_port(0)
                    .total_size(256)
                    .build()
            })
            .collect();
        transmitted += manager.process_burst(burst, u64::from(burst_index)).len();
    }
    let stats = manager.stats().snapshot();
    println!("\nNF Manager: {transmitted} packets transmitted");
    println!(
        "  NF invocations: {}, parallel dispatches: {}, drops: {}",
        stats.nf_invocations, stats.parallel_dispatches, stats.dropped
    );
    println!(
        "  every 4th packet visited the DDoS detector: {} invocations",
        manager.service_invocations(services.ddos)
    );

    // ------------------------------------------------------------- threaded
    // The same idea on the multi-threaded runtime: one thread per NF "VM",
    // zero-copy rings in between.
    let (chain, ids) = catalog::chain(&[("stage-a", true), ("stage-b", true)]);
    let table = SharedFlowTable::new();
    for rule in chain.compile(&CompileOptions {
        enable_parallel: true,
        ..CompileOptions::default()
    }) {
        table.insert(rule);
    }
    let nfs: Vec<(ServiceId, Box<dyn NetworkFunction>)> = ids
        .iter()
        .map(|id| (*id, Box::new(ComputeNf::new(8)) as Box<dyn NetworkFunction>))
        .collect();
    // Descriptors move between the worker and NF threads in bursts of
    // `burst_size` packets with one ring operation per burst. The credit
    // budget bounds how many packets the shard holds in flight — the
    // backpressure knob that used to be a hand-rolled in-flight counter.
    let host = ThreadedHost::start(
        table,
        nfs,
        ThreadedHostConfig {
            burst_size: 32,
            shard_credits: 256,
            ..ThreadedHostConfig::default()
        },
    );
    let mut injected = 0u32;
    let mut received = 0u32;
    let mut throttled = 0u32;
    let mut sequence = 0u32;
    let mut total_latency_ns = 0u64;
    let drain = |received: &mut u32, total_latency_ns: &mut u64| {
        for out in host.poll_egress_burst(64) {
            *total_latency_ns += host.now_ns().saturating_sub(out.packet.timestamp_ns);
            *received += 1;
        }
    };
    // No hand-tuned in-flight bound: the host runs under credit-based
    // backpressure, so a saturated pipeline hands packets back as
    // `Throttled` instead of silently dropping them — we just retry after
    // draining egress.
    let mut pending: Vec<_> = Vec::new();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while injected < 5_000 && std::time::Instant::now() < deadline {
        while pending.len() < 32 {
            pending.push(
                PacketBuilder::udp()
                    .src_port((sequence % 512) as u16 + 1024)
                    .ingress_port(0)
                    .total_size(512)
                    .build(),
            );
            sequence += 1;
        }
        let outcome = host.inject_burst(pending);
        injected += outcome.admitted as u32;
        throttled += outcome.throttled.len() as u32;
        pending = outcome.throttled;
        drain(&mut received, &mut total_latency_ns);
        if !pending.is_empty() {
            // Fully throttled: give the pipeline a beat before retrying.
            std::thread::yield_now();
        }
    }
    while received < injected && std::time::Instant::now() < deadline {
        drain(&mut received, &mut total_latency_ns);
    }
    println!("\nthreaded runtime: {received} packets through a 2-NF parallel chain");
    println!(
        "  average in-host latency: {:.1} µs",
        total_latency_ns as f64 / received as f64 / 1000.0
    );
    println!("  backpressure retries (throttled injections): {throttled}");
    println!("  host stats: {:?}", host.stats().snapshot());
    host.shutdown();
}
