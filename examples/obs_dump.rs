//! End-to-end observability dump: drive a sharded host through a DDoS-style
//! traffic swing while an [`ObsHub`] watches, then print everything the
//! observability layer produces — Prometheus exposition, the JSON report,
//! latency percentiles, sampled flow traces, and the control-plane flight
//! recorder replay.
//!
//! Run with: `cargo run --example obs_dump`

use sdnfv::dataplane::{ThreadedHost, ThreadedHostConfig};
use sdnfv::flowtable::{ServiceId, SharedFlowTable};
use sdnfv::graph::{catalog, CompileOptions};
use sdnfv::nf::nfs::ComputeNf;
use sdnfv::nf::NetworkFunction;
use sdnfv::obs::{json_report, prometheus_text, ObsHub};
use sdnfv::proto::packet::PacketBuilder;
use sdnfv::telemetry::{ControlAction, TraceStage};

/// Per-shard NF replica set: one light compute stage.
fn nf_set(ids: &[ServiceId]) -> Vec<(ServiceId, Box<dyn NetworkFunction>)> {
    ids.iter()
        .map(|id| (*id, Box::new(ComputeNf::new(4)) as Box<dyn NetworkFunction>))
        .collect()
}

fn main() {
    let (chain, ids) = catalog::chain(&[("scrubber", true)]);
    let table = SharedFlowTable::new();
    for rule in chain.compile(&CompileOptions::default()) {
        table.insert(rule);
    }
    let ids = ids.clone();
    let host = ThreadedHost::start_sharded(
        table,
        |_shard| nf_set(&ids),
        ThreadedHostConfig {
            num_shards: 2,
            burst_size: 32,
            trace_ring_capacity: 8192,
            ..ThreadedHostConfig::default()
        },
    );
    let mut obs = ObsHub::new();

    // The controller turns on flow tracing: 1 of every 4 flows (by stable
    // flow hash) emits per-stage spans.
    let sampling = ControlAction::SetTraceSampling { every: 4 };
    obs.record_actions(host.now_ns(), std::slice::from_ref(&sampling));
    host.set_trace_sampling(4);

    let mut injected = 0u64;
    let mut received = 0u64;
    let push = |host: &ThreadedHost,
                obs: &mut ObsHub,
                injected: &mut u64,
                received: &mut u64,
                flows: u16,
                packets: u32| {
        let mut pending = Vec::new();
        let mut sequence = 0u32;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let mut sent = 0u32;
        while sent < packets && std::time::Instant::now() < deadline {
            while pending.len() < 32 && sent + (pending.len() as u32) < packets {
                pending.push(
                    PacketBuilder::udp()
                        .src_ip([10, 0, (sequence % 7) as u8, 1])
                        .dst_ip([10, 0, 1, 1])
                        .src_port(1024 + (sequence % u32::from(flows)) as u16)
                        .dst_port(80)
                        .ingress_port(0)
                        .total_size(256)
                        .build(),
                );
                sequence += 1;
            }
            let outcome = host.inject_burst(pending);
            sent += outcome.admitted as u32;
            *injected += outcome.admitted as u64;
            pending = outcome.throttled;
            *received += host.poll_egress_burst(64).len() as u64;
            obs.observe(host);
            if !pending.is_empty() {
                std::thread::yield_now();
            }
        }
    };

    // Phase 1 — baseline: 64 steady flows.
    push(&host, &mut obs, &mut injected, &mut received, 64, 2_000);

    // Phase 2 — attack wave: 512 distinct flows slam the host; the
    // controller reacts by spawning a third shard, which re-homes a fair
    // share of steering buckets through the drain handshake.
    obs.record_actions(host.now_ns(), &[ControlAction::SpawnShard]);
    assert!(host.spawn_shard(nf_set(&ids)).is_ok(), "spawn third shard");
    push(&host, &mut obs, &mut injected, &mut received, 512, 4_000);

    // Phase 3 — the wave passes: retire the extra shard and drain.
    let retire = ControlAction::RetireShard {
        shard: host.num_shards() - 1,
    };
    obs.record_actions(host.now_ns(), std::slice::from_ref(&retire));
    assert!(host.retire_shard(), "retire the attack-era shard");
    push(&host, &mut obs, &mut injected, &mut received, 64, 2_000);

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while received < injected && std::time::Instant::now() < deadline {
        received += host.poll_egress_burst(64).len() as u64;
        obs.observe(&host);
        std::thread::yield_now();
    }
    obs.observe(&host);

    println!("=== traffic ===");
    println!("injected {injected}, egressed {received}\n");
    // The histograms outlive the retired shard: every egressed packet,
    // whichever shard carried it, has its end-to-end sample.
    assert_eq!(
        obs.latency().end_to_end.count(),
        received,
        "one end-to-end latency sample per egressed packet"
    );

    println!("=== latency percentiles (ns) ===");
    for (stage, hist) in obs.latency().stages() {
        println!(
            "{stage:>12}: count={:<7} p50={:<8} p99={:<8} p999={}",
            hist.count(),
            hist.p50(),
            hist.p99(),
            hist.p999()
        );
    }

    println!("\n=== sampled flow traces ===");
    for stage in [
        TraceStage::Rx,
        TraceStage::Nf,
        TraceStage::Tx,
        TraceStage::Egress,
    ] {
        println!("{:?} spans: {}", stage, obs.spans_for_stage(stage));
    }
    println!(
        "collected {} spans total ({} shed at the hub, {} dropped at the rings)",
        obs.spans_collected(),
        obs.spans_shed(),
        obs.telemetry().total_spans_dropped()
    );

    println!("\n=== control-plane flight recorder ===");
    for line in obs.recorder().replay() {
        println!("{line}");
    }

    println!("\n=== prometheus exposition ===");
    print!("{}", prometheus_text(&obs));

    println!("\n=== json report ===");
    println!("{}", json_report(&obs));

    host.shutdown();
}
