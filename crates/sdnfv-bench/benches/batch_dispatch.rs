//! Per-packet vs batch-first dispatch through the NF Manager (the shipping
//! engine, one shard stepped on the calling thread), plus the
//! shard-scaling axis of the threaded runtime.
//!
//! The batch-first redesign claims that moving packets in bursts amortizes
//! per-packet costs (flow-table lookups, virtual NF dispatch, bookkeeping)
//! — this bench measures it instead of asserting it. The same fig7-style
//! traffic (a 2-NF no-op chain, 256-byte packets, 8 active flows) runs
//! through `process_packet` in a loop (scalar baseline) and through
//! `process_burst` at burst sizes {1, 8, 32, 128}; throughput is reported
//! per packet so the numbers are directly comparable.
//!
//! The `batch_dispatch_shards` group runs the same 2-NF chain through the
//! sharded `ThreadedHost` at `num_shards` ∈ {1, 2, 4}: a closed loop pumps
//! packets over 64 flows with backpressure, so the measurement is whole
//! pipeline shards (steering, credit gate, per-shard worker + NF threads),
//! not one stepped shard. Shard scaling needs cores — on a single-CPU
//! box the numbers record scheduling overhead, not speedup.
//!
//! Environment knobs (for CI trend recording):
//! * `SDNFV_BENCH_QUICK=1` — shrink the per-configuration workload;
//! * `SDNFV_BENCH_JSON=<path>` — after the criterion run, time shard counts
//!   1 and 4 with a fixed workload and write `{"results": [...]}` to the
//!   path (the `BENCH_shards.json` CI artifact).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sdnfv_bench::{build_sharded_host, pump_packets, Composition, Workload};
use sdnfv_dataplane::{NfManager, ThreadedHostConfig};
use sdnfv_graph::{catalog, CompileOptions};
use sdnfv_nf::nfs::NoOpNf;
use sdnfv_proto::packet::{Packet, PacketBuilder};
use std::hint::black_box;
use std::time::Instant;

fn chain_manager() -> NfManager {
    let (graph, ids) = catalog::chain(&[("a", true), ("b", true)]);
    let mut manager = NfManager::default();
    manager.install_graph(&graph, &CompileOptions::default());
    for id in ids {
        manager.add_nf(id, Box::new(NoOpNf::new()));
    }
    manager
}

/// fig7-style traffic: 256-byte UDP packets spread over 8 flows.
fn traffic(burst: usize) -> Vec<Packet> {
    (0..burst)
        .map(|i| {
            PacketBuilder::udp()
                .src_ip([10, 0, 0, 1])
                .dst_ip([10, 0, 0, 2])
                .src_port(5000 + (i % 8) as u16)
                .dst_port(80)
                .ingress_port(0)
                .total_size(256)
                .build()
        })
        .collect()
}

fn bench_batch_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_dispatch");
    for burst in [1usize, 8, 32, 128] {
        group.throughput(Throughput::Elements(burst as u64));

        let packets = traffic(burst);
        let mut manager = chain_manager();
        group.bench_with_input(BenchmarkId::new("scalar_loop", burst), &(), |b, _| {
            let mut now = 0u64;
            b.iter(|| {
                now += 1;
                for pkt in packets.clone() {
                    black_box(manager.process_packet(pkt, now));
                }
            })
        });

        let packets = traffic(burst);
        let mut manager = chain_manager();
        group.bench_with_input(BenchmarkId::new("process_burst", burst), &(), |b, _| {
            let mut now = 0u64;
            b.iter(|| {
                now += 1;
                black_box(manager.process_burst(packets.clone(), now))
            })
        });
    }
    group.finish();
}

fn quick_mode() -> bool {
    std::env::var("SDNFV_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Packets pumped per measured quantum through the sharded host. The
/// quantum must be large enough to amortize pipeline fill/drain, or the
/// shard-scaling signal disappears into startup overhead.
fn shard_quantum() -> usize {
    if quick_mode() {
        4096
    } else {
        8192
    }
}

const SHARD_FLOWS: u16 = 64;
const SHARD_PACKET_SIZE: usize = 256;

fn shard_host(num_shards: usize) -> sdnfv_dataplane::ThreadedHost {
    build_sharded_host(
        2,
        Composition::Sequential,
        Workload::NoOp,
        ThreadedHostConfig {
            num_shards,
            ..ThreadedHostConfig::default()
        },
    )
}

fn bench_shard_scaling(c: &mut Criterion) {
    let quantum = shard_quantum();
    let mut group = c.benchmark_group("batch_dispatch_shards");
    if quick_mode() {
        group.measurement_time(std::time::Duration::from_millis(300));
    }
    for num_shards in [1usize, 2, 4] {
        let host = shard_host(num_shards);
        group.throughput(Throughput::Elements(quantum as u64));
        group.bench_with_input(
            BenchmarkId::new("threaded_pump", num_shards),
            &(),
            |b, _| {
                b.iter(|| black_box(pump_packets(&host, quantum, SHARD_FLOWS, SHARD_PACKET_SIZE)))
            },
        );
        host.shutdown();
    }
    group.finish();
}

/// Timed shard-count comparison written as a JSON artifact so CI records
/// the scaling trajectory (`SDNFV_BENCH_JSON=<path>`).
fn emit_shard_json() {
    let Ok(path) = std::env::var("SDNFV_BENCH_JSON") else {
        return;
    };
    let quantum = shard_quantum();
    let rounds = if quick_mode() { 4 } else { 16 };
    let mut entries = Vec::new();
    for num_shards in [1usize, 4] {
        let host = shard_host(num_shards);
        // Warm-up round, then timed rounds.
        pump_packets(&host, quantum, SHARD_FLOWS, SHARD_PACKET_SIZE);
        let start = Instant::now();
        for _ in 0..rounds {
            pump_packets(&host, quantum, SHARD_FLOWS, SHARD_PACKET_SIZE);
        }
        let elapsed = start.elapsed().as_secs_f64();
        let pps = (quantum * rounds) as f64 / elapsed.max(f64::MIN_POSITIVE);
        let snap = host.stats().snapshot();
        entries.push(format!(
            "    {{\"num_shards\": {num_shards}, \"packets_per_sec\": {pps:.0}, \
             \"throttled\": {}, \"overflow_drops\": {}}}",
            snap.throttled, snap.overflow_drops
        ));
        host.shutdown();
    }
    let json = format!(
        "{{\n  \"bench\": \"batch_dispatch_shards\",\n  \"quantum\": {quantum},\n  \
         \"flows\": {SHARD_FLOWS},\n  \"results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote shard-scaling report to {path}"),
        Err(err) => eprintln!("failed to write {path}: {err}"),
    }
}

fn bench_shards_and_report(c: &mut Criterion) {
    bench_shard_scaling(c);
    emit_shard_json();
}

criterion_group!(benches, bench_batch_dispatch, bench_shards_and_report);
criterion_main!(benches);
