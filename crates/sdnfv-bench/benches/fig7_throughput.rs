//! Figure 7: throughput vs packet size. Criterion reports per-packet
//! processing throughput of the NF Manager (the shipping engine, one shard
//! stepped on the calling thread) per packet size — through the
//! scalar entry point and through the batch-first `process_burst` path
//! (burst of 32) — so both dispatch modes are visible per packet size. The
//! Gbps curves on the threaded runtime come from `figures -- fig7`.
//!
//! The `fig7_threaded_shards` group adds the shard-count axis on the
//! threaded runtime: the same 2-NF chain, 256-byte packets, pumped through
//! the sharded `ThreadedHost` at `num_shards` ∈ {1, 2, 4} with backpressure
//! (shard scaling needs cores; on a single-CPU box the numbers record
//! scheduling overhead, not speedup).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sdnfv_bench::{build_sharded_host, pump_packets, Composition, Workload};
use sdnfv_dataplane::{NfManager, ThreadedHostConfig};
use sdnfv_graph::{catalog, CompileOptions};
use sdnfv_nf::nfs::NoOpNf;
use sdnfv_proto::packet::{Packet, PacketBuilder};
use std::hint::black_box;

const BURST: usize = 32;

fn manager_2vm() -> NfManager {
    let (graph, ids) = catalog::chain(&[("a", true), ("b", true)]);
    let mut manager = NfManager::default();
    manager.install_graph(&graph, &CompileOptions::default());
    for id in ids {
        manager.add_nf(id, Box::new(NoOpNf::new()));
    }
    manager
}

fn bench_fig7(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_throughput");
    for packet_size in [64usize, 256, 512, 1024] {
        let pkt = PacketBuilder::udp()
            .total_size(packet_size)
            .ingress_port(0)
            .build();

        let mut manager = manager_2vm();
        group.throughput(Throughput::Bytes(packet_size as u64));
        group.bench_with_input(BenchmarkId::new("2vm_chain", packet_size), &(), |b, _| {
            let mut now = 0u64;
            b.iter(|| {
                now += 1;
                black_box(manager.process_packet(pkt.clone(), now))
            })
        });

        let mut manager = manager_2vm();
        let burst: Vec<Packet> = (0..BURST).map(|_| pkt.clone()).collect();
        group.throughput(Throughput::Bytes((packet_size * BURST) as u64));
        group.bench_with_input(
            BenchmarkId::new("2vm_chain_burst32", packet_size),
            &(),
            |b, _| {
                let mut now = 0u64;
                b.iter(|| {
                    now += 1;
                    black_box(manager.process_burst(burst.clone(), now))
                })
            },
        );
    }
    group.finish();
}

fn bench_fig7_threaded_shards(c: &mut Criterion) {
    const QUANTUM: usize = 4096;
    const PACKET_SIZE: usize = 256;
    let mut group = c.benchmark_group("fig7_threaded_shards");
    for num_shards in [1usize, 2, 4] {
        let host = build_sharded_host(
            2,
            Composition::Sequential,
            Workload::NoOp,
            ThreadedHostConfig {
                num_shards,
                ..ThreadedHostConfig::default()
            },
        );
        group.throughput(Throughput::Bytes((QUANTUM * PACKET_SIZE) as u64));
        group.bench_with_input(
            BenchmarkId::new("2vm_chain_256B", num_shards),
            &(),
            |b, _| b.iter(|| black_box(pump_packets(&host, QUANTUM, 64, PACKET_SIZE))),
        );
        host.shutdown();
    }
    group.finish();
}

criterion_group!(benches, bench_fig7, bench_fig7_threaded_shards);
criterion_main!(benches);
