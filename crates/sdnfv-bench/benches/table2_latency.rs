//! Table 2: per-packet cost of no-op NF chains, sequential vs parallel.
//!
//! The wall-clock round-trip numbers of Table 2 are produced by
//! `figures -- table2` on the threaded runtime; this Criterion bench tracks
//! the per-packet processing cost of the same chains through the NF
//! Manager (the same engine, one shard stepped on the calling thread),
//! which is the regression-sensitive part of that latency.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sdnfv_dataplane::NfManager;
use sdnfv_graph::{catalog, CompileOptions};
use sdnfv_nf::nfs::NoOpNf;
use sdnfv_proto::packet::PacketBuilder;
use std::hint::black_box;

fn manager(nfs: usize, parallel: bool) -> NfManager {
    let names: Vec<String> = (0..nfs).map(|i| format!("nf{i}")).collect();
    let specs: Vec<(&str, bool)> = names.iter().map(|n| (n.as_str(), true)).collect();
    let (graph, ids) = catalog::chain(&specs);
    let mut manager = NfManager::default();
    manager.install_graph(
        &graph,
        &CompileOptions {
            enable_parallel: parallel,
            ..CompileOptions::default()
        },
    );
    for id in ids {
        manager.add_nf(id, Box::new(NoOpNf::new()));
    }
    manager
}

fn bench_table2(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2_noop_chains");
    for (label, nfs, parallel) in [
        ("1vm", 1usize, false),
        ("2vm_parallel", 2, true),
        ("3vm_parallel", 3, true),
        ("2vm_sequential", 2, false),
        ("3vm_sequential", 3, false),
    ] {
        let mut m = manager(nfs, parallel);
        let pkt = PacketBuilder::udp()
            .total_size(1000)
            .ingress_port(0)
            .build();
        group.bench_with_input(BenchmarkId::from_parameter(label), &(), |b, _| {
            let mut now = 0u64;
            b.iter(|| {
                now += 1;
                black_box(m.process_packet(pkt.clone(), now))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_table2);
criterion_main!(benches);
