//! Throughput under elastic replica scaling (paper §3.5, a fig8-style
//! experiment): the same compute-heavy single-service pipeline is measured
//!
//! * with one static replica (the floor),
//! * with two static replicas (the ceiling the elastic loop can reach),
//! * with one replica plus an [`ElasticNfManager`] driving the telemetry →
//!   scale-up loop live, including the orchestrator's boot delay.
//!
//! Environment knobs (for CI trend recording):
//! * `SDNFV_BENCH_QUICK=1` — shrink the per-configuration workload;
//! * `SDNFV_BENCH_JSON=<path>` — after the criterion run, time the three
//!   configurations plus a scale-down phase and write `{"results": [...]}`
//!   to the path (the `BENCH_elastic.json` CI artifact). On a single-CPU
//!   runner the extra replica cannot show a speedup — the artifact then
//!   records loop correctness (scale events fired, nothing dropped), not
//!   acceleration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sdnfv_bench::{pump_packets, pump_packets_with};
use sdnfv_control::{
    deploy_sharded, ElasticNfManager, ElasticPolicy, NfvOrchestrator, ShardPlacement,
};
use sdnfv_dataplane::{ThreadedHost, ThreadedHostConfig};
use sdnfv_flowtable::{ServiceId, SharedFlowTable};
use sdnfv_graph::{catalog, CompileOptions};
use sdnfv_nf::nfs::ComputeNf;
use sdnfv_nf::NfRegistry;
use sdnfv_obs::ObsHub;
use std::hint::black_box;
use std::time::Instant;

const WORKER_ROUNDS: u32 = 300;
const FLOWS: u16 = 64;
const PACKET_SIZE: usize = 256;

fn quick_mode() -> bool {
    std::env::var("SDNFV_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

fn quantum() -> usize {
    if quick_mode() {
        2048
    } else {
        8192
    }
}

fn worker_table() -> (SharedFlowTable, ServiceId) {
    let (graph, ids) = catalog::chain(&[("worker", true)]);
    let table = SharedFlowTable::new();
    for rule in graph.compile(&CompileOptions::default()) {
        table.insert(rule);
    }
    (table, ids[0])
}

fn registry() -> NfRegistry {
    let mut registry = NfRegistry::new();
    registry.register("worker", || ComputeNf::new(WORKER_ROUNDS));
    registry
}

fn config() -> ThreadedHostConfig {
    ThreadedHostConfig {
        nf_ring_capacity: 256,
        shard_credits: 256,
        telemetry_interval_ns: 200_000,
        ..ThreadedHostConfig::default()
    }
}

/// A host with `replicas` static worker replicas and no control loop.
fn static_host(replicas: usize) -> ThreadedHost {
    let (table, worker) = worker_table();
    let mut orchestrator = NfvOrchestrator::new(registry(), 0);
    let placement = ShardPlacement::uniform(&[(worker, "worker")], 1, replicas);
    deploy_sharded(&mut orchestrator, &placement, table, config()).expect("worker registered")
}

/// A one-replica host plus the elastic loop that may scale it to two.
fn elastic_setup(boot_delay_ns: u64) -> (ThreadedHost, ElasticNfManager, ServiceId) {
    let (table, worker) = worker_table();
    let mut orchestrator = NfvOrchestrator::new(registry(), boot_delay_ns);
    let placement = ShardPlacement::uniform(&[(worker, "worker")], 1, 1);
    let host =
        deploy_sharded(&mut orchestrator, &placement, table, config()).expect("worker registered");
    let mut manager = ElasticNfManager::new(
        orchestrator,
        ElasticPolicy {
            scale_up_fill: 0.5,
            scale_down_fill: 0.02,
            max_replicas: 2,
            cooldown_ns: 10_000_000,
            ..ElasticPolicy::default()
        },
    );
    manager
        .register_service(worker, "worker")
        .expect("worker is in the registry");
    (host, manager, worker)
}

fn bench_elastic_scaling(c: &mut Criterion) {
    let total = quantum();
    let mut group = c.benchmark_group("elastic_scaling");
    if quick_mode() {
        group.measurement_time(std::time::Duration::from_millis(300));
    }
    for replicas in [1usize, 2] {
        let host = static_host(replicas);
        group.throughput(Throughput::Elements(total as u64));
        group.bench_with_input(BenchmarkId::new("static", replicas), &(), |b, _| {
            b.iter(|| black_box(pump_packets(&host, total, FLOWS, PACKET_SIZE)))
        });
        host.shutdown();
    }
    let (host, mut manager, _) = elastic_setup(1_000_000);
    let mut obs = ObsHub::new();
    group.throughput(Throughput::Elements(total as u64));
    group.bench_with_input(BenchmarkId::new("elastic", 1), &(), |b, _| {
        b.iter(|| {
            black_box(pump_packets_with(&host, total, FLOWS, PACKET_SIZE, |h| {
                obs.observe(h);
                manager.drive(h, obs.telemetry());
            }))
        })
    });
    host.shutdown();
    group.finish();
}

/// Timed comparison written as a JSON artifact so CI records the elastic
/// trajectory (`SDNFV_BENCH_JSON=<path>`).
fn emit_elastic_json() {
    let Ok(path) = std::env::var("SDNFV_BENCH_JSON") else {
        return;
    };
    let total = quantum();
    let rounds = if quick_mode() { 3 } else { 8 };
    let mut entries = Vec::new();

    for replicas in [1usize, 2] {
        let host = static_host(replicas);
        pump_packets(&host, total, FLOWS, PACKET_SIZE); // warm-up
        let start = Instant::now();
        for _ in 0..rounds {
            pump_packets(&host, total, FLOWS, PACKET_SIZE);
        }
        let pps = (total * rounds) as f64 / start.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
        let snap = host.stats().snapshot();
        entries.push(format!(
            "    {{\"mode\": \"static\", \"replicas\": {replicas}, \"packets_per_sec\": {pps:.0}, \
             \"overflow_drops\": {}}}",
            snap.overflow_drops
        ));
        host.shutdown();
    }

    // Elastic run: the scale-up fires mid-flood (after the boot delay), a
    // scale-down follows in the quiet phase at the end.
    let (host, mut manager, worker) =
        elastic_setup(if quick_mode() { 1_000_000 } else { 20_000_000 });
    let mut obs = ObsHub::new();
    let start = Instant::now();
    for _ in 0..rounds {
        pump_packets_with(&host, total, FLOWS, PACKET_SIZE, |h| {
            obs.observe(h);
            manager.drive(h, obs.telemetry());
        });
    }
    let elapsed = start.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
    let pps = (total * rounds) as f64 / elapsed;
    // Quiet phase: drive until the extra replica is retired (or timeout).
    let deadline = Instant::now() + std::time::Duration::from_secs(5);
    while manager.scale_downs() == 0 && Instant::now() < deadline {
        obs.observe(&host);
        manager.drive(&host, obs.telemetry());
        std::thread::yield_now();
    }
    let replicas_now = obs
        .telemetry()
        .latest(0)
        .map_or(0, |snapshot| snapshot.replicas(worker));
    let snap = host.stats().snapshot();
    entries.push(format!(
        "    {{\"mode\": \"elastic\", \"packets_per_sec\": {pps:.0}, \"scale_ups\": {}, \
         \"scale_downs\": {}, \"replicas_after_quiet\": {replicas_now}, \
         \"overflow_drops\": {}, \"dropped\": {}}}",
        manager.scale_ups(),
        manager.scale_downs(),
        snap.overflow_drops,
        snap.dropped
    ));
    host.shutdown();

    let json = format!(
        "{{\n  \"bench\": \"elastic_scaling\",\n  \"quantum\": {total},\n  \"flows\": {FLOWS},\n  \
         \"worker_rounds\": {WORKER_ROUNDS},\n  \"results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote elastic-scaling report to {path}"),
        Err(err) => eprintln!("failed to write {path}: {err}"),
    }
}

fn bench_and_report(c: &mut Criterion) {
    bench_elastic_scaling(c);
    emit_elastic_json();
}

criterion_group!(benches, bench_and_report);
criterion_main!(benches);
