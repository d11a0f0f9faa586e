//! End-to-end latency through the observability layer's always-on
//! histograms: the per-shard log-linear histograms record every packet's
//! ingress wait, NF service time, egress wait and ingress→egress total, so
//! this bench reads the percentiles straight off the host instead of
//! timing packets from the outside.
//!
//! Two things are measured:
//!
//! * the closed-loop pump throughput at burst 32 with the histograms
//!   recording (they always do — the bench shows what the shipping
//!   configuration costs), with hash-sampled flow tracing off and on
//!   (1/4 flows), at 1 and 4 shards;
//! * the per-stage latency percentiles (p50/p99/p999) the histograms
//!   report for exactly that traffic.
//!
//! Environment knobs (for CI trend recording):
//! * `SDNFV_BENCH_QUICK=1` — shrink the per-configuration workload;
//! * `SDNFV_BENCH_JSON=<path>` — write `{"results": [...]}` with
//!   end-to-end and per-stage p50/p99/p999 for shards {1, 4} at burst 32
//!   (the `BENCH_latency.json` CI artifact).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sdnfv_bench::{build_sharded_host, pump_packets, Composition, Workload};
use sdnfv_dataplane::{ThreadedHost, ThreadedHostConfig};
use std::hint::black_box;
use std::time::Instant;

const FLOWS: u16 = 64;
const PACKET_SIZE: usize = 256;
const BURST: usize = 32;

fn quick_mode() -> bool {
    std::env::var("SDNFV_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

fn quantum() -> usize {
    if quick_mode() {
        4096
    } else {
        8192
    }
}

/// A 2-NF sequential compute chain at `num_shards` shards, burst 32, with
/// hash-sampled tracing at `1/sample_every` (0 = off).
fn latency_host(num_shards: usize, sample_every: u64) -> ThreadedHost {
    let host = build_sharded_host(
        2,
        Composition::Sequential,
        Workload::Compute(8),
        ThreadedHostConfig {
            num_shards,
            burst_size: BURST,
            // Each traced packet emits 4 spans on the 2-NF chain (RX, one
            // per NF stage, egress); size the rings for a full un-drained
            // quantum of them.
            trace_ring_capacity: 16_384,
            ..ThreadedHostConfig::default()
        },
    );
    host.set_trace_sampling(sample_every);
    host
}

fn bench_obs_latency(c: &mut Criterion) {
    let total = quantum();
    let mut group = c.benchmark_group("obs_latency");
    if quick_mode() {
        group.measurement_time(std::time::Duration::from_millis(300));
    }
    for num_shards in [1usize, 4] {
        for (label, sample_every) in [("pump", 0u64), ("pump_traced", 4)] {
            let host = latency_host(num_shards, sample_every);
            group.throughput(Throughput::Elements(total as u64));
            group.bench_with_input(BenchmarkId::new(label, num_shards), &(), |b, _| {
                b.iter(|| {
                    let pumped = pump_packets(&host, total, FLOWS, PACKET_SIZE);
                    // Keep the trace rings from filling across iterations:
                    // spans land there whether or not anyone reads them.
                    black_box(host.poll_traces().len());
                    black_box(pumped)
                })
            });
            host.shutdown();
        }
    }
    group.finish();
}

/// Latency percentile report written as a JSON artifact
/// (`SDNFV_BENCH_JSON=<path>`, the `BENCH_latency.json` CI artifact).
fn emit_latency_json() {
    let Ok(path) = std::env::var("SDNFV_BENCH_JSON") else {
        return;
    };
    let total = quantum();
    let rounds = if quick_mode() { 4 } else { 16 };
    let mut entries = Vec::new();
    for num_shards in [1usize, 4] {
        let host = latency_host(num_shards, 4);
        // Warm-up round, then timed rounds. Drain the warm-up's spans so
        // the rings start the timed rounds empty.
        pump_packets(&host, total, FLOWS, PACKET_SIZE);
        host.poll_traces();
        let start = Instant::now();
        for _ in 0..rounds {
            pump_packets(&host, total, FLOWS, PACKET_SIZE);
            host.poll_traces();
        }
        let elapsed = start.elapsed().as_secs_f64();
        let pps = (total * rounds) as f64 / elapsed.max(f64::MIN_POSITIVE);
        let report = host.latency_report();
        let spans_dropped = host.stats().snapshot().spans_dropped;
        host.shutdown();
        let stages = report
            .stages()
            .iter()
            .map(|(stage, hist)| {
                format!(
                    "\"{stage}\": {{\"count\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \
                     \"p999_ns\": {}}}",
                    hist.count(),
                    hist.p50(),
                    hist.p99(),
                    hist.p999()
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        entries.push(format!(
            "    {{\"num_shards\": {num_shards}, \"burst\": {BURST}, \
             \"packets_per_sec\": {pps:.0}, \"trace_sampling\": 4, \
             \"spans_dropped\": {spans_dropped}, \"latency_ns\": {{{stages}}}}}"
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"obs_latency\",\n  \"quantum\": {total},\n  \"rounds\": {rounds},\n  \
         \"flows\": {FLOWS},\n  \"results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote latency report to {path}"),
        Err(err) => eprintln!("failed to write {path}: {err}"),
    }
}

fn bench_and_report(c: &mut Criterion) {
    bench_obs_latency(c);
    emit_latency_json();
}

criterion_group!(benches, bench_and_report);
criterion_main!(benches);
