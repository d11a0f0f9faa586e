//! Shared helpers for the SDNFV benchmark harness: building hosts for the
//! microbenchmarks (Table 2, Figures 6–7) and formatting figure output.

#![warn(missing_docs)]

use sdnfv_dataplane::{InjectResult, ThreadedHost, ThreadedHostConfig};
use sdnfv_flowtable::SharedFlowTable;
use sdnfv_graph::{catalog, CompileOptions};
use sdnfv_nf::nfs::{ComputeNf, NoOpNf};
use sdnfv_nf::NetworkFunction;
use sdnfv_proto::packet::{Packet, PacketBuilder};
use std::time::{Duration, Instant};

/// How the NFs of a microbenchmark chain are composed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Composition {
    /// NFs process the packet one after another.
    Sequential,
    /// Read-only NFs process the packet simultaneously.
    Parallel,
}

/// Which packet-processing work each NF in the chain performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// No per-packet work (Table 2).
    NoOp,
    /// CPU-intensive per-packet work with the given number of checksum
    /// rounds (Figure 6).
    Compute(u32),
}

/// Builds a threaded host running `nf_count` NFs composed as requested.
/// `nf_count == 0` produces the plain forwarding baseline ("0VM (dpdk)").
pub fn build_host(nf_count: usize, composition: Composition, workload: Workload) -> ThreadedHost {
    build_sharded_host(
        nf_count,
        composition,
        workload,
        ThreadedHostConfig::default(),
    )
}

/// Builds a threaded host like [`build_host`], with an explicit config —
/// `config.num_shards` shards each get their own instances of the chain's
/// NFs.
pub fn build_sharded_host(
    nf_count: usize,
    composition: Composition,
    workload: Workload,
    config: ThreadedHostConfig,
) -> ThreadedHost {
    let table = SharedFlowTable::new();
    let mut ids = Vec::new();
    if nf_count == 0 {
        table.insert(sdnfv_flowtable::FlowRule::new(
            sdnfv_flowtable::FlowMatch::at_step(sdnfv_flowtable::RulePort::Nic(0)),
            vec![sdnfv_flowtable::Action::ToPort(1)],
        ));
    } else {
        let names: Vec<String> = (0..nf_count).map(|i| format!("nf{i}")).collect();
        let specs: Vec<(&str, bool)> = names.iter().map(|n| (n.as_str(), true)).collect();
        let (graph, graph_ids) = catalog::chain(&specs);
        let options = CompileOptions {
            enable_parallel: composition == Composition::Parallel,
            ..CompileOptions::default()
        };
        for rule in graph.compile(&options) {
            table.insert(rule);
        }
        ids = graph_ids;
    }
    ThreadedHost::start_sharded(
        table,
        |_shard| {
            ids.iter()
                .map(|id| {
                    let nf: Box<dyn NetworkFunction> = match workload {
                        Workload::NoOp => Box::new(NoOpNf::new()),
                        Workload::Compute(rounds) => Box::new(ComputeNf::new(rounds)),
                    };
                    (*id, nf)
                })
                .collect()
        },
        config,
    )
}

/// Pushes `total` packets (spread over `flows` flows) through a host in a
/// closed loop — inject under backpressure, drain egress, retry throttled
/// packets — and returns once every packet has come back out. The unit of
/// work the shard-scaling benches time.
pub fn pump_packets(host: &ThreadedHost, total: usize, flows: u16, packet_size: usize) -> usize {
    pump_packets_with(host, total, flows, packet_size, |_| {})
}

/// [`pump_packets`] with a per-iteration hook: `tick` runs once per pump
/// loop pass with the host, which is how the elastic benches interleave
/// `ElasticNfManager::drive` with traffic.
pub fn pump_packets_with(
    host: &ThreadedHost,
    total: usize,
    flows: u16,
    packet_size: usize,
    mut tick: impl FnMut(&ThreadedHost),
) -> usize {
    const BURST: usize = 32;
    let mut sent = 0usize;
    let mut received = 0usize;
    let mut flow: u16 = 0;
    let mut pending: Vec<Packet> = Vec::with_capacity(BURST);
    while received < total {
        tick(host);
        if sent < total && pending.is_empty() {
            let want = BURST.min(total - sent);
            for _ in 0..want {
                pending.push(test_packet(packet_size, flow % flows.max(1)));
                flow = flow.wrapping_add(1);
            }
        }
        let mut admitted_now = 0;
        if !pending.is_empty() {
            let outcome = host.inject_burst(std::mem::take(&mut pending));
            admitted_now = outcome.admitted;
            sent += outcome.admitted;
            // Throttled packets are retried on the next pass, after egress
            // has been drained.
            pending = outcome.throttled;
        }
        let drained = host.poll_egress_burst(BURST.max(64)).len();
        received += drained;
        if drained == 0 && admitted_now == 0 {
            // Fully backed up (or just waiting on the tail): give the
            // pipeline threads a scheduler beat instead of hammering the
            // gate.
            std::thread::yield_now();
        }
    }
    received
}

/// A latency measurement: round-trip latencies in microseconds.
#[derive(Debug, Clone, Default)]
pub struct LatencySample {
    /// All observed latencies, in microseconds.
    pub latencies_us: Vec<f64>,
}

impl LatencySample {
    /// Average latency.
    pub fn avg(&self) -> f64 {
        if self.latencies_us.is_empty() {
            return 0.0;
        }
        self.latencies_us.iter().sum::<f64>() / self.latencies_us.len() as f64
    }

    /// Minimum latency.
    pub fn min(&self) -> f64 {
        self.latencies_us
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Maximum latency.
    pub fn max(&self) -> f64 {
        self.latencies_us.iter().copied().fold(0.0, f64::max)
    }

    /// The value at a quantile in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.latencies_us.is_empty() {
            return 0.0;
        }
        let mut sorted = self.latencies_us.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let index = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        sorted[index]
    }
}

fn test_packet(size: usize, flow: u16) -> Packet {
    PacketBuilder::udp()
        .src_ip([10, 0, 0, 1])
        .dst_ip([10, 0, 0, 2])
        .src_port(1024 + flow)
        .dst_port(80)
        .total_size(size)
        .ingress_port(0)
        .build()
}

/// Measures round-trip latency through a host at a low packet rate
/// (the Table 2 / Figure 6 methodology: send, wait for the packet to come
/// back, record the difference).
pub fn measure_latency(host: &ThreadedHost, packets: usize, packet_size: usize) -> LatencySample {
    let mut sample = LatencySample::default();
    for i in 0..packets {
        let pkt = test_packet(packet_size, (i % 128) as u16);
        if !host.inject(pkt).is_admitted() {
            continue;
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            if let Some(out) = host.poll_egress() {
                let latency_ns = host.now_ns().saturating_sub(out.packet.timestamp_ns);
                sample.latencies_us.push(latency_ns as f64 / 1000.0);
                break;
            }
            if Instant::now() > deadline {
                break;
            }
            std::hint::spin_loop();
        }
    }
    sample
}

/// Measures sustained throughput (Gbps) through a host by injecting packets
/// as fast as the ingress ring accepts them for `duration`.
pub fn measure_throughput_gbps(host: &ThreadedHost, packet_size: usize, duration: Duration) -> f64 {
    let start = Instant::now();
    let mut received_bytes: u64 = 0;
    let mut flow: u16 = 0;
    while start.elapsed() < duration {
        for _ in 0..32 {
            let pkt = test_packet(packet_size, flow % 512);
            flow = flow.wrapping_add(1);
            if !matches!(host.inject(pkt), InjectResult::Admitted) {
                break;
            }
        }
        while let Some(out) = host.poll_egress() {
            received_bytes += out.packet.len() as u64;
        }
    }
    // Drain what is still in flight.
    let drain_deadline = Instant::now() + Duration::from_millis(200);
    while Instant::now() < drain_deadline {
        while let Some(out) = host.poll_egress() {
            received_bytes += out.packet.len() as u64;
        }
    }
    received_bytes as f64 * 8.0 / start.elapsed().as_secs_f64() / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_sample_statistics() {
        let sample = LatencySample {
            latencies_us: vec![1.0, 2.0, 3.0, 4.0],
        };
        assert!((sample.avg() - 2.5).abs() < 1e-9);
        assert_eq!(sample.min(), 1.0);
        assert_eq!(sample.max(), 4.0);
        assert_eq!(sample.quantile(0.0), 1.0);
        assert_eq!(sample.quantile(1.0), 4.0);
        assert_eq!(LatencySample::default().avg(), 0.0);
    }

    #[test]
    fn zero_nf_host_round_trips_packets() {
        let host = build_host(0, Composition::Sequential, Workload::NoOp);
        let sample = measure_latency(&host, 50, 256);
        assert!(sample.latencies_us.len() >= 45);
        assert!(sample.avg() > 0.0);
        host.shutdown();
    }

    #[test]
    fn sharded_host_pumps_every_packet() {
        let host = build_sharded_host(
            1,
            Composition::Sequential,
            Workload::NoOp,
            ThreadedHostConfig {
                num_shards: 2,
                ..ThreadedHostConfig::default()
            },
        );
        assert_eq!(pump_packets(&host, 500, 64, 256), 500);
        let snap = host.stats().snapshot();
        assert_eq!(snap.transmitted, 500);
        assert_eq!(snap.overflow_drops, 0, "backpressure never drops");
        host.shutdown();
    }

    #[test]
    fn chains_round_trip_packets_in_both_compositions() {
        for composition in [Composition::Sequential, Composition::Parallel] {
            let host = build_host(2, composition, Workload::Compute(2));
            let sample = measure_latency(&host, 25, 512);
            assert!(sample.latencies_us.len() >= 20, "{composition:?}");
            host.shutdown();
        }
    }
}
