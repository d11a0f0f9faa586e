//! End-to-end tests of the sharded threaded runtime: flow-hash steering
//! invariants and credit-based ingress backpressure.

use sdnfv::dataplane::{shard_for_flow, ThreadedHost, ThreadedHostConfig};
use sdnfv::flowtable::SharedFlowTable;
use sdnfv::graph::{catalog, CompileOptions};
use sdnfv::nf::nfs::{ComputeNf, NoOpNf};
use sdnfv::nf::{NetworkFunction, NfContext, Verdict};
use sdnfv::proto::flow::FlowKey;
use sdnfv::proto::packet::{Packet, PacketBuilder};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A read-only NF that records which shard processed each flow.
struct ShardRecorder {
    seen: Arc<Mutex<BTreeMap<FlowKey, BTreeSet<usize>>>>,
}

impl NetworkFunction for ShardRecorder {
    fn name(&self) -> &str {
        "shard-recorder"
    }

    fn process(&mut self, packet: &Packet, ctx: &mut NfContext) -> Verdict {
        if let Some(key) = packet.flow_key() {
            self.seen
                .lock()
                .unwrap()
                .entry(key)
                .or_default()
                .insert(ctx.shard());
        }
        Verdict::Default
    }
}

/// A deterministic LCG standing in for proptest's generators (the real
/// `proptest` crate is unavailable offline): hundreds of pseudo-random
/// 5-tuples exercise the steering invariant the way a property test would.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }
}

fn random_packet(lcg: &mut Lcg) -> Packet {
    let src = (lcg.next() % 200) as u8 + 1;
    let dst = (lcg.next() % 50) as u8 + 1;
    let src_port = (lcg.next() % 512) as u16 + 1024;
    let dst_port = if lcg.next().is_multiple_of(2) {
        80
    } else {
        443
    };
    PacketBuilder::udp()
        .src_ip([10, 0, 0, src])
        .dst_ip([10, 1, 0, dst])
        .src_port(src_port)
        .dst_port(dst_port)
        .ingress_port(0)
        .total_size(256)
        .build()
}

fn drain(host: &ThreadedHost, expected: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut received = 0;
    while received < expected && Instant::now() < deadline {
        let got = host.poll_egress_burst(64).len();
        if got == 0 {
            std::thread::yield_now();
        }
        received += got;
    }
    received
}

/// Property: every packet of a flow lands on exactly one shard, and that
/// shard is the one `shard_for_flow` predicts.
#[test]
fn all_packets_of_a_flow_land_on_one_shard() {
    const NUM_SHARDS: usize = 4;
    let (graph, ids) = catalog::chain(&[("recorder", true)]);
    let table = SharedFlowTable::new();
    for rule in graph.compile(&CompileOptions::default()) {
        table.insert(rule);
    }
    let seen: Arc<Mutex<BTreeMap<FlowKey, BTreeSet<usize>>>> =
        Arc::new(Mutex::new(BTreeMap::new()));
    let host = ThreadedHost::start_sharded(
        table,
        |_shard| {
            vec![(
                ids[0],
                Box::new(ShardRecorder {
                    seen: Arc::clone(&seen),
                }) as Box<dyn NetworkFunction>,
            )]
        },
        ThreadedHostConfig {
            num_shards: NUM_SHARDS,
            ..ThreadedHostConfig::default()
        },
    );

    // ~600 pseudo-random packets over a few hundred distinct flows, each
    // flow injected several times across separate bursts.
    let mut lcg = Lcg(0x5d0f_a7e5_9e37_79b9);
    let mut packets: Vec<Packet> = Vec::new();
    for _ in 0..200 {
        let pkt = random_packet(&mut lcg);
        for _ in 0..3 {
            packets.push(pkt.clone());
        }
    }
    let total = packets.len();
    let mut expected: BTreeMap<FlowKey, usize> = BTreeMap::new();
    for pkt in &packets {
        let key = pkt.flow_key().expect("udp packet");
        expected.insert(key, shard_for_flow(&key, NUM_SHARDS));
    }

    let mut admitted = 0;
    let mut drained_early = 0;
    for chunk in packets.chunks(32) {
        let mut pending = chunk.to_vec();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !pending.is_empty() && Instant::now() < deadline {
            let outcome = host.inject_burst(pending);
            admitted += outcome.admitted;
            pending = outcome.throttled;
            if !pending.is_empty() {
                drained_early += host.poll_egress_burst(64).len();
            }
        }
        assert!(pending.is_empty(), "injection stalled");
    }
    assert_eq!(admitted, total);
    assert_eq!(drained_early + drain(&host, total - drained_early), total);

    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), expected.len(), "every flow was recorded");
    for (key, shards) in seen.iter() {
        assert_eq!(
            shards.len(),
            1,
            "flow {key} was processed on multiple shards: {shards:?}"
        );
        let shard = *shards.iter().next().unwrap();
        assert_eq!(
            shard, expected[key],
            "flow {key} landed on shard {shard}, steering predicts {}",
            expected[key]
        );
    }
    // More than one shard actually carried traffic.
    let used: BTreeSet<usize> = seen.values().flatten().copied().collect();
    assert!(used.len() > 1, "traffic spread over shards: {used:?}");
    host.shutdown();
}

/// Property: a flooded host under backpressure throttles (handing packets
/// back) and never silently drops — every admitted packet comes back out.
#[test]
fn flooded_host_throttles_instead_of_dropping() {
    let (graph, ids) = catalog::chain(&[("slow", true)]);
    let table = SharedFlowTable::new();
    for rule in graph.compile(&CompileOptions::default()) {
        table.insert(rule);
    }
    let host = ThreadedHost::start_sharded(
        table,
        |_shard| {
            vec![(
                ids[0],
                // Enough per-packet work that injection outruns the chain.
                Box::new(ComputeNf::new(2000)) as Box<dyn NetworkFunction>,
            )]
        },
        ThreadedHostConfig {
            num_shards: 2,
            nf_ring_capacity: 128,
            shard_credits: 64,
            egress_capacity: 128,
            ..ThreadedHostConfig::default()
        },
    );
    assert_eq!(host.credit_capacity(), 64);

    let mut admitted = 0u64;
    let mut throttled_returns = 0u64;
    let mut drained = 0u64;
    let mut flow = 0u16;
    // Sustained overload: offer far more than the pipeline can hold, only
    // draining occasionally.
    for round in 0..200 {
        let burst: Vec<Packet> = (0..32)
            .map(|_| {
                flow = flow.wrapping_add(1);
                PacketBuilder::udp()
                    .src_ip([10, 0, 0, 1])
                    .dst_ip([10, 0, 0, 2])
                    .src_port(1024 + (flow % 256))
                    .dst_port(80)
                    .ingress_port(0)
                    .total_size(256)
                    .build()
            })
            .collect();
        let outcome = host.inject_burst(burst);
        admitted += outcome.admitted as u64;
        throttled_returns += outcome.throttled.len() as u64;
        if round % 8 == 0 {
            drained += host.poll_egress_burst(64).len() as u64;
        }
    }
    assert!(
        throttled_returns > 0,
        "sustained overload must throttle some injections"
    );

    // Drain everything still in flight: zero silent drops means every
    // admitted packet is eventually transmitted.
    drained += drain(&host, (admitted - drained) as usize) as u64;
    assert_eq!(drained, admitted, "every admitted packet came back out");

    let snap = host.stats().snapshot();
    assert_eq!(snap.overflow_drops, 0, "no silent overflow drops");
    assert_eq!(snap.dropped, 0, "no verdict drops in this chain");
    assert_eq!(snap.received, admitted);
    assert_eq!(snap.transmitted, admitted);
    assert_eq!(
        snap.throttled, throttled_returns,
        "every rejected injection is surfaced as Throttled"
    );

    // With the pipeline idle again, every credit is back in both gates.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let restored = (0..host.num_shards()).all(|shard| host.available_credits(shard) == 64);
        if restored || Instant::now() > deadline {
            break;
        }
        std::thread::yield_now();
    }
    for shard in 0..host.num_shards() {
        assert_eq!(
            host.available_credits(shard),
            64,
            "credits leaked on shard {shard}"
        );
    }
    host.shutdown();
}

/// Rings at their minimum: every NF ring holds exactly one credit budget,
/// which is exactly one burst. The credit clamp alone must keep the
/// parallel fan-out (three ring copies per packet) from ever overflowing an
/// NF ring — the engine asserts that a flush leaves nothing staged — and the
/// packet ledger must balance with zero overflow drops.
#[test]
fn minimum_rings_lose_nothing_on_the_parallel_chain() {
    const TOTAL: usize = 100_000;
    const BURST: usize = 8;
    let (graph, ids) = catalog::chain(&[("a", true), ("b", true), ("c", true)]);
    let table = SharedFlowTable::new();
    let parallel = CompileOptions {
        enable_parallel: true,
        ..CompileOptions::default()
    };
    for rule in graph.compile(&parallel) {
        table.insert(rule);
    }
    let host = ThreadedHost::start_sharded(
        table,
        |_shard| {
            ids.iter()
                .map(|id| (*id, Box::new(NoOpNf::new()) as Box<dyn NetworkFunction>))
                .collect()
        },
        ThreadedHostConfig {
            num_shards: 2,
            burst_size: BURST,
            nf_ring_capacity: BURST,
            shard_credits: BURST,
            ..ThreadedHostConfig::default()
        },
    );
    assert_eq!(host.credit_capacity(), BURST);

    let mut lcg = Lcg(0x5eed);
    let mut sent = 0usize;
    let mut received = 0usize;
    let mut pending: Vec<Packet> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(120);
    while received < TOTAL && Instant::now() < deadline {
        if pending.is_empty() && sent < TOTAL {
            pending = (0..BURST.min(TOTAL - sent))
                .map(|_| random_packet(&mut lcg))
                .collect();
        }
        let outcome = host.inject_burst(std::mem::take(&mut pending));
        sent += outcome.admitted;
        pending = outcome.throttled;
        let drained = host.poll_egress_burst(64).len();
        received += drained;
        if drained == 0 && outcome.admitted == 0 {
            std::thread::yield_now();
        }
    }
    assert_eq!(received, TOTAL, "every packet came back out");

    let snap = host.stats().snapshot();
    assert_eq!(snap.overflow_drops, 0, "no ring overflowed");
    assert_eq!(snap.received, snap.transmitted + snap.dropped);
    assert_eq!(snap.transmitted, TOTAL as u64);
    assert_eq!(snap.parallel_dispatches, TOTAL as u64);
    host.shutdown();
}
