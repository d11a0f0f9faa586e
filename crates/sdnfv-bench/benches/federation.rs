//! Federated control plane under load: one controller over three NF-hosts
//! (ISSUE 9). Two things are measured and one contract is asserted:
//!
//! * **throughput** — the same three-worker service chain pushed through a
//!   single host versus split across three federated hosts (two
//!   interconnect crossings per packet), so the hand-off tax is a number;
//! * **cross-host re-home pause** — from initiating a bucket move to
//!   another host until the drain/export/import handshake completes, with
//!   traffic in flight the whole time;
//! * **the zero-loss ledger** — packets, exact-flow rules, wildcard
//!   mutations and NF-internal flow state must all survive every
//!   cross-host move, and the interconnect must drop nothing.
//!
//! Environment knobs (for CI trend recording):
//! * `SDNFV_BENCH_QUICK=1` — shrink the workload;
//! * `SDNFV_BENCH_JSON=<path>` — write `{"results": [...]}` with the
//!   single-host vs. three-host throughput, re-home pause percentiles,
//!   interconnect wire depth and the conservation counters (the
//!   `BENCH_federation.json` CI artifact).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sdnfv_control::{Federation, FederationConfig, HostId};
use sdnfv_dataplane::{InjectResult, ThreadedHost, ThreadedHostConfig, STEER_BUCKETS};
use sdnfv_flowtable::{Action, FlowMatch, FlowRule, RulePort, ServiceId, SharedFlowTable};
use sdnfv_nf::{NetworkFunction, NfContext, NfFlowState, NfMessage, Verdict};
use sdnfv_proto::flow::FlowKey;
use sdnfv_proto::packet::{Packet, PacketBuilder};
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

const WORKER_ROUNDS: u32 = 100;
const FLOWS: u16 = 64;
const PACKET_SIZE: usize = 256;
const EGRESS: u16 = 1;
/// Second egress port, so `ChangeDefault(…, ToPort(PIN_PORT))` is
/// graph-legal on every host.
const PIN_PORT: u16 = 2;
const W0: ServiceId = ServiceId::new(1);
const W1: ServiceId = ServiceId::new(2);
const W2: ServiceId = ServiceId::new(3);
/// The stateful worker of the re-home federation; hosts 0 and 2 both run
/// an instance so migrated flow state has somewhere to land.
const STATE: ServiceId = ServiceId::new(9);
/// Flows with a host-0 exact-flow rule (never injected, so their presence
/// check is pure rule accounting).
const RULED_FLOWS: [u16; 8] = [5000, 5001, 5002, 5003, 5004, 5005, 5006, 5007];
/// Flows carrying NF-internal per-flow counters across hosts: each is fed
/// `PIN_THRESHOLD - 1` packets before the re-home rounds and one after;
/// the pin fires only if the counter survived every cross-host move.
const STATEFUL_FLOWS: [u16; 8] = [6000, 6001, 6002, 6003, 6004, 6005, 6006, 6007];
/// The flow whose first packet triggers a wildcard `ChangeDefault`
/// (worker default → [`PIN_PORT`]); the mutation must follow the flow's
/// bucket across hosts.
const WILDCARD_FLOW: u16 = 6100;
const PIN_THRESHOLD: u64 = 8;
/// Designated flows (stateful + wildcard trigger) sit at src ports ≥ this.
const DESIGNATED_PORT_FLOOR: u16 = 7000;

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

fn packet(flow: u16) -> Packet {
    PacketBuilder::udp()
        .src_ip([10, 0, 0, 1])
        .dst_ip([10, 0, 0, 2])
        .src_port(1024 + flow)
        .dst_port(80)
        .ingress_port(0)
        .total_size(PACKET_SIZE)
        .build()
}

/// The bench worker (the federated sibling of `shard_rehome`'s): burns
/// CPU, keeps a per-flow packet counter migrated via the NF state hooks,
/// pins designated flows to [`PIN_PORT`] once their counter crosses
/// [`PIN_THRESHOLD`], and emits one wildcard `ChangeDefault` when it sees
/// the trigger flow.
struct StatefulWorkerNf {
    service: ServiceId,
    rounds: u32,
    counts: HashMap<FlowKey, u64>,
    wildcard_fired: bool,
}

impl StatefulWorkerNf {
    fn new(service: ServiceId, rounds: u32) -> Self {
        StatefulWorkerNf {
            service,
            rounds,
            counts: HashMap::new(),
            wildcard_fired: false,
        }
    }
}

impl NetworkFunction for StatefulWorkerNf {
    fn name(&self) -> &str {
        "federated-worker"
    }

    fn process(&mut self, packet: &Packet, ctx: &mut NfContext) -> Verdict {
        let mut acc: u32 = packet.len() as u32;
        for round in 0..self.rounds {
            acc = acc.wrapping_mul(1664525).wrapping_add(round);
        }
        black_box(acc);
        let Some(key) = packet.flow_key() else {
            return Verdict::Default;
        };
        let count = self.counts.entry(key).or_insert(0);
        *count += 1;
        if key.src_port == 1024 + WILDCARD_FLOW && !self.wildcard_fired {
            self.wildcard_fired = true;
            ctx.send_for_flow(
                &key,
                NfMessage::ChangeDefault {
                    flows: FlowMatch::any(),
                    service: self.service,
                    new_default: Action::ToPort(PIN_PORT),
                },
            );
        } else if key.src_port >= DESIGNATED_PORT_FLOOR && *count == PIN_THRESHOLD {
            ctx.send_for_flow(
                &key,
                NfMessage::ChangeDefault {
                    flows: FlowMatch::exact(RulePort::Service(self.service), &key),
                    service: self.service,
                    new_default: Action::ToPort(PIN_PORT),
                },
            );
        }
        Verdict::Default
    }

    fn export_flow_state(&mut self, key: &FlowKey) -> Option<NfFlowState> {
        self.counts
            .remove(key)
            .map(|count| NfFlowState::with_counter("count", count))
    }

    fn import_flow_state(&mut self, key: &FlowKey, state: NfFlowState) {
        if let Some(count) = state.counter("count") {
            *self.counts.entry(*key).or_insert(0) += count;
        }
    }

    fn flow_state_keys(&self) -> Vec<FlowKey> {
        self.counts.keys().copied().collect()
    }
}

fn worker(service: ServiceId) -> (ServiceId, Box<dyn NetworkFunction>) {
    (
        service,
        Box::new(StatefulWorkerNf::new(service, WORKER_ROUNDS)) as Box<dyn NetworkFunction>,
    )
}

/// The whole three-worker chain on one host: the throughput baseline.
fn single_chain_host() -> ThreadedHost {
    let table = SharedFlowTable::new();
    table.insert(FlowRule::new(
        FlowMatch::at_step(RulePort::Nic(0)),
        vec![Action::ToService(W0)],
    ));
    table.insert(FlowRule::new(
        FlowMatch::at_step(W0),
        vec![Action::ToService(W1)],
    ));
    table.insert(FlowRule::new(
        FlowMatch::at_step(W1),
        vec![Action::ToService(W2)],
    ));
    table.insert(FlowRule::new(
        FlowMatch::at_step(W2),
        vec![Action::ToPort(EGRESS)],
    ));
    ThreadedHost::start(
        table,
        vec![worker(W0), worker(W1), worker(W2)],
        ThreadedHostConfig::default(),
    )
}

/// The same chain split one worker per host, joined by controller-installed
/// hand-off rules: every packet crosses the interconnect twice.
fn federated_chain() -> Federation {
    let host = |service| {
        ThreadedHost::start(
            SharedFlowTable::new(),
            vec![worker(service)],
            ThreadedHostConfig::default(),
        )
    };
    let mut fed = Federation::new(
        vec![host(W0), host(W1), host(W2)],
        FederationConfig::default(),
    );
    fed.install_chain(0, 0, &[(0, W0), (1, W1), (2, W2)], EGRESS);
    fed
}

/// A host of the re-home federation: one stateful worker, a two-port menu
/// so the pin / wildcard mutations are graph-legal.
fn state_host() -> ThreadedHost {
    let table = SharedFlowTable::new();
    table.insert(FlowRule::new(
        FlowMatch::at_step(RulePort::Nic(0)),
        vec![Action::ToService(STATE)],
    ));
    table.insert(FlowRule::new(
        FlowMatch::at_step(STATE),
        vec![Action::ToPort(EGRESS), Action::ToPort(PIN_PORT)],
    ));
    ThreadedHost::start(table, vec![worker(STATE)], ThreadedHostConfig::default())
}

/// Three hosts; 0 and 2 run identical stateful workers (buckets bounce
/// between them), 1 sits idle so the topology is genuinely multi-host.
fn rehome_federation() -> Federation {
    let idle = ThreadedHost::start(
        SharedFlowTable::new(),
        Vec::new(),
        ThreadedHostConfig::default(),
    );
    Federation::new(
        vec![state_host(), idle, state_host()],
        FederationConfig::default(),
    )
}

/// Pushes `total` packets through a plain host, returning how many came
/// back out.
fn pump_host_quantum(host: &ThreadedHost, total: usize) -> usize {
    let mut sent = 0usize;
    let mut received = 0usize;
    let mut flow: u16 = 0;
    let mut pending: Vec<Packet> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    while received < total && Instant::now() < deadline {
        if sent < total && pending.is_empty() {
            let want = 64.min(total - sent);
            for _ in 0..want {
                pending.push(packet(flow % FLOWS));
                flow = flow.wrapping_add(1);
            }
        }
        let mut admitted_now = 0;
        if !pending.is_empty() {
            let outcome = host.inject_burst(std::mem::take(&mut pending));
            admitted_now = outcome.admitted;
            sent += outcome.admitted;
            pending = outcome.throttled;
        }
        let drained = host.poll_egress_burst(64).len();
        received += drained;
        if drained == 0 && admitted_now == 0 {
            std::thread::yield_now();
        }
    }
    received
}

/// Pushes `total` packets through the federation's ingress + pump loop.
/// Returns how many egressed.
fn pump_fed_quantum(fed: &mut Federation, total: usize) -> usize {
    let mut sent = 0usize;
    let mut received = 0usize;
    let mut flow: u16 = 0;
    let deadline = Instant::now() + Duration::from_secs(30);
    while received < total && Instant::now() < deadline {
        let mut progressed = false;
        for _ in 0..64 {
            if sent >= total {
                break;
            }
            match fed.inject(packet(flow % FLOWS)) {
                InjectResult::Admitted => {
                    sent += 1;
                    progressed = true;
                }
                InjectResult::Throttled(_) => break,
            }
            flow = flow.wrapping_add(1);
        }
        let outs = fed.pump().len();
        received += outs;
        if outs == 0 && !progressed {
            std::thread::yield_now();
        }
    }
    received
}

/// Injects `packets` through the federation and pumps until all of them
/// egress, in order per flow.
fn drain_fed(fed: &mut Federation, packets: Vec<Packet>) {
    let total = packets.len();
    let mut queue: VecDeque<Packet> = packets.into();
    let mut received = 0usize;
    let deadline = Instant::now() + Duration::from_secs(30);
    while received < total && Instant::now() < deadline {
        let mut progressed = false;
        while let Some(p) = queue.pop_front() {
            match fed.inject(p) {
                InjectResult::Admitted => progressed = true,
                InjectResult::Throttled(p) => {
                    queue.push_front(p);
                    break;
                }
            }
        }
        let outs = fed.pump().len();
        received += outs;
        if outs == 0 && !progressed {
            std::thread::yield_now();
        }
    }
    assert_eq!(received, total, "setup traffic drains completely");
}

/// Installs a host-0 exact-flow rule per pinned flow. Returns the count.
fn install_ruled_flows(fed: &Federation) -> usize {
    for flow in RULED_FLOWS {
        let key = packet(flow).flow_key().expect("udp packet");
        // Never injected, so the drop action can't skew packet accounting.
        fed.host(0).install_rule(
            FlowRule::new(FlowMatch::exact(RulePort::Nic(0), &key), vec![Action::Drop])
                .with_priority(100),
        );
    }
    RULED_FLOWS.len()
}

/// Seeds the NF-internal per-flow counters (`PIN_THRESHOLD - 1` packets
/// each) and fires the wildcard trigger flow.
fn seed_stateful_flows(fed: &mut Federation) {
    let mut packets = Vec::new();
    for flow in STATEFUL_FLOWS {
        for _ in 0..(PIN_THRESHOLD - 1) {
            packets.push(packet(flow));
        }
    }
    packets.push(packet(WILDCARD_FLOW));
    drain_fed(fed, packets);
}

/// The shard partition currently serving `flow`, on whatever host its
/// bucket lives right now.
fn owner_table(fed: &Federation, flow: u16) -> SharedFlowTable {
    let p = packet(flow);
    let key = p.flow_key().expect("udp packet");
    let host = fed.host(fed.host_of_flow(&key));
    host.shard_table(host.shard_of(&p))
}

/// How many pinned flows still have their exact rule wherever their
/// bucket now lives (the cross-host rule-conservation check).
fn surviving_rules(fed: &Federation) -> usize {
    RULED_FLOWS
        .iter()
        .filter(|flow| {
            let key = packet(**flow).flow_key().expect("udp packet");
            owner_table(fed, **flow)
                .with_read(|t| t.exact_rule_id(RulePort::Nic(0), &key).is_some())
        })
        .count()
}

/// Whether the wildcard mutation still governs the trigger flow's current
/// host (the cross-host wildcard-conservation check).
fn wildcard_survived(fed: &Federation) -> bool {
    let key = packet(WILDCARD_FLOW).flow_key().expect("udp packet");
    owner_table(fed, WILDCARD_FLOW).with_read(|t| {
        t.peek(RulePort::Service(STATE), &key)
            .is_some_and(|rule| rule.default_action() == Some(Action::ToPort(PIN_PORT)))
    })
}

/// How many stateful flows' pins fired after their final packet — i.e.
/// whose NF-internal counter survived every cross-host move.
fn surviving_nf_states(fed: &mut Federation) -> usize {
    drain_fed(fed, STATEFUL_FLOWS.iter().map(|f| packet(*f)).collect());
    let deadline = Instant::now() + Duration::from_secs(10);
    let surviving = |fed: &Federation| {
        STATEFUL_FLOWS
            .iter()
            .filter(|flow| {
                let key = packet(**flow).flow_key().expect("udp packet");
                owner_table(fed, **flow)
                    .with_read(|t| t.exact_rule_id(RulePort::Service(STATE), &key).is_some())
            })
            .count()
    };
    // The pin message applies asynchronously (after the packet's burst).
    while surviving(fed) < STATEFUL_FLOWS.len() && Instant::now() < deadline {
        std::thread::yield_now();
    }
    surviving(fed)
}

/// Pumps `total` packets through the federation while `bucket` re-homes to
/// host `to`, measuring the pause (initiate → handshake complete).
/// Returns `(egressed, pause)`.
fn pump_through_fed_rehome(
    fed: &mut Federation,
    total: usize,
    bucket: usize,
    to: HostId,
    pen_flow: Option<u16>,
) -> (usize, Duration) {
    let mut sent = 0usize;
    let mut received = 0usize;
    let mut flow: u16 = 0;
    // Prime in-flight traffic so the move catches a busy host.
    while sent < 128.min(total) {
        match fed.inject(packet(flow % FLOWS)) {
            InjectResult::Admitted => sent += 1,
            InjectResult::Throttled(_) => break,
        }
        flow = flow.wrapping_add(1);
    }
    let started = Instant::now();
    assert!(fed.rehome_bucket(bucket, to), "cross-host move initiates");
    // Packets of a flow steering to the moving bucket, injected before the
    // first pump: they land in the re-home pen and ride the interconnect
    // to the bucket's new host once the move completes.
    if let Some(flow) = pen_flow {
        for _ in 0..8 {
            if sent >= total {
                break;
            }
            match fed.inject(packet(flow)) {
                InjectResult::Admitted => sent += 1,
                InjectResult::Throttled(_) => break,
            }
        }
    }
    let mut pause = None;
    let deadline = Instant::now() + Duration::from_secs(30);
    while (received < total || fed.pending_rehomes() > 0) && Instant::now() < deadline {
        if fed.pending_rehomes() == 0 && pause.is_none() {
            pause = Some(started.elapsed());
        }
        let mut progressed = false;
        for _ in 0..32 {
            if sent >= total {
                break;
            }
            match fed.inject(packet(flow % FLOWS)) {
                InjectResult::Admitted => {
                    sent += 1;
                    progressed = true;
                }
                InjectResult::Throttled(_) => break,
            }
            flow = flow.wrapping_add(1);
        }
        let outs = fed.pump().len();
        received += outs;
        if outs == 0 && !progressed {
            std::thread::yield_now();
        }
    }
    let pause = pause.unwrap_or_else(|| started.elapsed());
    (received, pause)
}

/// The buckets bounced between hosts 0 and 2 each round: the wildcard
/// trigger first, then stateful and ruled flows interleaved, so state,
/// mutation and rule migration are all exercised even in quick mode.
fn mover_flows() -> Vec<u16> {
    let mut movers = vec![WILDCARD_FLOW];
    for i in 0..RULED_FLOWS.len() {
        movers.push(STATEFUL_FLOWS[i]);
        movers.push(RULED_FLOWS[i]);
    }
    movers
}

fn bucket_of(flow: u16) -> usize {
    let key = packet(flow).flow_key().expect("udp packet");
    (key.stable_hash() % STEER_BUCKETS as u64) as usize
}

fn bench_federation(c: &mut Criterion) {
    let total = quantum();
    let mut group = c.benchmark_group("federation");
    if quick_mode() {
        group.measurement_time(Duration::from_millis(300));
    }
    group.throughput(Throughput::Elements(total as u64));

    let host = single_chain_host();
    group.bench_function("single_host_chain", |b| {
        b.iter(|| {
            let received = pump_host_quantum(&host, total);
            assert_eq!(received, total, "single-host chain loses nothing");
            black_box(received)
        })
    });
    host.shutdown();

    let mut fed = federated_chain();
    group.bench_function("three_host_chain", |b| {
        b.iter(|| {
            let received = pump_fed_quantum(&mut fed, total);
            assert_eq!(received, total, "federated chain loses nothing");
            black_box(received)
        })
    });
    fed.shutdown();
    group.finish();
}

/// Timed conservation report written as a JSON artifact
/// (`SDNFV_BENCH_JSON=<path>`, the `BENCH_federation.json` CI artifact).
fn emit_federation_json() {
    let Ok(path) = std::env::var("SDNFV_BENCH_JSON") else {
        return;
    };
    let total = quantum();
    let tp_rounds = if quick_mode() { 4 } else { 8 };
    let rehome_rounds = if quick_mode() { 6 } else { 16 };

    // Throughput: the identical chain, one host vs. three federated hosts.
    let host = single_chain_host();
    let started = Instant::now();
    for _ in 0..tp_rounds {
        assert_eq!(pump_host_quantum(&host, total), total);
    }
    let single_pps = (total * tp_rounds) as f64 / started.elapsed().as_secs_f64();
    host.shutdown();

    let mut fed = federated_chain();
    let started = Instant::now();
    for _ in 0..tp_rounds {
        assert_eq!(pump_fed_quantum(&mut fed, total), total);
    }
    let fed_pps = (total * tp_rounds) as f64 / started.elapsed().as_secs_f64();
    let chain_wires = fed.wire_stats();
    let chain_frames: u64 = chain_wires.iter().map(|w| w.transferred).sum();
    let chain_depth = chain_wires.iter().map(|w| w.max_depth).max().unwrap_or(0);
    let chain_report = fed.report();
    fed.shutdown();

    // Cross-host re-home rounds on a fresh three-host federation.
    let mut fed = rehome_federation();
    let rules_installed = install_ruled_flows(&fed);
    seed_stateful_flows(&mut fed);
    let movers = mover_flows();
    let mut pauses_us: Vec<f64> = Vec::with_capacity(rehome_rounds);
    let mut drained = 0usize;
    let mut expected = 0usize;
    for round in 0..rehome_rounds {
        let bucket = bucket_of(movers[round % movers.len()]);
        let to = if fed.host_of_bucket(bucket) == 0 {
            2
        } else {
            0
        };
        // A stateless flow sharing the moving bucket (src port below the
        // designated floor so no pin fires): its mid-move packets exercise
        // the pen → interconnect forwarding path.
        let pen_flow = (2000u16..5000).find(|f| bucket_of(*f) == bucket);
        let (received, pause) = pump_through_fed_rehome(&mut fed, total, bucket, to, pen_flow);
        drained += received;
        expected += total;
        pauses_us.push(pause.as_secs_f64() * 1e6);
    }
    let nf_state_lost = STATEFUL_FLOWS.len() - surviving_nf_states(&mut fed);
    let wildcard_rules_lost = usize::from(!wildcard_survived(&fed));
    let rules_lost = rules_installed - surviving_rules(&fed);
    let packets_lost = expected.saturating_sub(drained);
    let ledger = fed.global_rehome_report();
    let report = fed.report();
    let rehome_wires = fed.wire_stats();
    let rehome_depth = rehome_wires.iter().map(|w| w.max_depth).max().unwrap_or(0);
    fed.shutdown();

    let percentile_of = |samples: &mut Vec<f64>, q: f64| -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        samples[((samples.len() - 1) as f64 * q).round() as usize]
    };
    let mut pauses = pauses_us;
    let json = format!(
        "{{\n  \"bench\": \"federation\",\n  \"hosts\": 3,\n  \"quantum\": {total},\n  \
         \"throughput_rounds\": {tp_rounds},\n  \"rehome_rounds\": {rehome_rounds},\n  \
         \"flows\": {FLOWS},\n  \"results\": [\n    {{\"single_host_pps\": {single_pps:.0}, \
         \"three_host_pps\": {fed_pps:.0}, \"federation_slowdown\": {:.3}, \
         \"chain_wire_frames\": {chain_frames}, \"chain_wire_depth_max\": {chain_depth}, \
         \"rehome_wire_depth_max\": {rehome_depth}, \"wire_depth_max\": {}, \
         \"packets_lost\": {packets_lost}, \"rules_lost\": {rules_lost}, \
         \"rules_installed\": {rules_installed}, \"wildcard_rules_lost\": {wildcard_rules_lost}, \
         \"nf_state_lost\": {nf_state_lost}, \"nf_states_tracked\": {}, \
         \"buckets_rehomed\": {}, \"rules_rehomed\": {}, \"wildcard_mutations_rehomed\": {}, \
         \"wildcard_conflicts\": {}, \"nf_flow_states_rehomed\": {}, \"packets_penned\": {}, \
         \"buckets_handed_off\": {}, \"buckets_adopted\": {}, \"pen_packets_forwarded\": {}, \
         \"frames_delivered\": {}, \
         \"rehome_pause_us_p50\": {:.1}, \"rehome_pause_us_p90\": {:.1}, \
         \"rehome_pause_us_max\": {:.1}}}\n  ]\n}}\n",
        single_pps / fed_pps,
        chain_depth.max(rehome_depth),
        STATEFUL_FLOWS.len(),
        report.buckets_rehomed,
        ledger.rules_rehomed,
        ledger.wildcard_mutations_rehomed,
        ledger.wildcard_conflicts,
        ledger.nf_flow_states_rehomed,
        ledger.packets_penned,
        ledger.buckets_handed_off,
        ledger.buckets_adopted,
        report.pen_packets_forwarded,
        chain_report.frames_delivered + report.frames_delivered,
        percentile_of(&mut pauses, 0.5),
        percentile_of(&mut pauses, 0.9),
        percentile_of(&mut pauses, 1.0),
    );
    assert_eq!(
        packets_lost, 0,
        "cross-host re-homing must not lose packets"
    );
    assert_eq!(rules_lost, 0, "cross-host re-homing must not lose rules");
    assert_eq!(
        wildcard_rules_lost, 0,
        "cross-host re-homing must not lose wildcard mutations"
    );
    assert_eq!(
        nf_state_lost, 0,
        "cross-host re-homing must not lose NF-internal flow state"
    );
    assert_eq!(
        ledger.buckets_handed_off, ledger.buckets_adopted,
        "every handed-off bucket must be adopted"
    );
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote federation report to {path}"),
        Err(err) => eprintln!("failed to write {path}: {err}"),
    }
}

fn bench_and_report(c: &mut Criterion) {
    bench_federation(c);
    emit_federation_json();
}

criterion_group!(benches, bench_and_report);
criterion_main!(benches);
