//! The cost and safety of re-homing steering buckets between shards: a
//! 2-shard host pumps traffic while alternating steering rebalances move
//! half the bucket space back and forth through the quiesce-then-move
//! handshake.
//!
//! Four things are *asserted*, not just measured, because they are the
//! state-safety contract of the handshake:
//!
//! * **packets lost during a re-home must be 0** — every admitted packet
//!   (including those parked in bucket pens) comes back out;
//! * **exact-flow rules lost must be 0** — shard-local rules installed for
//!   pinned flows keep matching wherever their bucket lives;
//! * **wildcard mutations lost must be 0** — a shard-local wildcard
//!   `ChangeDefault` keeps governing the mutating flow's bucket wherever
//!   it moves;
//! * **NF flow states lost must be 0** — an NF-internal per-flow counter
//!   keeps counting across every move (its threshold pin fires on whatever
//!   shard the flow ends up on).
//!
//! The re-home *pause* — from initiating the rebalance until every bucket
//! move has completed — is recorded in microseconds; the time packets
//! spend parked in re-home pens comes from the host's pen-dwell histogram,
//! in nanoseconds.
//!
//! Environment knobs (for CI trend recording):
//! * `SDNFV_BENCH_QUICK=1` — shrink the workload;
//! * `SDNFV_BENCH_JSON=<path>` — write `{"results": [...]}` with packet,
//!   rule, wildcard-mutation and NF-state conservation plus the re-home
//!   pause and pen-dwell percentiles (the `BENCH_rehome.json` CI artifact).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sdnfv_dataplane::{ThreadedHost, ThreadedHostConfig};
use sdnfv_flowtable::{Action, FlowMatch, FlowRule, RulePort, ServiceId, SharedFlowTable};
use sdnfv_nf::{NetworkFunction, NfContext, NfFlowState, NfMessage, Verdict};
use sdnfv_proto::flow::FlowKey;
use sdnfv_proto::packet::{Packet, PacketBuilder};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

const WORKER_ROUNDS: u32 = 100;
const FLOWS: u16 = 256;
const PACKET_SIZE: usize = 256;
const WORKER: ServiceId = ServiceId::new(1);
/// Flows that get a shard-local exact-flow rule (outside the traffic flow
/// id range so their drops never skew the packet-conservation tally).
const RULED_FLOWS: [u16; 8] = [5000, 5001, 5002, 5003, 5004, 5005, 5006, 5007];
/// Flows carrying NF-internal per-flow counters: each is fed
/// `PIN_THRESHOLD - 1` packets before the rebalance rounds and one after;
/// the pin (an exact `ChangeDefault` to port 2) fires only if the counter
/// survived every intervening bucket move.
const STATEFUL_FLOWS: [u16; 8] = [6000, 6001, 6002, 6003, 6004, 6005, 6006, 6007];
/// The flow whose first packet triggers a shard-local **wildcard**
/// `ChangeDefault` (worker default → port 2); the mutation must follow the
/// flow's bucket through every rebalance.
const WILDCARD_FLOW: u16 = 6100;
/// Per-flow packet count at which [`StatefulWorkerNf`] pins a designated
/// flow to port 2.
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

/// The bench worker: burns CPU like `ComputeNf`, keeps a per-flow packet
/// counter (migrated via the NF state hooks), pins designated flows to
/// port 2 once their counter crosses [`PIN_THRESHOLD`], and emits one
/// shard-local wildcard `ChangeDefault` when it sees the trigger flow.
struct StatefulWorkerNf {
    rounds: u32,
    counts: HashMap<FlowKey, u64>,
    wildcard_fired: bool,
}

impl StatefulWorkerNf {
    fn new(rounds: u32) -> Self {
        StatefulWorkerNf {
            rounds,
            counts: HashMap::new(),
            wildcard_fired: false,
        }
    }
}

impl NetworkFunction for StatefulWorkerNf {
    fn name(&self) -> &str {
        "stateful-worker"
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
                    service: WORKER,
                    new_default: Action::ToPort(2),
                },
            );
        } else if key.src_port >= DESIGNATED_PORT_FLOOR && *count == PIN_THRESHOLD {
            ctx.send_for_flow(
                &key,
                NfMessage::ChangeDefault {
                    flows: FlowMatch::exact(RulePort::Service(WORKER), &key),
                    service: WORKER,
                    new_default: Action::ToPort(2),
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

fn worker_host() -> ThreadedHost {
    let table = SharedFlowTable::new();
    table.insert(FlowRule::new(
        FlowMatch::at_step(RulePort::Nic(0)),
        vec![Action::ToService(WORKER)],
    ));
    // A two-port menu so `ChangeDefault(…, ToPort(2))` is graph-legal.
    table.insert(FlowRule::new(
        FlowMatch::at_step(WORKER),
        vec![Action::ToPort(1), Action::ToPort(2)],
    ));
    ThreadedHost::start_sharded(
        table,
        |_shard| {
            vec![(
                WORKER,
                Box::new(StatefulWorkerNf::new(WORKER_ROUNDS)) as Box<dyn NetworkFunction>,
            )]
        },
        ThreadedHostConfig {
            num_shards: 2,
            nf_ring_capacity: 256,
            shard_credits: 256,
            ..ThreadedHostConfig::default()
        },
    )
}

/// Installs a shard-local exact-flow rule for each pinned flow in its
/// current owner's partition. Returns how many were installed.
fn install_ruled_flows(host: &ThreadedHost) -> usize {
    for flow in RULED_FLOWS {
        let key = packet(flow).flow_key().expect("udp packet");
        let owner = host.shard_of(&packet(flow));
        host.shard_table(owner).with_write(|t| {
            t.insert(
                FlowRule::new(FlowMatch::exact(RulePort::Nic(0), &key), vec![Action::Drop])
                    .with_priority(100),
            );
        });
    }
    RULED_FLOWS.len()
}

/// How many pinned flows still have their exact rule in their *current*
/// owner's partition (the rule-conservation check).
fn surviving_rules(host: &ThreadedHost) -> usize {
    RULED_FLOWS
        .iter()
        .filter(|flow| {
            let key = packet(**flow).flow_key().expect("udp packet");
            let owner = host.shard_of(&packet(**flow));
            host.shard_table(owner)
                .with_read(|t| t.exact_rule_id(RulePort::Nic(0), &key).is_some())
        })
        .count()
}

/// Injects `packets` and drains them all (egress port is irrelevant to the
/// caller), asserting nothing is lost.
fn inject_and_drain(host: &ThreadedHost, packets: Vec<Packet>) {
    let mut pending = packets;
    let mut inflight = 0usize;
    let deadline = Instant::now() + Duration::from_secs(30);
    while (!pending.is_empty() || inflight > 0) && Instant::now() < deadline {
        if !pending.is_empty() {
            let outcome = host.inject_burst(std::mem::take(&mut pending));
            inflight += outcome.admitted;
            pending = outcome.throttled;
        }
        inflight -= host.poll_egress_burst(64).len().min(inflight);
        if inflight > 0 || !pending.is_empty() {
            std::thread::yield_now();
        }
    }
    assert!(
        pending.is_empty() && inflight == 0,
        "setup traffic drains completely"
    );
}

/// Seeds the NF-internal per-flow counters: each stateful flow receives
/// `PIN_THRESHOLD - 1` packets (one short of its pin), and the wildcard
/// trigger flow fires the shard-local wildcard mutation.
fn seed_stateful_flows(host: &ThreadedHost) {
    let mut packets = Vec::new();
    for flow in STATEFUL_FLOWS {
        for _ in 0..(PIN_THRESHOLD - 1) {
            packets.push(packet(flow));
        }
    }
    packets.push(packet(WILDCARD_FLOW));
    inject_and_drain(host, packets);
}

/// How many stateful flows' pins fired after their final packet — i.e.
/// whose NF-internal counter survived every re-home (the NF-state
/// conservation check). The pin is an exact rule in the flow's current
/// owner's partition.
fn surviving_nf_states(host: &ThreadedHost) -> usize {
    // The final packet of each stateful flow crosses the threshold only if
    // the migrated tally arrived intact.
    inject_and_drain(host, STATEFUL_FLOWS.iter().map(|f| packet(*f)).collect());
    let deadline = Instant::now() + Duration::from_secs(10);
    let surviving = |host: &ThreadedHost| {
        STATEFUL_FLOWS
            .iter()
            .filter(|flow| {
                let key = packet(**flow).flow_key().expect("udp packet");
                let owner = host.shard_of(&packet(**flow));
                host.shard_table(owner)
                    .with_read(|t| t.exact_rule_id(RulePort::Service(WORKER), &key).is_some())
            })
            .count()
    };
    // The pin message applies asynchronously (after the packet's burst).
    while surviving(host) < STATEFUL_FLOWS.len() && Instant::now() < deadline {
        std::thread::yield_now();
    }
    surviving(host)
}

/// Whether the wildcard mutation still governs the trigger flow's current
/// owner partition (the wildcard-conservation check).
fn wildcard_survived(host: &ThreadedHost) -> bool {
    let key = packet(WILDCARD_FLOW).flow_key().expect("udp packet");
    let owner = host.shard_of(&packet(WILDCARD_FLOW));
    host.shard_table(owner).with_read(|t| {
        t.peek(RulePort::Service(WORKER), &key)
            .is_some_and(|rule| rule.default_action() == Some(Action::ToPort(2)))
    })
}

/// Pumps `total` packets through the host while a steering rebalance is in
/// flight, measuring the re-home pause (initiate → every move complete).
/// Returns `(drained, rehome_pause)`.
fn pump_through_rehome(host: &ThreadedHost, total: usize, skew: bool) -> (usize, Duration) {
    let weights: &[u32] = if skew { &[3, 1] } else { &[1, 3] };
    let mut sent = 0usize;
    let mut received = 0usize;
    let mut flow: u16 = 0;
    let mut pending: Vec<Packet> = Vec::new();
    // Prime in-flight traffic so the rebalance actually catches busy
    // buckets (otherwise every move completes synchronously).
    for _ in 0..4 {
        let burst: Vec<Packet> = (0..32)
            .map(|_| {
                let p = packet(flow % FLOWS);
                flow = flow.wrapping_add(1);
                p
            })
            .collect();
        let outcome = host.inject_burst(burst);
        sent += outcome.admitted;
        pending.extend(outcome.throttled);
    }
    let rehome_started = Instant::now();
    assert!(host.set_steering_weights(weights), "rebalance initiates");
    let mut rehome_pause = None;
    while received < total {
        if host.pending_rehomes() == 0 && rehome_pause.is_none() {
            rehome_pause = Some(rehome_started.elapsed());
        }
        if sent < total && pending.is_empty() {
            let want = 32.min(total - sent);
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
    // The tail of the re-home may outlive the traffic quantum.
    let deadline = Instant::now() + Duration::from_secs(10);
    while host.pending_rehomes() > 0 && Instant::now() < deadline {
        let _ = host.poll_egress_burst(16);
        std::thread::yield_now();
    }
    let pause = rehome_pause.unwrap_or_else(|| rehome_started.elapsed());
    (received, pause)
}

fn bench_shard_rehome(c: &mut Criterion) {
    let total = quantum();
    let mut group = c.benchmark_group("shard_rehome");
    if quick_mode() {
        group.measurement_time(Duration::from_millis(300));
    }
    let host = worker_host();
    install_ruled_flows(&host);
    seed_stateful_flows(&host);
    let mut skew = false;
    group.throughput(Throughput::Elements(total as u64));
    group.bench_function("pump_through_rebalance", |b| {
        b.iter(|| {
            skew = !skew;
            let (received, _pause) = pump_through_rehome(&host, total, skew);
            assert_eq!(received, total, "no packet lost during the re-home");
            black_box(received)
        })
    });
    assert_eq!(
        surviving_rules(&host),
        RULED_FLOWS.len(),
        "no exact-flow rule lost during the re-homes"
    );
    assert!(
        wildcard_survived(&host),
        "no wildcard mutation lost during the re-homes"
    );
    assert_eq!(
        surviving_nf_states(&host),
        STATEFUL_FLOWS.len(),
        "no NF-internal flow state lost during the re-homes"
    );
    host.shutdown();
    group.finish();
}

/// Timed conservation report written as a JSON artifact
/// (`SDNFV_BENCH_JSON=<path>`, the `BENCH_rehome.json` CI artifact).
fn emit_rehome_json() {
    let Ok(path) = std::env::var("SDNFV_BENCH_JSON") else {
        return;
    };
    let total = quantum();
    let rounds = if quick_mode() { 6 } else { 16 };
    let host = worker_host();
    let rules_installed = install_ruled_flows(&host);
    seed_stateful_flows(&host);

    let mut pauses_us: Vec<f64> = Vec::with_capacity(rounds);
    let mut drained_total = 0usize;
    for round in 0..rounds {
        let (received, pause) = pump_through_rehome(&host, total, round % 2 == 0);
        drained_total += received;
        pauses_us.push(pause.as_secs_f64() * 1e6);
    }
    let packets_penned_total = host.rehome_report().packets_penned;
    let nf_state_lost = STATEFUL_FLOWS.len() - surviving_nf_states(&host);
    let wildcard_rules_lost = usize::from(!wildcard_survived(&host));
    let report = host.rehome_report();
    // The always-on pen-dwell histogram records every penned packet's
    // release (or handout).
    let pen_dwell = host.latency_report().pen_dwell;
    let snap = host.stats().snapshot();
    let packets_lost =
        (total * rounds).saturating_sub(drained_total) + snap.overflow_drops as usize;
    let rules_lost = rules_installed - surviving_rules(&host);
    host.shutdown();

    let percentile_of = |samples: &mut Vec<f64>, q: f64| -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        samples[((samples.len() - 1) as f64 * q).round() as usize]
    };
    let mut pauses = pauses_us;
    let json = format!(
        "{{\n  \"bench\": \"shard_rehome\",\n  \"quantum\": {total},\n  \"rounds\": {rounds},\n  \
         \"flows\": {FLOWS},\n  \"results\": [\n    {{\"packets_lost\": {packets_lost}, \
         \"rules_lost\": {rules_lost}, \"rules_installed\": {rules_installed}, \
         \"wildcard_rules_lost\": {wildcard_rules_lost}, \"nf_state_lost\": {nf_state_lost}, \
         \"nf_states_tracked\": {}, \
         \"buckets_rehomed\": {}, \"rules_rehomed\": {}, \"wildcard_mutations_rehomed\": {}, \
         \"wildcard_conflicts\": {}, \"nf_flow_states_rehomed\": {}, \
         \"nf_state_import_drops\": {}, \"packets_penned\": {}, \
         \"rehome_pause_us_p50\": {:.1}, \"rehome_pause_us_p90\": {:.1}, \
         \"rehome_pause_us_max\": {:.1}, \"pen_dwell_hist_count\": {}, \
         \"pen_dwell_ns_p50\": {}, \"pen_dwell_ns_p90\": {}, \"pen_dwell_ns_p99\": {}, \
         \"pen_dwell_ns_p999\": {}, \"pen_dwell_ns_max\": {}, \
         \"throttled\": {}}}\n  ]\n}}\n",
        STATEFUL_FLOWS.len(),
        report.buckets_rehomed,
        report.rules_rehomed,
        report.wildcard_mutations_rehomed,
        report.wildcard_conflicts,
        report.nf_flow_states_rehomed,
        snap.nf_state_import_drops,
        packets_penned_total,
        percentile_of(&mut pauses, 0.5),
        percentile_of(&mut pauses, 0.9),
        percentile_of(&mut pauses, 1.0),
        pen_dwell.count(),
        pen_dwell.p50(),
        pen_dwell.p90(),
        pen_dwell.p99(),
        pen_dwell.p999(),
        pen_dwell.max,
        snap.throttled,
    );
    assert_eq!(packets_lost, 0, "re-homing must not lose packets");
    assert_eq!(rules_lost, 0, "re-homing must not lose exact-flow rules");
    assert_eq!(
        wildcard_rules_lost, 0,
        "re-homing must not lose wildcard mutations"
    );
    assert_eq!(
        nf_state_lost, 0,
        "re-homing must not lose NF-internal flow state"
    );
    assert_eq!(
        snap.nf_state_import_drops, 0,
        "no migrated state may be dropped at import"
    );
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote shard-rehome report to {path}"),
        Err(err) => eprintln!("failed to write {path}: {err}"),
    }
}

fn bench_and_report(c: &mut Criterion) {
    bench_shard_rehome(c);
    emit_rehome_json();
}

criterion_group!(benches, bench_and_report);
criterion_main!(benches);
