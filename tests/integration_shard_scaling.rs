//! End-to-end tests of dynamic shard scale-out/in and the state-safe
//! bucket re-home handshake (quiesce → drain → export rules → flip).
//!
//! Includes the two regression tests this PR's bugfixes demand:
//! * a steering rebalance must carry shard-local exact-flow rules along
//!   with the moved buckets (previously they were silently stranded on the
//!   old shard);
//! * a retired NF replica's rings must be reclaimed when the host scales
//!   down and stays down (previously they were kept until a later reuse).

use sdnfv::control::{
    deploy_sharded, ElasticNfManager, ElasticPolicy, NfvOrchestrator, ShardPlacement, ShardPolicy,
};
use sdnfv::dataplane::{
    shard_for_flow, HostOutput, SimActorKind, ThreadedHost, ThreadedHostConfig,
};
use sdnfv::flowtable::{Action, FlowMatch, FlowRule, RulePort, ServiceId, SharedFlowTable};
use sdnfv::graph::{catalog, CompileOptions};
use sdnfv::nf::nfs::{ComputeNf, IdsNf, NoOpNf};
use sdnfv::nf::{NetworkFunction, NfContext, NfFlowState, NfMessage, NfRegistry, Verdict};
use sdnfv::obs::ObsHub;
use sdnfv::proto::flow::FlowKey;
use sdnfv::proto::packet::{Packet, PacketBuilder};
use sdnfv::telemetry::ShardLifecycleEvent;
use std::collections::HashMap;
use std::time::{Duration, Instant};

fn packet(flow: u16) -> Packet {
    PacketBuilder::udp()
        .src_ip([10, 0, 0, 1])
        .dst_ip([10, 0, 0, 2])
        .src_port(1024 + (flow % 4096))
        .dst_port(80)
        .ingress_port(0)
        .total_size(256)
        .build()
}

fn forward_table() -> SharedFlowTable {
    let table = SharedFlowTable::new();
    table.insert(FlowRule::new(
        FlowMatch::at_step(RulePort::Nic(0)),
        vec![Action::ToPort(1)],
    ));
    table
}

fn worker_table() -> (SharedFlowTable, ServiceId) {
    let (graph, ids) = catalog::chain(&[("worker", true)]);
    let table = SharedFlowTable::new();
    for rule in graph.compile(&CompileOptions::default()) {
        table.insert(rule);
    }
    (table, ids[0])
}

fn noop_nfs(service: ServiceId) -> Vec<(ServiceId, Box<dyn NetworkFunction>)> {
    vec![(service, Box::new(NoOpNf::new()) as Box<dyn NetworkFunction>)]
}

/// A flow that the *default* steering of an `n`-shard host sends to `shard`.
fn flow_on(shard: usize, n: usize) -> u16 {
    (0..u16::MAX)
        .find(|f| {
            packet(*f)
                .flow_key()
                .is_some_and(|k| shard_for_flow(&k, n) == shard)
        })
        .expect("some flow steers to the shard")
}

/// Installs a shard-local exact-flow drop rule for `flow` in `shard`'s
/// partition (the state the re-home handshake must carry along).
fn install_local_drop(host: &ThreadedHost, shard: usize, flow: u16) {
    let key = packet(flow).flow_key().expect("udp packet");
    host.shard_table(shard).with_write(|t| {
        t.insert(
            FlowRule::new(FlowMatch::exact(RulePort::Nic(0), &key), vec![Action::Drop])
                .with_priority(100),
        );
    });
}

/// Whether `flow`'s exact-flow rule is installed in `shard`'s partition.
fn has_local_rule(host: &ThreadedHost, shard: usize, flow: u16) -> bool {
    let key = packet(flow).flow_key().expect("udp packet");
    host.shard_table(shard)
        .with_read(|t| t.exact_rule_id(RulePort::Nic(0), &key).is_some())
}

fn drain(host: &ThreadedHost, expected: usize, deadline: Duration) -> usize {
    let until = Instant::now() + deadline;
    let mut received = 0;
    while received < expected && Instant::now() < until {
        let got = host.poll_egress_burst(64).len();
        if got == 0 {
            std::thread::yield_now();
        }
        received += got;
    }
    received
}

/// Polls the host until a condition holds (the host advances its re-home
/// handshake inside the polling calls). Egress drained while waiting is
/// added to `drained` so packet-conservation tallies stay exact.
fn wait_for_counting(
    host: &ThreadedHost,
    deadline: Duration,
    drained: &mut u64,
    mut cond: impl FnMut() -> bool,
) -> bool {
    let until = Instant::now() + deadline;
    while Instant::now() < until {
        if cond() {
            return true;
        }
        *drained += host.poll_egress_burst(16).len() as u64;
        std::thread::yield_now();
    }
    cond()
}

/// [`wait_for_counting`] for phases where nothing is in flight (the drain
/// count is irrelevant).
fn wait_for(host: &ThreadedHost, deadline: Duration, cond: impl FnMut() -> bool) -> bool {
    let mut sink = 0u64;
    wait_for_counting(host, deadline, &mut sink, cond)
}

/// **Regression (rule loss on rebalance):** a steering rebalance moves a
/// bucket's shard-local exact-flow rules into the new owner's partition —
/// the flow keeps matching its rule after the move.
#[test]
fn rebalance_preserves_shard_local_exact_flow_rules() {
    let host = ThreadedHost::start_sharded(
        forward_table(),
        |_shard| vec![],
        ThreadedHostConfig {
            num_shards: 2,
            ..ThreadedHostConfig::default()
        },
    );
    let flow = flow_on(0, 2);
    install_local_drop(&host, 0, flow);

    // The rule governs the flow on shard 0.
    assert!(host.inject(packet(flow)).is_admitted());
    assert!(
        wait_for(&host, Duration::from_secs(5), || host
            .stats()
            .snapshot()
            .dropped
            == 1),
        "the shard-local rule drops the flow before the move"
    );

    // Re-home every bucket to shard 1. The host is idle, so the handshake
    // completes (essentially) synchronously — a bucket whose last packet's
    // in-flight count is still settling may take one more advance tick.
    assert!(host.set_steering_weights(&[0, 1]));
    assert!(
        wait_for(&host, Duration::from_secs(5), || host.pending_rehomes()
            == 0),
        "idle buckets complete their move promptly"
    );
    assert_eq!(host.shard_of(&packet(flow)), 1, "flow re-homed to shard 1");
    assert!(
        has_local_rule(&host, 1, flow),
        "the exact-flow rule moved with its bucket"
    );
    assert!(
        !has_local_rule(&host, 0, flow),
        "the old shard no longer holds the rule"
    );
    assert!(host.rehome_report().rules_rehomed >= 1);

    // And it still governs the flow on its new shard: the packet is
    // dropped by the rule, not forwarded.
    assert!(host.inject(packet(flow)).is_admitted());
    assert!(
        wait_for(&host, Duration::from_secs(5), || host
            .stats()
            .snapshot()
            .dropped
            == 2),
        "the rule keeps matching after the re-home"
    );
    assert_eq!(host.stats().snapshot().transmitted, 0);
    host.shutdown();
}

/// **Regression (retired-slot ring leak):** after a flood scales a service
/// up and the quiet phase scales it back down, the retired replica's rings
/// are compacted away — the allocated slot count returns to baseline.
#[test]
fn retired_nf_slot_rings_are_reclaimed() {
    let (table, worker) = worker_table();
    let host = ThreadedHost::start(
        table,
        vec![
            (
                worker,
                Box::new(ComputeNf::new(50)) as Box<dyn NetworkFunction>,
            ),
            (
                worker,
                Box::new(ComputeNf::new(50)) as Box<dyn NetworkFunction>,
            ),
        ],
        ThreadedHostConfig {
            telemetry_interval_ns: 200_000,
            ..ThreadedHostConfig::default()
        },
    );
    // Baseline: two replicas, two slots.
    let mut slots = 0;
    assert!(wait_for(&host, Duration::from_secs(5), || {
        for snapshot in host.poll_telemetry() {
            slots = snapshot.nf_slots_allocated;
        }
        slots == 2
    }));

    // Scale down and stay down: the replica drains, retires, and its slot
    // (rings included) is reclaimed by the compaction pass.
    assert!(host.remove_nf_replica(0, worker));
    assert!(
        wait_for(&host, Duration::from_secs(10), || {
            let mut live = usize::MAX;
            for snapshot in host.poll_telemetry() {
                live = snapshot.nfs.len();
                slots = snapshot.nf_slots_allocated;
            }
            live == 1 && slots == 1
        }),
        "slot count returns to baseline after scale-down (slots = {slots})"
    );
    host.shutdown();
}

/// The acceptance loop: flood a 2-shard host, scale out to 3 shards while
/// traffic flows, absorb, then scale back in — zero packets dropped and
/// zero exact-flow rules lost across every re-home.
#[test]
fn flood_scale_out_absorb_scale_in_loses_nothing() {
    let (table, worker) = worker_table();
    let host = ThreadedHost::start_sharded(
        table,
        |_shard| {
            vec![(
                worker,
                Box::new(ComputeNf::new(200)) as Box<dyn NetworkFunction>,
            )]
        },
        ThreadedHostConfig {
            num_shards: 2,
            nf_ring_capacity: 128,
            shard_credits: 128,
            burst_size: 16,
            ..ThreadedHostConfig::default()
        },
    );
    // Shard-local state on both shards (installed after the partitions
    // forked, so only the re-home handshake can carry it).
    let ruled_flow_0 = flow_on(0, 2);
    let ruled_flow_1 = flow_on(1, 2);
    install_local_drop(&host, 0, ruled_flow_0);
    install_local_drop(&host, 1, ruled_flow_1);

    let mut admitted = 0u64;
    let mut drained = 0u64;
    let mut flow = 0u16;
    let mut pump = |host: &ThreadedHost, rounds: usize, admitted: &mut u64, drained: &mut u64| {
        for _ in 0..rounds {
            let burst: Vec<Packet> = (0..16)
                .map(|_| {
                    // Steer clear of the ruled flows: their drops are
                    // asserted separately. `packet` maps flow ids modulo
                    // 4096 onto source ports, so the comparison must too —
                    // id 4096 + r regenerates flow r's 5-tuple.
                    loop {
                        flow = flow.wrapping_add(1);
                        let id = flow % 4096;
                        if id != ruled_flow_0 % 4096 && id != ruled_flow_1 % 4096 {
                            break;
                        }
                    }
                    packet(flow)
                })
                .collect();
            let outcome = host.inject_burst(burst);
            *admitted += outcome.admitted as u64;
            *drained += host.poll_egress_burst(64).len() as u64;
        }
    };

    // Phase 1 — flood the 2-shard host.
    pump(&host, 100, &mut admitted, &mut drained);

    // Phase 2 — scale out to 3 shards mid-traffic.
    let spawned = host.spawn_shard(vec![(
        worker,
        Box::new(ComputeNf::new(200)) as Box<dyn NetworkFunction>,
    )]);
    let new_shard = spawned
        .map_err(|_| "spawn refused")
        .expect("spawn accepted while traffic flows");
    assert_eq!(new_shard, 2);
    assert_eq!(host.num_shards(), 3);

    // Phase 3 — absorb: keep pumping; the new shard picks up re-homed
    // buckets.
    pump(&host, 200, &mut admitted, &mut drained);
    assert!(
        wait_for_counting(&host, Duration::from_secs(10), &mut drained, || host
            .pending_rehomes()
            == 0),
        "every bucket move completes"
    );
    let spread = host.stats().shard_snapshot(2).received;
    assert!(spread > 0, "the spawned shard serves re-homed traffic");

    // Phase 4 — scale back in.
    assert!(host.retire_shard());
    assert!(
        wait_for_counting(&host, Duration::from_secs(10), &mut drained, || !host
            .is_retiring()),
        "retirement completes"
    );
    assert_eq!(host.num_shards(), 2);
    pump(&host, 50, &mut admitted, &mut drained);

    // Drain everything; nothing was lost anywhere.
    drained += drain(
        &host,
        (admitted - drained) as usize,
        Duration::from_secs(30),
    ) as u64;
    assert_eq!(drained, admitted, "every admitted packet came back out");
    let snap = host.stats().snapshot();
    assert_eq!(snap.overflow_drops, 0, "no silent drops");
    assert_eq!(snap.transmitted, admitted);

    // Zero exact-flow rules lost: each ruled flow's rule lives exactly
    // where its bucket now lives, and still governs it.
    for ruled in [ruled_flow_0, ruled_flow_1] {
        let owner = host.shard_of(&packet(ruled));
        assert!(
            has_local_rule(&host, owner, ruled),
            "flow {ruled}'s rule followed its bucket to shard {owner}"
        );
        let dropped_before = host.stats().snapshot().dropped;
        assert!(host.inject(packet(ruled)).is_admitted());
        assert!(
            wait_for(&host, Duration::from_secs(5), || host
                .stats()
                .snapshot()
                .dropped
                > dropped_before),
            "flow {ruled} is still governed by its exact rule"
        );
    }

    // Lifecycle events recorded the scale-out and scale-in.
    let events = host.take_shard_events();
    assert!(events
        .iter()
        .any(|e| matches!(e, ShardLifecycleEvent::Spawned { shard: 2, .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, ShardLifecycleEvent::Retired { shard: 2, .. })));
    host.shutdown();
}

/// Edge case: a scale-out lands while buckets are still mid-drain from a
/// rebalance — the moves finish, the spawn re-homes around them, and no
/// packet is lost.
#[test]
fn scale_out_while_buckets_are_mid_drain() {
    let (table, worker) = worker_table();
    let host = ThreadedHost::start_sharded(
        table,
        |_shard| {
            vec![(
                worker,
                Box::new(ComputeNf::new(2000)) as Box<dyn NetworkFunction>,
            )]
        },
        ThreadedHostConfig {
            num_shards: 2,
            nf_ring_capacity: 256,
            shard_credits: 256,
            ..ThreadedHostConfig::default()
        },
    );
    // Fill the pipelines without draining, so buckets have in-flight
    // packets when the rebalance hits. Alternate the weight vector until a
    // rebalance catches busy buckets mid-flight (each call only re-plans
    // buckets that are not already moving).
    let mut admitted = 0u64;
    for flow in 0..200u16 {
        if host.inject(packet(flow)).is_admitted() {
            admitted += 1;
        }
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut skew = false;
    while host.pending_rehomes() == 0 && Instant::now() < deadline {
        for flow in 0..64u16 {
            if host.inject(packet(flow)).is_admitted() {
                admitted += 1;
            }
        }
        let weights: &[u32] = if skew { &[3, 1] } else { &[1, 3] };
        skew = !skew;
        assert!(host.set_steering_weights(weights));
    }
    assert!(
        host.pending_rehomes() > 0,
        "busy buckets park instead of flipping"
    );

    // Spawn a shard while those moves are still draining.
    let spawned = host.spawn_shard(vec![(
        worker,
        Box::new(ComputeNf::new(2000)) as Box<dyn NetworkFunction>,
    )]);
    assert_eq!(
        spawned
            .map_err(|_| "spawn refused")
            .expect("spawn during mid-drain moves"),
        2
    );

    // Keep injecting (some flows land in pens) and drain everything.
    for flow in 200..300u16 {
        match host.inject(packet(flow)) {
            sdnfv::dataplane::InjectResult::Admitted => admitted += 1,
            sdnfv::dataplane::InjectResult::Throttled(_) => {}
        }
    }
    let drained = drain(&host, admitted as usize, Duration::from_secs(30));
    assert_eq!(drained as u64, admitted);
    assert!(
        wait_for(&host, Duration::from_secs(10), || host.pending_rehomes()
            == 0),
        "all moves complete"
    );
    let snap = host.stats().snapshot();
    assert_eq!(snap.overflow_drops, 0);
    assert_eq!(snap.dropped, 0);
    assert_eq!(snap.transmitted, admitted);
    host.shutdown();
}

/// Edge case: retiring the shard that owns punted packets — punts are
/// terminal states, so the drain handshake completes and the retirement
/// goes through.
#[test]
fn retire_shard_that_punted_packets() {
    // An empty flow table: every packet punts to the controller.
    let host = ThreadedHost::start_sharded(
        SharedFlowTable::new(),
        |_shard| vec![],
        ThreadedHostConfig {
            num_shards: 2,
            ..ThreadedHostConfig::default()
        },
    );
    let mut admitted = 0u64;
    for flow in 0..100u16 {
        if host.inject(packet(flow)).is_admitted() {
            admitted += 1;
        }
    }
    // Wait until every punt has been counted (all terminal).
    assert!(wait_for(&host, Duration::from_secs(10), || {
        host.stats().snapshot().controller_punts == admitted
    }));
    assert!(host.retire_shard());
    assert!(
        wait_for(&host, Duration::from_secs(10), || !host.is_retiring()),
        "punted packets do not block the retirement"
    );
    assert_eq!(host.num_shards(), 1);
    host.shutdown();
}

/// Edge case: retire-then-immediately-respawn. The spawn is refused while
/// the retirement is still in flight (the NF set is handed back), then
/// succeeds once the teardown completes.
#[test]
fn retire_then_immediately_respawn() {
    let (table, worker) = worker_table();
    let host = ThreadedHost::start_sharded(
        table,
        |_shard| {
            vec![(
                worker,
                Box::new(ComputeNf::new(500)) as Box<dyn NetworkFunction>,
            )]
        },
        ThreadedHostConfig {
            num_shards: 2,
            ..ThreadedHostConfig::default()
        },
    );
    // Busy the host so the retirement takes at least one drain cycle.
    let mut admitted = 0u64;
    for flow in 0..100u16 {
        if host.inject(packet(flow)).is_admitted() {
            admitted += 1;
        }
    }
    assert!(host.retire_shard());
    let mut nfs = noop_nfs(worker);
    if host.is_retiring() {
        // The immediate respawn is refused; the NF set comes back intact.
        match host.spawn_shard(nfs) {
            Err(returned) => {
                assert_eq!(returned.len(), 1);
                nfs = returned;
            }
            Ok(_) => panic!("spawn must be refused while retiring"),
        }
    }
    let drained = drain(&host, admitted as usize, Duration::from_secs(30));
    assert_eq!(drained as u64, admitted);
    assert!(wait_for(&host, Duration::from_secs(10), || !host.is_retiring()));
    assert_eq!(host.num_shards(), 1);

    // Now the respawn goes through and the new shard serves traffic again.
    let before_respawn = host.stats().shard_snapshot(1).received;
    assert_eq!(
        host.spawn_shard(nfs)
            .map_err(|_| "spawn refused")
            .expect("respawn after teardown"),
        1
    );
    let mut more = 0u64;
    for flow in 0..200u16 {
        if host.inject(packet(flow)).is_admitted() {
            more += 1;
        }
    }
    let drained = drain(&host, more as usize, Duration::from_secs(30));
    assert_eq!(drained as u64, more);
    assert!(
        host.stats().shard_snapshot(1).received > before_respawn,
        "the respawned shard serves its bucket share"
    );
    host.shutdown();
}

/// Edge case: a retiring shard's credit gate converges while packets are
/// still in flight — every credit comes home before the gate is torn down,
/// and the surviving shards end with full budgets.
#[test]
fn credit_gate_converges_through_retirement() {
    let (table, worker) = worker_table();
    let host = ThreadedHost::start_sharded(
        table,
        |_shard| {
            vec![(
                worker,
                Box::new(ComputeNf::new(1000)) as Box<dyn NetworkFunction>,
            )]
        },
        ThreadedHostConfig {
            num_shards: 2,
            nf_ring_capacity: 64,
            shard_credits: 64,
            ..ThreadedHostConfig::default()
        },
    );
    // Saturate both shards, then retire shard 1 with its pipeline full.
    let mut admitted = 0u64;
    for flow in 0..400u16 {
        if host.inject(packet(flow)).is_admitted() {
            admitted += 1;
        }
    }
    assert!(host.retire_shard());
    let drained = drain(&host, admitted as usize, Duration::from_secs(30));
    assert_eq!(drained as u64, admitted, "in-flight packets all completed");
    assert!(wait_for(&host, Duration::from_secs(10), || !host.is_retiring()));
    assert_eq!(host.num_shards(), 1);
    // The survivor's credits are all home.
    assert!(wait_for(&host, Duration::from_secs(5), || {
        host.available_credits(0) == host.credit_budget(0)
    }));
    let snap = host.stats().snapshot();
    assert_eq!(snap.overflow_drops, 0);
    assert_eq!(snap.transmitted, admitted);
    host.shutdown();
}

/// Collects exactly `expected` egressed packets (with their ports).
fn collect(host: &ThreadedHost, expected: usize, deadline: Duration) -> Vec<HostOutput> {
    let until = Instant::now() + deadline;
    let mut out = Vec::new();
    while out.len() < expected && Instant::now() < until {
        let got = host.poll_egress_burst(64);
        if got.is_empty() {
            std::thread::yield_now();
        }
        out.extend(got);
    }
    out
}

/// Polls until every pending re-home completes.
fn settle(host: &ThreadedHost) {
    assert!(
        wait_for(host, Duration::from_secs(10), || host.pending_rehomes()
            == 0),
        "re-homes settle"
    );
}

/// A service-chain table `NIC 0 → worker → {port 1 (default), port 2}`:
/// the two-port menu lets test NFs flip the default with `ChangeDefault`.
fn two_port_table(worker: ServiceId) -> SharedFlowTable {
    let table = SharedFlowTable::new();
    table.insert(FlowRule::new(
        FlowMatch::at_step(RulePort::Nic(0)),
        vec![Action::ToService(worker)],
    ));
    table.insert(FlowRule::new(
        FlowMatch::at_step(worker),
        vec![Action::ToPort(1), Action::ToPort(2)],
    ));
    table
}

/// Test NF: on the first packet of the trigger flow, emits a **wildcard**
/// `ChangeDefault` flipping its own default edge to port 2 — the
/// shard-local wildcard mutation whose survival across bucket moves this
/// suite regresses.
struct WildcardPinNf {
    own: ServiceId,
    trigger_src_port: u16,
    fired: bool,
}

impl NetworkFunction for WildcardPinNf {
    fn name(&self) -> &str {
        "wildcard-pin"
    }

    fn process(&mut self, packet: &Packet, ctx: &mut NfContext) -> Verdict {
        if !self.fired {
            if let Some(key) = packet.flow_key() {
                if key.src_port == self.trigger_src_port {
                    self.fired = true;
                    ctx.send_for_flow(
                        &key,
                        NfMessage::ChangeDefault {
                            flows: FlowMatch::any(),
                            service: self.own,
                            new_default: Action::ToPort(2),
                        },
                    );
                }
            }
        }
        Verdict::Default
    }
}

/// Test NF modeling an IDS-style per-flow counter: once a flow's count
/// reaches `threshold`, its default edge is pinned to port 2 via an exact
/// `ChangeDefault`. The counter itself lives only inside the NF, so the
/// pin can fire across a re-home **only if** the NF state migrated.
struct CounterPinNf {
    own: ServiceId,
    threshold: u64,
    counts: HashMap<FlowKey, u64>,
}

impl CounterPinNf {
    fn new(own: ServiceId, threshold: u64) -> Self {
        CounterPinNf {
            own,
            threshold,
            counts: HashMap::new(),
        }
    }
}

impl NetworkFunction for CounterPinNf {
    fn name(&self) -> &str {
        "counter-pin"
    }

    fn process(&mut self, packet: &Packet, ctx: &mut NfContext) -> Verdict {
        let Some(key) = packet.flow_key() else {
            return Verdict::Default;
        };
        let count = self.counts.entry(key).or_insert(0);
        *count += 1;
        if *count == self.threshold {
            ctx.send_for_flow(
                &key,
                NfMessage::ChangeDefault {
                    flows: FlowMatch::exact(RulePort::Service(self.own), &key),
                    service: self.own,
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

/// Test NF standing in for a scrubber that eats everything it is handed —
/// makes "the flow went to the scrubber" observable as a drop.
struct DiscardNf;

impl NetworkFunction for DiscardNf {
    fn name(&self) -> &str {
        "discard"
    }

    fn process(&mut self, _packet: &Packet, _ctx: &mut NfContext) -> Verdict {
        Verdict::Discard
    }
}

/// **Regression (wildcard-mutation loss, rebalance):** a wildcard
/// `ChangeDefault` applied inside one shard's partition pre-move must keep
/// governing the mutating flow's packets after its bucket is re-homed —
/// previously the mutation silently stayed behind in the old partition.
#[test]
fn wildcard_mutation_survives_rebalance() {
    let worker = ServiceId::new(1);
    let trigger = flow_on(0, 2);
    let host = ThreadedHost::start_sharded(
        two_port_table(worker),
        |_shard| {
            vec![(
                worker,
                Box::new(WildcardPinNf {
                    own: worker,
                    trigger_src_port: 1024 + (trigger % 4096),
                    fired: false,
                }) as Box<dyn NetworkFunction>,
            )]
        },
        ThreadedHostConfig {
            num_shards: 2,
            ..ThreadedHostConfig::default()
        },
    );
    // First trigger packet fires the wildcard mutation (its own egress may
    // still take the old default — messages apply before the *next* burst).
    assert!(host.inject(packet(trigger)).is_admitted());
    assert_eq!(collect(&host, 1, Duration::from_secs(5)).len(), 1);
    // The mutation governs the flow on shard 0 …
    assert!(host.inject(packet(trigger)).is_admitted());
    let out = collect(&host, 1, Duration::from_secs(5));
    assert_eq!(out[0].port, 2, "wildcard mutation flipped the default");
    // … and is shard-local: shard 1's partition still defaults to port 1.
    let key = packet(trigger).flow_key().unwrap();
    assert_eq!(
        host.shard_table(1).with_read(|t| t
            .peek(RulePort::Service(worker), &key)
            .unwrap()
            .default_action()),
        Some(Action::ToPort(1))
    );

    // Re-home every bucket (including the mutating flow's) to shard 1.
    assert!(host.set_steering_weights(&[0, 1]));
    settle(&host);
    assert_eq!(host.shard_of(&packet(trigger)), 1);

    // The wildcard mutation traveled: post-move packets of the mutating
    // flow still egress on port 2, served from shard 1's partition.
    assert!(host.inject(packet(trigger)).is_admitted());
    let out = collect(&host, 1, Duration::from_secs(5));
    assert_eq!(out[0].port, 2, "the mutation governs post-move packets");
    assert_eq!(
        host.shard_table(1).with_read(|t| t
            .peek(RulePort::Service(worker), &key)
            .unwrap()
            .default_action()),
        Some(Action::ToPort(2)),
        "the destination partition absorbed the replayed mutation"
    );
    assert!(host.rehome_report().wildcard_mutations_rehomed >= 1);
    host.shutdown();
}

/// Retire-shard variant of the wildcard regression: the mutation lives in
/// the retiring shard's partition and must survive onto the survivor.
#[test]
fn wildcard_mutation_survives_shard_retirement() {
    let worker = ServiceId::new(1);
    let trigger = flow_on(1, 2);
    let host = ThreadedHost::start_sharded(
        two_port_table(worker),
        |_shard| {
            vec![(
                worker,
                Box::new(WildcardPinNf {
                    own: worker,
                    trigger_src_port: 1024 + (trigger % 4096),
                    fired: false,
                }) as Box<dyn NetworkFunction>,
            )]
        },
        ThreadedHostConfig {
            num_shards: 2,
            ..ThreadedHostConfig::default()
        },
    );
    assert_eq!(host.shard_of(&packet(trigger)), 1);
    assert!(host.inject(packet(trigger)).is_admitted());
    assert_eq!(collect(&host, 1, Duration::from_secs(5)).len(), 1);
    assert!(host.inject(packet(trigger)).is_admitted());
    assert_eq!(
        collect(&host, 1, Duration::from_secs(5))[0].port,
        2,
        "mutation active on the shard about to retire"
    );

    assert!(host.retire_shard());
    assert!(
        wait_for(&host, Duration::from_secs(10), || !host.is_retiring()),
        "retirement completes"
    );
    assert_eq!(host.num_shards(), 1);
    assert!(host.inject(packet(trigger)).is_admitted());
    assert_eq!(
        collect(&host, 1, Duration::from_secs(5))[0].port,
        2,
        "the mutation followed the bucket onto the survivor"
    );
    host.shutdown();
}

/// **Regression (NF-internal flow-state loss, rebalance):** an IDS-style
/// per-flow counter must survive a re-home. The counter reaches its
/// threshold only if the old shard's tally migrates — the pin (an exact
/// `ChangeDefault` continuation) then fires on the *new* shard.
#[test]
fn nf_flow_state_survives_rebalance() {
    let worker = ServiceId::new(1);
    let flow = flow_on(0, 2);
    let host = ThreadedHost::start_sharded(
        two_port_table(worker),
        |_shard| {
            vec![(
                worker,
                Box::new(CounterPinNf::new(worker, 5)) as Box<dyn NetworkFunction>,
            )]
        },
        ThreadedHostConfig {
            num_shards: 2,
            ..ThreadedHostConfig::default()
        },
    );
    // Four packets on shard 0: one short of the pin threshold. The flow
    // has NF state but no exact rule — only `flow_state_keys` exposes it.
    for _ in 0..4 {
        assert!(host.inject(packet(flow)).is_admitted());
    }
    assert_eq!(collect(&host, 4, Duration::from_secs(5)).len(), 4);

    // Move the flow's bucket to shard 1, then send the fifth packet.
    assert!(host.set_steering_weights(&[0, 1]));
    settle(&host);
    assert!(host.rehome_report().nf_flow_states_rehomed >= 1);
    assert!(host.inject(packet(flow)).is_admitted());
    assert_eq!(collect(&host, 1, Duration::from_secs(5)).len(), 1);
    // The fifth packet crossed the threshold on the new shard (4 migrated
    // + 1): the pin rule now exists in shard 1's partition and governs the
    // sixth packet. Without state migration the new shard's count would be
    // 1 and the pin could not have fired.
    assert!(host.inject(packet(flow)).is_admitted());
    let out = collect(&host, 1, Duration::from_secs(5));
    assert_eq!(out[0].port, 2, "the migrated counter fired the pin");
    let key = packet(flow).flow_key().unwrap();
    assert!(host
        .shard_table(1)
        .with_read(|t| t.exact_rule_id(RulePort::Service(worker), &key).is_some()));
    host.shutdown();
}

/// Retire-shard variant of the NF-state regression.
#[test]
fn nf_flow_state_survives_shard_retirement() {
    let worker = ServiceId::new(1);
    let flow = flow_on(1, 2);
    let host = ThreadedHost::start_sharded(
        two_port_table(worker),
        |_shard| {
            vec![(
                worker,
                Box::new(CounterPinNf::new(worker, 5)) as Box<dyn NetworkFunction>,
            )]
        },
        ThreadedHostConfig {
            num_shards: 2,
            ..ThreadedHostConfig::default()
        },
    );
    for _ in 0..4 {
        assert!(host.inject(packet(flow)).is_admitted());
    }
    assert_eq!(collect(&host, 4, Duration::from_secs(5)).len(), 4);
    assert!(host.retire_shard());
    assert!(
        wait_for(&host, Duration::from_secs(10), || !host.is_retiring()),
        "retirement completes"
    );
    assert!(host.inject(packet(flow)).is_admitted());
    assert_eq!(collect(&host, 1, Duration::from_secs(5)).len(), 1);
    assert!(host.inject(packet(flow)).is_admitted());
    assert_eq!(
        collect(&host, 1, Duration::from_secs(5))[0].port,
        2,
        "the counter survived the retirement and fired on the survivor"
    );
    host.shutdown();
}

/// End to end with the real built-in IDS: a flagged flow keeps being
/// scrubbed after its bucket moves — both the exact pin rule *and* the
/// IDS's internal flagged set travel with the bucket.
#[test]
fn ids_flagged_flow_keeps_scrubbing_after_rehome() {
    let ids = ServiceId::new(1);
    let scrubber = ServiceId::new(2);
    let table = SharedFlowTable::new();
    table.insert(FlowRule::new(
        FlowMatch::at_step(RulePort::Nic(0)),
        vec![Action::ToService(ids)],
    ));
    table.insert(FlowRule::new(
        FlowMatch::at_step(ids),
        vec![Action::ToPort(1), Action::ToService(scrubber)],
    ));
    table.insert(FlowRule::new(
        FlowMatch::at_step(scrubber),
        vec![Action::ToPort(1)],
    ));
    let host = ThreadedHost::start_sharded(
        table,
        |_shard| {
            vec![
                (
                    ids,
                    Box::new(IdsNf::new(ids, scrubber)) as Box<dyn NetworkFunction>,
                ),
                (scrubber, Box::new(DiscardNf) as Box<dyn NetworkFunction>),
            ]
        },
        ThreadedHostConfig {
            num_shards: 2,
            ..ThreadedHostConfig::default()
        },
    );
    let flow = flow_on(0, 2);
    let attack = |payload: &str| {
        PacketBuilder::udp()
            .src_ip([10, 0, 0, 1])
            .dst_ip([10, 0, 0, 2])
            .src_port(1024 + (flow % 4096))
            .dst_port(80)
            .ingress_port(0)
            .payload(payload.as_bytes())
            .build()
    };
    // The malicious packet flags the flow (scrubbed → discarded).
    assert!(host.inject(attack("q=UNION SELECT secrets")).is_admitted());
    assert!(
        wait_for(&host, Duration::from_secs(5), || host
            .stats()
            .snapshot()
            .dropped
            == 1),
        "the malicious packet was scrubbed"
    );
    // Move the flow's bucket to shard 1 and send an *innocent* packet:
    // the flag (NF state) and the pin (exact rule) both traveled, so it
    // is still scrubbed rather than forwarded.
    assert!(host.set_steering_weights(&[0, 1]));
    settle(&host);
    assert!(host.inject(attack("q=hello world")).is_admitted());
    assert!(
        wait_for(&host, Duration::from_secs(5), || host
            .stats()
            .snapshot()
            .dropped
            == 2),
        "the flagged flow is still scrubbed after the re-home"
    );
    assert_eq!(host.stats().snapshot().transmitted, 0, "nothing leaked");
    host.shutdown();
}

/// A bucket caught mid-move pens its arrivals, the pen shows up as gauges
/// in the destination shard's telemetry, and every released packet leaves
/// one age sample. Runs on the stepped host so the move stays pending for
/// exactly as long as the test holds the old shard's worker still.
#[test]
fn parked_bucket_pen_is_visible_in_telemetry_and_sampled_on_release() {
    let (host, sim) = ThreadedHost::start_sim_sharded(
        forward_table(),
        |_shard| vec![],
        ThreadedHostConfig {
            num_shards: 2,
            telemetry_interval_ns: 200_000,
            ..ThreadedHostConfig::default()
        },
    );
    let flow = flow_on(0, 2);
    // Ten packets of one flow sit in shard 0's ingress ring: its worker is
    // not stepped, so the flow's bucket stays in flight.
    for _ in 0..10 {
        assert!(host.inject(packet(flow)).is_admitted());
    }
    // Rebalance everything onto shard 1. No move can finish while shard 0's
    // worker stands still (it must drain the flow and answer the export).
    assert!(host.set_steering_weights(&[0, 1]));
    assert!(host.pending_rehomes() > 0);
    // Arrivals for the parked bucket wait in its pen, visible as gauges.
    for _ in 0..5 {
        assert!(host.inject(packet(flow)).is_admitted());
    }
    assert_eq!(host.rehome_report().packets_penned, 5);
    let shard1_worker = sim
        .actors()
        .into_iter()
        .filter(|actor| actor.kind == SimActorKind::Worker)
        .nth(1)
        .expect("two shard workers")
        .id;
    let mut gauges_seen = false;
    for _ in 0..64 {
        sim.advance_clock_ns(250_000);
        sim.step(shard1_worker);
        gauges_seen |= host.poll_telemetry().iter().any(|snap| {
            snap.shard == 1 && snap.rehome_pen_depth == 5 && snap.rehome_pen_max_age_ns > 0
        });
    }
    assert!(
        gauges_seen,
        "pen depth and age are visible in shard 1's telemetry"
    );

    // Now let shard 0 run: the ten packets drain, the bucket releases, and
    // the five penned packets follow through shard 1.
    let mut out = 0;
    for _ in 0..200 {
        sim.advance_clock_ns(10_000);
        sim.step_all();
        out += host.poll_egress_burst(64).len();
    }
    assert_eq!(out, 15);
    assert_eq!(host.pending_rehomes(), 0);
    assert_eq!(
        host.latency_report().pen_dwell.count(),
        5,
        "one pen-dwell sample per released penned packet"
    );
    host.shutdown();
}

/// The `ShardPolicy` layer end to end: a flood drives the elastic manager
/// to spawn a shard (through the orchestrator's boot delay), the pool
/// absorbs, and the quiet phase retires it — zero loss throughout.
#[test]
fn elastic_manager_scales_shard_count_out_and_in() {
    let (table, worker) = worker_table();
    let mut registry = NfRegistry::new();
    registry.register("worker", || ComputeNf::new(2000));
    let mut orchestrator = NfvOrchestrator::new(registry, 1_000_000); // 1 ms boot
    let placement = ShardPlacement::uniform(&[(worker, "worker")], 1, 1);
    let host = deploy_sharded(
        &mut orchestrator,
        &placement,
        table,
        ThreadedHostConfig {
            nf_ring_capacity: 64,
            shard_credits: 64,
            burst_size: 16,
            telemetry_interval_ns: 200_000,
            ..ThreadedHostConfig::default()
        },
    )
    .expect("worker is registered");

    let mut obs = ObsHub::new();
    let mut manager = ElasticNfManager::new(orchestrator, ElasticPolicy::default());
    manager
        .enable_shard_scaling(
            ShardPolicy {
                scale_out_fill: 0.5,
                scale_in_fill: 0.05,
                min_shards: 1,
                max_shards: 2,
                cooldown_ns: 5_000_000,
                latency_slo_ns: None,
            },
            vec![(worker, "worker".to_string(), 1)],
        )
        .expect("worker is in the registry");

    // Phase 1 — flood until the shard count grows.
    let mut admitted = 0u64;
    let mut drained = 0u64;
    let mut flow = 0u16;
    let deadline = Instant::now() + Duration::from_secs(30);
    let scaled = loop {
        let burst: Vec<Packet> = (0..32)
            .map(|_| {
                flow = flow.wrapping_add(1);
                packet(flow)
            })
            .collect();
        let outcome = host.inject_burst(burst);
        admitted += outcome.admitted as u64;
        drained += host.poll_egress_burst(64).len() as u64;
        obs.observe(&host);
        manager.drive(&host, obs.telemetry());
        if host.num_shards() == 2 {
            break true;
        }
        if Instant::now() > deadline {
            break false;
        }
    };
    assert!(scaled, "the flood never grew the shard count");
    assert!(manager.shard_spawns() >= 1);
    assert!(!manager.shard_pending(), "the shard launch matured");

    // Phase 2 — absorb the backlog with both shards.
    drained += drain(
        &host,
        (admitted - drained) as usize,
        Duration::from_secs(30),
    ) as u64;
    assert_eq!(drained, admitted, "every admitted packet came back out");

    // Phase 3 — quiet: the manager retires the extra shard.
    let deadline = Instant::now() + Duration::from_secs(30);
    let calmed = loop {
        obs.observe(&host);
        manager.drive(&host, obs.telemetry());
        let _ = host.poll_egress_burst(16);
        if host.num_shards() == 1 && !host.is_retiring() {
            break true;
        }
        if Instant::now() > deadline {
            break false;
        }
        std::thread::yield_now();
    };
    assert!(calmed, "the quiet phase never retired the extra shard");
    assert!(manager.shard_retires() >= 1);

    let snap = host.stats().snapshot();
    assert_eq!(snap.overflow_drops, 0, "no silent drops anywhere");
    assert_eq!(snap.dropped, 0);
    assert_eq!(snap.transmitted, admitted);
    host.shutdown();
}

/// **Regression (NF state loss on a replica scale):** a flow's replica
/// follows its steering bucket, and a replica scale moves the re-picked
/// buckets' NF state to their new replica, so a flow's packets never meet
/// a replica without its history. Previously only a scale-down moved
/// state, into the first survivor only, while the flows re-hashed over
/// every replica; a scale-up moved none. Counters pin a flow once its
/// *combined* count reaches the threshold, so a flow pins only if its
/// state survived every step; and `nf_state_import_drops` must stay zero.
#[test]
fn scale_down_hands_nf_state_to_surviving_replica() {
    for sequence in [&[2, 1][..], &[3, 2], &[2, 3], &[2, 3, 2]] {
        scale_replicas_through(sequence);
    }
}

/// Runs one replica sequence on a one-shard host. Flow group `g` (32 flows
/// each, so every replica holds state) gets two packets per flow in every
/// phase before step `g` and the rest of the threshold right after it:
/// after each step, the group whose count crosses must pin every flow.
fn scale_replicas_through(sequence: &[usize]) {
    const GROUP: u16 = 32;
    let worker = ServiceId::new(1);
    let steps = sequence.len() - 1;
    let threshold = 2 * steps + 1;
    let counter = || Box::new(CounterPinNf::new(worker, threshold as u64));
    let host = ThreadedHost::start(
        two_port_table(worker),
        (0..sequence[0])
            .map(|_| (worker, counter() as Box<dyn NetworkFunction>))
            .collect(),
        ThreadedHostConfig::default(),
    );
    let send = |groups: std::ops::Range<usize>, per_flow: usize| -> Vec<HostOutput> {
        let flows: Vec<u16> = groups
            .flat_map(|g| g as u16 * GROUP..(g as u16 + 1) * GROUP)
            .collect();
        for _ in 0..per_flow {
            for &flow in &flows {
                assert!(host.inject(packet(flow)).is_admitted());
            }
        }
        let outputs = collect(&host, flows.len() * per_flow, Duration::from_secs(10));
        assert_eq!(
            outputs.len(),
            flows.len() * per_flow,
            "{sequence:?}: all egress"
        );
        outputs
    };
    send(0..steps, 2);
    for step in 1..=steps {
        let (from, to) = (sequence[step - 1], sequence[step]);
        let handoffs = host.stats().snapshot().nf_state_handoffs;
        if to > from {
            assert!(host.add_nf_replica(0, worker, counter()).is_ok());
        } else {
            assert!(host.remove_nf_replica(0, worker));
        }
        // The scale is over once its re-picked buckets have released and
        // their state has moved.
        wait_for(&host, Duration::from_secs(10), || {
            host.pending_rehomes() == 0 && host.stats().snapshot().nf_state_handoffs > handoffs
        });
        // Group `step - 1` crosses the threshold on its combined count;
        // the later groups keep warming.
        send(step - 1..step, threshold - 2 * step);
        send(step..steps, 2);
        let probes = send(step - 1..step, 1);
        assert!(
            probes.iter().all(|out| out.port == 2),
            "{sequence:?} step {step}: {} of {} flows forward on the pinned port",
            probes.iter().filter(|out| out.port == 2).count(),
            probes.len()
        );
        let snap = host.stats().snapshot();
        assert_eq!(
            snap.nf_state_import_drops, 0,
            "{sequence:?} step {step}: no state lost"
        );
    }
    assert!(host.stats().snapshot().nf_state_handoffs >= 1);
    host.shutdown();
}

/// **Regression (NF state stranded by a cross-shard re-home):** a bucket
/// moved onto a shard that runs several replicas of a service hands each
/// flow's NF state to the replica that will serve the flow. Previously
/// every imported flow's state went into the shard's first replica, where
/// the flows picked for the second could not reach it.
#[test]
fn rehome_into_a_multi_replica_shard_routes_state_to_each_flows_replica() {
    let worker = ServiceId::new(1);
    let host = ThreadedHost::start_sharded(
        two_port_table(worker),
        |_shard| {
            (0..2)
                .map(|_| {
                    (
                        worker,
                        Box::new(CounterPinNf::new(worker, 5)) as Box<dyn NetworkFunction>,
                    )
                })
                .collect()
        },
        ThreadedHostConfig {
            num_shards: 2,
            ..ThreadedHostConfig::default()
        },
    );
    let flows: Vec<u16> = (0..64).collect();
    let send = |per_flow: usize| -> Vec<HostOutput> {
        for _ in 0..per_flow {
            for &flow in &flows {
                assert!(host.inject(packet(flow)).is_admitted());
            }
        }
        collect(&host, flows.len() * per_flow, Duration::from_secs(10))
    };
    // Warm every flow one short of the threshold, then move every bucket
    // of shard 1 onto shard 0.
    assert_eq!(send(4).len(), 4 * flows.len());
    assert!(host.set_steering_weights(&[1, 0]));
    settle(&host);
    assert!(host.rehome_report().nf_flow_states_rehomed >= 1);
    assert_eq!(send(1).len(), flows.len());
    let probes = send(1);
    assert!(
        probes.iter().all(|out| out.port == 2),
        "{} of {} flows forward on the pinned port",
        probes.iter().filter(|out| out.port == 2).count(),
        probes.len()
    );
    assert_eq!(host.stats().snapshot().nf_state_import_drops, 0);
    host.shutdown();
}
