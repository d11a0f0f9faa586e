//! The schedule runner: one seed → one fully deterministic simulated run.
//!
//! A run drives the **shipping** elastic + re-home control plane — the
//! same `ShardEngine` / `NfEngine` state machines and `ElasticNfManager`
//! decision code the threaded host runs — under a virtual clock, with
//! every scheduling decision drawn from a seeded RNG:
//!
//! 1. **Active phase** — each tick advances the virtual clock a random
//!    amount, maybe injects control-plane operations (shard spawns and
//!    retirements, replica adds/removals, credit resizes, steering
//!    rebalances) and faults (actor stalls; telemetry drop/dup/delay via
//!    [`FaultySource`]; bursts of short-lived exact rules churning the
//!    tuple-space tables; evict-storm clock jumps that outrun rule
//!    timeouts), injects a random batch of packets from a fixed
//!    flow pool, steps the host's actors in a random order, drains a
//!    random amount of egress, and sometimes ticks the elastic manager.
//! 2. **Quiescence** — faults stop; the run steps everything until the
//!    host reaches an idle fixpoint with no pending re-homes, no retiring
//!    shard and fully restored credit gates (bounded; failure to settle is
//!    itself a violation).
//! 3. **Probes** — one packet per pool flow checks that every exact-flow
//!    pin and the wildcard default mutation applied during the run still
//!    govern forwarding, wherever the flows' buckets ended up.
//! 4. **Shutdown census** — the host shuts down, every actor is stepped
//!    to completion (running NF drop hooks at deterministic points), the
//!    per-flow counter mass surviving in replicas is compared against the
//!    ground-truth processed counts, and each flow's state must survive in
//!    one replica at most.
//!
//! Everything externally visible is appended to the run's [`Trace`];
//! replaying the same seed must reproduce the trace byte for byte.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use sdnfv_control::{ElasticNfManager, ElasticPolicy, NfvOrchestrator, ShardPolicy};
use sdnfv_dataplane::{InjectResult, SimActorKind, ThreadedHost, ThreadedHostConfig};
use sdnfv_flowtable::{Action, FlowMatch, FlowRule, RulePort, ServiceId, SharedFlowTable};
use sdnfv_nf::{NetworkFunction, NfContext, NfFlowState, NfMessage, NfRegistry, Verdict};
use sdnfv_obs::FlightRecorder;
use sdnfv_proto::flow::FlowKey;
use sdnfv_proto::packet::{Packet, PacketBuilder};
use sdnfv_telemetry::TraceSpan;

use crate::fault::{FaultKind, FaultPlan, FaultySource};
use crate::oracle::{
    check_conservation, check_flow_census, check_one_holder, check_spans, check_zeros, RunReport,
};
use crate::rng::SplitMix64;
use crate::trace::Trace;
use crate::trace_event;

/// The egress port of the default path.
const PORT_DEFAULT: u16 = 1;
/// The egress port exact-flow pins redirect to.
const PORT_PINNED: u16 = 2;
/// The egress port the wildcard default mutation redirects to.
const PORT_WILDCARD: u16 = 3;
/// Flow-trace hash sampling rate every run is driven with: 1 of every 4
/// flows emits per-stage spans, so the span-conservation oracle and the
/// observability digests run under every schedule.
const TRACE_SAMPLE_EVERY: u64 = 4;

/// Tuning for one simulated schedule. Everything that shapes the run is
/// here so a config + seed fully determines it.
#[derive(Debug, Clone)]
pub struct DstConfig {
    /// The schedule seed (the replay key).
    pub seed: u64,
    /// Active-phase ticks.
    pub ticks: u64,
    /// Size of the flow pool (flow 0 is the wildcard trigger).
    pub flows: u16,
    /// Packets of one flow before the counter NF pins it.
    pub pin_threshold: u64,
    /// Quiescence-loop iteration bound.
    pub quiesce_bound: u64,
}

impl DstConfig {
    /// The default schedule shape for `seed`.
    pub fn for_seed(seed: u64) -> Self {
        DstConfig {
            seed,
            ticks: 80,
            flows: 20,
            pin_threshold: 6,
            quiesce_bound: 3000,
        }
    }
}

/// Shared ground truth the oracle compares the host against, written by
/// every [`DstNf`] replica (they all hold clones of one ledger).
#[derive(Default)]
struct Ledger {
    /// Packets processed per flow — incremented on every `process` call.
    processed: Mutex<BTreeMap<FlowKey, u64>>,
    /// Counter mass surviving in replicas, reported by each replica's
    /// `Drop` (state that migrated is reported by whoever holds it last).
    reported: Mutex<BTreeMap<FlowKey, u64>>,
    /// How many replicas reported surviving state per flow: more than one
    /// means the flow's packets met a replica without its history.
    holders: Mutex<BTreeMap<FlowKey, u64>>,
    /// Counter mass removed by rule-eviction scrubs — legitimate
    /// retirement, not loss: the census accepts `reported + scrubbed ==
    /// processed`.
    scrubbed: Mutex<BTreeMap<FlowKey, u64>>,
    /// Flows for which a pin `ChangeDefault` has been sent.
    pinned: Mutex<BTreeSet<FlowKey>>,
    /// Whether the wildcard default mutation has been sent.
    wildcard_fired: AtomicBool,
}

/// The harness's stateful NF: an IDS-style per-flow counter that pins a
/// flow's default edge to [`PORT_PINNED`] once its count reaches the
/// threshold, and flips the service's wildcard default to
/// [`PORT_WILDCARD`] on first sight of the trigger flow. Counter state is
/// exported/imported through the normal flow-state hooks (imports
/// merge-add), so the census in the shared [`Ledger`] detects both loss
/// and duplication. A `BTreeMap` keeps export order — and therefore the
/// trace — deterministic.
struct DstNf {
    own: ServiceId,
    threshold: u64,
    trigger_src_port: u16,
    counts: BTreeMap<FlowKey, u64>,
    pinned_local: BTreeSet<FlowKey>,
    fired_wildcard: bool,
    ledger: Arc<Ledger>,
}

impl DstNf {
    fn new(own: ServiceId, threshold: u64, trigger_src_port: u16, ledger: Arc<Ledger>) -> Self {
        DstNf {
            own,
            threshold,
            trigger_src_port,
            counts: BTreeMap::new(),
            pinned_local: BTreeSet::new(),
            fired_wildcard: false,
            ledger,
        }
    }
}

impl NetworkFunction for DstNf {
    fn name(&self) -> &str {
        "dst-counter"
    }

    fn process(&mut self, packet: &Packet, ctx: &mut NfContext) -> Verdict {
        let Some(key) = packet.flow_key() else {
            return Verdict::Default;
        };
        if key.src_port == self.trigger_src_port {
            // The wildcard trigger flow is not counted: its job is the
            // wildcard default mutation, asserted separately.
            if !self.fired_wildcard {
                self.fired_wildcard = true;
                self.ledger.wildcard_fired.store(true, Ordering::Release);
                ctx.send_for_flow(
                    &key,
                    NfMessage::ChangeDefault {
                        flows: FlowMatch::any(),
                        service: self.own,
                        new_default: Action::ToPort(PORT_WILDCARD),
                    },
                );
            }
            return Verdict::Default;
        }
        *self.counts.entry(key).or_insert(0) += 1;
        *self.ledger.processed.lock().entry(key).or_insert(0) += 1;
        // `>=` (not `==`): a merge-add import can jump the count straight
        // past the threshold, so the pin fires on the first packet at or
        // beyond it. `pinned_local` keeps each replica from resending on
        // every later packet.
        if self.counts[&key] >= self.threshold && self.pinned_local.insert(key) {
            self.ledger.pinned.lock().insert(key);
            ctx.send_for_flow(
                &key,
                NfMessage::ChangeDefault {
                    flows: FlowMatch::exact(RulePort::Service(self.own), &key),
                    service: self.own,
                    new_default: Action::ToPort(PORT_PINNED),
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

    fn scrub_flow_state(&mut self, key: &FlowKey) -> Option<NfFlowState> {
        // A scrub means the flow's rule was evicted by timeout: the mass
        // leaves `counts` for the ledger's scrubbed column, so the census
        // can tell deliberate retirement from a lost payload.
        self.counts.remove(key).map(|count| {
            *self.ledger.scrubbed.lock().entry(*key).or_insert(0) += count;
            NfFlowState::with_counter("count", count)
        })
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

impl Drop for DstNf {
    fn drop(&mut self) {
        let mut reported = self.ledger.reported.lock();
        let mut holders = self.ledger.holders.lock();
        for (key, count) in &self.counts {
            *reported.entry(*key).or_insert(0) += count;
            *holders.entry(*key).or_insert(0) += 1;
        }
    }
}

/// A pool packet: flow `i` is `src_port 1024+i → dst_port 80` UDP.
fn pool_packet(flow: u16) -> Packet {
    PacketBuilder::udp()
        .src_ip([10, 0, 0, 1])
        .dst_ip([10, 0, 0, 2])
        .src_port(1024 + flow)
        .dst_port(80)
        .ingress_port(0)
        .total_size(128)
        .build()
}

/// A synthetic churn flow: `src_port 30000+n → dst_port 80` — disjoint
/// from the pool's ports, so churn rules never steer schedule traffic.
fn churn_key(n: u16) -> FlowKey {
    PacketBuilder::udp()
        .src_ip([10, 0, 0, 1])
        .dst_ip([10, 0, 0, 2])
        .src_port(30_000 + n)
        .dst_port(80)
        .build()
        .flow_key()
        .expect("churn packets are UDP")
}

/// `NIC 0 → counter service → {port 1 (default), port 2 (pin), port 3
/// (wildcard)}` — the three-port menu lets the NF redirect flows with
/// `ChangeDefault` in ways the probe phase can tell apart.
fn three_port_table(service: ServiceId) -> SharedFlowTable {
    let table = SharedFlowTable::new();
    table.insert(FlowRule::new(
        FlowMatch::at_step(RulePort::Nic(0)),
        vec![Action::ToService(service)],
    ));
    table.insert(FlowRule::new(
        FlowMatch::at_step(service),
        vec![
            Action::ToPort(PORT_DEFAULT),
            Action::ToPort(PORT_PINNED),
            Action::ToPort(PORT_WILDCARD),
        ],
    ));
    table
}

/// Runs one seeded schedule end to end and returns its report.
pub fn run_seed(config: &DstConfig) -> RunReport {
    let mut trace = Trace::new();
    let mut rng = SplitMix64::new(config.seed);
    // Independent streams so e.g. an extra telemetry draw cannot shift
    // which packet gets injected next tick (keeps fault kinds orthogonal
    // in the schedule space, not for replay — replay re-draws everything).
    let mut schedule_rng = rng.fork();
    let mut telemetry_rng = rng.fork();
    let plan = FaultPlan::from_rng(&mut rng);

    let service = ServiceId::new(1);
    let ledger = Arc::new(Ledger::default());
    let trigger_port = 1024; // flow 0
    let make_nf = {
        let ledger = Arc::clone(&ledger);
        let threshold = config.pin_threshold;
        move || -> Box<dyn NetworkFunction> {
            Box::new(DstNf::new(
                service,
                threshold,
                trigger_port,
                Arc::clone(&ledger),
            ))
        }
    };

    let host_config = ThreadedHostConfig {
        num_shards: 2,
        burst_size: 8,
        shard_credits: 64,
        nf_ring_capacity: 64,
        ingress_capacity: 64,
        egress_capacity: 256,
        telemetry_interval_ns: 150_000,
        // A short sweep interval so the timeout lifecycle runs constantly
        // under the schedule's faults, and a pin idle window long enough
        // that only evict-storm clock jumps (not ordinary tick time) can
        // outrun it.
        rule_sweep_interval_ns: 200_000,
        pin_idle_timeout_ns: Some(30_000_000),
        // A trace ring deep enough that no span is shed between the
        // per-tick drains (a shed span would weaken the conservation
        // oracle, and `spans_dropped` reports it if it ever happens).
        trace_ring_capacity: 4096,
    };
    trace_event!(trace, "seed {:#x}: {}", config.seed, plan.summary());
    trace_event!(
        trace,
        "host: shards=2 credits=64 trace-sampling=1/{}",
        TRACE_SAMPLE_EVERY
    );

    let (host, sim) = ThreadedHost::start_sim_sharded(
        three_port_table(service),
        |_shard| vec![(service, make_nf())],
        host_config,
    );
    // Observability rides along on every schedule: hash-sampled flow
    // tracing, switched on before the first packet.
    host.set_trace_sampling(TRACE_SAMPLE_EVERY);

    // The elastic manager drives the same host through the TelemetrySource
    // seam; virtual-time cooldowns are short so decisions happen within
    // the schedule's horizon.
    let mut registry = NfRegistry::new();
    {
        let ledger = Arc::clone(&ledger);
        let threshold = config.pin_threshold;
        registry.register("dst", move || {
            DstNf::new(service, threshold, trigger_port, Arc::clone(&ledger))
        });
    }
    let mut manager = ElasticNfManager::new(
        NfvOrchestrator::new(registry, 200_000),
        ElasticPolicy {
            scale_up_fill: 0.6,
            scale_down_fill: 0.1,
            max_replicas: 3,
            min_replicas: 1,
            cooldown_ns: 1_000_000,
            manage_credits: false,
            ..ElasticPolicy::default()
        },
    );
    manager
        .register_service(service, "dst")
        .expect("dst is registered");
    manager
        .enable_shard_scaling(
            ShardPolicy {
                scale_out_fill: 0.6,
                scale_in_fill: 0.15,
                latency_slo_ns: None,
                min_shards: 1,
                max_shards: 3,
                cooldown_ns: 2_000_000,
            },
            vec![(service, "dst".to_string(), 1)],
        )
        .expect("template is instantiable");

    let mut fired: BTreeSet<FaultKind> = BTreeSet::new();
    let mut held = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    let mut stalls: BTreeMap<u64, u64> = BTreeMap::new(); // actor id → stalled-until tick
    let mut injected = 0u64;
    let mut egressed = 0u64;
    let mut peak_shards = host.num_shards();
    let mut churn_keys: BTreeSet<FlowKey> = BTreeSet::new();
    let mut churn_seq: u16 = 0;
    // Observability state: every span the run emits, the count of admitted
    // packets whose flow hash falls in the sample, and the control-plane
    // flight recorder (the elastic manager owns the lifecycle event stream
    // through its telemetry source, so the journal records actions and
    // re-home steps — the streams nobody else consumes).
    let mut spans: Vec<TraceSpan> = Vec::new();
    let mut sampled_admitted = 0u64;
    let mut recorder = FlightRecorder::new();

    // ---------------------------------------------------------- active phase
    for tick in 0..config.ticks {
        let delta = schedule_rng.gen_between(10_000, 200_000);
        sim.advance_clock_ns(delta);
        trace_event!(trace, "tick {tick}: clock +{delta} = {}", sim.now_ns());

        // Racing control-plane operations, straight onto the host API.
        if schedule_rng.chance(plan.scale_shards) {
            if schedule_rng.chance(50) {
                match host.spawn_shard(vec![(service, make_nf())]) {
                    Ok(shard) => trace_event!(trace, "tick {tick}: ctrl spawn_shard -> {shard}"),
                    Err(_) => trace_event!(trace, "tick {tick}: ctrl spawn_shard -> refused"),
                }
            } else {
                let ok = host.retire_shard();
                trace_event!(trace, "tick {tick}: ctrl retire_shard -> {ok}");
            }
            fired.insert(FaultKind::RaceScaleShards);
        }
        if schedule_rng.chance(plan.replica) {
            let shard = schedule_rng.gen_range(host.num_shards() as u64) as usize;
            if schedule_rng.chance(50) {
                let ok = host.add_nf_replica(shard, service, make_nf()).is_ok();
                trace_event!(trace, "tick {tick}: ctrl add_replica shard={shard} -> {ok}");
            } else {
                let ok = host.remove_nf_replica(shard, service);
                trace_event!(
                    trace,
                    "tick {tick}: ctrl remove_replica shard={shard} -> {ok}"
                );
            }
            fired.insert(FaultKind::RaceReplica);
        }
        if schedule_rng.chance(plan.credit_resize) {
            let shard = schedule_rng.gen_range(host.num_shards() as u64) as usize;
            let credits = 16usize << schedule_rng.gen_range(4); // 16..128
            let ok = host.resize_credits(shard, credits);
            trace_event!(
                trace,
                "tick {tick}: ctrl resize_credits shard={shard} credits={credits} -> {ok}"
            );
            fired.insert(FaultKind::CreditResize);
        }
        if schedule_rng.chance(plan.rebalance) && host.num_shards() > 1 {
            let weights: Vec<u32> = (0..host.num_shards())
                .map(|_| schedule_rng.gen_between(1, 4) as u32)
                .collect();
            let ok = host.set_steering_weights(&weights);
            trace_event!(trace, "tick {tick}: ctrl rebalance {weights:?} -> {ok}");
            fired.insert(FaultKind::RaceRebalance);
        }
        if schedule_rng.chance(plan.stall) {
            let actors = sim.actors();
            let live: Vec<_> = actors.iter().filter(|a| !a.finished).collect();
            if !live.is_empty() {
                let pick = live[schedule_rng.gen_range(live.len() as u64) as usize];
                let until = tick + schedule_rng.gen_between(2, 6);
                stalls.insert(pick.id, until);
                trace_event!(
                    trace,
                    "tick {tick}: fault stall actor={} ({}) until={until}",
                    pick.id,
                    pick.label
                );
                fired.insert(FaultKind::ActorStall);
            }
        }
        if schedule_rng.chance(plan.rule_churn) {
            // A burst of short-lived exact rules on flows the schedule
            // never injects: they churn the tuple-space tables (and their
            // deadline heaps) while moves and scale ops race, without
            // touching the forwarding the probes assert. Host installs
            // broadcast to every shard's partition, so each rule evicts
            // once per partition copy.
            let burst = schedule_rng.gen_between(1, 4);
            for _ in 0..burst {
                let key = churn_key(churn_seq);
                churn_seq += 1;
                let idle = schedule_rng.gen_between(300_000, 1_500_000);
                let hard = schedule_rng.gen_between(800_000, 4_000_000);
                host.install_rule(
                    FlowRule::new(
                        FlowMatch::exact(RulePort::Service(service), &key),
                        vec![Action::ToPort(PORT_DEFAULT)],
                    )
                    .with_idle_timeout_ns(Some(idle))
                    .with_hard_timeout_ns(Some(hard)),
                );
                churn_keys.insert(key);
            }
            trace_event!(trace, "tick {tick}: fault rule-churn burst={burst}");
            fired.insert(FaultKind::RuleChurn);
        }
        if schedule_rng.chance(plan.evict_storm) {
            // Jump the virtual clock far enough that every live churn
            // rule's timeout (and, cumulatively, the pins' 30 ms idle
            // window) is outrun, forcing the sweeps to evict en masse.
            let jump = schedule_rng.gen_between(2_000_000, 8_000_000);
            sim.advance_clock_ns(jump);
            trace_event!(trace, "tick {tick}: fault evict-storm clock +{jump}");
            fired.insert(FaultKind::EvictStorm);
        }
        if schedule_rng.chance(plan.state_mailbox) {
            // The dedicated export-ack fault: hold one live replica's
            // state-mailbox acks for a few worker polls, so any bucket-move
            // batch in flight (or started while held) sees its exports
            // resolve late, out of step with the rest of the handshake.
            // Unlike ActorStall the replica keeps processing packets — only
            // its acks are delayed — and the holdback drains one poll per
            // worker step, so quiescence is never wedged.
            let actors = sim.actors();
            let nfs: Vec<_> = actors
                .iter()
                .filter(|a| a.kind == SimActorKind::Nf && !a.finished)
                .collect();
            if !nfs.is_empty() {
                let pick = nfs[schedule_rng.gen_range(nfs.len() as u64) as usize];
                let polls = schedule_rng.gen_between(2, 12) as u32;
                if sim.delay_state_mailbox(pick.id, polls) {
                    trace_event!(
                        trace,
                        "tick {tick}: fault state-mailbox-delay actor={} ({}) polls={polls}",
                        pick.id,
                        pick.label
                    );
                    fired.insert(FaultKind::DelayStateMailbox);
                }
            }
        }

        // Traffic.
        let packets = schedule_rng.gen_range(9); // 0..=8
        let mut admitted = 0;
        let mut throttled = 0;
        for _ in 0..packets {
            let flow = schedule_rng.gen_range(config.flows as u64) as u16;
            let packet = pool_packet(flow);
            let sampled = packet
                .flow_key()
                .is_some_and(|key| key.stable_hash().is_multiple_of(TRACE_SAMPLE_EVERY));
            match host.inject(packet) {
                InjectResult::Admitted => {
                    admitted += 1;
                    injected += 1;
                    if sampled {
                        sampled_admitted += 1;
                    }
                }
                InjectResult::Throttled(_) => throttled += 1,
            }
        }
        if packets > 0 {
            trace_event!(
                trace,
                "tick {tick}: inject {packets} admitted={admitted} throttled={throttled}"
            );
        }

        // Step the actors in a seeded order, skipping stalled ones.
        let mut ids: Vec<u64> = sim
            .actors()
            .iter()
            .filter(|a| !a.finished && stalls.get(&a.id).copied().unwrap_or(0) <= tick)
            .map(|a| a.id)
            .collect();
        schedule_rng.shuffle(&mut ids);
        let mut step_log = String::new();
        for id in ids {
            let worked = sim.step(id);
            step_log.push_str(&format!(" {}:{}", id, u8::from(worked)));
        }
        trace_event!(trace, "tick {tick}: steps{step_log}");

        // Drain some egress.
        let want = schedule_rng.gen_range(17) as usize; // 0..=16
        if want > 0 {
            let outs = host.poll_egress_burst(want);
            if !outs.is_empty() {
                trace_event!(trace, "tick {tick}: egress {}", outs.len());
            }
            egressed += outs.len() as u64;
        }

        // Drain the observability streams: trace spans off the per-shard
        // rings (keeping them from ever overflowing) and re-home events
        // into the flight recorder.
        spans.extend(host.poll_traces());
        for event in host.take_rehome_events() {
            recorder.record_rehome(&event);
        }

        // Sometimes tick the elastic control loop, observing through the
        // fault-injecting telemetry source.
        if schedule_rng.chance(40) {
            let mut source = FaultySource {
                host: &host,
                rng: &mut telemetry_rng,
                plan: &plan,
                held: &mut held,
                fired: &mut fired,
                trace: &mut trace,
                tick,
                active: true,
            };
            let actions = manager.drive_via(&mut source, &host);
            if !actions.is_empty() {
                trace_event!(trace, "tick {tick}: manager actions {actions:?}");
                for action in &actions {
                    recorder.record_action(sim.now_ns(), action);
                }
            }
        }
        peak_shards = peak_shards.max(host.num_shards());
    }

    // ------------------------------------------------------------ quiescence
    trace_event!(trace, "quiesce: begin at {} ns", sim.now_ns());
    let mut quiet_streak = 0;
    let mut quiesced = false;
    for iter in 0..config.quiesce_bound {
        sim.advance_clock_ns(100_000);
        let work = sim.step_all();
        let polled = host.poll_egress_burst(64);
        egressed += polled.len() as u64;
        spans.extend(host.poll_traces());
        for event in host.take_rehome_events() {
            recorder.record_rehome(&event);
        }
        let credits_ok =
            (0..host.num_shards()).all(|s| host.available_credits(s) == host.credit_budget(s));
        let idle = work == 0
            && polled.is_empty()
            && host.pending_rehomes() == 0
            && !host.is_retiring()
            && credits_ok;
        quiet_streak = if idle { quiet_streak + 1 } else { 0 };
        if quiet_streak >= 3 {
            trace_event!(trace, "quiesce: settled after {} iterations", iter + 1);
            quiesced = true;
            break;
        }
    }
    if !quiesced {
        violations.push(format!(
            "quiescence: not settled within {} iterations (pending_rehomes={} retiring={})",
            config.quiesce_bound,
            host.pending_rehomes(),
            host.is_retiring()
        ));
    }
    for shard in 0..host.num_shards() {
        let (available, budget) = (host.available_credits(shard), host.credit_budget(shard));
        if available != budget {
            violations.push(format!(
                "credit conservation: shard {shard} has {available}/{budget} after quiescence"
            ));
        }
    }
    let steering = host.steering_table();
    if !steering.is_empty() {
        let shards = host.num_shards();
        if let Some(bad) = steering.iter().find(|&&owner| owner >= shards) {
            violations.push(format!(
                "steering agreement: bucket owned by shard {bad} but only {shards} shards exist"
            ));
        }
    }

    // ------------------------------------------------------ eviction settling
    // Every churn rule carries a hard timeout, so once the clock moves
    // past the largest one the sweeps must evict every copy on every
    // shard. A survivor means the lifecycle lost track of a copy — e.g.
    // a bucket move or partition merge resurrected it past its deadline.
    if !churn_keys.is_empty() {
        let survivors = |host: &ThreadedHost| -> usize {
            (0..host.num_shards())
                .map(|shard| {
                    host.shard_table(shard).with_read(|t| {
                        churn_keys
                            .iter()
                            .filter(|key| {
                                t.exact_rule_id(RulePort::Service(service), key).is_some()
                            })
                            .count()
                    })
                })
                .sum()
        };
        let mut remaining = survivors(&host);
        for _ in 0..200 {
            if remaining == 0 {
                break;
            }
            sim.advance_clock_ns(500_000);
            sim.step_all();
            egressed += host.poll_egress_burst(64).len() as u64;
            remaining = survivors(&host);
        }
        let evicted_total: u64 = (0..host.num_shards())
            .map(|s| {
                let snap = host.stats().shard_snapshot(s);
                snap.rules_evicted_idle + snap.rules_evicted_hard
            })
            .sum();
        trace_event!(
            trace,
            "evict: {} churn rules installed, survivors={}, live-shard evictions={}",
            churn_keys.len(),
            remaining,
            evicted_total
        );
        if remaining > 0 {
            violations.push(format!(
                "evict: {remaining} churn-rule copies survived past their hard timeout"
            ));
        }
    }

    // ---------------------------------------------------------------- probes
    let pinned_before: BTreeSet<FlowKey> = ledger.pinned.lock().clone();
    let wildcard_before = ledger.wildcard_fired.load(Ordering::Acquire);
    trace_event!(
        trace,
        "probe: {} pinned flows, wildcard_fired={}",
        pinned_before.len(),
        wildcard_before
    );
    // Structural rule census: every pinned flow's exact rule must live in
    // exactly the partition of the shard its bucket currently steers to —
    // anywhere else it was either lost in a move or duplicated by one.
    // A pin absent from *every* partition is different: pins carry the
    // host's idle timeout, and an evict-storm clock jump can legitimately
    // outrun the 30 ms window. Eviction is consistent behavior, not a
    // lost update — the probe then expects the wildcard defaults.
    let steering = host.steering_table();
    let shards = host.num_shards();
    let mut evicted_pins: BTreeSet<FlowKey> = BTreeSet::new();
    for key in &pinned_before {
        let owner = if steering.is_empty() {
            sdnfv_dataplane::shard_for_flow(key, shards)
        } else {
            steering[(key.stable_hash() % steering.len() as u64) as usize]
        };
        let mut owner_present = false;
        let mut present_anywhere = false;
        for shard in 0..shards {
            let present = host
                .shard_table(shard)
                .with_read(|t| t.exact_rule_id(RulePort::Service(service), key).is_some());
            if !present {
                continue;
            }
            present_anywhere = true;
            if shard == owner {
                owner_present = true;
            } else {
                violations.push(format!(
                    "exact rule stranded: pinned flow {}:{} has an exact rule in shard {shard} \
                     but is owned by shard {owner}",
                    key.src_port, key.dst_port
                ));
            }
        }
        if !present_anywhere {
            evicted_pins.insert(*key);
            trace_event!(
                trace,
                "probe: pin {}:{} evicted by idle timeout",
                key.src_port,
                key.dst_port
            );
        } else if !owner_present {
            violations.push(format!(
                "exact rule lost: pinned flow {}:{} has no exact rule in owner shard {owner}'s \
                 partition",
                key.src_port, key.dst_port
            ));
        }
    }
    for flow in 0..config.flows {
        let probe = pool_packet(flow);
        let key = probe.flow_key().expect("pool packets are UDP");
        match host.inject(probe) {
            InjectResult::Admitted => {}
            other => {
                violations.push(format!(
                    "probe: flow {flow} not admitted after quiescence ({other:?})"
                ));
                continue;
            }
        }
        injected += 1;
        if key.stable_hash().is_multiple_of(TRACE_SAMPLE_EVERY) {
            sampled_admitted += 1;
        }
        let mut port = None;
        for _ in 0..400 {
            sim.advance_clock_ns(10_000);
            sim.step_all();
            let outs = host.poll_egress_burst(8);
            if let Some(out) = outs.first() {
                if outs.len() > 1 || out.key != key {
                    violations.push(format!(
                        "probe: flow {flow} produced unexpected egress (got {} outputs, first \
                         key {}:{})",
                        outs.len(),
                        out.key.src_port,
                        out.key.dst_port
                    ));
                }
                egressed += outs.len() as u64;
                port = Some(out.port);
                break;
            }
        }
        let Some(port) = port else {
            violations.push(format!("probe: flow {flow} never egressed"));
            continue;
        };
        trace_event!(trace, "probe: flow {flow} -> port {port}");
        let is_trigger = flow == 0;
        if is_trigger {
            // The wildcard mutation must govern the trigger flow wherever
            // its bucket ended up. (If it had never fired, the probe
            // itself fires it, and may or may not be re-routed — both
            // ports are legal then.)
            if wildcard_before && port != PORT_WILDCARD {
                violations.push(format!(
                    "wildcard mutation lost: trigger flow egressed on port {port}, want \
                     {PORT_WILDCARD}"
                ));
            }
        } else if evicted_pins.contains(&key) {
            // The pin's exact rule expired by idle timeout during the
            // run; the flow legitimately falls back to the wildcard
            // defaults. One more legal outcome: if the flow's counter
            // state survived the eviction scrub (e.g. it was mid-handoff
            // when the scrub fanned out), the probe packet itself crosses
            // the threshold again and *re-pins* — evicted-then-reinstalled
            // is consistent behavior, verified structurally by the rule
            // being present again.
            let repinned = port == PORT_PINNED
                && (0..shards).any(|shard| {
                    host.shard_table(shard)
                        .with_read(|t| t.exact_rule_id(RulePort::Service(service), &key).is_some())
                });
            if repinned {
                trace_event!(trace, "probe: pin flow {flow} re-pinned after eviction");
            }
            let legal =
                port == PORT_DEFAULT || (wildcard_before && port == PORT_WILDCARD) || repinned;
            if !legal {
                violations.push(format!(
                    "evicted pin: flow {flow} egressed on unexpected port {port}"
                ));
            }
        } else if pinned_before.contains(&key) {
            // The pin normally forwards to PORT_PINNED, but a *later*
            // wildcard `ChangeDefault(any())` legitimately rewrites the
            // pinned rule's default too (it matches every flow), so with
            // the wildcard fired both ports are legal. Rule *loss* is
            // caught structurally above.
            let legal = port == PORT_PINNED || (wildcard_before && port == PORT_WILDCARD);
            if !legal {
                // The pin's idle deadline can fall in the window between
                // the structural census and this probe (the probe's own
                // lookup then lazily evicts it). Re-check before calling
                // it loss: absent everywhere now means it expired.
                let still_present = (0..shards).any(|shard| {
                    host.shard_table(shard)
                        .with_read(|t| t.exact_rule_id(RulePort::Service(service), &key).is_some())
                });
                let fell_back = port == PORT_DEFAULT || (wildcard_before && port == PORT_WILDCARD);
                if still_present || !fell_back {
                    violations.push(format!(
                        "exact pin lost: flow {flow} was pinned but egressed on port {port}, \
                         want {PORT_PINNED}"
                    ));
                } else {
                    trace_event!(trace, "probe: pin flow {flow} evicted mid-probe phase");
                }
            }
        } else {
            // Unpinned: the default path, the wildcard default (legal on
            // the shard holding the mutation), or the pin port if the
            // probe itself just crossed the threshold.
            let newly_pinned = ledger.pinned.lock().contains(&key);
            let legal = port == PORT_DEFAULT
                || (wildcard_before && port == PORT_WILDCARD)
                || (newly_pinned && port == PORT_PINNED);
            if !legal {
                violations.push(format!(
                    "probe: unpinned flow {flow} egressed on unexpected port {port}"
                ));
            }
        }
    }

    // -------------------------------------------------- observability census
    // Final drain, then fold the whole observability surface into the
    // replayable trace: span and journal digests are order-sensitive, so
    // byte-identical replays prove the *observability* of the run is as
    // deterministic as the run itself.
    spans.extend(host.poll_traces());
    for event in host.take_rehome_events() {
        recorder.record_rehome(&event);
    }
    let stats = host.stats().snapshot();
    check_spans(
        &spans,
        sampled_admitted,
        stats.spans_dropped,
        &mut violations,
    );
    let span_digest = {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for span in &spans {
            span.fold_digest(&mut hash);
        }
        hash
    };
    let latency = host.latency_report();
    let latency_digest = latency
        .stages()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |hash, (_, stage)| {
            hash.wrapping_mul(0x100_0000_01b3) ^ stage.digest()
        });
    trace_event!(
        trace,
        "obs: spans={} sampled={} dropped={} span_digest={:#018x} latency: e2e={} \
         latency_digest={:#018x} journal={} journal_digest={:#018x}",
        spans.len(),
        sampled_admitted,
        stats.spans_dropped,
        span_digest,
        latency.end_to_end.count(),
        latency_digest,
        recorder.len(),
        recorder.digest()
    );

    // ------------------------------------------------------ shutdown census
    check_conservation(&stats, injected, egressed, &mut violations);
    check_zeros(&stats, &mut violations);
    trace_event!(
        trace,
        "end: injected={} egressed={} handoffs={} import_drops={} overflow={} shards={}",
        injected,
        egressed,
        stats.nf_state_handoffs,
        stats.nf_state_import_drops,
        stats.overflow_drops,
        host.num_shards()
    );
    host.shutdown();
    for _ in 0..config.quiesce_bound {
        sim.advance_clock_ns(100_000);
        sim.step_all();
        if sim.actors().iter().all(|a| a.finished) {
            break;
        }
    }
    if let Some(stuck) = sim.actors().iter().find(|a| !a.finished) {
        violations.push(format!(
            "shutdown: actor {} ({}) never finished",
            stuck.id, stuck.label
        ));
    }
    debug_assert!(sim
        .actors()
        .iter()
        .all(|a| a.kind == SimActorKind::Worker || a.kind == SimActorKind::Nf));
    drop(manager); // drops never-matured pending replicas (zero state)

    let processed = ledger.processed.lock().clone();
    let reported = ledger.reported.lock().clone();
    let scrubbed = ledger.scrubbed.lock().clone();
    check_flow_census(&processed, &reported, &scrubbed, &mut violations);
    check_one_holder(&ledger.holders.lock(), &mut violations);
    let pins = ledger.pinned.lock().len();
    trace_event!(
        trace,
        "census: {} flows, {} pins, ok={}",
        processed.len(),
        pins,
        violations.is_empty()
    );

    RunReport {
        seed: config.seed,
        violations,
        fired,
        trace,
        stats,
        injected,
        egressed,
        pins,
        peak_shards,
    }
}

/// Runs `config` twice and adds a violation to the (first) report if the
/// two traces are not byte-identical — the determinism guarantee every
/// other check rests on.
pub fn run_seed_checked(config: &DstConfig) -> RunReport {
    let mut first = run_seed(config);
    let second = run_seed(config);
    let a = first.trace.render();
    let b = second.trace.render();
    if a != b {
        let diverge = a
            .lines()
            .zip(b.lines())
            .position(|(x, y)| x != y)
            .map(|i| format!("first divergence at trace line {i}"))
            .unwrap_or_else(|| "traces differ in length".to_string());
        first.violations.push(format!(
            "determinism: same-seed replay produced a different trace ({diverge})"
        ));
    }
    first
}
