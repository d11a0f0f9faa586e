//! End-to-end tests of the telemetry bus, the elastic control loop
//! (paper §3.5) and the per-shard flow-table partitions.

use sdnfv::control::{
    deploy_sharded, ElasticNfManager, ElasticPolicy, NfvOrchestrator, ShardPlacement,
};
use sdnfv::dataplane::{shard_for_flow, InjectResult, ThreadedHost, ThreadedHostConfig};
use sdnfv::flowtable::{Action, FlowMatch, FlowRule, RulePort, ServiceId, SharedFlowTable};
use sdnfv::graph::{catalog, CompileOptions};
use sdnfv::nf::nfs::ComputeNf;
use sdnfv::nf::{NetworkFunction, NfRegistry};
use sdnfv::obs::ObsHub;
use sdnfv::proto::packet::{Packet, PacketBuilder};
use sdnfv::telemetry::ControlAction;
use std::time::{Duration, Instant};

const WORKER_ROUNDS: u32 = 2000;

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

fn worker_table() -> (SharedFlowTable, ServiceId) {
    let (graph, ids) = catalog::chain(&[("worker", true)]);
    let table = SharedFlowTable::new();
    for rule in graph.compile(&CompileOptions::default()) {
        table.insert(rule);
    }
    (table, ids[0])
}

fn worker_registry() -> NfRegistry {
    let mut registry = NfRegistry::new();
    registry.register("worker", || ComputeNf::new(WORKER_ROUNDS));
    registry
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

/// The acceptance loop: a flooded shard's telemetry shows queue growth, the
/// elastic manager emits a scale-up, a second replica is launched through
/// the orchestrator and absorbs the backlog, and a scale-down follows once
/// the load subsides — with zero packet loss end to end.
#[test]
fn flood_scales_up_then_quiet_scales_down() {
    let (table, worker) = worker_table();
    let mut orchestrator = NfvOrchestrator::new(worker_registry(), 1_000_000); // 1 ms boot
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
    let mut manager = ElasticNfManager::new(
        orchestrator,
        ElasticPolicy {
            scale_up_fill: 0.5,
            scale_down_fill: 0.05,
            max_replicas: 2,
            min_replicas: 1,
            cooldown_ns: 5_000_000,
            ..ElasticPolicy::default()
        },
    );
    manager
        .register_service(worker, "worker")
        .expect("worker is in the registry");

    // Phase 1 — flood: inject far faster than one replica can serve, drive
    // the control loop, and watch it add the second replica.
    let mut admitted = 0u64;
    let mut drained = 0u64;
    let mut peak_fill = 0.0f64;
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
        if let Some(snapshot) = obs.telemetry().latest(0) {
            peak_fill = peak_fill.max(snapshot.worst_fill(worker).unwrap_or(0.0));
            if snapshot.replicas(worker) == 2 {
                break true;
            }
        }
        if Instant::now() > deadline {
            break false;
        }
    };
    assert!(scaled, "the second replica never became visible");
    assert!(
        peak_fill >= 0.5,
        "telemetry should have shown queue growth (peak fill {peak_fill})"
    );
    assert!(manager.scale_ups() >= 1, "a scale-up was emitted");
    assert_eq!(manager.pending_launches(), 0, "the launch ticket matured");

    // Phase 2 — the pool absorbs the backlog: both replicas process while
    // we only drain.
    drained += drain(
        &host,
        (admitted - drained) as usize,
        Duration::from_secs(30),
    ) as u64;
    assert_eq!(drained, admitted, "every admitted packet came back out");

    // Phase 3 — quiet: keep driving without injecting until the manager
    // retires the extra replica.
    let deadline = Instant::now() + Duration::from_secs(30);
    let calmed = loop {
        obs.observe(&host);
        manager.drive(&host, obs.telemetry());
        if let Some(snapshot) = obs.telemetry().latest(0) {
            if snapshot.replicas(worker) == 1 && snapshot.nfs.len() == 1 {
                break true;
            }
        }
        if Instant::now() > deadline {
            break false;
        }
        std::thread::yield_now();
    };
    assert!(calmed, "the extra replica was never retired");
    assert!(manager.scale_downs() >= 1, "a scale-down was emitted");

    let snap = host.stats().snapshot();
    assert_eq!(snap.overflow_drops, 0, "no silent drops anywhere");
    assert_eq!(snap.dropped, 0);
    assert_eq!(snap.transmitted, admitted);
    // All credits are home again.
    let deadline = Instant::now() + Duration::from_secs(5);
    while host.available_credits(0) != host.credit_budget(0) && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(host.available_credits(0), host.credit_budget(0));
    host.shutdown();
}

/// Sustained pressure never overshoots `max_replicas`, even in the window
/// where a just-installed replica is not yet visible in telemetry.
#[test]
fn scale_up_never_overshoots_max_replicas() {
    let (table, worker) = worker_table();
    let mut orchestrator = NfvOrchestrator::new(worker_registry(), 0); // instant boot
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
    let mut manager = ElasticNfManager::new(
        orchestrator,
        ElasticPolicy {
            scale_up_fill: 0.5,
            max_replicas: 2,
            cooldown_ns: 2_000_000, // comfortably above the telemetry interval
            ..ElasticPolicy::default()
        },
    );
    manager
        .register_service(worker, "worker")
        .expect("worker is in the registry");

    let mut drained = 0u64;
    let mut admitted = 0u64;
    let mut flow = 0u16;
    let mut max_seen = 0usize;
    let until = Instant::now() + Duration::from_millis(1500);
    while Instant::now() < until {
        let burst: Vec<Packet> = (0..32)
            .map(|_| {
                flow = flow.wrapping_add(1);
                packet(flow)
            })
            .collect();
        admitted += host.inject_burst(burst).admitted as u64;
        drained += host.poll_egress_burst(64).len() as u64;
        obs.observe(&host);
        manager.drive(&host, obs.telemetry());
        if let Some(snapshot) = obs.telemetry().latest(0) {
            max_seen = max_seen.max(snapshot.replicas(worker));
        }
    }
    assert!(max_seen >= 2, "pressure reached the replica cap");
    assert!(max_seen <= 2, "never overshot max_replicas: saw {max_seen}");
    // The load may legitimately oscillate (scale-down in a quiet window,
    // scale-up when the flood bites again); the invariant is that ups and
    // downs stay in lockstep rather than ups running ahead.
    assert!(
        manager.scale_ups() <= manager.scale_downs() + 1,
        "scale-ups ({}) ran ahead of scale-downs ({}) at cap 2",
        manager.scale_ups(),
        manager.scale_downs()
    );
    drained += drain(
        &host,
        (admitted - drained) as usize,
        Duration::from_secs(30),
    ) as u64;
    assert_eq!(drained, admitted);
    host.shutdown();
}

/// Mid-traffic control actions: a busy replica is retired and the credit
/// budget resized while packets are in flight — no loss, no deadlock.
#[test]
fn control_actions_apply_mid_traffic_without_loss() {
    let (table, worker) = worker_table();
    let host = ThreadedHost::start(
        table,
        vec![
            (
                worker,
                Box::new(ComputeNf::new(500)) as Box<dyn NetworkFunction>,
            ),
            (
                worker,
                Box::new(ComputeNf::new(500)) as Box<dyn NetworkFunction>,
            ),
        ],
        ThreadedHostConfig {
            nf_ring_capacity: 128,
            shard_credits: 64,
            telemetry_interval_ns: 200_000,
            ..ThreadedHostConfig::default()
        },
    );

    let apply = |action: &ControlAction| -> bool {
        match action {
            ControlAction::ScaleDown { shard, service } => host.remove_nf_replica(*shard, *service),
            ControlAction::ResizeCredits { shard, credits } => {
                host.resize_credits(*shard, *credits)
            }
            ControlAction::SetSteeringWeights { weights } => host.set_steering_weights(weights),
            ControlAction::SetTraceSampling { every } => {
                host.set_trace_sampling(*every);
                true
            }
            ControlAction::ScaleUp { .. }
            | ControlAction::SpawnShard
            | ControlAction::RetireShard { .. } => false,
        }
    };

    let mut admitted = 0u64;
    let mut drained = 0u64;
    let mut flow = 0u16;
    for round in 0..300 {
        let burst: Vec<Packet> = (0..16)
            .map(|_| {
                flow = flow.wrapping_add(1);
                packet(flow)
            })
            .collect();
        let outcome = host.inject_burst(burst);
        admitted += outcome.admitted as u64;
        drained += host.poll_egress_burst(64).len() as u64;
        match round {
            // Retire one of the two busy replicas mid-flood.
            100 => assert!(apply(&ControlAction::ScaleDown {
                shard: 0,
                service: worker
            })),
            // Shrink, then later re-grow, the credit budget mid-flood.
            150 => assert!(apply(&ControlAction::ResizeCredits {
                shard: 0,
                credits: 32
            })),
            250 => assert!(apply(&ControlAction::ResizeCredits {
                shard: 0,
                credits: 64
            })),
            _ => {}
        }
    }
    drained += drain(
        &host,
        (admitted - drained) as usize,
        Duration::from_secs(30),
    ) as u64;
    assert_eq!(drained, admitted, "scale-down/resize lost no packet");

    let snap = host.stats().snapshot();
    assert_eq!(snap.overflow_drops, 0);
    assert_eq!(snap.dropped, 0);
    assert_eq!(snap.transmitted, admitted);
    assert_eq!(host.credit_budget(0), 64, "resize took effect");

    // The retired replica's thread is gone: telemetry reports one live NF.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut live = usize::MAX;
    while Instant::now() < deadline {
        for snapshot in host.poll_telemetry() {
            live = snapshot.nfs.len();
        }
        if live == 1 {
            break;
        }
        std::thread::yield_now();
    }
    assert_eq!(live, 1, "the drained replica was retired from telemetry");
    host.shutdown();
}

/// Credits spent on packets that punt to the controller (flow-table miss)
/// are replenished: punts are terminal states, not leaks.
#[test]
fn punt_path_replenishes_credits() {
    let host = ThreadedHost::start(
        SharedFlowTable::new(), // empty table: every packet punts
        vec![],
        ThreadedHostConfig {
            shard_credits: 8,
            ingress_capacity: 8,
            nf_ring_capacity: 8,
            ..ThreadedHostConfig::default()
        },
    );
    assert_eq!(host.credit_budget(0), 8);
    let mut admitted = 0u64;
    for flow in 0..100u16 {
        match host.inject(packet(flow)) {
            InjectResult::Admitted => admitted += 1,
            InjectResult::Throttled(_) => {}
        }
    }
    assert!(admitted > 0);
    // Every admitted packet punts; every punt returns its credit.
    let deadline = Instant::now() + Duration::from_secs(5);
    while host.stats().snapshot().controller_punts < admitted && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(host.stats().snapshot().controller_punts, admitted);
    let deadline = Instant::now() + Duration::from_secs(5);
    while host.available_credits(0) != 8 && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(host.available_credits(0), 8, "punts released credits");
    // And the lane is genuinely open again.
    assert!(host.inject(packet(999)).is_admitted());
    host.shutdown();
}

/// Per-shard flow-table partitions: shard packet paths never touch the
/// template's lock, and one shard's table mutations are invisible to the
/// others.
#[test]
fn flow_table_partitions_isolate_shards() {
    let template = SharedFlowTable::new();
    template.insert(FlowRule::new(
        FlowMatch::at_step(RulePort::Nic(0)),
        vec![Action::ToPort(1)],
    ));
    let host = ThreadedHost::start_sharded(
        template.clone(),
        |_shard| vec![],
        ThreadedHostConfig {
            num_shards: 2,
            ..ThreadedHostConfig::default()
        },
    );

    // Find one flow per shard under default steering.
    let flow_on = |shard: usize| {
        (0..u16::MAX)
            .find(|f| {
                packet(*f)
                    .flow_key()
                    .is_some_and(|k| shard_for_flow(&k, 2) == shard)
            })
            .expect("some flow steers to the shard")
    };
    let flow0 = flow_on(0);
    let flow1 = flow_on(1);

    // Traffic flows through the partitions, not the template.
    for _ in 0..25 {
        assert!(host.inject(packet(flow0)).is_admitted());
        assert!(host.inject(packet(flow1)).is_admitted());
    }
    assert_eq!(drain(&host, 50, Duration::from_secs(10)), 50);
    assert_eq!(
        host.flow_table().stats().lookups,
        0,
        "no shard lookup touched the template's lock"
    );
    assert!(host.shard_table(0).stats().lookups > 0);
    assert!(host.shard_table(1).stats().lookups > 0);

    // A shard-local mutation (the NF cross-layer message path) stays local:
    // shard 0 starts dropping, shard 1 keeps forwarding.
    let generation1 = host.shard_table(1).generation();
    host.shard_table(0).with_write(|t| {
        t.insert(
            FlowRule::new(FlowMatch::at_step(RulePort::Nic(0)), vec![Action::Drop])
                .with_priority(100),
        );
    });
    assert_eq!(
        host.shard_table(1).generation(),
        generation1,
        "no cross-shard generation bump"
    );
    assert!(host.inject(packet(flow0)).is_admitted());
    assert!(host.inject(packet(flow1)).is_admitted());
    assert_eq!(
        drain(&host, 1, Duration::from_secs(10)),
        1,
        "shard 1 still forwards"
    );
    let deadline = Instant::now() + Duration::from_secs(5);
    while host.stats().snapshot().dropped < 1 && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(host.stats().snapshot().dropped, 1, "shard 0 now drops");
    assert_eq!(template.len(), 1, "template untouched by shard mutations");

    // The control-plane write path reaches every partition.
    host.install_rule(FlowRule::new(
        FlowMatch::at_step(RulePort::Nic(7)),
        vec![Action::ToPort(2)],
    ));
    assert_eq!(template.len(), 2);
    assert_eq!(host.shard_table(0).len(), 3); // + the local drop rule
    assert_eq!(host.shard_table(1).len(), 2);
    host.shutdown();
}

/// Steering weights re-home new buckets: all-to-one weights funnel every
/// flow to shard 0, and restoring uniform weights spreads them again.
#[test]
fn steering_weights_rebalance_traffic() {
    let table = SharedFlowTable::new();
    table.insert(FlowRule::new(
        FlowMatch::at_step(RulePort::Nic(0)),
        vec![Action::ToPort(1)],
    ));
    let host = ThreadedHost::start_sharded(
        table,
        |_shard| vec![],
        ThreadedHostConfig {
            num_shards: 4,
            ..ThreadedHostConfig::default()
        },
    );
    // The re-home handshake completes over a few polling ticks (even idle
    // buckets collect NF state from their old shard's worker first).
    let settle = |host: &ThreadedHost| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while host.pending_rehomes() > 0 && Instant::now() < deadline {
            let _ = host.poll_egress();
            std::thread::yield_now();
        }
        assert_eq!(host.pending_rehomes(), 0, "rebalance settles");
    };
    assert!(host.set_steering_weights(&[1, 0, 0, 0]));
    settle(&host);
    assert!(host.steering_table().iter().all(|shard| *shard == 0));
    for flow in 0..200u16 {
        assert!(host.inject(packet(flow)).is_admitted());
    }
    assert_eq!(drain(&host, 200, Duration::from_secs(10)), 200);
    let received: Vec<u64> = host
        .stats()
        .shard_snapshots()
        .iter()
        .map(|s| s.received)
        .collect();
    assert_eq!(received[0], 200, "all flows funneled to shard 0");

    // Restore uniform weights: new traffic spreads again.
    assert!(host.set_steering_weights(&[1, 1, 1, 1]));
    settle(&host);
    for flow in 0..200u16 {
        assert!(host.inject(packet(flow)).is_admitted());
    }
    assert_eq!(drain(&host, 200, Duration::from_secs(10)), 200);
    let after: Vec<u64> = host
        .stats()
        .shard_snapshots()
        .iter()
        .map(|s| s.received)
        .collect();
    assert!(
        (1..4).all(|shard| after[shard] > 0),
        "uniform weights spread traffic again: {after:?}"
    );
    // Zero-sum and mismatched weight vectors are rejected.
    assert!(!host.set_steering_weights(&[0, 0, 0, 0]));
    assert!(!host.set_steering_weights(&[1, 1]));
    host.shutdown();
}

/// One host, two readers of its telemetry: the `ObsHub` drains the host's
/// feeds and the elastic manager plans from the hub's view. Each stepped
/// tick observes, then drives. The manager must still see shard 0's
/// snapshots (two quiet replicas: it scales one down), and the hub's
/// journal must still hold the spawn the host published.
#[test]
fn the_manager_and_the_obs_hub_share_one_drain() {
    let (table, worker) = worker_table();
    let replica = || Box::new(ComputeNf::new(WORKER_ROUNDS)) as Box<dyn NetworkFunction>;
    let (host, sim) = ThreadedHost::start_sim_sharded(
        table,
        |_shard| vec![(worker, replica()), (worker, replica())],
        ThreadedHostConfig {
            telemetry_interval_ns: 100_000,
            ..ThreadedHostConfig::default()
        },
    );
    let mut obs = ObsHub::new();
    let mut manager = ElasticNfManager::new(
        NfvOrchestrator::new(worker_registry(), 0),
        ElasticPolicy {
            cooldown_ns: 0,
            ..ElasticPolicy::default()
        },
    );
    manager
        .register_service(worker, "worker")
        .expect("worker is in the registry");
    assert!(host.spawn_shard(vec![(worker, replica())]).is_ok());

    let mut scaled_down_shard_0 = false;
    for _ in 0..50 {
        sim.advance_clock_ns(200_000);
        // The worker looks at the export clock every 32nd step.
        for _ in 0..33 {
            sim.step_all();
        }
        obs.observe(&host);
        let actions = manager.drive(&host, obs.telemetry());
        scaled_down_shard_0 |= actions.contains(&ControlAction::ScaleDown {
            shard: 0,
            service: worker,
        });
    }
    assert!(
        scaled_down_shard_0,
        "the manager never planned from shard 0's snapshots"
    );
    assert!(manager.scale_downs() >= 1);
    let journal = obs.recorder().replay();
    assert!(
        journal.iter().any(|line| line.ends_with("shard 1 spawned")),
        "no `shard 1 spawned` among the journal's {} records",
        journal.len()
    );
    host.shutdown();
}
