//! The federation acceptance test: a 3-host topology shaped like the
//! paper's testbed, running the DDoS-mitigation and video workloads
//! simultaneously over controller-installed cross-host chains, with a
//! stateful flow re-homed *across hosts* mid-stream.
//!
//! Topology (all wires are the in-process loopback interconnect):
//!
//! ```text
//!                      Federation (controller)
//!            ┌──────────────┬──────────────┬──────────────┐
//!            │    host 0    │    host 1    │    host 2    │
//!            │ firewall     │ ids          │ transcoder   │
//!            │ ddos-detector│ scrubber     │ ids (standby)│
//!            │ video-detect │              │ scrub(stndby)│
//!            │ ids + scrub  │              │              │
//!            └──────────────┴──────────────┴──────────────┘
//!   security chain:  Nic(0) → FW@0 → DDOS@0 ──wire──→ IDS@1 → port 1
//!   video chain:     Nic(2) → VD@0 ──wire──→ TC@2 → port 1
//!                    (non-video bypasses straight out of host 0)
//!   edge inspection: Nic(4) → IDS2@0 → SCRUB2@0 → port 5
//!                    (bucket re-homed to host 2 mid-stream)
//! ```
//!
//! Zero-loss acceptance (ISSUE 9): every injected packet egresses
//! somewhere (`packets_lost == 0`), every migrated exact rule is adopted
//! (`rules_lost == 0`), no wildcard-mutation replay conflicts
//! (`wildcard_rules_lost == 0`), and the flagged-flow IDS state survives
//! the cross-host move (`nf_state_lost == 0` — post-move packets of the
//! flagged flow still leave through the scrubber port).

use std::time::{Duration, Instant};

use sdnfv_control::{Federation, FederationConfig, FederationOutput};
use sdnfv_dataplane::{InjectResult, ThreadedHost, ThreadedHostConfig, STEER_BUCKETS};
use sdnfv_flowtable::{Action, FlowMatch, FlowRule, RulePort, ServiceId, SharedFlowTable};
use sdnfv_nf::nfs::{DdosDetectorNf, FirewallNf, IdsNf, ScrubberNf, TranscoderNf, VideoDetectorNf};
use sdnfv_nf::{NetworkFunction, Verdict};
use sdnfv_proto::http::response_with_content_type;
use sdnfv_proto::packet::{Packet, PacketBuilder};

const FW: ServiceId = ServiceId::new(1);
const DDOS: ServiceId = ServiceId::new(2);
const IDS: ServiceId = ServiceId::new(3);
const SCRUB: ServiceId = ServiceId::new(4);
const VD: ServiceId = ServiceId::new(5);
const TC: ServiceId = ServiceId::new(6);
const IDS2: ServiceId = ServiceId::new(7);
const SCRUB2: ServiceId = ServiceId::new(8);

const EGRESS: u16 = 1;
const SCRUB_EGRESS: u16 = 5;
const SECURITY_NIC: u16 = 0;
const VIDEO_NIC: u16 = 2;
const EDGE_NIC: u16 = 4;
/// Host 0's egress port toward host 2 on the hand-wired video hand-off.
const VIDEO_UPLINK: u16 = 40;
/// Host 2's interconnect ingress port for the same hand-off.
const VIDEO_REMOTE: u16 = 41;

const PKTS_PER_FLOW: usize = 8;

fn security_packet(src_ip: [u8; 4], src_port: u16, body: &str) -> Packet {
    PacketBuilder::tcp()
        .src_ip(src_ip)
        .dst_ip([10, 0, 0, 2])
        .src_port(src_port)
        .dst_port(80)
        .payload(format!("GET /q?{body} HTTP/1.1\r\n\r\n").as_bytes())
        .ingress_port(SECURITY_NIC)
        .build()
}

fn video_packet(src_port: u16, content_type: &str) -> Packet {
    PacketBuilder::tcp()
        .src_ip([10, 7, 0, 1])
        .dst_ip([10, 7, 1, 1])
        .src_port(src_port)
        .dst_port(40_000)
        .payload(&response_with_content_type(200, content_type))
        .ingress_port(VIDEO_NIC)
        .build()
}

fn edge_packet(body: &str) -> Packet {
    PacketBuilder::tcp()
        .src_ip([10, 0, 9, 9])
        .dst_ip([10, 0, 0, 2])
        .src_port(4242)
        .dst_port(80)
        .payload(format!("GET /q?{body} HTTP/1.1\r\n\r\n").as_bytes())
        .ingress_port(EDGE_NIC)
        .build()
}

fn bucket_of(packet: &Packet) -> usize {
    (packet.flow_key().unwrap().stable_hash() % STEER_BUCKETS as u64) as usize
}

/// Injects every packet, pumping the federation through backpressure
/// (outputs produced while draining are collected, never lost).
fn inject_all(fed: &mut Federation, packets: Vec<Packet>, outputs: &mut Vec<FederationOutput>) {
    for packet in packets {
        let mut packet = packet;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match fed.inject(packet) {
                InjectResult::Admitted => break,
                InjectResult::Throttled(back) => {
                    assert!(Instant::now() < deadline, "inject stuck on backpressure");
                    packet = back;
                    outputs.extend(fed.pump());
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Pumps (and observes, so trace rings never shed) until `target` external
/// outputs have been collected.
fn drive(fed: &mut Federation, outputs: &mut Vec<FederationOutput>, target: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while outputs.len() < target && Instant::now() < deadline {
        outputs.extend(fed.pump());
        fed.observe();
        std::thread::yield_now();
    }
    assert!(
        outputs.len() >= target,
        "stalled at {}/{target}",
        outputs.len()
    );
}

fn start_federation() -> Federation {
    let nfs_host0: Vec<(ServiceId, Box<dyn NetworkFunction>)> = vec![
        (FW, Box::new(FirewallNf::allow_by_default())),
        // Aggregate-volume detector on the security path; the threshold is
        // unreachable here so it only counts (the alarm→scrubber-boot loop
        // is the single-host Figure 9 sim's subject, not this test's).
        (
            DDOS,
            Box::new(DdosDetectorNf::new(1_000_000_000, u64::MAX, 16)),
        ),
        (VD, Box::new(VideoDetectorNf::new(Verdict::ToPort(EGRESS)))),
        (IDS2, Box::new(IdsNf::new(IDS2, SCRUB2))),
        (SCRUB2, Box::new(ScrubberNf::new())),
    ];
    let nfs_host1: Vec<(ServiceId, Box<dyn NetworkFunction>)> = vec![
        (IDS, Box::new(IdsNf::new(IDS, SCRUB))),
        (SCRUB, Box::new(ScrubberNf::new())),
    ];
    // Host 2 carries the video transcoder plus standby instances of the
    // edge-inspection services, so the controller can re-home edge buckets
    // onto it (keep every packet: rate reduction is Figure 11's subject).
    let nfs_host2: Vec<(ServiceId, Box<dyn NetworkFunction>)> = vec![
        (TC, Box::new(TranscoderNf::new(1))),
        (IDS2, Box::new(IdsNf::new(IDS2, SCRUB2))),
        (SCRUB2, Box::new(ScrubberNf::new())),
    ];

    let hosts: Vec<ThreadedHost> = [nfs_host0, nfs_host1, nfs_host2]
        .into_iter()
        .map(|nfs| {
            let host =
                ThreadedHost::start(SharedFlowTable::new(), nfs, ThreadedHostConfig::default());
            // Trace every flow so the span ↔ 5-tuple join can be asserted
            // on both sides of a cross-host chain.
            host.set_trace_sampling(1);
            host
        })
        .collect();
    let mut fed = Federation::new(hosts, FederationConfig::default());

    // Cross-host security chain: enters host 0, IDS lives on host 1.
    fed.install_chain(0, SECURITY_NIC, &[(0, FW), (0, DDOS), (1, IDS)], EGRESS);
    // Flagged security flows leave through the scrubber's default path.
    fed.host(1).install_rule(FlowRule::new(
        FlowMatch::at_step(RulePort::Service(SCRUB)),
        vec![Action::ToPort(EGRESS)],
    ));
    // Cross-host video chain, wired by hand (`add_handoff`) because the
    // detector's bypass needs to be an *allowed* alternative of its step
    // rule (§3.4: the default action is first, NF-requested diversions
    // must be listed or the dataplane overrides them).
    fed.add_handoff(0, VIDEO_UPLINK, 2, VIDEO_REMOTE);
    fed.host(0).install_rule(FlowRule::new(
        FlowMatch::at_step(RulePort::Nic(VIDEO_NIC)),
        vec![Action::ToService(VD)],
    ));
    fed.host(0).install_rule(FlowRule::new(
        FlowMatch::at_step(RulePort::Service(VD)),
        vec![Action::ToPort(VIDEO_UPLINK), Action::ToPort(EGRESS)],
    ));
    fed.host(2).install_rule(FlowRule::new(
        FlowMatch::at_step(RulePort::Nic(VIDEO_REMOTE)),
        vec![Action::ToService(TC)],
    ));
    fed.host(2).install_rule(FlowRule::new(
        FlowMatch::at_step(RulePort::Service(TC)),
        vec![Action::ToPort(EGRESS)],
    ));
    // Edge-inspection chain, installed identically on host 0 and its
    // re-home standby host 2 (scrubbed traffic leaves on its own port so
    // the path a packet took is observable at egress; the scrubber is an
    // allowed next hop of the IDS step).
    for host in [0, 2] {
        fed.host(host).install_rule(FlowRule::new(
            FlowMatch::at_step(RulePort::Nic(EDGE_NIC)),
            vec![Action::ToService(IDS2)],
        ));
        fed.host(host).install_rule(FlowRule::new(
            FlowMatch::at_step(RulePort::Service(IDS2)),
            vec![Action::ToPort(EGRESS), Action::ToService(SCRUB2)],
        ));
        fed.host(host).install_rule(FlowRule::new(
            FlowMatch::at_step(RulePort::Service(SCRUB2)),
            vec![Action::ToPort(SCRUB_EGRESS)],
        ));
    }
    fed
}

#[test]
fn three_host_federation_survives_cross_host_rehome_with_zero_loss() {
    let mut fed = start_federation();

    // The edge flow that will be flagged (IDS per-flow state on host 0)
    // and then re-homed to host 2 mid-stream.
    let edge_flow = edge_packet("x=1").flow_key().unwrap();
    let edge_bucket = bucket_of(&edge_packet("x=1"));
    assert_eq!(fed.host_of_flow(&edge_flow), 0);
    // A permanent exact rule in the moved bucket, so `rules_rehomed` is
    // exercised independently of the IDS's idle-timed ChangeDefault pin.
    fed.host(0).install_rule(FlowRule::new(
        FlowMatch::exact(RulePort::Nic(EDGE_NIC), &edge_flow),
        vec![Action::ToService(IDS2)],
    ));

    // Workload flows, skipping any src port whose flow collides with the
    // edge flow's steering bucket (only that bucket may move hosts).
    let pick = |mut port: u16, build: &dyn Fn(u16) -> Packet| -> u16 {
        while bucket_of(&build(port)) == edge_bucket {
            port += 1;
        }
        port
    };
    let normal: Vec<u16> = (0..4)
        .map(|i| {
            pick(20_000 + 16 * i, &|p| {
                security_packet([10, 0, 0, 1], p, "name=a")
            })
        })
        .collect();
    let attack: Vec<u16> = (0..3)
        .map(|i| {
            pick(21_000 + 16 * i, &|p| {
                security_packet([66, 0, 1, 5], p, "name=a")
            })
        })
        .collect();
    let malicious: Vec<u16> = (0..2)
        .map(|i| {
            pick(22_000 + 16 * i, &|p| {
                security_packet([10, 0, 0, 7], p, "q=x")
            })
        })
        .collect();
    let video: Vec<u16> = (0..3)
        .map(|i| pick(23_000 + 16 * i, &|p| video_packet(p, "video/mp4")))
        .collect();
    let web: Vec<u16> = (0..2)
        .map(|i| pick(24_000 + 16 * i, &|p| video_packet(p, "text/html")))
        .collect();

    let workload_round = |round: usize| -> Vec<Packet> {
        let mut packets = Vec::new();
        for turn in 0..PKTS_PER_FLOW / 2 {
            let _ = (round, turn);
            packets.extend(
                normal
                    .iter()
                    .map(|&p| security_packet([10, 0, 0, 1], p, "name=a")),
            );
            packets.extend(
                attack
                    .iter()
                    .map(|&p| security_packet([66, 0, 1, 5], p, "name=a")),
            );
            // First packet of each malicious flow carries the signature;
            // the rest look innocent but stay pinned to the scrubber.
            packets.extend(malicious.iter().map(|&p| {
                if round == 0 && turn == 0 {
                    security_packet([10, 0, 0, 7], p, "q=UNION SELECT")
                } else {
                    security_packet([10, 0, 0, 7], p, "q=hello")
                }
            }));
            packets.extend(video.iter().map(|&p| video_packet(p, "video/mp4")));
            packets.extend(web.iter().map(|&p| video_packet(p, "text/html")));
        }
        packets
    };
    let workload_flows = normal.len() + attack.len() + malicious.len() + video.len() + web.len();
    let round_len = workload_flows * PKTS_PER_FLOW / 2;

    // ── Round A: both sims flowing, edge flow gets flagged on host 0. ──
    let mut outputs = Vec::new();
    let mut round_a = vec![edge_packet("q=' OR '1'='1")]; // signature hit
    round_a.extend((0..4).map(|i| edge_packet(&format!("seq={i}"))));
    round_a.extend(workload_round(0));
    let round_a_len = round_a.len();
    inject_all(&mut fed, round_a, &mut outputs);
    drive(&mut fed, &mut outputs, round_a_len);

    // ── Re-home the flagged flow's bucket to host 2, mid-stream. ──
    assert!(fed.rehome_bucket(edge_bucket, 2));
    assert!(!fed.rehome_bucket(edge_bucket, 2), "already mid-move");
    // Traffic keeps flowing while the move is in flight: the edge flow's
    // packets are penned by the old owner, everything else is untouched.
    let mut mid = vec![
        edge_packet("seq=5"),
        edge_packet("seq=6"),
        edge_packet("seq=7"),
    ];
    mid.extend(workload_round(1));
    let mid_len = mid.len();
    inject_all(&mut fed, mid, &mut outputs);
    let deadline = Instant::now() + Duration::from_secs(10);
    while fed.pending_rehomes() > 0 && Instant::now() < deadline {
        outputs.extend(fed.pump());
        fed.observe();
        std::thread::yield_now();
    }
    assert_eq!(fed.pending_rehomes(), 0, "cross-host move completed");
    assert_eq!(
        fed.host_of_flow(&edge_flow),
        2,
        "steering flipped to host 2"
    );
    drive(&mut fed, &mut outputs, round_a_len + mid_len);

    // ── Post-move: new edge packets steer straight to host 2. ──
    let post: Vec<Packet> = (8..12).map(|i| edge_packet(&format!("seq={i}"))).collect();
    inject_all(&mut fed, post, &mut outputs);
    let total = 2 * round_len + 12;
    drive(&mut fed, &mut outputs, total);

    // ── packets_lost == 0: every injected packet egressed somewhere. ──
    assert_eq!(outputs.len(), total, "no packet was lost or duplicated");
    let count = |host: usize, port: u16| {
        outputs
            .iter()
            .filter(|o| o.host == host && o.port == port)
            .count()
    };
    // Security chain exits host 1 (clean and scrubbed alike).
    assert_eq!(
        count(1, EGRESS),
        (normal.len() + attack.len() + malicious.len()) * PKTS_PER_FLOW
    );
    // Video exits the transcoder host; non-video bypasses at host 0.
    assert_eq!(count(2, EGRESS), video.len() * PKTS_PER_FLOW);
    assert_eq!(count(0, EGRESS), web.len() * PKTS_PER_FLOW);
    // The flagged edge flow always leaves through the scrubber port:
    // 5 packets before the move on host 0, then the 3 penned + 4 fresh on
    // host 2 — proof the IDS flag crossed hosts with the bucket.
    assert_eq!(count(0, SCRUB_EGRESS), 5);
    assert_eq!(count(2, SCRUB_EGRESS), 7, "flagged state survived the move");

    // ── rules / wildcard / NF-state loss == 0: the federation ledger. ──
    let ledger = fed.global_rehome_report();
    assert_eq!(ledger.buckets_handed_off, 1, "one cross-host handout");
    assert_eq!(ledger.buckets_adopted, 1, "…and exactly one adoption");
    assert!(ledger.rules_rehomed >= 1, "the exact rule crossed hosts");
    assert_eq!(ledger.wildcard_conflicts, 0, "no wildcard replay was lost");
    assert_eq!(
        ledger.nf_flow_states_rehomed, 1,
        "the IDS flag crossed hosts"
    );
    assert!(ledger.packets_penned >= 3, "mid-move arrivals were penned");
    assert_eq!(fed.report().buckets_rehomed, 1);
    assert_eq!(fed.report().pen_packets_forwarded, 3);
    for host in 0..fed.num_hosts() {
        assert_eq!(
            fed.host(host).stats().snapshot().overflow_drops,
            0,
            "host {host} dropped at ingress"
        );
    }

    // ── Interconnect accounting: chains and the pen rode the wires. ──
    let stats = fed.wire_stats();
    let wire =
        |from: usize, to: usize| stats.iter().find(|w| w.from == from && w.to == to).unwrap();
    assert_eq!(
        wire(0, 1).transferred,
        ((normal.len() + attack.len() + malicious.len()) * PKTS_PER_FLOW) as u64
    );
    assert_eq!(
        wire(0, 2).transferred,
        (video.len() * PKTS_PER_FLOW + 3) as u64
    );
    assert!(wire(0, 1).max_depth >= 1);

    // ── Cross-host trace correlation: both hosts' spans join back to the
    // same 5-tuple through their ObsHubs' flow-key registries. ──
    fed.observe();
    let sec_flow = security_packet([10, 0, 0, 1], normal[0], "name=a")
        .flow_key()
        .unwrap();
    for host in [0usize, 1] {
        let spans = fed.obs_mut(host).take_spans();
        let span = spans
            .iter()
            .find(|s| s.flow_hash == sec_flow.stable_hash())
            .unwrap_or_else(|| panic!("host {host} traced no span of the security flow"));
        assert_eq!(
            fed.obs(host).resolve_span(span),
            Some(&sec_flow),
            "host {host} resolves the span to the shared 5-tuple"
        );
    }

    // ── One global telemetry view: one slot per host's shard. ──
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        fed.observe();
        let global = fed.global_telemetry();
        if global.num_shards() == 3 || Instant::now() >= deadline {
            assert_eq!(global.num_shards(), 3);
            break;
        }
        std::thread::yield_now();
    }

    fed.shutdown();
}
