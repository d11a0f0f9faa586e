//! Seeded traffic generation. Everything the host sees — flows, payload
//! bytes, which flows turn malicious and when — is drawn from one
//! SplitMix64 stream, so a seed names an exact packet sequence.
//!
//! Every packet carries its global sequence number in the last eight bytes
//! of the frame; the generator also hands out, per packet, what must
//! happen to it. The [`crate::check::Checker`] compares that with what the
//! host actually did.

use std::collections::HashSet;
use std::net::Ipv4Addr;

use sdnfv_proto::{FlowKey, IpProtocol, Packet, PacketBuilder, Port};

/// NIC port every generated packet arrives on.
pub const INGRESS_PORT: Port = 0;
/// NIC port every workload's rules transmit on.
pub const EGRESS_PORT: Port = 1;
/// Bytes at the end of every frame that carry the packet's sequence number.
pub const TRAILER_LEN: usize = 8;
/// Packets per injected burst — the host's default `burst_size`.
pub const BURST: usize = 32;

/// The payload signature [`Traffic::Churn`] plants in malicious flows; both
/// the IDS default set and the benchmark's scrubber know it.
pub const SIGNATURE: &[u8] = b"UNION SELECT";

/// SplitMix64 (Steele, Lea & Flood): tiny, fast, and good enough to draw
/// flows and payload bytes from.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`). The modulo bias is irrelevant here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// What the host must do with a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Leaves on this NIC port.
    Egress(Port),
    /// Dropped by an NF verdict (never leaves).
    Drop,
}

/// The generator's record of one packet: who it is and what must happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Meta {
    pub seq: u64,
    /// Flow identifier: stable for a fixed flow set, ever-increasing under
    /// churn.
    pub flow: u32,
    pub expect: Expect,
}

/// The shape of a workload's traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficPlan {
    /// `flows` distinct UDP flows visited round-robin, every packet
    /// `frame_len` bytes and expected out of [`EGRESS_PORT`].
    Fixed { flows: usize, frame_len: usize },
    /// HTTP-like TCP flows that each live for `flow_len` packets, with
    /// `lanes` of them interleaved at any moment; one flow in
    /// `malicious_one_in` carries [`SIGNATURE`] in one of its first
    /// `flow_len / 2` packets — that packet must be dropped (the scrubber
    /// discards it), every other packet must egress.
    Churn {
        lanes: usize,
        flow_len: u32,
        malicious_one_in: u64,
        frame_len: usize,
    },
}

/// One live flow of a churn lane.
#[derive(Debug, Clone)]
struct Lane {
    flow: u32,
    sent: u32,
    /// Packet index that carries the signature, for malicious flows.
    signature_at: Option<u32>,
    benign: Packet,
}

#[derive(Debug, Clone)]
struct FixedFlows {
    templates: Vec<Packet>,
    keys: Vec<FlowKey>,
    next: usize,
}

#[derive(Debug, Clone)]
struct ChurnFlows {
    lanes: Vec<Lane>,
    next_lane: usize,
    next_flow: u32,
    flow_len: u32,
    malicious_one_in: u64,
    frame_len: usize,
    /// Random lowercase filler shared by every payload of the run.
    filler: Vec<u8>,
    /// Per-run salt of the flow-id → source-address bijection.
    salt: u32,
}

impl ChurnFlows {
    fn new_flow(&mut self, rng: &mut SplitMix64) -> Lane {
        let flow = self.next_flow;
        self.next_flow += 1;
        // Odd multiplier ⇒ a bijection on the low 24 bits: no two of the
        // first 16 M flows of a run share a source address.
        let host = (flow.wrapping_mul(0x9E37_79B1) ^ self.salt) & 0x00FF_FFFF;
        let key = FlowKey::new(
            Ipv4Addr::new(10, (host >> 16) as u8, (host >> 8) as u8, host as u8),
            Ipv4Addr::new(93, 184, 216, 34),
            1024 + rng.below(64_000) as u16,
            80,
            IpProtocol::Tcp,
        );
        let malicious = rng.below(self.malicious_one_in) == 0;
        let position = rng.below(u64::from(self.flow_len / 2).max(1)) as u32;
        Lane {
            flow,
            sent: 0,
            signature_at: malicious.then_some(position),
            benign: churn_packet(&key, self.frame_len, &self.filler, false),
        }
    }

    /// The next packet, its flow id, and whether it carries the signature.
    fn next(&mut self, rng: &mut SplitMix64) -> (Packet, u32, bool) {
        let index = self.next_lane;
        self.next_lane = (index + 1) % self.lanes.len();
        if self.lanes[index].sent >= self.flow_len {
            self.lanes[index] = self.new_flow(rng);
        }
        let lane = &mut self.lanes[index];
        let at = lane.sent;
        lane.sent += 1;
        if lane.signature_at == Some(at) {
            let key = lane.benign.flow_key().expect("generated frames carry IPv4");
            let packet = churn_packet(&key, self.frame_len, &self.filler, true);
            (packet, lane.flow, true)
        } else {
            (lane.benign.clone(), lane.flow, false)
        }
    }
}

#[derive(Debug, Clone)]
enum State {
    Fixed(FixedFlows),
    Churn(ChurnFlows),
}

/// A seeded, endless packet stream.
#[derive(Debug, Clone)]
pub struct Traffic {
    rng: SplitMix64,
    state: State,
    next_seq: u64,
    /// Signature-carrying packets handed out so far.
    signatures: u64,
}

impl Traffic {
    pub fn new(plan: TrafficPlan, seed: u64) -> Traffic {
        let mut rng = SplitMix64::new(seed);
        let state = match plan {
            TrafficPlan::Fixed { flows, frame_len } => {
                let mut seen = HashSet::with_capacity(flows);
                let mut templates = Vec::with_capacity(flows);
                let mut keys = Vec::with_capacity(flows);
                while templates.len() < flows {
                    let packet = fixed_template(&mut rng, frame_len);
                    let key = packet.flow_key().expect("generated frames carry IPv4");
                    if seen.insert(key) {
                        templates.push(packet);
                        keys.push(key);
                    }
                }
                State::Fixed(FixedFlows {
                    templates,
                    keys,
                    next: 0,
                })
            }
            TrafficPlan::Churn {
                lanes,
                flow_len,
                malicious_one_in,
                frame_len,
            } => {
                let filler: Vec<u8> = (0..frame_len)
                    .map(|_| b"abcdefghijklmnopqrstuvwxyz0123456789"[rng.below(36) as usize])
                    .collect();
                let mut churn = ChurnFlows {
                    lanes: Vec::with_capacity(lanes),
                    next_lane: 0,
                    next_flow: 0,
                    flow_len,
                    malicious_one_in,
                    frame_len,
                    filler,
                    salt: rng.next_u64() as u32,
                };
                for lane in 0..lanes {
                    let mut fresh = churn.new_flow(&mut rng);
                    // Stagger lane ages so flow births (and deaths) are
                    // spread evenly over time instead of arriving in waves.
                    // A flow born "already old" may have its signature
                    // behind it; it is then simply benign.
                    fresh.sent = lane as u32 % flow_len;
                    if fresh.signature_at.is_some_and(|at| at < fresh.sent) {
                        fresh.signature_at = None;
                    }
                    churn.lanes.push(fresh);
                }
                State::Churn(churn)
            }
        };
        Traffic {
            rng,
            state,
            next_seq: 0,
            signatures: 0,
        }
    }

    /// The flow set of a [`TrafficPlan::Fixed`] stream, in visiting order
    /// (empty under churn, where flows are unbounded).
    pub fn flow_keys(&self) -> &[FlowKey] {
        match &self.state {
            State::Fixed(fixed) => &fixed.keys,
            State::Churn(_) => &[],
        }
    }

    /// Signature-carrying packets generated so far — each must raise
    /// exactly one IDS alert.
    pub fn signatures(&self) -> u64 {
        self.signatures
    }

    /// The next packet of the stream and what must happen to it.
    pub fn next_packet(&mut self) -> (Packet, Meta) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let (mut packet, flow, expect) = match &mut self.state {
            State::Fixed(fixed) => {
                let flow = fixed.next;
                fixed.next = (flow + 1) % fixed.templates.len();
                (
                    fixed.templates[flow].clone(),
                    flow as u32,
                    Expect::Egress(EGRESS_PORT),
                )
            }
            State::Churn(churn) => {
                let (packet, flow, signature) = churn.next(&mut self.rng);
                if signature {
                    self.signatures += 1;
                    (packet, flow, Expect::Drop)
                } else {
                    (packet, flow, Expect::Egress(EGRESS_PORT))
                }
            }
        };
        write_seq(&mut packet, seq);
        (packet, Meta { seq, flow, expect })
    }

    /// The next `n` packets that are expected to egress, skipping (and not
    /// emitting) any that must be dropped — lone-packet latency needs
    /// packets that come back.
    pub fn next_egressing(&mut self, n: usize) -> Vec<(Packet, Meta)> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let (packet, meta) = self.next_packet();
            if matches!(meta.expect, Expect::Egress(_)) {
                out.push((packet, meta));
            } else {
                // The skipped signature never reaches the host, so it must
                // not count toward the alerts the host owes.
                self.signatures -= 1;
            }
        }
        out
    }
}

/// Stamps `seq` into the frame's trailer.
pub fn write_seq(packet: &mut Packet, seq: u64) {
    let data = packet.data_mut();
    let at = data.len() - TRAILER_LEN;
    data[at..].copy_from_slice(&seq.to_be_bytes());
}

/// Reads the sequence number back out of a frame's trailer.
pub fn read_seq(packet: &Packet) -> Option<u64> {
    let data = packet.data();
    let at = data.len().checked_sub(TRAILER_LEN)?;
    Some(u64::from_be_bytes(data[at..].try_into().ok()?))
}

/// Servers and service ports the fixed-flow clients talk to: few enough
/// that wildcard rules on destination fields match real shares of traffic.
pub const SERVER_PORTS: [u16; 4] = [80, 443, 53, 8080];

pub fn server_ip(index: u64) -> Ipv4Addr {
    Ipv4Addr::new(172, 16, (index / 4) as u8, 10 + (index % 4) as u8)
}

fn fixed_template(rng: &mut SplitMix64, frame_len: usize) -> Packet {
    let src = rng.next_u64();
    // Ethernet 14 + IPv4 20 + UDP 8.
    let payload: Vec<u8> = (0..frame_len.saturating_sub(42))
        .map(|_| rng.next_u64() as u8)
        .collect();
    PacketBuilder::udp()
        .src_ip(Ipv4Addr::new(
            10,
            (src >> 16) as u8,
            (src >> 8) as u8,
            src as u8,
        ))
        .dst_ip(server_ip(rng.below(16)))
        .src_port(1024 + rng.below(64_000) as u16)
        .dst_port(SERVER_PORTS[rng.below(4) as usize])
        .payload(&payload)
        .ingress_port(INGRESS_PORT)
        .build()
}

/// An HTTP-like request of flow `key`, padded with `filler` to `frame_len`.
fn churn_packet(key: &FlowKey, frame_len: usize, filler: &[u8], malicious: bool) -> Packet {
    let mut payload = Vec::with_capacity(frame_len);
    payload.extend_from_slice(b"GET /catalog/item?id=");
    if malicious {
        payload.extend_from_slice(b"1 ");
        payload.extend_from_slice(SIGNATURE);
        payload.extend_from_slice(b" password FROM users");
    } else {
        payload.extend_from_slice(b"42");
    }
    payload.extend_from_slice(b" HTTP/1.1\r\nHost: shop.example\r\nX-Pad: ");
    // Ethernet 14 + IPv4 20 + TCP 20.
    let room = frame_len.saturating_sub(54 + payload.len());
    payload.extend_from_slice(&filler[..room.min(filler.len())]);
    PacketBuilder::tcp()
        .src_ip(key.src_ip)
        .dst_ip(key.dst_ip)
        .src_port(key.src_port)
        .dst_port(key.dst_port)
        .payload(&payload)
        .total_size(frame_len)
        .ingress_port(INGRESS_PORT)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXED: TrafficPlan = TrafficPlan::Fixed {
        flows: 64,
        frame_len: 64,
    };
    const CHURN: TrafficPlan = TrafficPlan::Churn {
        lanes: 64,
        flow_len: 16,
        malicious_one_in: 8,
        frame_len: 512,
    };

    fn stream(plan: TrafficPlan, seed: u64, n: usize) -> Vec<(Packet, Meta)> {
        let mut traffic = Traffic::new(plan, seed);
        (0..n).map(|_| traffic.next_packet()).collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_stream() {
        for plan in [FIXED, CHURN] {
            assert_eq!(stream(plan, 7, 5000), stream(plan, 7, 5000));
        }
    }

    #[test]
    fn different_seed_gives_different_flows() {
        let a = Traffic::new(FIXED, 1);
        let b = Traffic::new(FIXED, 2);
        let shared = a
            .flow_keys()
            .iter()
            .filter(|k| b.flow_keys().contains(k))
            .count();
        assert_eq!(a.flow_keys().len(), 64);
        assert!(shared < 4, "{shared} of 64 flows shared between seeds");
        let churn_a = stream(CHURN, 1, 2000);
        let churn_b = stream(CHURN, 2, 2000);
        assert_ne!(
            churn_a
                .iter()
                .map(|(p, _)| p.flow_key())
                .collect::<Vec<_>>(),
            churn_b
                .iter()
                .map(|(p, _)| p.flow_key())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn fixed_frames_have_the_stated_size_distinct_flows_and_a_readable_trailer() {
        let packets = stream(FIXED, 3, 200);
        let mut keys = HashSet::new();
        for (i, (packet, meta)) in packets.iter().enumerate() {
            assert_eq!(packet.len(), 64);
            assert_eq!(meta.seq, i as u64);
            assert_eq!(read_seq(packet), Some(i as u64));
            assert_eq!(meta.flow as usize, i % 64);
            assert_eq!(meta.expect, Expect::Egress(EGRESS_PORT));
            keys.insert(packet.flow_key().unwrap());
        }
        assert_eq!(keys.len(), 64);
    }

    #[test]
    fn churn_flows_are_short_lived_new_and_carry_one_signature_when_malicious() {
        let mut traffic = Traffic::new(CHURN, 11);
        let mut per_flow: std::collections::HashMap<u32, (u32, u32, FlowKey)> =
            std::collections::HashMap::new();
        let total = 64 * 16 * 40;
        let mut drops = 0;
        for _ in 0..total {
            let (packet, meta) = traffic.next_packet();
            assert_eq!(packet.len(), 512);
            let key = packet.flow_key().unwrap();
            let entry = per_flow.entry(meta.flow).or_insert((0, 0, key));
            assert_eq!(entry.2, key, "a flow id keeps one 5-tuple");
            entry.0 += 1;
            let has_signature = packet
                .l4_payload()
                .unwrap()
                .windows(SIGNATURE.len())
                .any(|w| w == SIGNATURE);
            assert_eq!(has_signature, meta.expect == Expect::Drop);
            if has_signature {
                entry.1 += 1;
                drops += 1;
            }
        }
        assert_eq!(traffic.signatures(), drops);
        let flows = per_flow.len();
        assert!(flows > 2000, "only {flows} flows in {total} packets");
        let keys: HashSet<FlowKey> = per_flow.values().map(|v| v.2).collect();
        assert_eq!(keys.len(), flows, "every flow is new");
        assert!(per_flow.values().all(|v| v.0 <= 16 && v.1 <= 1));
        let malicious = per_flow.values().filter(|v| v.1 == 1).count();
        let share = malicious as f64 / flows as f64;
        assert!((0.08..0.18).contains(&share), "malicious share {share}");
    }

    #[test]
    fn next_egressing_skips_signatures_without_owing_alerts() {
        let mut traffic = Traffic::new(CHURN, 5);
        let picked = traffic.next_egressing(5000);
        assert!(picked
            .iter()
            .all(|(_, m)| m.expect == Expect::Egress(EGRESS_PORT)));
        assert_eq!(traffic.signatures(), 0);
        assert!(picked.last().unwrap().1.seq > 5000 - 1);
    }

    #[test]
    fn splitmix_matches_reference_vector() {
        // First outputs of SplitMix64 seeded with 1234567 (from the
        // reference implementation).
        let mut rng = SplitMix64::new(1_234_567);
        assert_eq!(rng.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(rng.next_u64(), 3_203_168_211_198_807_973);
    }
}
