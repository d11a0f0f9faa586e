//! Seeded fuzzing of the packet parsers, and their round-trips.
//!
//! The data plane asks two questions of every packet — its 5-tuple
//! ([`Packet::flow_key`]) and where its transport payload starts
//! ([`Packet::l4_payload_offset`]) — and answers both with one pass over
//! the headers at fixed offsets. The differential tests below hold that
//! pass to the layered parsers ([`Packet::ipv4`], then [`Packet::tcp`] or
//! [`Packet::udp`]): over a seeded corpus of frames with IP and TCP options,
//! every transport protocol, and mutations that truncate at every header
//! boundary, corrupt the IHL or the TCP data offset, change the ethertype,
//! the IP version or the protocol, or flip bytes, both questions get the
//! same answer — the same `Ok` value or the same [`ProtoError`] — and
//! nothing panics.
//!
//! The round-trip tests re-state, over the same generator, the properties
//! every header type must keep: what is written parses back unchanged.

use sdnfv_proto::ethernet::{EtherType, EthernetHeader, ETHERNET_HEADER_LEN};
use sdnfv_proto::flow::{FlowKey, IpProtocol};
use sdnfv_proto::ipv4::{Ipv4Header, IPV4_HEADER_LEN};
use sdnfv_proto::mac::MacAddr;
use sdnfv_proto::memcached;
use sdnfv_proto::packet::{Packet, PacketBuilder};
use sdnfv_proto::tcp::{TcpHeader, TCP_HEADER_LEN};
use sdnfv_proto::udp::{UdpHeader, UDP_HEADER_LEN};
use sdnfv_proto::ProtoError;
use std::net::Ipv4Addr;

const SEEDS: u64 = 256;
const FRAMES_PER_SEED: usize = 200;
/// Cases per seed for each round-trip property.
const CASES_PER_SEED: usize = 8;

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }

    fn byte(&mut self) -> u8 {
        self.next() as u8
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.byte()).collect()
    }
}

/// Runs `case` over every seed's generator, `per_seed` times each.
fn for_each_case(per_seed: usize, mut case: impl FnMut(&mut SplitMix64)) {
    for seed in 0..SEEDS {
        let mut rng = SplitMix64(seed);
        for _ in 0..per_seed {
            case(&mut rng);
        }
    }
}

/// The 5-tuple as the layered parsers compose it.
fn layered_key(packet: &Packet) -> Option<FlowKey> {
    let ip = packet.ipv4().ok()?;
    let (src_port, dst_port) = match ip.protocol {
        IpProtocol::Tcp => {
            let tcp = packet.tcp().ok()?;
            (tcp.src_port, tcp.dst_port)
        }
        IpProtocol::Udp => {
            let udp = packet.udp().ok()?;
            (udp.src_port, udp.dst_port)
        }
        _ => (0, 0),
    };
    Some(FlowKey::new(
        ip.src,
        ip.dst,
        src_port,
        dst_port,
        ip.protocol,
    ))
}

/// The transport payload offset as the layered parsers compose it.
fn layered_payload_offset(packet: &Packet) -> Result<usize, ProtoError> {
    let ip = packet.ipv4()?;
    let l4 = ETHERNET_HEADER_LEN + ip.header_len;
    match ip.protocol {
        IpProtocol::Tcp => Ok(l4 + packet.tcp()?.header_len),
        IpProtocol::Udp => packet.udp().map(|_| l4 + UDP_HEADER_LEN),
        other => Err(ProtoError::WrongProtocol {
            expected: "tcp or udp",
            found: other.to_string(),
        }),
    }
}

/// Where a generated frame's headers end, for boundary truncation.
struct Layout {
    /// IPv4 header length in bytes (options included).
    ihl: usize,
    /// Transport header length in bytes (TCP options included).
    l4_header: usize,
}

/// A well-formed Ethernet/IPv4 frame: IP options, TCP options, and TCP,
/// UDP, ICMP or another protocol, with a short payload.
fn frame(rng: &mut SplitMix64) -> (Vec<u8>, Layout) {
    let ihl = 4 * (5 + rng.below(11) as usize);
    let protocol = match rng.below(8) {
        0..=2 => 6,
        3..=5 => 17,
        6 => 1,
        _ => rng.byte(),
    };
    let l4_header = match protocol {
        6 => 4 * (5 + rng.below(11) as usize),
        17 => UDP_HEADER_LEN,
        _ => 8,
    };
    let payload = rng.below(48) as usize;
    let mut data = rng.bytes(ETHERNET_HEADER_LEN + ihl + l4_header + payload);
    data[12..14].copy_from_slice(&[0x08, 0x00]);
    let ip = ETHERNET_HEADER_LEN;
    data[ip] = 0x40 | (ihl / 4) as u8;
    data[ip + 9] = protocol;
    if protocol == 6 {
        let l4 = ip + ihl;
        data[l4 + 12] = ((l4_header / 4) as u8) << 4 | (data[l4 + 12] & 0x0f);
    }
    (data, Layout { ihl, l4_header })
}

/// Applies one mutation the parsers must reject or re-read consistently.
fn mutate(rng: &mut SplitMix64, data: &mut Vec<u8>, layout: &Layout) {
    let ip = ETHERNET_HEADER_LEN;
    let l4 = ip + layout.ihl;
    match rng.below(8) {
        0 => {
            // Truncation at (or one byte either side of) a header boundary.
            let boundaries = [
                0,
                ETHERNET_HEADER_LEN,
                ip + IPV4_HEADER_LEN,
                l4,
                l4 + UDP_HEADER_LEN,
                l4 + TCP_HEADER_LEN,
                l4 + layout.l4_header,
            ];
            let cut = boundaries[rng.below(boundaries.len() as u64) as usize];
            let cut = (cut + rng.below(3) as usize).saturating_sub(1);
            data.truncate(cut);
        }
        1 if data.len() > ip => data[ip] = (data[ip] & 0xf0) | rng.below(16) as u8,
        2 if data.len() > l4 + 12 => {
            data[l4 + 12] = (rng.below(16) as u8) << 4 | (data[l4 + 12] & 0x0f);
        }
        3 if data.len() >= 14 => {
            let ethertype: u16 = match rng.below(4) {
                0 => 0x86dd,
                1 => 0x0806,
                2 => 0x0008,
                _ => rng.next() as u16,
            };
            data[12..14].copy_from_slice(&ethertype.to_be_bytes());
        }
        4 if data.len() > ip => data[ip] = (rng.below(16) as u8) << 4 | (data[ip] & 0x0f),
        5 if data.len() > ip + 9 => {
            data[ip + 9] = [1, 6, 17, rng.byte()][rng.below(4) as usize];
        }
        6 if !data.is_empty() => {
            let at = rng.below(data.len() as u64) as usize;
            data[at] = rng.byte();
        }
        _ => data.truncate(rng.below(data.len() as u64 + 1) as usize),
    }
}

/// How often each kind of answer came up, so the corpus is known to reach
/// every branch of the walk.
#[derive(Default)]
struct Coverage {
    tcp: u64,
    udp: u64,
    portless: u64,
    keyless: u64,
    truncated: u64,
    invalid: u64,
    wrong_protocol: u64,
}

#[test]
fn the_header_walk_answers_as_the_layered_parsers_do() {
    let mut seen = Coverage::default();
    for_each_case(FRAMES_PER_SEED, |rng| {
        let (mut data, layout) = frame(rng);
        for _ in 0..rng.below(4) {
            mutate(rng, &mut data, &layout);
        }
        let packet = Packet::from_bytes(data);
        let key = packet.flow_key();
        assert_eq!(key, layered_key(&packet), "flow key of {:?}", packet.data());
        assert_eq!(FlowKey::from_packet(&packet), key);
        let offset = packet.l4_payload_offset();
        assert_eq!(
            offset,
            layered_payload_offset(&packet),
            "payload offset of {:?}",
            packet.data()
        );
        assert_eq!(
            packet.l4_payload().ok(),
            offset.as_ref().ok().map(|&at| &packet.data()[at..])
        );
        match key.map(|key| key.protocol) {
            Some(IpProtocol::Tcp) => seen.tcp += 1,
            Some(IpProtocol::Udp) => seen.udp += 1,
            Some(_) => seen.portless += 1,
            None => seen.keyless += 1,
        }
        match offset {
            Ok(_) => {}
            Err(ProtoError::Truncated { .. }) => seen.truncated += 1,
            Err(ProtoError::InvalidField { .. }) => seen.invalid += 1,
            Err(ProtoError::WrongProtocol { .. }) => seen.wrong_protocol += 1,
            Err(other) => panic!("a header parser reported {other:?}"),
        }
    });
    for (what, count) in [
        ("tcp keys", seen.tcp),
        ("udp keys", seen.udp),
        ("portless keys", seen.portless),
        ("keyless frames", seen.keyless),
        ("truncated", seen.truncated),
        ("invalid fields", seen.invalid),
        ("wrong protocol", seen.wrong_protocol),
    ] {
        assert!(count >= 500, "the corpus reached {what} only {count} times");
    }
}

#[test]
fn parsers_never_panic_on_arbitrary_bytes() {
    for_each_case(CASES_PER_SEED, |rng| {
        let len = rng.below(256) as usize;
        let mut data = rng.bytes(len);
        // Half the frames claim IPv4, so the deeper layers are reached.
        if len >= 14 && rng.chance(2) {
            data[12..14].copy_from_slice(&[0x08, 0x00]);
        }
        let packet = Packet::from_bytes(data.clone());
        let _ = packet.ethernet();
        let _ = packet.ipv4();
        let _ = packet.tcp();
        let _ = packet.udp();
        let _ = packet.l4_payload();
        assert_eq!(packet.flow_key(), layered_key(&packet));
        assert_eq!(packet.l4_payload_offset(), layered_payload_offset(&packet));
        let _ = sdnfv_proto::http::HttpRequest::parse(&data);
        let _ = sdnfv_proto::http::HttpResponse::parse(&data);
        let _ = memcached::Request::parse(&data);
    });
}

#[test]
fn ethernet_roundtrip() {
    for_each_case(CASES_PER_SEED, |rng| {
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.fill_with(|| rng.byte());
        src.fill_with(|| rng.byte());
        let ethertype = EtherType::from(rng.next() as u16);
        let header = EthernetHeader::new(MacAddr::new(dst), MacAddr::new(src), ethertype);
        assert_eq!(EthernetHeader::parse(&header.to_bytes()).unwrap(), header);
    });
}

#[test]
fn ipv4_roundtrip_and_checksum() {
    for_each_case(CASES_PER_SEED, |rng| {
        let src = Ipv4Addr::from(rng.next() as u32);
        let dst = Ipv4Addr::from(rng.next() as u32);
        let protocol = rng.byte();
        let payload_len = rng.below(1400) as usize;
        let header = Ipv4Header::new(src, dst, IpProtocol::from(protocol), payload_len);
        let bytes = header.to_bytes();
        let parsed = Ipv4Header::parse(&bytes).unwrap();
        assert_eq!(parsed.src, src);
        assert_eq!(parsed.dst, dst);
        assert_eq!(parsed.protocol.value(), protocol);
        assert!(Ipv4Header::checksum_valid(&bytes));
    });
}

#[test]
fn udp_roundtrip() {
    for_each_case(CASES_PER_SEED, |rng| {
        let len = rng.below(u64::from(u16::MAX) - UDP_HEADER_LEN as u64) as usize;
        let header = UdpHeader::new(rng.next() as u16, rng.next() as u16, len);
        assert_eq!(UdpHeader::parse(&header.to_bytes()).unwrap(), header);
    });
}

#[test]
fn tcp_roundtrip() {
    for_each_case(CASES_PER_SEED, |rng| {
        let mut header = TcpHeader::new(rng.next() as u16, rng.next() as u16, rng.next() as u32);
        header.ack = rng.next() as u32;
        assert_eq!(TcpHeader::parse(&header.to_bytes()).unwrap(), header);
    });
}

#[test]
fn built_packets_always_parse() {
    for_each_case(CASES_PER_SEED, |rng| {
        let src = Ipv4Addr::from(rng.next() as u32);
        let dst = Ipv4Addr::from(rng.next() as u32);
        let (sport, dport) = (rng.next() as u16, rng.next() as u16);
        let len = rng.below(512) as usize;
        let payload = rng.bytes(len);
        let builder = if rng.chance(2) {
            PacketBuilder::tcp()
        } else {
            PacketBuilder::udp()
        };
        let packet = builder
            .src_ip(src)
            .dst_ip(dst)
            .src_port(sport)
            .dst_port(dport)
            .payload(&payload)
            .build();
        let key = FlowKey::from_packet(&packet).expect("built packets carry IPv4");
        assert_eq!(key.src_ip, src);
        assert_eq!(key.dst_ip, dst);
        assert_eq!(key.src_port, sport);
        assert_eq!(key.dst_port, dport);
        assert_eq!(packet.l4_payload().unwrap(), &payload[..]);
        assert_eq!(key.reversed().reversed(), key);
    });
}

#[test]
fn padded_packets_have_exact_size() {
    for_each_case(CASES_PER_SEED, |rng| {
        let size = 60 + rng.below(1440) as usize;
        let packet = PacketBuilder::udp().total_size(size).build();
        assert_eq!(packet.len(), size);
    });
}

#[test]
fn memcached_get_roundtrip() {
    const KEY_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789:_";
    for_each_case(CASES_PER_SEED, |rng| {
        let id = rng.next() as u16;
        let len = 1 + rng.below(64) as usize;
        let key: String = (0..len)
            .map(|_| char::from(KEY_CHARS[rng.below(KEY_CHARS.len() as u64) as usize]))
            .collect();
        let request = memcached::Request::parse(&memcached::get_request(id, &key)).unwrap();
        assert_eq!(request.frame.request_id, id);
        assert_eq!(request.command.key(), key);
    });
}

#[test]
fn stable_hash_is_deterministic() {
    for_each_case(CASES_PER_SEED, |rng| {
        let key = FlowKey::new(
            Ipv4Addr::from(rng.next() as u32),
            Ipv4Addr::from(rng.next() as u32),
            rng.next() as u16,
            rng.next() as u16,
            IpProtocol::Tcp,
        );
        assert_eq!(key.stable_hash(), key.stable_hash());
        let mut other = key;
        other.src_port = key.src_port.wrapping_add(1);
        assert_ne!(key.stable_hash(), other.stable_hash());
    });
}
