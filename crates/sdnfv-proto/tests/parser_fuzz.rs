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
//!
//! The application parsers get structure-aware cases: well-formed HTTP
//! requests and responses and memcached UDP frames, each mutated in one
//! structural way — an overlong or split header line, a missing CRLF or
//! blank line, a bad or absent `Content-Type`, a truncated 8-byte frame
//! header, wrong counts in it or a wrong byte count after it, an empty or
//! overlong key. Each mutation states what the parser must answer: what it
//! answers for the unmutated message, the structure the mutation leaves
//! (stated by the generator, not by re-running the parser), or an error —
//! and it never panics.

use sdnfv_proto::ethernet::{EtherType, EthernetHeader, ETHERNET_HEADER_LEN};
use sdnfv_proto::flow::{FlowKey, IpProtocol};
use sdnfv_proto::http::{HttpRequest, HttpResponse, Method};
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
        let _ = HttpRequest::parse(&data);
        let _ = HttpResponse::parse(&data);
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

/// Characters of a generated memcached key.
const KEY_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789:_";

/// A string of `min..=max` characters drawn from `chars`.
fn text(rng: &mut SplitMix64, chars: &[u8], min: usize, max: usize) -> String {
    let len = min + rng.below((max - min + 1) as u64) as usize;
    (0..len)
        .map(|_| char::from(chars[rng.below(chars.len() as u64) as usize]))
        .collect()
}

#[test]
fn memcached_get_roundtrip() {
    for_each_case(CASES_PER_SEED, |rng| {
        let id = rng.next() as u16;
        let key = text(rng, KEY_CHARS, 1, 64);
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

/// Characters of generated HTTP tokens and header values: no whitespace
/// and no `:`, so a header line splits only where a mutation splits it.
const TOKEN_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-./_=;";

/// Content types a response may carry, and whether each is video: the
/// near-misses differ from `video/` in case, spelling or a missing slash.
const CONTENT_TYPES: &[(&str, bool)] = &[
    ("video/mp4", true),
    ("video/webm; codecs=vp9", true),
    ("text/html", false),
    ("application/octet-stream", false),
    ("VIDEO/mp4", false),
    ("vide/mp4", false),
    ("video", false),
    ("", false),
];

/// Up to five headers with lowercase names (as the parser keys them).
fn http_headers(rng: &mut SplitMix64) -> Vec<(String, String)> {
    let count = rng.below(6) as usize;
    (0..count)
        .map(|_| (text(rng, TOKEN_CHARS, 1, 12), text(rng, TOKEN_CHARS, 0, 40)))
        .collect()
}

/// The header block's bytes as the serializers write it, each line ended
/// by CRLF and the block by a blank line.
fn header_lines(headers: &[(String, String)]) -> Vec<String> {
    headers
        .iter()
        .map(|(name, value)| format!("{name}: {value}\r\n"))
        .collect()
}

/// Mutates a well-formed header block structurally. Returns the block's
/// bytes and the headers the parser must answer with.
fn mutate_headers(
    rng: &mut SplitMix64,
    mut headers: Vec<(String, String)>,
) -> (String, Vec<(String, String)>) {
    let mut lines = header_lines(&headers);
    let mut blank = "\r\n";
    match rng.below(5) {
        // An overlong header line: answered in full.
        0 => {
            let at = rng.below(headers.len() as u64 + 1) as usize;
            let header = (
                text(rng, TOKEN_CHARS, 1, 12),
                text(rng, TOKEN_CHARS, 1024, 8192),
            );
            lines.insert(at, format!("{}: {}\r\n", header.0, header.1));
            headers.insert(at, header);
        }
        // A header line split inside its value: the value ends at the
        // split, and the rest (no colon) is not a header.
        1 => {
            if let Some(at) = headers.iter().position(|(_, value)| value.len() >= 2) {
                let (name, value) = &headers[at];
                let split = 1 + rng.below(value.len() as u64 - 1) as usize;
                lines[at] = format!("{name}: {}\r\n{}\r\n", &value[..split], &value[split..]);
                headers[at].1 = value[..split].trim_end().to_string();
            }
        }
        // A missing CRLF between two headers: the first's value runs on
        // into the second line, which is no header of its own.
        2 => {
            if headers.len() >= 2 {
                let at = rng.below(headers.len() as u64 - 1) as usize;
                let next = lines.remove(at + 1);
                lines[at] = format!("{}{next}", lines[at].trim_end_matches("\r\n"));
                let (name, value) = headers.remove(at + 1);
                headers[at].1 = format!("{}{name}: {value}", headers[at].1)
                    .trim_end()
                    .to_string();
            }
        }
        // A missing blank line, or a missing CRLF after the last line: the
        // message ends with its headers, which answer as before.
        3 => blank = "",
        _ => {
            blank = "";
            if let Some(last) = lines.last_mut() {
                last.truncate(last.len() - 2);
            }
        }
    }
    (lines.concat() + blank, headers)
}

#[test]
fn http_requests_survive_structural_mutation() {
    const METHODS: [Method; 5] = [
        Method::Get,
        Method::Post,
        Method::Put,
        Method::Delete,
        Method::Head,
    ];
    for_each_case(CASES_PER_SEED, |rng| {
        let request = HttpRequest {
            method: METHODS[rng.below(5) as usize],
            path: format!("/{}", text(rng, TOKEN_CHARS, 0, 32)),
            headers: http_headers(rng),
        };
        assert_eq!(
            HttpRequest::parse(&request.to_bytes()).as_ref(),
            Ok(&request)
        );
        let (block, headers) = mutate_headers(rng, request.headers.clone());
        let message = format!(
            "{} {} HTTP/1.1\r\n{block}",
            request.method.as_str(),
            request.path
        );
        let expected = HttpRequest { headers, ..request };
        assert_eq!(
            HttpRequest::parse(message.as_bytes()),
            Ok(expected),
            "{message:?}"
        );
        // Cut anywhere, the request still parses or is rejected.
        let cut = rng.below(message.len() as u64 + 1) as usize;
        let _ = HttpRequest::parse(&message.as_bytes()[..cut]);
    });
}

#[test]
fn http_responses_survive_structural_mutation_and_bad_content_types() {
    for_each_case(CASES_PER_SEED, |rng| {
        let mut headers = http_headers(rng);
        headers.retain(|(name, _)| name != "content-type");
        // An absent, valid or bad `Content-Type`, anywhere in the block.
        let (content_type, video) = if rng.chance(4) {
            (false, false)
        } else {
            let (value, video) = CONTENT_TYPES[rng.below(CONTENT_TYPES.len() as u64) as usize];
            let at = rng.below(headers.len() as u64 + 1) as usize;
            headers.insert(at, ("content-type".to_string(), value.to_string()));
            (true, video)
        };
        let response = HttpResponse {
            status: 100 + rng.below(500) as u16,
            headers,
        };
        let parsed = HttpResponse::parse(&response.to_bytes()).unwrap();
        assert_eq!(parsed, response);
        assert_eq!(parsed.is_video(), video);
        if !content_type {
            assert_eq!(parsed.content_type(), None);
        }
        let (block, headers) = mutate_headers(rng, response.headers.clone());
        let mut message = format!("HTTP/1.1 {} OK\r\n{block}", response.status).into_bytes();
        let expected = HttpResponse {
            headers,
            ..response
        };
        assert_eq!(HttpResponse::parse(&message), Ok(expected));
        // A content type that is not UTF-8 is rejected, not misread.
        if content_type {
            let value_at = message
                .windows(14)
                .position(|w| w == b"content-type: ")
                .expect("the mutations keep the content-type line")
                + 14;
            message.insert(value_at, 0xff);
            assert!(matches!(
                HttpResponse::parse(&message),
                Err(ProtoError::Malformed { layer: "http", .. })
            ));
        }
    });
}

/// A memcached UDP request: any frame header, a `get` or a `set`.
fn memcached_request(rng: &mut SplitMix64) -> memcached::Request {
    let key = text(rng, KEY_CHARS, 1, 64);
    memcached::Request {
        frame: memcached::UdpFrameHeader {
            request_id: rng.next() as u16,
            sequence: rng.next() as u16,
            total_datagrams: rng.next() as u16,
            reserved: rng.next() as u16,
        },
        command: if rng.chance(2) {
            memcached::Command::Get { key }
        } else {
            memcached::Command::Set {
                key,
                bytes: rng.below(1 << 20) as usize,
            }
        },
    }
}

#[test]
fn memcached_frames_survive_structural_mutation() {
    for_each_case(CASES_PER_SEED, |rng| {
        let request = memcached_request(rng);
        let bytes = request.to_bytes();
        assert_eq!(memcached::Request::parse(&bytes).as_ref(), Ok(&request));
        let header = &bytes[..memcached::MEMCACHED_UDP_HEADER_LEN];
        let with_line = |line: String| [header, line.as_bytes()].concat();
        // What the mutated frame must parse to; `None`: it must be rejected.
        let (message, expected) = match rng.below(6) {
            // A truncated 8-byte frame header.
            0 => {
                let cut = rng.below(memcached::MEMCACHED_UDP_HEADER_LEN as u64) as usize;
                (bytes[..cut].to_vec(), None)
            }
            // Wrong counts in the frame header (a sequence past the total,
            // no datagrams, a set reserved field): carried, not checked.
            1 => {
                let mut message = bytes.clone();
                message[2..8].copy_from_slice(&rng.bytes(6));
                let frame = memcached::UdpFrameHeader::parse(&message).unwrap();
                assert_eq!(frame.request_id, request.frame.request_id);
                (message, Some(memcached::Request { frame, ..request }))
            }
            // A wrong byte count after the header: a mismatched number is
            // carried, anything that is not a count is rejected.
            2 => {
                let key = request.command.key().to_string();
                if rng.chance(2) {
                    let bytes = rng.next() as u32 as usize;
                    let message = with_line(format!("set {key} 0 0 {bytes}\r\n"));
                    let command = memcached::Command::Set { key, bytes };
                    (message, Some(memcached::Request { command, ..request }))
                } else {
                    let bogus = ["", "-1", "12x", "0x10", "99999999999999999999999"];
                    let count = bogus[rng.below(5) as usize];
                    (with_line(format!("set {key} 0 0 {count}\r\n")), None)
                }
            }
            // An empty key: rejected.
            3 => {
                let verb = if rng.chance(2) { "get" } else { "set" };
                (with_line(format!("{verb} \r\n")), None)
            }
            // A key past memcached's 250 bytes: the parser carries it.
            4 => {
                let key = text(rng, KEY_CHARS, 251, 4096);
                let message = with_line(format!("get {key}\r\n"));
                let command = memcached::Command::Get { key };
                (message, Some(memcached::Request { command, ..request }))
            }
            // A missing CRLF: the line ends with the frame.
            _ => (bytes[..bytes.len() - 2].to_vec(), Some(request)),
        };
        let parsed = memcached::Request::parse(&message);
        match expected {
            Some(expected) => assert_eq!(parsed, Ok(expected)),
            None => assert!(
                matches!(
                    parsed,
                    Err(ProtoError::Truncated {
                        layer: "memcached",
                        ..
                    } | ProtoError::Malformed {
                        layer: "memcached",
                        ..
                    })
                ),
                "{parsed:?}"
            ),
        }
    });
}
