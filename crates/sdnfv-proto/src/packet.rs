//! The [`Packet`] type carried through the SDNFV data plane, and builders
//! used by traffic generators and tests.

use std::net::Ipv4Addr;

use crate::error::ProtoError;
use crate::ethernet::{EtherType, EthernetHeader, ETHERNET_HEADER_LEN};
use crate::flow::{FlowKey, IpProtocol};
use crate::ipv4::{Ipv4Header, IPV4_HEADER_LEN};
use crate::mac::MacAddr;
use crate::tcp::{TcpHeader, TCP_HEADER_LEN};
use crate::udp::{UdpHeader, UDP_HEADER_LEN};
use crate::Result;

/// A logical NIC port / interface identifier on an NF host.
pub type Port = u16;

/// A network packet: a raw Ethernet frame plus the data-plane metadata the
/// NF Manager tracks for it.
///
/// The payload bytes model the shared "huge page" buffer of the paper's
/// zero-copy design; ownership of a `Packet` corresponds to holding its
/// descriptor. Parsing accessors ([`Packet::ethernet`], [`Packet::ipv4`],
/// [`Packet::tcp`], [`Packet::udp`], [`Packet::l4_payload`]) never copy the
/// frame. The two questions the data plane asks of every packet — its
/// 5-tuple ([`Packet::flow_key`]) and where its transport payload starts
/// ([`Packet::l4_payload_offset`]) — are answered by one pass over the
/// headers at fixed offsets rather than by composing the layered parsers;
/// nothing parsed is cached in the packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    data: Vec<u8>,
    /// NIC port the packet arrived on.
    pub ingress_port: Port,
    /// Receive timestamp in nanoseconds (set by the RX thread or generator).
    pub timestamp_ns: u64,
}

impl Packet {
    /// Wraps a raw Ethernet frame.
    pub fn from_bytes(data: Vec<u8>) -> Self {
        Packet {
            data,
            ingress_port: 0,
            timestamp_ns: 0,
        }
    }

    /// Total frame length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the frame is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only access to the raw frame.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Mutable access to the raw frame (used by NFs that rewrite headers).
    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Parses the Ethernet header.
    pub fn ethernet(&self) -> Result<EthernetHeader> {
        EthernetHeader::parse(&self.data)
    }

    /// Parses the IPv4 header, if the frame carries IPv4.
    pub fn ipv4(&self) -> Result<Ipv4Header> {
        let eth = self.ethernet()?;
        if eth.ethertype != EtherType::Ipv4 {
            return Err(ProtoError::WrongProtocol {
                expected: "ipv4",
                found: format!("{:?}", eth.ethertype),
            });
        }
        Ipv4Header::parse(&self.data[ETHERNET_HEADER_LEN..])
    }

    /// Parses the TCP header, if the frame carries TCP over IPv4.
    pub fn tcp(&self) -> Result<TcpHeader> {
        let ip = self.ipv4()?;
        if ip.protocol != IpProtocol::Tcp {
            return Err(ProtoError::WrongProtocol {
                expected: "tcp",
                found: ip.protocol.to_string(),
            });
        }
        TcpHeader::parse(&self.data[ETHERNET_HEADER_LEN + ip.header_len..])
    }

    /// Parses the UDP header, if the frame carries UDP over IPv4.
    pub fn udp(&self) -> Result<UdpHeader> {
        let ip = self.ipv4()?;
        if ip.protocol != IpProtocol::Udp {
            return Err(ProtoError::WrongProtocol {
                expected: "udp",
                found: ip.protocol.to_string(),
            });
        }
        UdpHeader::parse(&self.data[ETHERNET_HEADER_LEN + ip.header_len..])
    }

    /// Byte offset of the transport payload (after the TCP/UDP header).
    ///
    /// Answered by one header walk; a frame the walk rejects (or one that
    /// carries neither TCP nor UDP) gets its error from the layered parsers,
    /// so the error says which layer failed, as [`Packet::tcp`] or
    /// [`Packet::udp`] would.
    pub fn l4_payload_offset(&self) -> Result<usize> {
        match walk_headers(&self.data) {
            Some(HeaderWalk {
                payload_offset: Some(offset),
                ..
            }) => Ok(offset),
            _ => self.layered_l4_payload_offset(),
        }
    }

    /// [`Packet::l4_payload_offset`] composed from the layered parsers: the
    /// path that words the error of a frame the walk rejected.
    #[cold]
    fn layered_l4_payload_offset(&self) -> Result<usize> {
        let ip = self.ipv4()?;
        let l4_offset = ETHERNET_HEADER_LEN + ip.header_len;
        let hdr_len = match ip.protocol {
            IpProtocol::Tcp => TcpHeader::parse(&self.data[l4_offset..])?.header_len,
            IpProtocol::Udp => {
                UdpHeader::parse(&self.data[l4_offset..])?;
                UDP_HEADER_LEN
            }
            other => {
                return Err(ProtoError::WrongProtocol {
                    expected: "tcp or udp",
                    found: other.to_string(),
                })
            }
        };
        Ok(l4_offset + hdr_len)
    }

    /// The transport (layer-4) payload bytes.
    pub fn l4_payload(&self) -> Result<&[u8]> {
        let offset = self.l4_payload_offset()?;
        Ok(&self.data[offset..])
    }

    /// Mutable access to the transport payload.
    pub fn l4_payload_mut(&mut self) -> Result<&mut [u8]> {
        let offset = self.l4_payload_offset()?;
        Ok(&mut self.data[offset..])
    }

    /// Extracts the flow 5-tuple, if the frame carries IPv4.
    pub fn flow_key(&self) -> Option<FlowKey> {
        FlowKey::from_packet(self)
    }

    /// Rewrites the IPv4 destination address in place and fixes the checksum.
    pub fn set_dst_ip(&mut self, dst: Ipv4Addr) -> Result<()> {
        let mut ip = self.ipv4()?;
        ip.dst = dst;
        ip.write(&mut self.data[ETHERNET_HEADER_LEN..])
    }

    /// Rewrites the IPv4 source address in place and fixes the checksum.
    pub fn set_src_ip(&mut self, src: Ipv4Addr) -> Result<()> {
        let mut ip = self.ipv4()?;
        ip.src = src;
        ip.write(&mut self.data[ETHERNET_HEADER_LEN..])
    }

    /// Rewrites the transport destination port in place.
    pub fn set_dst_port(&mut self, port: u16) -> Result<()> {
        let ip = self.ipv4()?;
        let l4 = ETHERNET_HEADER_LEN + ip.header_len;
        match ip.protocol {
            IpProtocol::Tcp | IpProtocol::Udp => {
                if self.data.len() < l4 + 4 {
                    return Err(ProtoError::Truncated {
                        layer: "l4",
                        needed: l4 + 4,
                        available: self.data.len(),
                    });
                }
                self.data[l4 + 2..l4 + 4].copy_from_slice(&port.to_be_bytes());
                Ok(())
            }
            other => Err(ProtoError::WrongProtocol {
                expected: "tcp or udp",
                found: other.to_string(),
            }),
        }
    }
}

/// What one pass over a frame's Ethernet, IPv4 and transport headers found.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HeaderWalk {
    /// The 5-tuple (ports zero for protocols other than TCP and UDP).
    pub(crate) key: FlowKey,
    /// Where the TCP or UDP payload starts; `None` for other protocols.
    pub(crate) payload_offset: Option<usize>,
}

/// Reads Ethernet → IPv4 → TCP/UDP once, at fixed offsets, without building
/// the per-layer header structs.
///
/// Accepts exactly the frames the layered parsers accept: a full Ethernet
/// header with ethertype `0x0800`, then IPv4 version 4 whose IHL is at least
/// 20 bytes and fits the frame; a TCP header whose data offset is at least
/// 20 bytes and fits the frame, or 8 bytes of UDP header; any other protocol
/// with ports `(0, 0)` and no payload offset.
#[inline]
pub(crate) fn walk_headers(data: &[u8]) -> Option<HeaderWalk> {
    const IP: usize = ETHERNET_HEADER_LEN;
    let ip = data.get(IP..IP + IPV4_HEADER_LEN)?;
    if data[IP - 2..IP] != [0x08, 0x00] || ip[0] >> 4 != 4 {
        return None;
    }
    let ihl = usize::from(ip[0] & 0x0f) * 4;
    if ihl < IPV4_HEADER_LEN || data.len() < IP + ihl {
        return None;
    }
    let l4 = IP + ihl;
    let protocol = IpProtocol::from(ip[9]);
    let (ports, payload_offset) = match protocol {
        IpProtocol::Tcp => {
            let tcp = data.get(l4..l4 + TCP_HEADER_LEN)?;
            let header_len = usize::from(tcp[12] >> 4) * 4;
            if header_len < TCP_HEADER_LEN || data.len() < l4 + header_len {
                return None;
            }
            (&tcp[..4], Some(l4 + header_len))
        }
        IpProtocol::Udp => (
            data.get(l4..l4 + UDP_HEADER_LEN)?,
            Some(l4 + UDP_HEADER_LEN),
        ),
        _ => (&[0u8; 4][..], None),
    };
    Some(HeaderWalk {
        key: FlowKey {
            src_ip: Ipv4Addr::new(ip[12], ip[13], ip[14], ip[15]),
            dst_ip: Ipv4Addr::new(ip[16], ip[17], ip[18], ip[19]),
            src_port: u16::from_be_bytes([ports[0], ports[1]]),
            dst_port: u16::from_be_bytes([ports[2], ports[3]]),
            protocol,
        },
        payload_offset,
    })
}

/// Transport protocol selected on a [`PacketBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BuilderProto {
    Udp,
    Tcp,
}

/// Builder for well-formed Ethernet/IPv4/{TCP,UDP} frames.
///
/// Traffic generators, unit tests and the examples use this to synthesize
/// packets of a given flow, payload and size.
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    proto: BuilderProto,
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    seq: u32,
    payload: Vec<u8>,
    total_size: Option<usize>,
    ingress_port: Port,
    timestamp_ns: u64,
}

impl PacketBuilder {
    fn new(proto: BuilderProto) -> Self {
        PacketBuilder {
            proto,
            src_mac: MacAddr::new([0x02, 0, 0, 0, 0, 0x01]),
            dst_mac: MacAddr::new([0x02, 0, 0, 0, 0, 0x02]),
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            src_port: 10000,
            dst_port: 80,
            seq: 0,
            payload: Vec::new(),
            total_size: None,
            ingress_port: 0,
            timestamp_ns: 0,
        }
    }

    /// Starts building a UDP packet.
    pub fn udp() -> Self {
        Self::new(BuilderProto::Udp)
    }

    /// Starts building a TCP packet.
    pub fn tcp() -> Self {
        Self::new(BuilderProto::Tcp)
    }

    /// Sets the source MAC address.
    pub fn src_mac(mut self, mac: MacAddr) -> Self {
        self.src_mac = mac;
        self
    }

    /// Sets the destination MAC address.
    pub fn dst_mac(mut self, mac: MacAddr) -> Self {
        self.dst_mac = mac;
        self
    }

    /// Sets the source IPv4 address.
    pub fn src_ip(mut self, ip: impl Into<Ipv4Addr>) -> Self {
        self.src_ip = ip.into();
        self
    }

    /// Sets the destination IPv4 address.
    pub fn dst_ip(mut self, ip: impl Into<Ipv4Addr>) -> Self {
        self.dst_ip = ip.into();
        self
    }

    /// Sets the source transport port.
    pub fn src_port(mut self, port: u16) -> Self {
        self.src_port = port;
        self
    }

    /// Sets the destination transport port.
    pub fn dst_port(mut self, port: u16) -> Self {
        self.dst_port = port;
        self
    }

    /// Sets the TCP sequence number (ignored for UDP).
    pub fn seq(mut self, seq: u32) -> Self {
        self.seq = seq;
        self
    }

    /// Sets the transport payload.
    pub fn payload(mut self, payload: &[u8]) -> Self {
        self.payload = payload.to_vec();
        self
    }

    /// Pads (with zero bytes of payload) so the final frame is exactly
    /// `size` bytes, if `size` is larger than the natural frame length.
    pub fn total_size(mut self, size: usize) -> Self {
        self.total_size = Some(size);
        self
    }

    /// Sets the ingress NIC port recorded in the packet metadata.
    pub fn ingress_port(mut self, port: Port) -> Self {
        self.ingress_port = port;
        self
    }

    /// Sets the receive timestamp recorded in the packet metadata.
    pub fn timestamp_ns(mut self, ts: u64) -> Self {
        self.timestamp_ns = ts;
        self
    }

    /// Builds the frame.
    pub fn build(self) -> Packet {
        let l4_header_len = match self.proto {
            BuilderProto::Udp => UDP_HEADER_LEN,
            BuilderProto::Tcp => TCP_HEADER_LEN,
        };
        let natural = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + l4_header_len + self.payload.len();
        let mut payload = self.payload;
        if let Some(size) = self.total_size {
            if size > natural {
                payload.resize(payload.len() + (size - natural), 0);
            }
        }

        let ip_proto = match self.proto {
            BuilderProto::Udp => IpProtocol::Udp,
            BuilderProto::Tcp => IpProtocol::Tcp,
        };
        let l4_len = l4_header_len + payload.len();
        let total_len = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + l4_len;
        let mut data = vec![0u8; total_len];

        EthernetHeader::new(self.dst_mac, self.src_mac, EtherType::Ipv4)
            .write(&mut data)
            .expect("buffer sized for ethernet header");
        Ipv4Header::new(self.src_ip, self.dst_ip, ip_proto, l4_len)
            .write(&mut data[ETHERNET_HEADER_LEN..])
            .expect("buffer sized for ipv4 header");

        let l4_off = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN;
        match self.proto {
            BuilderProto::Udp => {
                UdpHeader::new(self.src_port, self.dst_port, payload.len())
                    .write(&mut data[l4_off..])
                    .expect("buffer sized for udp header");
            }
            BuilderProto::Tcp => {
                TcpHeader {
                    src_port: self.src_port,
                    dst_port: self.dst_port,
                    seq: self.seq,
                    ..TcpHeader::new(self.src_port, self.dst_port, self.seq)
                }
                .write(&mut data[l4_off..])
                .expect("buffer sized for tcp header");
            }
        }
        data[l4_off + l4_header_len..].copy_from_slice(&payload);

        Packet {
            data,
            ingress_port: self.ingress_port,
            timestamp_ns: self.timestamp_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn udp_packet_layers_parse() {
        let pkt = PacketBuilder::udp()
            .src_ip([10, 1, 1, 1])
            .dst_ip([10, 1, 1, 2])
            .src_port(1000)
            .dst_port(2000)
            .payload(b"payload-bytes")
            .ingress_port(3)
            .timestamp_ns(99)
            .build();
        assert_eq!(pkt.ingress_port, 3);
        assert_eq!(pkt.timestamp_ns, 99);
        assert_eq!(pkt.ethernet().unwrap().ethertype, EtherType::Ipv4);
        let ip = pkt.ipv4().unwrap();
        assert_eq!(ip.protocol, IpProtocol::Udp);
        assert_eq!(ip.src, Ipv4Addr::new(10, 1, 1, 1));
        let udp = pkt.udp().unwrap();
        assert_eq!(udp.dst_port, 2000);
        assert_eq!(pkt.l4_payload().unwrap(), b"payload-bytes");
        assert!(pkt.tcp().is_err());
    }

    #[test]
    fn tcp_packet_layers_parse() {
        let pkt = PacketBuilder::tcp()
            .src_port(5555)
            .dst_port(80)
            .seq(1234)
            .payload(b"GET / HTTP/1.1\r\n\r\n")
            .build();
        let tcp = pkt.tcp().unwrap();
        assert_eq!(tcp.seq, 1234);
        assert_eq!(tcp.src_port, 5555);
        assert!(pkt.udp().is_err());
        assert!(pkt.l4_payload().unwrap().starts_with(b"GET"));
    }

    #[test]
    fn total_size_pads_frame() {
        let pkt = PacketBuilder::udp().payload(b"x").total_size(512).build();
        assert_eq!(pkt.len(), 512);
        // Smaller-than-natural sizes are ignored.
        let pkt = PacketBuilder::udp()
            .payload(b"abcdef")
            .total_size(10)
            .build();
        assert_eq!(
            pkt.len(),
            ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN + 6
        );
    }

    #[test]
    fn ipv4_total_length_matches_frame() {
        let pkt = PacketBuilder::udp().payload(&[0u8; 64]).build();
        let ip = pkt.ipv4().unwrap();
        assert_eq!(ip.total_length as usize, pkt.len() - ETHERNET_HEADER_LEN);
    }

    #[test]
    fn rewrite_dst_ip_keeps_checksum_valid() {
        let mut pkt = PacketBuilder::udp().build();
        pkt.set_dst_ip(Ipv4Addr::new(8, 8, 8, 8)).unwrap();
        assert_eq!(pkt.ipv4().unwrap().dst, Ipv4Addr::new(8, 8, 8, 8));
        assert!(crate::ipv4::Ipv4Header::checksum_valid(
            &pkt.data()[ETHERNET_HEADER_LEN..]
        ));
    }

    #[test]
    fn rewrite_src_ip_and_port() {
        let mut pkt = PacketBuilder::udp().dst_port(1111).build();
        pkt.set_src_ip(Ipv4Addr::new(9, 9, 9, 9)).unwrap();
        pkt.set_dst_port(2222).unwrap();
        assert_eq!(pkt.ipv4().unwrap().src, Ipv4Addr::new(9, 9, 9, 9));
        assert_eq!(pkt.udp().unwrap().dst_port, 2222);
        assert_eq!(pkt.flow_key().unwrap().dst_port, 2222);
    }

    #[test]
    fn non_ip_frame_reports_wrong_protocol() {
        let eth = EthernetHeader::new(MacAddr::ZERO, MacAddr::ZERO, EtherType::Arp);
        let mut data = eth.to_bytes().to_vec();
        data.extend_from_slice(&[0u8; 28]);
        let pkt = Packet::from_bytes(data);
        assert!(pkt.ipv4().is_err());
        assert!(pkt.flow_key().is_none());
    }

    #[test]
    fn payload_mut_allows_in_place_edit() {
        let mut pkt = PacketBuilder::udp().payload(b"abcd").build();
        pkt.l4_payload_mut().unwrap()[0] = b'Z';
        assert_eq!(pkt.l4_payload().unwrap(), b"Zbcd");
    }
}
