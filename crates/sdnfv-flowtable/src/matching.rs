//! Wildcard match criteria over flow 5-tuples.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;

use sdnfv_proto::flow::{FlowKey, IpProtocol};

use crate::types::RulePort;

/// An IPv4 prefix (address + prefix length) used for wildcard matching.
///
/// The DDoS use case in the paper matches "traffic from an IP prefix"; this
/// type provides that granularity while `/32` prefixes give exact matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IpPrefix {
    /// Network address.
    pub addr: Ipv4Addr,
    /// Prefix length in bits (0–32).
    pub len: u8,
}

impl IpPrefix {
    /// Creates a prefix, clamping the length to 32 bits.
    pub fn new(addr: Ipv4Addr, len: u8) -> Self {
        IpPrefix {
            addr,
            len: len.min(32),
        }
    }

    /// An exact host match (`/32`).
    pub fn host(addr: Ipv4Addr) -> Self {
        IpPrefix { addr, len: 32 }
    }

    /// Returns `true` if `ip` falls inside the prefix. A length above 32
    /// (possible through a struct literal) is read as 32, as [`IpPrefix::new`]
    /// clamps it.
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        let len = self.len.min(32);
        if len == 0 {
            return true;
        }
        let mask = u32::MAX << (32 - u32::from(len));
        (u32::from(self.addr) & mask) == (u32::from(ip) & mask)
    }
}

impl fmt::Display for IpPrefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

/// Wildcardable match criteria: every `None` field matches anything.
///
/// The `step` field is the SDNFV extension — which NIC port or service the
/// packet is coming from; `None` matches any step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FlowMatch {
    /// Step (NIC port or preceding service) the rule applies to.
    pub step: Option<RulePort>,
    /// Source IPv4 prefix.
    pub src_ip: Option<IpPrefix>,
    /// Destination IPv4 prefix.
    pub dst_ip: Option<IpPrefix>,
    /// Source transport port.
    pub src_port: Option<u16>,
    /// Destination transport port.
    pub dst_port: Option<u16>,
    /// Transport protocol.
    pub protocol: Option<IpProtocol>,
}

impl FlowMatch {
    /// A match that accepts every packet at every step (the `*` rule).
    pub fn any() -> Self {
        FlowMatch::default()
    }

    /// A match that accepts every packet arriving at / leaving `step`.
    pub fn at_step(step: impl Into<RulePort>) -> Self {
        FlowMatch {
            step: Some(step.into()),
            ..FlowMatch::default()
        }
    }

    /// An exact match on a specific flow at a specific step.
    pub fn exact(step: impl Into<RulePort>, key: &FlowKey) -> Self {
        FlowMatch {
            step: Some(step.into()),
            src_ip: Some(IpPrefix::host(key.src_ip)),
            dst_ip: Some(IpPrefix::host(key.dst_ip)),
            src_port: Some(key.src_port),
            dst_port: Some(key.dst_port),
            protocol: Some(key.protocol),
        }
    }

    /// Builder-style setter for the source prefix.
    pub fn with_src_ip(mut self, prefix: IpPrefix) -> Self {
        self.src_ip = Some(prefix);
        self
    }

    /// Builder-style setter for the destination prefix.
    pub fn with_dst_ip(mut self, prefix: IpPrefix) -> Self {
        self.dst_ip = Some(prefix);
        self
    }

    /// Builder-style setter for the source port.
    pub fn with_src_port(mut self, port: u16) -> Self {
        self.src_port = Some(port);
        self
    }

    /// Builder-style setter for the destination port.
    pub fn with_dst_port(mut self, port: u16) -> Self {
        self.dst_port = Some(port);
        self
    }

    /// Builder-style setter for the protocol.
    pub fn with_protocol(mut self, protocol: IpProtocol) -> Self {
        self.protocol = Some(protocol);
        self
    }

    /// Returns `true` if a packet with flow key `key` arriving at `step`
    /// satisfies the match.
    pub fn matches(&self, step: RulePort, key: &FlowKey) -> bool {
        if let Some(expected) = self.step {
            if expected != step {
                return false;
            }
        }
        if let Some(prefix) = self.src_ip {
            if !prefix.contains(key.src_ip) {
                return false;
            }
        }
        if let Some(prefix) = self.dst_ip {
            if !prefix.contains(key.dst_ip) {
                return false;
            }
        }
        if let Some(port) = self.src_port {
            if port != key.src_port {
                return false;
            }
        }
        if let Some(port) = self.dst_port {
            if port != key.dst_port {
                return false;
            }
        }
        if let Some(proto) = self.protocol {
            if proto != key.protocol {
                return false;
            }
        }
        true
    }

    /// Conservative intersection test between two matches: they intersect
    /// unless some field is constrained to provably disjoint values in both
    /// (the `step` field is ignored — callers compare steps separately).
    /// Used to decide whether an installed rule is affected by a message's
    /// flow filter, and whether two wildcard mutations touch the same rules.
    pub fn intersects(&self, other: &FlowMatch) -> bool {
        fn fields_disjoint<T: PartialEq + Copy>(a: Option<T>, b: Option<T>) -> bool {
            matches!((a, b), (Some(x), Some(y)) if x != y)
        }
        if fields_disjoint(self.src_port, other.src_port)
            || fields_disjoint(self.dst_port, other.dst_port)
            || fields_disjoint(self.protocol, other.protocol)
        {
            return false;
        }
        let prefix_disjoint = |a: Option<IpPrefix>, b: Option<IpPrefix>| match (a, b) {
            (Some(x), Some(y)) => !(x.contains(y.addr) || y.contains(x.addr)),
            _ => false,
        };
        if prefix_disjoint(self.src_ip, other.src_ip) || prefix_disjoint(self.dst_ip, other.dst_ip)
        {
            return false;
        }
        true
    }

    /// A specificity score used to break ties between overlapping rules of
    /// equal priority: more constrained matches win.
    pub fn specificity(&self) -> u32 {
        let mut score = 0;
        if self.step.is_some() {
            score += 1;
        }
        score += self.src_ip.map_or(0, |p| 1 + u32::from(p.len.min(32)));
        score += self.dst_ip.map_or(0, |p| 1 + u32::from(p.len.min(32)));
        if self.src_port.is_some() {
            score += 16;
        }
        if self.dst_port.is_some() {
            score += 16;
        }
        if self.protocol.is_some() {
            score += 4;
        }
        score
    }

    /// Returns `true` if this is an exact (fully specified, host-prefix)
    /// match — the kind the flow table can index in a hash map.
    pub fn is_exact(&self) -> bool {
        self.step.is_some()
            && self.src_ip.is_some_and(|p| p.len == 32)
            && self.dst_ip.is_some_and(|p| p.len == 32)
            && self.src_port.is_some()
            && self.dst_port.is_some()
            && self.protocol.is_some()
    }

    /// For an exact match, reconstructs the flow key it targets.
    pub fn exact_key(&self) -> Option<(RulePort, FlowKey)> {
        if !self.is_exact() {
            return None;
        }
        Some((
            self.step?,
            FlowKey::new(
                self.src_ip?.addr,
                self.dst_ip?.addr,
                self.src_port?,
                self.dst_port?,
                self.protocol?,
            ),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ServiceId;

    fn key() -> FlowKey {
        FlowKey::new(
            Ipv4Addr::new(10, 0, 1, 5),
            Ipv4Addr::new(192, 168, 0, 9),
            4000,
            80,
            IpProtocol::Tcp,
        )
    }

    #[test]
    fn prefix_containment() {
        let p = IpPrefix::new(Ipv4Addr::new(10, 0, 0, 0), 8);
        assert!(p.contains(Ipv4Addr::new(10, 255, 1, 2)));
        assert!(!p.contains(Ipv4Addr::new(11, 0, 0, 1)));
        assert!(IpPrefix::new(Ipv4Addr::new(0, 0, 0, 0), 0).contains(Ipv4Addr::new(1, 2, 3, 4)));
        assert!(IpPrefix::host(Ipv4Addr::new(1, 2, 3, 4)).contains(Ipv4Addr::new(1, 2, 3, 4)));
        assert!(!IpPrefix::host(Ipv4Addr::new(1, 2, 3, 4)).contains(Ipv4Addr::new(1, 2, 3, 5)));
        assert_eq!(IpPrefix::new(Ipv4Addr::new(10, 0, 0, 0), 64).len, 32);
        assert_eq!(p.to_string(), "10.0.0.0/8");
    }

    #[test]
    fn a_prefix_longer_than_32_bits_reads_as_a_host_prefix() {
        let host = Ipv4Addr::new(10, 0, 1, 5);
        let overlong = IpPrefix {
            addr: host,
            len: 33,
        };
        assert!(overlong.contains(host));
        assert!(!overlong.contains(Ipv4Addr::new(10, 0, 1, 4)));
        assert!(!overlong.contains(Ipv4Addr::new(200, 0, 0, 1)));
        let m = FlowMatch::any().with_src_ip(overlong);
        assert!(m.matches(RulePort::Nic(0), &key()));
        let mut elsewhere = key();
        elsewhere.src_ip = Ipv4Addr::new(10, 0, 1, 6);
        assert!(!m.matches(RulePort::Nic(0), &elsewhere));
        assert_eq!(
            m.specificity(),
            FlowMatch::any()
                .with_src_ip(IpPrefix::host(host))
                .specificity()
        );
        let neighbour = FlowMatch::any().with_src_ip(IpPrefix::host(elsewhere.src_ip));
        assert!(!m.intersects(&neighbour));
    }

    #[test]
    fn any_matches_everything() {
        let m = FlowMatch::any();
        assert!(m.matches(RulePort::Nic(0), &key()));
        assert!(m.matches(RulePort::Service(ServiceId::new(9)), &key()));
        assert_eq!(m.specificity(), 0);
    }

    #[test]
    fn step_restricts_match() {
        let m = FlowMatch::at_step(ServiceId::new(2));
        assert!(m.matches(RulePort::Service(ServiceId::new(2)), &key()));
        assert!(!m.matches(RulePort::Service(ServiceId::new(3)), &key()));
        assert!(!m.matches(RulePort::Nic(0), &key()));
    }

    #[test]
    fn exact_match_roundtrip() {
        let m = FlowMatch::exact(RulePort::Nic(1), &key());
        assert!(m.is_exact());
        assert!(m.matches(RulePort::Nic(1), &key()));
        let mut other = key();
        other.src_port = 4001;
        assert!(!m.matches(RulePort::Nic(1), &other));
        let (step, k) = m.exact_key().unwrap();
        assert_eq!(step, RulePort::Nic(1));
        assert_eq!(k, key());
    }

    #[test]
    fn field_matching() {
        let m = FlowMatch::any()
            .with_src_ip(IpPrefix::new(Ipv4Addr::new(10, 0, 0, 0), 16))
            .with_dst_port(80)
            .with_protocol(IpProtocol::Tcp);
        assert!(m.matches(RulePort::Nic(0), &key()));
        let mut k = key();
        k.dst_port = 443;
        assert!(!m.matches(RulePort::Nic(0), &k));
        let mut k = key();
        k.protocol = IpProtocol::Udp;
        assert!(!m.matches(RulePort::Nic(0), &k));
        let mut k = key();
        k.src_ip = Ipv4Addr::new(10, 1, 0, 1);
        assert!(!m.matches(RulePort::Nic(0), &k));
        assert!(!m.is_exact());
        assert_eq!(m.exact_key(), None);
    }

    #[test]
    fn specificity_prefers_more_constrained() {
        let broad = FlowMatch::any().with_src_ip(IpPrefix::new(Ipv4Addr::new(10, 0, 0, 0), 8));
        let narrow = FlowMatch::exact(RulePort::Nic(0), &key());
        assert!(narrow.specificity() > broad.specificity());
        let src_and_dst = FlowMatch::any().with_src_port(1).with_dst_port(2);
        let src_only = FlowMatch::any().with_src_port(1);
        assert!(src_and_dst.specificity() > src_only.specificity());
    }
}
