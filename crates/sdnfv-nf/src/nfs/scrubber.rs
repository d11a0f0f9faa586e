//! A traffic scrubber that cleans flows flagged as malicious.

use sdnfv_flowtable::{FlowMatch, IpPrefix};
use sdnfv_proto::Packet;

use crate::api::{NetworkFunction, NfContext, NfMessage, Verdict};
use crate::pattern::PatternSet;

/// Drops traffic from configured malicious prefixes (or carrying malicious
/// payload signatures) and passes everything else along the default path.
///
/// On startup the scrubber announces itself with `RequestMe`, so that NFs
/// upstream start defaulting to it — this is exactly how the newly booted
/// scrubber VM inserts itself into the DDoS mitigation path in Figure 9.
#[derive(Debug, Clone, Default)]
pub struct ScrubberNf {
    /// Prefixes whose traffic is dropped.
    malicious_prefixes: Vec<IpPrefix>,
    /// Payload signatures that are dropped, compiled into one automaton.
    signatures: PatternSet,
    /// Flow filter announced in the startup `RequestMe` message.
    request_filter: FlowMatch,
    announce_on_start: bool,
    scrubbed: u64,
    passed: u64,
}

impl ScrubberNf {
    /// Creates a scrubber with no rules that silently passes traffic.
    pub fn new() -> Self {
        ScrubberNf::default()
    }

    /// Creates a scrubber that drops traffic from `prefix` and announces
    /// itself with `RequestMe` when started.
    pub fn for_prefix(prefix: IpPrefix) -> Self {
        ScrubberNf {
            malicious_prefixes: vec![prefix],
            request_filter: FlowMatch::any().with_src_ip(prefix),
            announce_on_start: true,
            ..ScrubberNf::default()
        }
    }

    /// Adds a malicious prefix.
    pub fn with_prefix(mut self, prefix: IpPrefix) -> Self {
        self.malicious_prefixes.push(prefix);
        self
    }

    /// Adds a payload signature to drop (recompiles the signature set, so
    /// this belongs where the scrubber is built, not on the packet path).
    pub fn with_signature(mut self, signature: Vec<u8>) -> Self {
        let mut signatures = self.signatures.patterns().to_vec();
        signatures.push(signature);
        self.signatures = PatternSet::new(signatures);
        self
    }

    /// Number of packets dropped.
    pub fn scrubbed(&self) -> u64 {
        self.scrubbed
    }

    /// Number of packets passed through.
    pub fn passed(&self) -> u64 {
        self.passed
    }

    fn is_malicious(&self, packet: &Packet) -> bool {
        if let Some(key) = packet.flow_key() {
            if self
                .malicious_prefixes
                .iter()
                .any(|p| p.contains(key.src_ip))
            {
                return true;
            }
        }
        packet
            .l4_payload()
            .is_ok_and(|payload| self.signatures.is_match(payload))
    }
}

impl NetworkFunction for ScrubberNf {
    fn name(&self) -> &str {
        "scrubber"
    }

    fn on_start(&mut self, ctx: &mut NfContext) {
        if self.announce_on_start {
            ctx.send(NfMessage::RequestMe {
                flows: self.request_filter,
            });
        }
    }

    fn process(&mut self, packet: &Packet, _ctx: &mut NfContext) -> Verdict {
        if self.is_malicious(packet) {
            self.scrubbed += 1;
            Verdict::Discard
        } else {
            self.passed += 1;
            Verdict::Default
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnfv_proto::packet::PacketBuilder;
    use std::net::Ipv4Addr;

    #[test]
    fn drops_malicious_prefix_and_passes_rest() {
        let mut nf = ScrubberNf::for_prefix(IpPrefix::new(Ipv4Addr::new(66, 0, 0, 0), 8));
        let mut ctx = NfContext::new(0);
        let attack = PacketBuilder::udp().src_ip([66, 1, 2, 3]).build();
        let normal = PacketBuilder::udp().src_ip([10, 1, 2, 3]).build();
        assert_eq!(nf.process(&attack, &mut ctx), Verdict::Discard);
        assert_eq!(nf.process(&normal, &mut ctx), Verdict::Default);
        assert_eq!(nf.scrubbed(), 1);
        assert_eq!(nf.passed(), 1);
    }

    #[test]
    fn announces_itself_on_start() {
        let mut nf = ScrubberNf::for_prefix(IpPrefix::new(Ipv4Addr::new(66, 0, 0, 0), 8));
        let mut ctx = NfContext::new(0);
        nf.on_start(&mut ctx);
        let msgs = ctx.take_messages();
        assert_eq!(msgs.len(), 1);
        assert!(matches!(msgs[0], NfMessage::RequestMe { .. }));
        // A plain scrubber with no rules stays quiet.
        let mut plain = ScrubberNf::new();
        plain.on_start(&mut ctx);
        assert!(!ctx.has_messages());
    }

    #[test]
    fn signature_scrubbing() {
        let mut nf = ScrubberNf::new().with_signature(b"evil-bytes".to_vec());
        let mut ctx = NfContext::new(0);
        let bad = PacketBuilder::udp().payload(b"xx evil-bytes xx").build();
        let good = PacketBuilder::udp().payload(b"hello").build();
        assert_eq!(nf.process(&bad, &mut ctx), Verdict::Discard);
        assert_eq!(nf.process(&good, &mut ctx), Verdict::Default);
    }

    #[test]
    fn builder_accumulates_prefixes() {
        let mut nf = ScrubberNf::new()
            .with_prefix(IpPrefix::new(Ipv4Addr::new(1, 0, 0, 0), 8))
            .with_prefix(IpPrefix::new(Ipv4Addr::new(2, 0, 0, 0), 8));
        let mut ctx = NfContext::new(0);
        assert_eq!(
            nf.process(&PacketBuilder::udp().src_ip([1, 1, 1, 1]).build(), &mut ctx),
            Verdict::Discard
        );
        assert_eq!(
            nf.process(&PacketBuilder::udp().src_ip([2, 1, 1, 1]).build(), &mut ctx),
            Verdict::Discard
        );
        assert_eq!(
            nf.process(&PacketBuilder::udp().src_ip([3, 1, 1, 1]).build(), &mut ctx),
            Verdict::Default
        );
    }
}
