//! A signature-based intrusion detection NF.

use sdnfv_flowtable::{Action, FlowMatch, RulePort, ServiceId, TableHashKey};
use sdnfv_proto::flow::FlowKey;
use sdnfv_proto::Packet;
use std::collections::HashSet;

use crate::api::{NetworkFunction, NfContext, NfFlowState, NfMessage, Verdict};
use crate::pattern::PatternSet;

/// The signatures [`IdsNf::new`] looks for.
pub(crate) const DEFAULT_SIGNATURES: [&[u8]; 4] =
    [b"' OR '1'='1", b"UNION SELECT", b"/etc/passwd", b"<script>"];

/// Scans packet payloads for malicious signatures (e.g. SQL exploits in HTTP
/// requests). When a signature is found the offending packet is diverted to
/// the scrubber service and a `ChangeDefault` message pins *all* subsequent
/// packets of the flow to the scrubber, as required by the anomaly-detection
/// use case (paper §2.2).
#[derive(Debug, Clone)]
pub struct IdsNf {
    /// The service id the IDS itself is deployed as (needed so the emitted
    /// `ChangeDefault` can name whose default rule to rewrite).
    own_service: ServiceId,
    scrubber: ServiceId,
    /// Compiled once here, so a packet's payload is read once however many
    /// signatures there are.
    signatures: PatternSet,
    /// Flows pinned to the scrubber. Keyed by the full [`FlowKey`] (not a
    /// bare hash) so the re-home handshake can enumerate and migrate the
    /// set when a flow's steering bucket changes shards. Every packet
    /// probes it, so it hashes with the flow table's keyed multiply-mix
    /// hasher rather than SipHash.
    flagged_flows: HashSet<FlowKey, TableHashKey>,
    alerts: u64,
    inspected: u64,
}

impl IdsNf {
    /// Creates an IDS with the default signature set.
    pub fn new(own_service: ServiceId, scrubber: ServiceId) -> Self {
        IdsNf::with_signatures(
            own_service,
            scrubber,
            DEFAULT_SIGNATURES.iter().map(|sig| sig.to_vec()).collect(),
        )
    }

    /// Creates an IDS with a custom signature set.
    pub fn with_signatures(
        own_service: ServiceId,
        scrubber: ServiceId,
        signatures: Vec<Vec<u8>>,
    ) -> Self {
        IdsNf {
            own_service,
            scrubber,
            signatures: PatternSet::new(signatures),
            flagged_flows: HashSet::default(),
            alerts: 0,
            inspected: 0,
        }
    }

    /// Number of signature hits.
    pub fn alerts(&self) -> u64 {
        self.alerts
    }

    /// Number of packets inspected.
    pub fn inspected(&self) -> u64 {
        self.inspected
    }

    /// Whether `key`'s flow has been flagged (pinned to the scrubber).
    pub fn is_flagged(&self, key: &FlowKey) -> bool {
        self.flagged_flows.contains(key)
    }

    fn payload_matches(&self, packet: &Packet) -> bool {
        packet
            .l4_payload()
            .is_ok_and(|payload| self.signatures.is_match(payload))
    }
}

impl NetworkFunction for IdsNf {
    fn name(&self) -> &str {
        "ids"
    }

    fn process(&mut self, packet: &Packet, ctx: &mut NfContext) -> Verdict {
        self.inspected += 1;
        let key = packet.flow_key();
        // Already-flagged flows keep going to the scrubber even if later
        // packets look innocent.
        if let Some(key) = key {
            if self.flagged_flows.contains(&key) {
                return Verdict::ToService(self.scrubber);
            }
        }
        if self.payload_matches(packet) {
            self.alerts += 1;
            if let Some(key) = key {
                self.flagged_flows.insert(key);
                // Pin the rest of the flow to the scrubber.
                ctx.send_for_flow(
                    &key,
                    NfMessage::ChangeDefault {
                        flows: FlowMatch::exact(RulePort::Service(self.own_service), &key),
                        service: self.own_service,
                        new_default: Action::ToService(self.scrubber),
                    },
                );
            }
            return Verdict::ToService(self.scrubber);
        }
        Verdict::Default
    }

    fn export_flow_state(&mut self, key: &FlowKey) -> Option<NfFlowState> {
        self.flagged_flows
            .remove(key)
            .then(|| NfFlowState::with_counter("flagged", 1))
    }

    fn import_flow_state(&mut self, key: &FlowKey, state: NfFlowState) {
        if state.counter("flagged") == Some(1) {
            self.flagged_flows.insert(*key);
        }
    }

    fn flow_state_keys(&self) -> Vec<FlowKey> {
        self.flagged_flows.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnfv_proto::packet::PacketBuilder;

    const IDS: ServiceId = ServiceId::new(40);
    const SCRUBBER: ServiceId = ServiceId::new(50);

    fn http_packet(body: &str, src_port: u16) -> Packet {
        PacketBuilder::tcp()
            .src_port(src_port)
            .dst_port(80)
            .payload(format!("GET /q?{body} HTTP/1.1\r\n\r\n").as_bytes())
            .build()
    }

    #[test]
    fn clean_traffic_takes_default_path() {
        let mut ids = IdsNf::new(IDS, SCRUBBER);
        let mut ctx = NfContext::new(0);
        assert_eq!(
            ids.process(&http_packet("name=alice", 1000), &mut ctx),
            Verdict::Default
        );
        assert_eq!(ids.alerts(), 0);
        assert_eq!(ids.inspected(), 1);
        assert!(!ctx.has_messages());
    }

    #[test]
    fn signature_hit_diverts_and_pins_flow() {
        let mut ids = IdsNf::new(IDS, SCRUBBER);
        let mut ctx = NfContext::new(0);
        let bad = http_packet("q=' OR '1'='1", 2000);
        assert_eq!(ids.process(&bad, &mut ctx), Verdict::ToService(SCRUBBER));
        assert_eq!(ids.alerts(), 1);
        let msgs = ctx.take_messages();
        assert_eq!(msgs.len(), 1);
        match &msgs[0] {
            NfMessage::ChangeDefault {
                service,
                new_default,
                ..
            } => {
                assert_eq!(*service, IDS);
                assert_eq!(*new_default, Action::ToService(SCRUBBER));
            }
            other => panic!("unexpected message {other:?}"),
        }
        // A later innocuous packet of the same flow is still scrubbed.
        let later = http_packet("q=hello", 2000);
        assert_eq!(ids.process(&later, &mut ctx), Verdict::ToService(SCRUBBER));
        // But the message is only sent once per flow.
        assert!(!ctx.has_messages());
    }

    #[test]
    fn custom_signatures() {
        let mut ids = IdsNf::with_signatures(IDS, SCRUBBER, vec![b"attack-token".to_vec()]);
        let mut ctx = NfContext::new(0);
        assert_eq!(
            ids.process(&http_packet("x=attack-token", 1), &mut ctx),
            Verdict::ToService(SCRUBBER)
        );
        assert_eq!(
            ids.process(&http_packet("x=UNION SELECT", 2), &mut ctx),
            Verdict::Default,
            "default signatures are not active when a custom set is supplied"
        );
    }

    #[test]
    fn flagged_flow_state_migrates_between_instances() {
        let mut old_shard = IdsNf::new(IDS, SCRUBBER);
        let mut new_shard = IdsNf::new(IDS, SCRUBBER);
        let mut ctx = NfContext::new(0);
        let bad = http_packet("q=' OR '1'='1", 4242);
        let key = bad.flow_key().expect("tcp packet");
        old_shard.process(&bad, &mut ctx);
        assert!(old_shard.is_flagged(&key));
        assert_eq!(old_shard.flow_state_keys(), vec![key]);

        // Export removes the state from the old instance…
        let state = old_shard.export_flow_state(&key).expect("flow is flagged");
        assert!(!old_shard.is_flagged(&key));
        assert_eq!(old_shard.export_flow_state(&key), None, "export is a move");
        // …and import restores it on the new one: an innocuous packet of
        // the migrated flow is still scrubbed.
        new_shard.import_flow_state(&key, state);
        assert!(new_shard.is_flagged(&key));
        let innocent = http_packet("q=hello", 4242);
        assert_eq!(
            new_shard.process(&innocent, &mut ctx),
            Verdict::ToService(SCRUBBER),
            "the migrated flag keeps governing the flow"
        );
    }

    #[test]
    fn non_payload_packets_pass() {
        let mut ids = IdsNf::new(IDS, SCRUBBER);
        let mut ctx = NfContext::new(0);
        let pkt = Packet::from_bytes(vec![0u8; 10]);
        assert_eq!(ids.process(&pkt, &mut ctx), Verdict::Default);
    }
}
