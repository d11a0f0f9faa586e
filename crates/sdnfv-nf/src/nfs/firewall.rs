//! A stateless packet-filter firewall.

use sdnfv_flowtable::{FlowMatch, RulePort};
use sdnfv_proto::flow::FlowKey;
use sdnfv_proto::Packet;

use crate::api::{NetworkFunction, NfContext, Verdict};
use crate::batch::{BurstMemo, PacketBatch};

/// One firewall rule: a match plus an allow/deny decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FirewallRule {
    /// Flows the rule applies to.
    pub matcher: FlowMatch,
    /// `true` to allow matching traffic, `false` to drop it.
    pub allow: bool,
}

impl FirewallRule {
    /// Creates an allow rule.
    pub fn allow(matcher: FlowMatch) -> Self {
        FirewallRule {
            matcher,
            allow: true,
        }
    }

    /// Creates a deny rule.
    pub fn deny(matcher: FlowMatch) -> Self {
        FirewallRule {
            matcher,
            allow: false,
        }
    }
}

/// A simple first-match packet filter.
///
/// The firewall is deliberately unaware of the rest of the service graph: it
/// either drops a packet or returns [`Verdict::Default`], exactly the
/// "loosely coupled NF" the paper uses to motivate default actions (§3.4).
#[derive(Debug, Clone, Default)]
pub struct FirewallNf {
    rules: Vec<FirewallRule>,
    default_allow: bool,
    /// Rule verdicts of the burst in hand, one per distinct flow. Cleared
    /// at every burst and kept between them, so that its storage is
    /// allocated once and not per burst.
    memo: BurstMemo<(RulePort, FlowKey), bool>,
    passed: u64,
    dropped: u64,
}

impl FirewallNf {
    /// Creates a firewall that allows traffic not matched by any rule.
    pub fn allow_by_default() -> Self {
        FirewallNf {
            default_allow: true,
            ..FirewallNf::default()
        }
    }

    /// Creates a firewall that drops traffic not matched by any rule.
    pub fn deny_by_default() -> Self {
        FirewallNf {
            default_allow: false,
            ..FirewallNf::default()
        }
    }

    /// Appends a rule (first match wins).
    pub fn with_rule(mut self, rule: FirewallRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Packets allowed through so far.
    pub fn passed(&self) -> u64 {
        self.passed
    }

    /// Packets dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Evaluates the rule list for one flow: first match wins, and
/// `default_allow` answers for a flow no rule matches.
fn evaluate(rules: &[FirewallRule], default_allow: bool, step: RulePort, key: &FlowKey) -> bool {
    rules
        .iter()
        .find(|r| r.matcher.matches(step, key))
        .map(|r| r.allow)
        .unwrap_or(default_allow)
}

impl NetworkFunction for FirewallNf {
    fn name(&self) -> &str {
        "firewall"
    }

    fn process(&mut self, packet: &Packet, _ctx: &mut NfContext) -> Verdict {
        let Some(key) = packet.flow_key() else {
            // Non-IP traffic is dropped: the firewall fails closed.
            self.dropped += 1;
            return Verdict::Discard;
        };
        // The firewall's own rules are independent of the flow-table step, so
        // match with the packet's ingress port as the step.
        let step = RulePort::Nic(packet.ingress_port);
        if evaluate(&self.rules, self.default_allow, step, &key) {
            self.passed += 1;
            Verdict::Default
        } else {
            self.dropped += 1;
            Verdict::Discard
        }
    }

    /// Native batch path: the rule list is evaluated **once per distinct
    /// flow in the burst** instead of once per packet — bursts of line-rate
    /// traffic are dominated by a few flows, so this collapses the
    /// first-match scan to a memo probe for most packets. With no rules
    /// there is nothing to memoize and the default answers directly.
    fn process_batch(
        &mut self,
        batch: &PacketBatch<'_>,
        verdicts: &mut [Verdict],
        _ctx: &mut NfContext,
    ) {
        debug_assert_eq!(batch.len(), verdicts.len());
        let FirewallNf {
            rules,
            default_allow,
            memo,
            passed,
            dropped,
        } = self;
        memo.clear();
        for (slot, packet) in verdicts.iter_mut().zip(batch.iter()) {
            let Some(key) = packet.flow_key() else {
                *dropped += 1;
                *slot = Verdict::Discard;
                continue;
            };
            let allow = if rules.is_empty() {
                *default_allow
            } else {
                let step = RulePort::Nic(packet.ingress_port);
                *memo.get_or_insert_with((step, key), |(step, key)| {
                    evaluate(rules, *default_allow, *step, key)
                })
            };
            if allow {
                *passed += 1;
                // `slot` is already Verdict::Default per the batch contract.
            } else {
                *dropped += 1;
                *slot = Verdict::Discard;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnfv_flowtable::IpPrefix;
    use sdnfv_proto::packet::PacketBuilder;
    use std::net::Ipv4Addr;

    fn pkt_from(src: [u8; 4]) -> Packet {
        PacketBuilder::udp().src_ip(src).dst_port(80).build()
    }

    #[test]
    fn default_allow_passes_unmatched_traffic() {
        let mut fw = FirewallNf::allow_by_default();
        let mut ctx = NfContext::new(0);
        assert_eq!(
            fw.process(&pkt_from([10, 0, 0, 1]), &mut ctx),
            Verdict::Default
        );
        assert_eq!(fw.passed(), 1);
        assert_eq!(fw.dropped(), 0);
    }

    #[test]
    fn deny_rule_drops_matching_prefix() {
        let mut fw = FirewallNf::allow_by_default().with_rule(FirewallRule::deny(
            FlowMatch::any().with_src_ip(IpPrefix::new(Ipv4Addr::new(192, 168, 0, 0), 16)),
        ));
        let mut ctx = NfContext::new(0);
        assert_eq!(
            fw.process(&pkt_from([192, 168, 3, 4]), &mut ctx),
            Verdict::Discard
        );
        assert_eq!(
            fw.process(&pkt_from([10, 0, 0, 1]), &mut ctx),
            Verdict::Default
        );
        assert_eq!(fw.dropped(), 1);
        assert_eq!(fw.passed(), 1);
    }

    #[test]
    fn first_match_wins() {
        let prefix = IpPrefix::new(Ipv4Addr::new(10, 0, 0, 0), 8);
        let mut fw = FirewallNf::deny_by_default()
            .with_rule(FirewallRule::allow(FlowMatch::any().with_src_ip(prefix)))
            .with_rule(FirewallRule::deny(FlowMatch::any().with_src_ip(prefix)));
        let mut ctx = NfContext::new(0);
        assert_eq!(
            fw.process(&pkt_from([10, 9, 9, 9]), &mut ctx),
            Verdict::Default
        );
        // Unmatched traffic hits the deny default.
        assert_eq!(
            fw.process(&pkt_from([172, 16, 0, 1]), &mut ctx),
            Verdict::Discard
        );
    }

    #[test]
    fn batch_path_matches_scalar_path() {
        use crate::batch::{PacketBatch, VerdictSlice};
        let rules = || {
            FirewallNf::allow_by_default().with_rule(FirewallRule::deny(
                FlowMatch::any().with_src_ip(IpPrefix::new(Ipv4Addr::new(192, 168, 0, 0), 16)),
            ))
        };
        // A burst mixing repeated flows, an unmatched flow and a non-IP frame.
        let denied = pkt_from([192, 168, 3, 4]);
        let allowed = pkt_from([10, 0, 0, 1]);
        let garbage = Packet::from_bytes(vec![0u8; 20]);
        let refs = [&denied, &allowed, &denied, &garbage, &allowed, &denied];
        let mut ctx = NfContext::new(0);

        let mut scalar = rules();
        let expected: Vec<Verdict> = refs.iter().map(|p| scalar.process(p, &mut ctx)).collect();

        let mut batched = rules();
        let mut verdicts = VerdictSlice::new();
        batched.process_batch(
            &PacketBatch::new(&refs),
            verdicts.reset(refs.len()),
            &mut ctx,
        );

        assert_eq!(verdicts.as_slice(), expected.as_slice());
        assert_eq!(batched.passed(), scalar.passed());
        assert_eq!(batched.dropped(), scalar.dropped());
    }

    #[test]
    fn a_firewall_without_rules_answers_its_default_without_the_memo() {
        use crate::batch::{PacketBatch, VerdictSlice};
        let packets: Vec<Packet> = (0..40).map(|host| pkt_from([10, 0, 0, host])).collect();
        let refs: Vec<&Packet> = packets.iter().collect();
        let mut ctx = NfContext::new(0);
        for (mut fw, expected) in [
            (FirewallNf::allow_by_default(), Verdict::Default),
            (FirewallNf::deny_by_default(), Verdict::Discard),
        ] {
            let mut verdicts = VerdictSlice::new();
            fw.process_batch(
                &PacketBatch::new(&refs),
                verdicts.reset(refs.len()),
                &mut ctx,
            );
            assert!(verdicts.as_slice().iter().all(|v| *v == expected));
            assert_eq!(fw.passed() + fw.dropped(), 40);
            assert!(fw.memo.is_empty(), "nothing to memoize without rules");
        }
    }

    #[test]
    fn non_ip_traffic_is_dropped() {
        let mut fw = FirewallNf::allow_by_default();
        let mut ctx = NfContext::new(0);
        let pkt = Packet::from_bytes(vec![0u8; 20]);
        assert_eq!(fw.process(&pkt, &mut ctx), Verdict::Discard);
        assert!(fw.read_only());
    }
}
