//! Application of NF cross-layer messages to the host flow table
//! (paper §3.4).

use sdnfv_flowtable::{Action, FlowTable, RulePort, ServiceId, WildcardMutation};
use sdnfv_nf::NfMessage;

/// A cross-layer message attributed to the NF (service) that sent it, as the
/// NF Manager forwards it to the SDNFV Application.
#[derive(Debug, Clone, PartialEq)]
pub struct NfManagerMessage {
    /// Service that sent the message.
    pub from: ServiceId,
    /// The message itself.
    pub message: NfMessage,
}

/// What applying a message changed locally, reported back to the caller (and
/// ultimately to the control plane).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppliedChange {
    /// The message updated this many local flow-table rules.
    RulesUpdated(usize),
    /// The message is not a flow-table change; it must be forwarded to the
    /// SDNFV Application (e.g. a `Custom` message like a DDoS alarm).
    ForwardToApplication,
}

/// Timeouts stamped onto exact per-flow pin rules installed by
/// `ChangeDefault` messages (the threaded host sets `idle_ns` from its
/// `pin_idle_timeout_ns` knob). `NONE` keeps pins forever — the
/// pre-lifecycle behavior and the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PinTimeouts {
    /// Idle timeout for newly installed pins, if any.
    pub idle_ns: Option<u64>,
    /// Hard timeout for newly installed pins, if any.
    pub hard_ns: Option<u64>,
}

impl PinTimeouts {
    /// No timeouts: pins live forever.
    pub const NONE: PinTimeouts = PinTimeouts {
        idle_ns: None,
        hard_ns: None,
    };
}

/// Applies a cross-layer message from service `from` to the host flow table.
///
/// * `SkipMe(F, S)` — rules whose default points at `S` are retargeted to
///   `S`'s own default action, so `S` is bypassed for flows matching `F`.
/// * `RequestMe(F, S)` — every rule that lists `S` as an allowed next hop
///   makes it the default for flows matching `F`.
/// * `ChangeDefault(F, S, T)` — the default of `S`'s rules becomes `T` for
///   flows matching `F` (only if `T` is an allowed next hop, unless `force`).
///   A `ChangeDefault` scoped to one exact flow at `S`'s own step installs
///   (or updates) an exact per-flow pin stamped with `pin_timeouts`;
///   updating an existing pin re-stamps it (re-installation restarts the
///   hard-timeout clock, matching OpenFlow `OFPFC_MODIFY` + timeout).
/// * `Custom` — not a table change; reported as
///   [`AppliedChange::ForwardToApplication`].
///
/// `force` relaxes the service-graph constraint for `ChangeDefault`; the NF
/// Manager passes `false` for untrusted NFs and lets the SDNFV Application
/// decide whether to re-apply with `force = true`.
///
/// Alongside the [`AppliedChange`], returns the [`WildcardMutation`] the
/// message performed, if it rewrote at least one **wildcard** rule (a pin
/// returns `None` — exact rules travel between shard partitions through the
/// exact index, not the mutation log). The shard worker records it in the
/// partition's [`MutationLog`](sdnfv_flowtable::MutationLog), attributed to
/// the mutating flow's steering bucket, so bucket re-homes can replay it.
pub fn apply_nf_message(
    table: &mut FlowTable,
    from: ServiceId,
    message: &NfMessage,
    force: bool,
    pin_timeouts: PinTimeouts,
) -> (AppliedChange, Option<WildcardMutation>) {
    match message {
        NfMessage::SkipMe { flows } => {
            // Find the sending service's own default action; if it has no
            // rule, nothing can be bypassed.
            let own_default = table
                .rules_for_service(from)
                .first()
                .and_then(|(_, rule)| rule.default_action());
            match own_default {
                Some(default) => {
                    let updated = table.retarget_defaults(from, flows, default);
                    let mutation = (updated > 0).then_some(WildcardMutation::RetargetDefaults {
                        pointing_at: from,
                        flows: *flows,
                        new_default: default,
                    });
                    (AppliedChange::RulesUpdated(updated), mutation)
                }
                None => (AppliedChange::RulesUpdated(0), None),
            }
        }
        NfMessage::RequestMe { flows } => {
            let updated = table.promote_where_allowed(flows, Action::ToService(from));
            let mutation = (updated > 0).then_some(WildcardMutation::PromoteWhereAllowed {
                flows: *flows,
                action: Action::ToService(from),
            });
            (AppliedChange::RulesUpdated(updated), mutation)
        }
        NfMessage::ChangeDefault {
            flows,
            service,
            new_default,
        } => {
            // A ChangeDefault scoped to one exact flow must not disturb the
            // wildcard rule other flows follow (Figure 4 of the paper shows
            // per-flow rules added next to the `*` rules). Install or update
            // a specific higher-priority rule for that flow instead.
            if let Some((step, key)) = flows.exact_key() {
                if step == RulePort::Service(*service) {
                    let template = match table.exact_rule_id(step, &key) {
                        Some(id) => table.rule(id).cloned().map(|rule| (Some(id), rule)),
                        None => table.peek(step, &key).cloned().map(|rule| (None, rule)),
                    };
                    let Some((existing_id, base)) = template else {
                        return (AppliedChange::RulesUpdated(0), None);
                    };
                    if !base.allows(*new_default) && !force {
                        return (AppliedChange::RulesUpdated(0), None);
                    }
                    let mut specific = base.clone();
                    specific.matcher = *flows;
                    if existing_id.is_none() {
                        specific.priority = base.priority.saturating_add(10);
                    }
                    specific.idle_timeout_ns = pin_timeouts.idle_ns;
                    specific.hard_timeout_ns = pin_timeouts.hard_ns;
                    specific.set_default_action(*new_default);
                    if let Some(id) = existing_id {
                        table.remove(id);
                    }
                    table.insert(specific);
                    return (AppliedChange::RulesUpdated(1), None);
                }
            }
            let updated = table.change_default(*service, flows, *new_default, force);
            let mutation = (updated > 0).then_some(WildcardMutation::ChangeDefault {
                service: *service,
                flows: *flows,
                new_default: *new_default,
                force,
            });
            (AppliedChange::RulesUpdated(updated), mutation)
        }
        NfMessage::Custom { .. } => (AppliedChange::ForwardToApplication, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnfv_flowtable::{FlowMatch, FlowRule};

    /// Applies without pin timeouts, reporting only the change.
    fn apply(
        table: &mut FlowTable,
        from: ServiceId,
        message: &NfMessage,
        force: bool,
    ) -> AppliedChange {
        apply_nf_message(table, from, message, force, PinTimeouts::NONE).0
    }

    /// Applies without pin timeouts.
    fn apply_tracked(
        table: &mut FlowTable,
        from: ServiceId,
        message: &NfMessage,
        force: bool,
    ) -> (AppliedChange, Option<WildcardMutation>) {
        apply_nf_message(table, from, message, force, PinTimeouts::NONE)
    }
    use sdnfv_proto::flow::{FlowKey, IpProtocol};
    use std::net::Ipv4Addr;

    const FIREWALL: ServiceId = ServiceId::new(1);
    const SAMPLER: ServiceId = ServiceId::new(2);
    const SCRUBBER: ServiceId = ServiceId::new(5);

    fn key() -> FlowKey {
        FlowKey::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1234,
            80,
            IpProtocol::Tcp,
        )
    }

    /// firewall -> sampler -> out, with sampler allowed to reach the scrubber.
    fn table() -> FlowTable {
        let mut t = FlowTable::new();
        t.insert(FlowRule::new(
            FlowMatch::at_step(RulePort::Nic(0)),
            vec![Action::ToService(FIREWALL)],
        ));
        t.insert(FlowRule::new(
            FlowMatch::at_step(FIREWALL),
            vec![Action::ToService(SAMPLER), Action::ToPort(1)],
        ));
        t.insert(FlowRule::new(
            FlowMatch::at_step(SAMPLER),
            vec![Action::ToPort(1), Action::ToService(SCRUBBER)],
        ));
        t.insert(FlowRule::new(
            FlowMatch::at_step(SCRUBBER),
            vec![Action::ToPort(1)],
        ));
        t
    }

    #[test]
    fn skip_me_bypasses_sender() {
        let mut t = table();
        let change = apply(
            &mut t,
            SAMPLER,
            &NfMessage::SkipMe {
                flows: FlowMatch::any(),
            },
            false,
        );
        assert_eq!(change, AppliedChange::RulesUpdated(1));
        // The firewall now defaults straight to port 1 instead of the sampler.
        assert_eq!(
            t.peek(RulePort::Service(FIREWALL), &key())
                .unwrap()
                .default_action(),
            Some(Action::ToPort(1))
        );
    }

    #[test]
    fn skip_me_without_own_rule_is_a_noop() {
        let mut t = table();
        let change = apply(
            &mut t,
            ServiceId::new(99),
            &NfMessage::SkipMe {
                flows: FlowMatch::any(),
            },
            false,
        );
        assert_eq!(change, AppliedChange::RulesUpdated(0));
    }

    #[test]
    fn request_me_promotes_allowed_edges() {
        let mut t = table();
        let change = apply(
            &mut t,
            SCRUBBER,
            &NfMessage::RequestMe {
                flows: FlowMatch::any(),
            },
            false,
        );
        // Only the sampler has an edge to the scrubber.
        assert_eq!(change, AppliedChange::RulesUpdated(1));
        assert_eq!(
            t.peek(RulePort::Service(SAMPLER), &key())
                .unwrap()
                .default_action(),
            Some(Action::ToService(SCRUBBER))
        );
        // The firewall is untouched.
        assert_eq!(
            t.peek(RulePort::Service(FIREWALL), &key())
                .unwrap()
                .default_action(),
            Some(Action::ToService(SAMPLER))
        );
    }

    #[test]
    fn change_default_on_wildcard_rule() {
        let mut t = table();
        let change = apply(
            &mut t,
            SAMPLER,
            &NfMessage::ChangeDefault {
                flows: FlowMatch::any(),
                service: SAMPLER,
                new_default: Action::ToService(SCRUBBER),
            },
            false,
        );
        assert_eq!(change, AppliedChange::RulesUpdated(1));
        assert_eq!(
            t.peek(RulePort::Service(SAMPLER), &key())
                .unwrap()
                .default_action(),
            Some(Action::ToService(SCRUBBER))
        );
    }

    #[test]
    fn per_flow_change_default_installs_specific_rule() {
        let mut t = table();
        let flows = FlowMatch::exact(RulePort::Service(SAMPLER), &key());
        let change = apply(
            &mut t,
            SAMPLER,
            &NfMessage::ChangeDefault {
                flows,
                service: SAMPLER,
                new_default: Action::ToService(SCRUBBER),
            },
            false,
        );
        assert_eq!(change, AppliedChange::RulesUpdated(1));
        // The specific flow now defaults to the scrubber …
        assert_eq!(
            t.peek(RulePort::Service(SAMPLER), &key())
                .unwrap()
                .default_action(),
            Some(Action::ToService(SCRUBBER))
        );
        // … while other flows keep the wildcard default.
        let mut other = key();
        other.src_port = 9999;
        assert_eq!(
            t.peek(RulePort::Service(SAMPLER), &other)
                .unwrap()
                .default_action(),
            Some(Action::ToPort(1))
        );
    }

    #[test]
    fn change_default_respects_graph_constraint_unless_forced() {
        let mut t = table();
        // Port 9 is not an allowed next hop of the firewall.
        let msg = NfMessage::ChangeDefault {
            flows: FlowMatch::any(),
            service: FIREWALL,
            new_default: Action::ToPort(9),
        };
        assert_eq!(
            apply(&mut t, FIREWALL, &msg, false),
            AppliedChange::RulesUpdated(0)
        );
        assert_eq!(
            apply(&mut t, FIREWALL, &msg, true),
            AppliedChange::RulesUpdated(1)
        );
    }

    #[test]
    fn tracked_apply_reports_wildcard_mutations_only() {
        let mut t = table();
        // A wildcard ChangeDefault yields a replayable mutation…
        let (change, mutation) = apply_tracked(
            &mut t,
            SAMPLER,
            &NfMessage::ChangeDefault {
                flows: FlowMatch::any(),
                service: SAMPLER,
                new_default: Action::ToService(SCRUBBER),
            },
            false,
        );
        assert_eq!(change, AppliedChange::RulesUpdated(1));
        assert!(matches!(
            mutation,
            Some(WildcardMutation::ChangeDefault { service, .. }) if service == SAMPLER
        ));
        // …an exact-flow ChangeDefault does not (it became an exact rule).
        let (change, mutation) = apply_tracked(
            &mut t,
            SAMPLER,
            &NfMessage::ChangeDefault {
                flows: FlowMatch::exact(RulePort::Service(SAMPLER), &key()),
                service: SAMPLER,
                new_default: Action::ToService(SCRUBBER),
            },
            false,
        );
        assert_eq!(change, AppliedChange::RulesUpdated(1));
        assert!(mutation.is_none());
        // A rejected message yields neither.
        let (change, mutation) = apply_tracked(
            &mut t,
            FIREWALL,
            &NfMessage::ChangeDefault {
                flows: FlowMatch::any(),
                service: FIREWALL,
                new_default: Action::ToPort(9),
            },
            false,
        );
        assert_eq!(change, AppliedChange::RulesUpdated(0));
        assert!(mutation.is_none());
        // SkipMe and RequestMe report their wildcard ops too (fresh tables:
        // both must actually update a rule to count as a mutation).
        let (_, mutation) = apply_tracked(
            &mut table(),
            SCRUBBER,
            &NfMessage::RequestMe {
                flows: FlowMatch::any(),
            },
            false,
        );
        assert!(matches!(
            mutation,
            Some(WildcardMutation::PromoteWhereAllowed { .. })
        ));
        let (_, mutation) = apply_tracked(
            &mut table(),
            SAMPLER,
            &NfMessage::SkipMe {
                flows: FlowMatch::any(),
            },
            false,
        );
        assert!(matches!(
            mutation,
            Some(WildcardMutation::RetargetDefaults { pointing_at, .. }) if pointing_at == SAMPLER
        ));
    }

    #[test]
    fn pin_timeouts_are_stamped_onto_exact_pins() {
        let mut t = table();
        let flows = FlowMatch::exact(RulePort::Service(SAMPLER), &key());
        let timeouts = PinTimeouts {
            idle_ns: Some(500),
            hard_ns: Some(9_000),
        };
        let (change, _) = apply_nf_message(
            &mut t,
            SAMPLER,
            &NfMessage::ChangeDefault {
                flows,
                service: SAMPLER,
                new_default: Action::ToService(SCRUBBER),
            },
            false,
            timeouts,
        );
        assert_eq!(change, AppliedChange::RulesUpdated(1));
        let id = t
            .exact_rule_id(RulePort::Service(SAMPLER), &key())
            .expect("pin installed");
        let pin = t.rule(id).unwrap();
        assert_eq!(pin.idle_timeout_ns, Some(500));
        assert_eq!(pin.hard_timeout_ns, Some(9_000));
        // The wildcard rules keep no timeout (only pins are stamped).
        for (rule_id, rule) in t.rules() {
            if rule_id != id {
                assert!(!rule.has_timeout());
            }
        }
    }

    #[test]
    fn custom_messages_are_forwarded() {
        let mut t = table();
        assert_eq!(
            apply(
                &mut t,
                FIREWALL,
                &NfMessage::custom("ddos.alarm", "10.0.0.0/16"),
                false
            ),
            AppliedChange::ForwardToApplication
        );
    }
}
