//! Flow rules: match criteria plus an (ordered) action list.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

use sdnfv_proto::packet::Port;

use crate::matching::FlowMatch;
use crate::types::ServiceId;

/// Identifier of a rule within one flow table.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct RuleId(pub u64);

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rule-{}", self.0)
    }
}

/// A forwarding action attached to a flow rule.
///
/// These are the OpenFlow `OUTPUT` actions of the paper, with service IDs
/// treated as logical output ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Action {
    /// Deliver the packet to the NF providing this service.
    ToService(ServiceId),
    /// Transmit the packet out of a NIC port.
    ToPort(Port),
    /// Drop the packet.
    Drop,
    /// Punt the packet (header) to the SDN controller — the table-miss path.
    ToController,
    /// Pin the matched flow for tracing: packets of this flow emit
    /// per-stage trace spans regardless of the host's sampling rate. A
    /// marker, not a forwarding action — the table strips it out of the
    /// [`Decision`] action list and raises [`Decision::trace`] instead, so
    /// the dispatch fast paths never see it.
    Trace,
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::ToService(s) => write!(f, "output:{s}"),
            Action::ToPort(p) => write!(f, "output:eth{p}"),
            Action::Drop => write!(f, "drop"),
            Action::ToController => write!(f, "controller"),
            Action::Trace => write!(f, "trace"),
        }
    }
}

/// A rule in an SDNFV flow table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowRule {
    /// Match criteria.
    pub matcher: FlowMatch,
    /// Ordered action list. The first entry is the default action; the rest
    /// are the alternative next hops the NF is allowed to request.
    pub actions: Vec<Action>,
    /// When `true`, the action list is a set of parallel destinations — every
    /// listed (read-only) NF receives the packet simultaneously.
    pub parallel: bool,
    /// Priority; higher wins. Specific per-flow rules installed at run time
    /// use higher priorities than the wildcard rules derived from the
    /// service graph.
    pub priority: u16,
    /// OpenFlow-style idle timeout: the rule is evicted once this many
    /// nanoseconds pass without a lookup hitting it. `None` (the default)
    /// never idles out.
    pub idle_timeout_ns: Option<u64>,
    /// OpenFlow-style hard timeout: the rule is evicted this many
    /// nanoseconds after installation, regardless of traffic. `None` (the
    /// default) never expires.
    pub hard_timeout_ns: Option<u64>,
}

impl FlowRule {
    /// Creates a sequential-choice rule.
    pub fn new(matcher: FlowMatch, actions: Vec<Action>) -> Self {
        FlowRule {
            matcher,
            actions,
            parallel: false,
            priority: 0,
            idle_timeout_ns: None,
            hard_timeout_ns: None,
        }
    }

    /// Creates a parallel-dispatch rule.
    pub fn parallel(matcher: FlowMatch, actions: Vec<Action>) -> Self {
        FlowRule {
            parallel: true,
            ..FlowRule::new(matcher, actions)
        }
    }

    /// Builder-style priority setter.
    pub fn with_priority(mut self, priority: u16) -> Self {
        self.priority = priority;
        self
    }

    /// Builder-style idle-timeout setter (`None` disables idle expiry).
    pub fn with_idle_timeout_ns(mut self, idle_timeout_ns: Option<u64>) -> Self {
        self.idle_timeout_ns = idle_timeout_ns;
        self
    }

    /// Builder-style hard-timeout setter (`None` disables hard expiry).
    pub fn with_hard_timeout_ns(mut self, hard_timeout_ns: Option<u64>) -> Self {
        self.hard_timeout_ns = hard_timeout_ns;
        self
    }

    /// Whether the rule can ever expire (has an idle or hard timeout).
    pub fn has_timeout(&self) -> bool {
        self.idle_timeout_ns.is_some() || self.hard_timeout_ns.is_some()
    }

    /// The default action (first in the list), if the rule has any actions.
    pub fn default_action(&self) -> Option<Action> {
        self.actions.first().copied()
    }

    /// Returns `true` if `action` is one of the allowed next hops.
    pub fn allows(&self, action: Action) -> bool {
        self.actions.contains(&action)
    }

    /// Makes `action` the default (first) action, inserting it if absent.
    ///
    /// This is the table-level half of the paper's `ChangeDefault` message.
    pub fn set_default_action(&mut self, action: Action) {
        if let Some(pos) = self.actions.iter().position(|a| *a == action) {
            self.actions.remove(pos);
        }
        self.actions.insert(0, action);
    }
}

/// The outcome of a flow-table lookup, detached from the table so it can be
/// cached inside a packet descriptor (paper §4.2 "caching flow table
/// lookups").
///
/// The action list is shared with the table entry via `Arc`, so handing a
/// decision out (and cloning it into lookup caches and packet descriptors)
/// never allocates on the per-packet path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// Rule that matched.
    pub rule_id: RuleId,
    /// The rule's action list at lookup time (shared, not copied). Never
    /// contains [`Action::Trace`] — the table strips the marker and raises
    /// [`Decision::trace`] instead.
    pub actions: Arc<[Action]>,
    /// Whether the actions are parallel destinations.
    pub parallel: bool,
    /// Whether the matched rule pins this flow for span tracing (it carried
    /// an [`Action::Trace`] marker).
    pub trace: bool,
    /// Whether the matched rule carries an idle or hard timeout
    /// ([`FlowRule::has_timeout`]). A cached copy of a timed decision must
    /// fall through to the table now and then — to refresh the idle timer,
    /// to meet the hard cutoff; a permanent rule's decision is good until
    /// the table changes.
    pub timed: bool,
    /// Whether the answer did not depend on the flow: no exact rule names
    /// the step, and no wildcard shape the lookup probed constrains a field
    /// (see [`FlowTable`](crate::FlowTable)'s module docs). Until the table
    /// changes, every flow gets this decision at this step.
    pub any_flow: bool,
}

impl Decision {
    /// The default action of the matched rule.
    pub fn default_action(&self) -> Option<Action> {
        self.actions.first().copied()
    }

    /// Returns `true` if `action` was allowed by the matched rule.
    pub fn allows(&self, action: Action) -> bool {
        self.actions.contains(&action)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RulePort;

    #[test]
    fn default_action_is_first() {
        let rule = FlowRule::new(
            FlowMatch::any(),
            vec![Action::ToService(ServiceId::new(1)), Action::ToPort(0)],
        );
        assert_eq!(
            rule.default_action(),
            Some(Action::ToService(ServiceId::new(1)))
        );
        assert!(rule.allows(Action::ToPort(0)));
        assert!(!rule.allows(Action::Drop));
        assert!(!rule.parallel);
    }

    #[test]
    fn set_default_moves_existing_action_to_front() {
        let mut rule = FlowRule::new(
            FlowMatch::any(),
            vec![
                Action::ToService(ServiceId::new(1)),
                Action::ToService(ServiceId::new(2)),
            ],
        );
        rule.set_default_action(Action::ToService(ServiceId::new(2)));
        assert_eq!(
            rule.actions,
            vec![
                Action::ToService(ServiceId::new(2)),
                Action::ToService(ServiceId::new(1)),
            ]
        );
        // Inserting a new action puts it at the front without removing others.
        rule.set_default_action(Action::ToPort(3));
        assert_eq!(rule.default_action(), Some(Action::ToPort(3)));
        assert_eq!(rule.actions.len(), 3);
    }

    #[test]
    fn parallel_constructor_sets_flag() {
        let rule = FlowRule::parallel(
            FlowMatch::at_step(RulePort::Nic(0)),
            vec![
                Action::ToService(ServiceId::new(4)),
                Action::ToService(ServiceId::new(5)),
            ],
        )
        .with_priority(9);
        assert!(rule.parallel);
        assert_eq!(rule.priority, 9);
    }

    #[test]
    fn decision_mirrors_rule_semantics() {
        let d = Decision {
            rule_id: RuleId(4),
            actions: vec![Action::Drop, Action::ToPort(1)].into(),
            parallel: false,
            trace: false,
            timed: false,
            any_flow: false,
        };
        assert_eq!(d.default_action(), Some(Action::Drop));
        assert!(d.allows(Action::ToPort(1)));
        assert!(!d.allows(Action::ToPort(2)));
    }

    #[test]
    fn action_display() {
        assert_eq!(
            Action::ToService(ServiceId::new(2)).to_string(),
            "output:svc-2"
        );
        assert_eq!(Action::ToPort(1).to_string(), "output:eth1");
        assert_eq!(Action::Drop.to_string(), "drop");
        assert_eq!(Action::ToController.to_string(), "controller");
        assert_eq!(Action::Trace.to_string(), "trace");
        assert_eq!(RuleId(3).to_string(), "rule-3");
    }

    #[test]
    fn timeout_builders_set_expiry() {
        let rule = FlowRule::new(FlowMatch::any(), vec![Action::Drop])
            .with_idle_timeout_ns(Some(5))
            .with_hard_timeout_ns(Some(9));
        assert_eq!(rule.idle_timeout_ns, Some(5));
        assert_eq!(rule.hard_timeout_ns, Some(9));
        assert!(rule.has_timeout());
        assert!(!FlowRule::new(FlowMatch::any(), vec![]).has_timeout());
    }

    #[test]
    fn empty_rule_has_no_default() {
        let rule = FlowRule::new(FlowMatch::any(), vec![]);
        assert_eq!(rule.default_action(), None);
    }
}
