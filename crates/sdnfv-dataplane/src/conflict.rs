//! Resolution of conflicting verdicts from parallel NFs (paper §4.2).

use sdnfv_flowtable::{Action, Decision, ServiceId};
use sdnfv_nf::Verdict;
use sdnfv_proto::packet::Port;
use sdnfv_ring::{verdict_key, verdict_parts, VerdictClass};

/// Resolves the verdicts requested by NFs that processed the same packet in
/// parallel into the single action the TX thread will perform.
///
/// The paper resolves conflicts by prioritizing actions: *drop* is most
/// important, then explicit transmit/steer requests, and finally the default
/// path. When several NFs request different explicit destinations the one
/// from the earliest NF in the action list (the first element of `verdicts`)
/// wins, mirroring a per-VM priority scheme.
pub fn resolve_parallel_verdicts(verdicts: &[Verdict]) -> Verdict {
    if verdicts.iter().any(|v| matches!(v, Verdict::Discard)) {
        return Verdict::Discard;
    }
    if let Some(v) = verdicts.iter().find(|v| matches!(v, Verdict::ToPort(_))) {
        return *v;
    }
    if let Some(v) = verdicts.iter().find(|v| matches!(v, Verdict::ToService(_))) {
        return *v;
    }
    Verdict::Default
}

/// The descriptor key the NF at `position` of the dispatched action list
/// merges for `verdict` ([`sdnfv_ring::SharedPacket::merge_verdict`]). The
/// key order is [`resolve_parallel_verdicts`]' priority order, so the
/// maximum over a packet's NFs decodes ([`verdict_from_word`]) to exactly
/// what that function returns for the list-ordered verdicts.
pub(crate) fn verdict_to_key(verdict: Verdict, position: u16) -> u64 {
    match verdict {
        Verdict::Default => verdict_key(VerdictClass::Default, position, 0),
        Verdict::Discard => verdict_key(VerdictClass::Discard, position, 0),
        Verdict::ToService(service) => {
            verdict_key(VerdictClass::ToService, position, service.value())
        }
        Verdict::ToPort(port) => verdict_key(VerdictClass::ToPort, position, u32::from(port)),
    }
}

/// Decodes a descriptor's merged verdict word.
pub(crate) fn verdict_from_word(word: u64) -> Verdict {
    match verdict_parts(word) {
        (VerdictClass::Default, _) => Verdict::Default,
        (VerdictClass::Discard, _) => Verdict::Discard,
        (VerdictClass::ToService, service) => Verdict::ToService(ServiceId::new(service)),
        // Only `verdict_to_key` builds ToPort keys, from a `Port`.
        (VerdictClass::ToPort, port) => Verdict::ToPort(port as Port),
    }
}

/// Validates an NF's explicit steering request (`ToPort` / `ToService`)
/// against the rule at the NF's own step, so an NF can never steer where
/// the service graph did not allow.
///
/// A request the rule allows is honoured; a disallowed one falls back to
/// the rule's default action (or drop if there is none). With no rule at
/// the step the request cannot be checked, so it is punted to the
/// controller — except a drop, which is always honoured.
pub(crate) fn validate_steering(decision: Option<&Decision>, requested: Action) -> Action {
    match decision {
        Some(decision) if decision.allows(requested) => requested,
        Some(decision) => decision.default_action().unwrap_or(Action::Drop),
        None if requested == Action::Drop => Action::Drop,
        None => Action::ToController,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_wins_over_everything() {
        assert_eq!(
            resolve_parallel_verdicts(&[
                Verdict::ToPort(1),
                Verdict::Discard,
                Verdict::ToService(ServiceId::new(2)),
            ]),
            Verdict::Discard
        );
    }

    #[test]
    fn transmit_beats_steer_and_default() {
        assert_eq!(
            resolve_parallel_verdicts(&[
                Verdict::Default,
                Verdict::ToService(ServiceId::new(2)),
                Verdict::ToPort(3),
            ]),
            Verdict::ToPort(3)
        );
    }

    #[test]
    fn steer_beats_default_and_first_wins_ties() {
        assert_eq!(
            resolve_parallel_verdicts(&[
                Verdict::Default,
                Verdict::ToService(ServiceId::new(7)),
                Verdict::ToService(ServiceId::new(9)),
            ]),
            Verdict::ToService(ServiceId::new(7))
        );
    }

    #[test]
    fn merged_descriptor_word_equals_the_resolver_for_every_list_and_order() {
        let alphabet = [
            Verdict::Default,
            Verdict::Discard,
            Verdict::ToPort(1),
            Verdict::ToPort(2),
            Verdict::ToService(ServiceId::new(7)),
            Verdict::ToService(ServiceId::new(u32::MAX)),
        ];
        let orders: [[usize; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for a in alphabet {
            for b in alphabet {
                for c in alphabet {
                    let list = [a, b, c];
                    let expected = resolve_parallel_verdicts(&list);
                    for order in orders {
                        // `fetch_max` in completion order `order`.
                        let word = order.iter().fold(0u64, |word, &position| {
                            word.max(verdict_to_key(list[position], position as u16))
                        });
                        assert_eq!(verdict_from_word(word), expected, "{list:?} via {order:?}");
                    }
                }
            }
        }
        assert_eq!(verdict_from_word(0), resolve_parallel_verdicts(&[]));
    }

    #[test]
    fn all_defaults_stay_default() {
        assert_eq!(
            resolve_parallel_verdicts(&[Verdict::Default, Verdict::Default]),
            Verdict::Default
        );
        assert_eq!(resolve_parallel_verdicts(&[]), Verdict::Default);
    }
}
