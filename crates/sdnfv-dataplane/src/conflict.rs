//! Resolution of conflicting verdicts from parallel NFs (paper §4.2).

use sdnfv_flowtable::{Action, Decision};
use sdnfv_nf::Verdict;

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

/// Validates an NF's explicit steering request (`ToPort` / `ToService`)
/// against the rule at the NF's own step — the one definition both engines
/// use, so an NF can never steer where the service graph did not allow.
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
    use sdnfv_flowtable::ServiceId;

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
    fn all_defaults_stay_default() {
        assert_eq!(
            resolve_parallel_verdicts(&[Verdict::Default, Verdict::Default]),
            Verdict::Default
        );
        assert_eq!(resolve_parallel_verdicts(&[]), Verdict::Default);
    }
}
