//! Differential test: a `LookupCache` hit is the last decision put.
//!
//! A seeded random schedule of `get`s and `put`s over a small
//! key × step × generation × time space — small, so flows share sets and
//! generations and clocks repeat and run backwards — is applied to a
//! [`LookupCache`] and to a reference that remembers, per `(key, step)`,
//! the last decision put and when. The cache may forget (that is what a
//! cache does); what it answers must be exactly the reference's entry, put
//! at the generation asked for and, if its rule is timed, still inside the
//! TTL. A `put` followed at once by its own `get` must hit.

use sdnfv_dataplane::LookupCache;
use sdnfv_flowtable::{Action, Decision, RuleId, RulePort, ServiceId};
use sdnfv_proto::flow::{FlowKey, IpProtocol};
use std::collections::HashMap;
use std::net::Ipv4Addr;

const SEEDS: u64 = 256;
const OPS_PER_SEED: usize = 400;
const TTL_NS: u64 = 4;

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
}

fn key(rng: &mut SplitMix64) -> FlowKey {
    FlowKey::new(
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 2),
        1000 + rng.below(5) as u16,
        80,
        IpProtocol::Udp,
    )
}

fn step(rng: &mut SplitMix64) -> RulePort {
    match rng.below(3) {
        0 => RulePort::Nic(0),
        n => RulePort::Service(ServiceId::new(n as u32)),
    }
}

/// What the reference keeps of a `put`.
struct Put {
    generation: u64,
    at_ns: u64,
    decision: Decision,
}

#[test]
fn a_hit_is_the_last_decision_put_for_that_flow_and_step() {
    let mut remembered = 0u64;
    for seed in 0..SEEDS {
        let mut rng = SplitMix64(seed);
        let capacity = 1 + rng.below(9) as usize;
        let mut cache = LookupCache::new(capacity);
        let mut reference: HashMap<(FlowKey, RulePort), Put> = HashMap::new();
        let mut gets = 0;
        for op in 0..OPS_PER_SEED {
            let (key, step) = (key(&mut rng), step(&mut rng));
            let (generation, now_ns) = (rng.below(2), rng.below(12));
            let ttl_ns = if rng.below(4) == 0 { 0 } else { TTL_NS };
            let context = format!("seed {seed} op {op} capacity {capacity}");
            if rng.below(3) == 0 {
                // Every put's decision is its own, so "the last one" is
                // distinguishable from any earlier one.
                let decision = Decision {
                    rule_id: RuleId(op as u64),
                    actions: vec![Action::ToPort(op as u16)].into(),
                    parallel: false,
                    trace: false,
                    timed: rng.below(2) == 0,
                    // A put is per flow whatever the decision says.
                    any_flow: op % 2 == 0,
                };
                cache.put(&key, step, generation, now_ns, decision.clone());
                gets += 1;
                assert_eq!(
                    cache.get(&key, step, generation, now_ns, ttl_ns),
                    Some(&decision),
                    "{context}: a put is there to be got"
                );
                reference.insert(
                    (key, step),
                    Put {
                        generation,
                        at_ns: now_ns,
                        decision,
                    },
                );
            } else {
                gets += 1;
                if let Some(got) = cache.get(&key, step, generation, now_ns, ttl_ns) {
                    remembered += 1;
                    let put = reference
                        .get(&(key, step))
                        .unwrap_or_else(|| panic!("{context}: hit on a flow never put"));
                    assert_eq!(*got, put.decision, "{context}: not the last put");
                    assert_eq!(generation, put.generation, "{context}: other generation");
                    assert!(
                        !got.timed || ttl_ns == 0 || now_ns < put.at_ns + ttl_ns,
                        "{context}: a timed decision outlived its TTL"
                    );
                }
            }
            assert!(cache.len() <= capacity, "{context}");
            assert_eq!(cache.hits() + cache.misses(), gets, "{context}");
        }
    }
    // The schedule is dense enough that the hit path is what gets checked.
    assert!(remembered > 30 * SEEDS, "{remembered} hits in all");
}
