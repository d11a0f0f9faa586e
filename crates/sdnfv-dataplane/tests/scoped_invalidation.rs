//! Differential test: scoped invalidation never serves a stale decision.
//!
//! A `SharedFlowTable` publishes only the generation partitions a write
//! was scoped to — an exact rule's own key's, or all 64 for anything else —
//! and a `LookupCache` entry is tagged with its flow's partition. A seeded
//! random schedule of table changes (exact inserts, replaces and removes;
//! wildcard inserts and removes; `change_default` / `retarget_defaults` /
//! `promote_where_allowed` through `with_write`; `ChangeDefault` messages
//! accepted and rejected; idle- and hard-timed rules under an advancing
//! clock and `sweep_expired`, the one eviction) is interleaved with cached
//! lookups over a small key × step space: four partitions of two flows
//! each, at three steps, and a cache of one to 32 slots, so partitions and
//! cache sets collide. Every cached answer must be the table's own answer at that
//! instant (rule id and actions), with one allowance kept from before:
//! a timed rule's entry may outlive the rule's hard deadline by up to the
//! cache TTL, the fall-through that exists for timed rules. A write that
//! changed nothing — a rejected message, a clock move, removing a rule that
//! is gone — must move no generation, and neither may a lookup, which
//! skips an expired rule and leaves it to the sweep.
//!
//! Answers that hold for every flow (`Decision::any_flow`) are kept once
//! per step, in a memo tagged per partition, so the schedule also makes
//! steps gain and lose their last exact rule, and puts a key-dependent
//! shape above a step's other rules and takes it away again; answers the
//! memos served are counted and must be common. At this writing the test
//! catches an `any_flow` that ignores the step's exact rules (seed 0 op
//! 258: a flow pinned at ingress is answered with the step's default from
//! the memo) and a memo that keeps its first decision (seed 0 op 8: after
//! a default change at a service step the memo answers with the old action
//! list). A memo that keeps its tags when a new decision replaces its own
//! passes all 256 seeds, as it must: every change of a step's any-flow
//! answer moves all 64 partitions, so no kept tag can match again.

use sdnfv_dataplane::cache::cached_lookup;
use sdnfv_dataplane::messages::{apply_nf_message, PinTimeouts};
use sdnfv_dataplane::{AppliedChange, LookupCache};
use sdnfv_flowtable::{
    generation_partition, Action, FlowMatch, FlowRule, RuleId, RulePort, ServiceId, SharedFlowTable,
};
use sdnfv_nf::NfMessage;
use sdnfv_proto::flow::{FlowKey, IpProtocol};
use std::collections::HashMap;
use std::net::Ipv4Addr;

const SEEDS: u64 = 256;
const OPS_PER_SEED: usize = 500;
const TTL_NS: u64 = 3;
/// Idle timeouts are never shorter than the TTL, so a cached entry of an
/// idle-timed rule cannot outlive the rule (its fill refreshed the timer).
const MIN_IDLE_NS: u64 = TTL_NS;

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

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

fn flow(src_port: u16) -> FlowKey {
    FlowKey::new(
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 2),
        src_port,
        80,
        IpProtocol::Tcp,
    )
}

/// Eight flows, two in each of four generation partitions (the top six
/// bits of the flow hash).
fn flows() -> Vec<FlowKey> {
    let mut by_partition: HashMap<usize, Vec<FlowKey>> = HashMap::new();
    let mut picked: Vec<FlowKey> = Vec::new();
    for port in 1000.. {
        let key = flow(port);
        let mates = by_partition
            .entry(generation_partition(key.stable_hash()))
            .or_default();
        mates.push(key);
        if mates.len() == 2 {
            picked.extend(mates.iter().copied());
            if picked.len() == 8 {
                return picked;
            }
        }
    }
    unreachable!("the port range holds four partitions with two flows each")
}

fn svc(id: u32) -> ServiceId {
    ServiceId::new(id)
}

const STEPS: [RulePort; 3] = [
    RulePort::Nic(0),
    RulePort::Service(ServiceId::new(1)),
    RulePort::Service(ServiceId::new(2)),
];
const SERVICES: [u32; 3] = [1, 2, 3];
const ACTIONS: [Action; 5] = [
    Action::ToService(ServiceId::new(1)),
    Action::ToService(ServiceId::new(2)),
    Action::ToService(ServiceId::new(3)),
    Action::ToPort(1),
    Action::Drop,
];

fn actions(rng: &mut SplitMix64) -> Vec<Action> {
    let mut list: Vec<Action> = (0..1 + rng.below(3)).map(|_| rng.pick(&ACTIONS)).collect();
    list.dedup();
    list
}

/// A random filter: everything, one flow's source port, or one exact flow.
fn flows_filter(rng: &mut SplitMix64, keys: &[FlowKey]) -> FlowMatch {
    let key = rng.pick(keys);
    match rng.below(3) {
        0 => FlowMatch::any(),
        1 => FlowMatch::any().with_src_port(key.src_port),
        _ => FlowMatch::exact(rng.pick(&STEPS), &key),
    }
}

/// What the schedule keeps of the rules it installed itself.
#[derive(Default)]
struct Installed {
    exact: Vec<RuleId>,
    wildcard: Vec<RuleId>,
    /// Hard deadline per hard-timed rule.
    hard_deadline: HashMap<RuleId, u64>,
}

impl Installed {
    /// Inserts `rule`, timed at random, at the table clock `now_ns`.
    fn insert(
        &mut self,
        table: &SharedFlowTable,
        rng: &mut SplitMix64,
        rule: FlowRule,
        now_ns: u64,
    ) {
        let rule = match rng.below(4) {
            0 => rule.with_idle_timeout_ns(Some(MIN_IDLE_NS + rng.below(4))),
            1 => rule.with_hard_timeout_ns(Some(1 + rng.below(8))),
            _ => rule,
        };
        let hard = rule.hard_timeout_ns;
        let exact = rule.matcher.exact_key().is_some();
        let id = table.insert(rule);
        if let Some(hard) = hard {
            self.hard_deadline.insert(id, now_ns + hard);
        }
        if exact {
            self.exact.push(id);
        } else {
            self.wildcard.push(id);
        }
    }
}

#[test]
fn every_cached_answer_is_the_tables_answer_at_that_instant() {
    let keys = flows();
    let (mut checked, mut hits, mut scoped_hits, mut silent_writes) = (0u64, 0u64, 0u64, 0u64);
    let mut memo_answers = 0u64;
    for seed in 0..SEEDS {
        let mut rng = SplitMix64(seed);
        let table = SharedFlowTable::new();
        table.insert(FlowRule::new(
            FlowMatch::at_step(STEPS[0]),
            vec![Action::ToService(svc(1)), Action::ToPort(1)],
        ));
        table.insert(FlowRule::new(
            FlowMatch::at_step(STEPS[1]),
            vec![
                Action::ToService(svc(2)),
                Action::ToService(svc(3)),
                Action::ToPort(1),
            ],
        ));
        table.insert(FlowRule::new(
            FlowMatch::at_step(STEPS[2]),
            vec![Action::ToPort(1), Action::ToService(svc(3))],
        ));
        let capacity = 1 + rng.below(32) as usize;
        let mut cache = LookupCache::new(capacity);
        let mut installed = Installed::default();
        // Per step, the key-dependent shape above its other rules, if up.
        let mut guards: HashMap<RulePort, RuleId> = HashMap::new();
        let mut now_ns = 0u64;
        // `generation()` — the sum over partitions — when each entry was filled.
        let mut filled_at: HashMap<(FlowKey, RulePort), u64> = HashMap::new();
        for op in 0..OPS_PER_SEED {
            let context = format!("seed {seed} op {op} capacity {capacity} now {now_ns}");
            let key = rng.pick(&keys);
            let step = rng.pick(&STEPS);
            // A write that must not move any generation.
            let mut silent = |write: &dyn Fn(&SharedFlowTable) -> bool| {
                let before = table.generation();
                if write(&table) {
                    assert_eq!(
                        table.generation(),
                        before,
                        "{context}: a no-op write published"
                    );
                    silent_writes += 1;
                }
            };
            // Mostly lookups and per-flow changes: a bulk or wildcard change
            // flushes every partition, and the hits in between are what
            // scoping could get wrong.
            match rng.below(84) {
                0..=55 => {
                    let reference = table.with_read(|t| t.clone().lookup(step, &key));
                    let (hits_before, memo_before) = (cache.hits(), cache.memo_hits());
                    let generation = table.generation();
                    let got = cached_lookup(&table, &mut cache, step, &key, now_ns, TTL_NS);
                    assert_eq!(
                        table.generation(),
                        generation,
                        "{context}: a lookup published"
                    );
                    if cache.hits() > hits_before {
                        hits += 1;
                        if cache.memo_hits() > memo_before {
                            memo_answers += 1;
                        } else if filled_at.get(&(key, step)) != Some(&table.generation()) {
                            // Some partition moved since the fill: a hit
                            // the one-generation table would have flushed.
                            scoped_hits += 1;
                        }
                    } else {
                        filled_at.insert((key, step), table.generation());
                    }
                    checked += 1;
                    match (&got, &reference) {
                        (None, None) => {}
                        (Some(got), Some(reference))
                            if got.rule_id == reference.rule_id
                                && got.actions == reference.actions => {}
                        // The TTL fall-through: a timed rule's entry may
                        // outlive its hard deadline by less than the TTL.
                        (Some(got), _)
                            if got.timed
                                && installed
                                    .hard_deadline
                                    .get(&got.rule_id)
                                    .is_some_and(|&deadline| now_ns >= deadline) => {}
                        _ => panic!(
                            "{context}: {key:?} at {step}: cached {got:?}, table {reference:?}"
                        ),
                    }
                }
                56..=61 => {
                    // A new exact rule, or the replacement of one.
                    let rule = FlowRule::new(FlowMatch::exact(step, &key), actions(&mut rng))
                        .with_priority(rng.below(3) as u16);
                    installed.insert(&table, &mut rng, rule, now_ns);
                }
                62..=64 if !installed.exact.is_empty() => {
                    let id = rng.pick(&installed.exact);
                    // Replaced or evicted already: then nothing changes.
                    silent(&|table| table.remove(id).is_none());
                }
                65 => {
                    let matcher = match rng.below(3) {
                        0 => FlowMatch::at_step(step),
                        1 => FlowMatch::at_step(step).with_src_port(key.src_port),
                        _ => FlowMatch::any().with_src_port(key.src_port),
                    };
                    let rule = FlowRule::new(matcher, actions(&mut rng))
                        .with_priority(rng.below(3) as u16);
                    installed.insert(&table, &mut rng, rule, now_ns);
                }
                66 if !installed.wildcard.is_empty() => {
                    let id = rng.pick(&installed.wildcard);
                    silent(&|table| table.remove(id).is_none());
                }
                67 => {
                    let (service, flows) =
                        (svc(rng.pick(&SERVICES)), flows_filter(&mut rng, &keys));
                    let (action, force) = (rng.pick(&ACTIONS), rng.below(2) == 0);
                    silent(&|table| {
                        table.with_write(|t| t.change_default(service, &flows, action, force)) == 0
                    });
                }
                68 => {
                    let (service, flows) =
                        (svc(rng.pick(&SERVICES)), flows_filter(&mut rng, &keys));
                    let action = rng.pick(&ACTIONS);
                    silent(&|table| {
                        table.with_write(|t| t.retarget_defaults(service, &flows, action)) == 0
                    });
                }
                69 => {
                    let (flows, action) = (flows_filter(&mut rng, &keys), rng.pick(&ACTIONS));
                    silent(&|table| {
                        table.with_write(|t| t.promote_where_allowed(&flows, action)) == 0
                    });
                }
                70..=73 => {
                    // An NF's per-flow ChangeDefault: a pin with an idle
                    // timeout where the step's rule allows the next hop,
                    // rejected (no change at all) where it does not.
                    let service = svc(rng.pick(&SERVICES));
                    let message = NfMessage::ChangeDefault {
                        flows: FlowMatch::exact(service, &key),
                        service,
                        new_default: rng.pick(&ACTIONS),
                    };
                    let timeouts = PinTimeouts {
                        idle_ns: Some(MIN_IDLE_NS + rng.below(4)),
                        hard_ns: None,
                    };
                    silent(&|table| {
                        let (change, _) = table.with_write(|t| {
                            apply_nf_message(t, service, &message, false, timeouts)
                        });
                        change == AppliedChange::RulesUpdated(0)
                    });
                }
                74..=77 => {
                    now_ns += 1 + rng.below(3);
                    silent(&|table| {
                        table.with_write(|t| t.advance_clock(now_ns));
                        true
                    });
                }
                78..=79 => {
                    let max = 1 + rng.below(3) as usize;
                    table.sweep_expired(now_ns, max, |_| false);
                }
                80..=81 => {
                    // The step loses its last exact rule: its answers can
                    // hold for every flow again.
                    let pins: Vec<RuleId> = table.with_read(|t| {
                        t.exact_rules()
                            .filter(|&(_, (at, _), _)| at == step)
                            .map(|(id, ..)| id)
                            .collect()
                    });
                    for id in pins {
                        table.remove(id);
                    }
                }
                _ => {
                    // A shape that looks at the source port, above every
                    // other rule of the step, comes or goes: while it is
                    // there, no answer at the step holds for every flow.
                    match guards.remove(&step) {
                        Some(id) => {
                            table.remove(id);
                        }
                        None => {
                            let matcher = FlowMatch::at_step(step).with_src_port(key.src_port);
                            let rule = FlowRule::new(matcher, actions(&mut rng)).with_priority(5);
                            guards.insert(step, table.insert(rule));
                        }
                    }
                }
            }
        }
    }
    // Dense enough that hits are what gets checked — above all the memos'
    // answers and per-flow hits across a change in another partition, the
    // answers scoping could get wrong — and that silent writes are common.
    // (At this writing: 16 961 hits of 85 346 lookups, 4 100 of them from a
    // memo and 5 386 per-flow across another partition's change, and
    // 15 757 silent writes.)
    assert!(
        hits > 40 * SEEDS && scoped_hits > 15 * SEEDS && memo_answers > 10 * SEEDS,
        "{hits} hits ({memo_answers} from a memo, {scoped_hits} per-flow across another \
         partition's change) of {checked} lookups"
    );
    assert!(silent_writes > 40 * SEEDS, "{silent_writes} silent writes");
}
