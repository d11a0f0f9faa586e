//! Per-thread caching of flow-table lookup results (paper §4.2 "Caching
//! flow table lookups").
//!
//! Extracting match fields and walking the rule table at every hop of a long
//! service chain is wasteful; the paper caches lookup results so the TX
//! thread can avoid repeated hash lookups. Here the cache is a **two-way
//! set-associative array**: the flow hash computed once at admission, mixed
//! with the step, indexes one set of two slots, and a slot holds the full
//! `(flow, step)` it was filled for plus the [`Decision`] — a hit is an
//! index and a compare or two, never a second hash — and never a copy: a
//! lookup answers with a *borrow* of the slot's decision, and a miss moves
//! the table's answer into a slot, so the action list's reference count is
//! touched once per fill, not twice per packet. A slot answers only for
//! exactly that flow and step (a hash collision is never another flow's
//! decision), and is tagged with the generation of the flow's partition of
//! the table ([`SharedFlowTable::generation_for`]), so a rule change that
//! can move this flow's answer invalidates the entry and an exact pin for
//! another partition's flow leaves it alone. Two flows that collide sit
//! side by side; a third takes the place of an empty way, else of
//! whichever was used longer ago, where one slot per hash had every
//! colliding pair evict each other on every packet. (The two ways' tags
//! may be different partitions' generations, so neither can be judged dead
//! by comparing them with the incoming flow's.)
//!
//! **One entry per step where the answer ignores the flow.** Most lookups
//! land on a service graph's per-step default rules, whose answer is the
//! same for every flow; the table says so ([`Decision::any_flow`]). The
//! lookup path keeps such an answer, when its rule is permanent, in the
//! step's *memo* — one decision and one tag per generation partition — not
//! in a per-flow way, and checks the memo first: a flow whose partition's
//! tag is that partition's current generation is answered from it, even a
//! flow the cache has never seen. That is still one atomic load per lookup.
//! Why it is sound: a flow's answer can move only by a wildcard or default
//! change, which moves all 64 partitions, or by a change to the flow's own
//! exact rule, which moves its partition. So while a partition stays at the
//! generation read before the lookup that produced the memo's decision,
//! that decision is every one of its flows' answer. A different decision
//! replaces the memo's and drops every tag, since they vouched for the old
//! one. A timed rule's decision never enters a memo: its timer can change
//! the answer with no generation moving. The public [`LookupCache::put`] /
//! [`LookupCache::get`] pair is per-flow only and never touches a memo.
//!
//! **Expiry only where a timer exists.** A rule with an idle timeout, served
//! forever from the cache, would never touch the table and would idle out
//! despite carrying traffic; one with a hard timeout would outlive it. So
//! the decision of a *timed* rule ([`Decision::timed`]) carries its
//! insertion time and honours a TTL (half the rule-sweep interval in the
//! threaded host), which forces a periodic fall-through to the table that
//! refreshes the winning rule's idle timer. A permanent rule has no timer
//! to refresh: its decision is served until its partition's generation
//! moves. A TTL of zero disables expiry for every entry.

use sdnfv_flowtable::{
    generation_partition, Decision, RulePort, SharedFlowTable, GENERATION_PARTITIONS,
};
use sdnfv_proto::flow::FlowKey;

/// Slots in each shard worker's [`LookupCache`].
pub(crate) const LOOKUP_CACHE_ENTRIES: usize = 4096;

/// The cached-lookup protocol: consult `cache` (tagged with the generation
/// of the flow's table partition; a timed rule's entry expired after
/// `ttl_ns`), fall back to the table, and remember the result. This
/// by-value form (one clone of the decision) is for callers outside the
/// engine, which answers through [`cached_lookup_hashed`].
pub fn cached_lookup(
    table: &SharedFlowTable,
    cache: &mut LookupCache,
    step: RulePort,
    key: &FlowKey,
    now_ns: u64,
    ttl_ns: u64,
) -> Option<Decision> {
    cached_lookup_hashed(table, cache, key.stable_hash(), step, key, now_ns, ttl_ns).cloned()
}

/// [`cached_lookup`] for a caller that already holds `key.stable_hash()`
/// (the shard worker: the hash rides the packet from admission). Answers
/// with a borrow of the memo or slot that hit or was just filled.
pub(crate) fn cached_lookup_hashed<'c>(
    table: &SharedFlowTable,
    cache: &'c mut LookupCache,
    hash: u64,
    step: RulePort,
    key: &FlowKey,
    now_ns: u64,
    ttl_ns: u64,
) -> Option<&'c Decision> {
    let generation = table.generation_for(hash);
    cache.lookup_with(hash, key, step, generation, now_ns, ttl_ns, || {
        table.lookup(step, key)
    })
}

/// One way of a set: the flow and step it answers for, the generation of
/// the flow's table partition and the time it was filled at, and the
/// decision.
#[derive(Debug)]
struct CacheSlot {
    key: FlowKey,
    step: RulePort,
    generation: u64,
    inserted_at_ns: u64,
    decision: Decision,
}

impl CacheSlot {
    /// Whether the TTL lets the slot answer at `now_ns`. Only a timed
    /// rule's decision ages: the fall-through exists to refresh an idle
    /// timer or meet a hard cutoff, and a permanent rule has neither.
    fn fresh(&self, now_ns: u64, ttl_ns: u64) -> bool {
        !self.decision.timed || ttl_ns == 0 || now_ns < self.inserted_at_ns.saturating_add(ttl_ns)
    }
}

/// A memo tag no partition generation equals.
const UNSEEN: u64 = u64::MAX;

/// A step's answer for every flow: a permanent [`Decision::any_flow`]
/// decision, and per generation partition the generation at which it was
/// the table's answer for a flow of that partition ([`UNSEEN`] if none).
#[derive(Debug)]
struct StepMemo {
    step: RulePort,
    decision: Decision,
    tags: [u64; GENERATION_PARTITIONS],
}

/// Ways per set.
const WAYS: usize = 2;

/// A two-way set-associative, generation-checked cache of flow-table
/// decisions, with a TTL on the decisions of rules that can expire, and one
/// memo per step for the answers that hold for every flow.
#[derive(Debug)]
pub struct LookupCache {
    /// The ways, a set's side by side: set `s` is `slots[2s..2s + 2]` (an
    /// odd capacity leaves the last set one way).
    slots: Box<[Option<CacheSlot>]>,
    /// Per set, which of its ways hit or was filled last; the other one is
    /// the way a fill may take over.
    recent: Box<[u8]>,
    /// At most one per step the lookup path has memoized an answer for.
    memos: Vec<StepMemo>,
    /// Occupied slots.
    live: usize,
    hits: u64,
    memo_hits: u64,
    misses: u64,
}

impl LookupCache {
    /// Creates a cache of `capacity` slots (it never holds more per-flow
    /// decisions).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be non-zero");
        LookupCache {
            slots: (0..capacity).map(|_| None).collect(),
            recent: vec![0; capacity.div_ceil(WAYS)].into(),
            memos: Vec::new(),
            live: 0,
            hits: 0,
            memo_hits: 0,
            misses: 0,
        }
    }

    /// The slots of the set `(hash, step)` maps to: the step is folded into
    /// the flow hash, one multiply spreads the result over all 64 bits, and
    /// the high half of a widening multiply scales it to the set count (no
    /// division, any capacity).
    fn set_of(&self, hash: u64, step: RulePort) -> std::ops::Range<usize> {
        let step_bits = match step {
            RulePort::Nic(port) => u64::from(port),
            RulePort::Service(service) => 1 << 32 | u64::from(service.value()),
        };
        let mixed = (hash ^ step_bits.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_mul(0xd6e8_feb8_6659_fd93);
        let set = ((u128::from(mixed) * self.recent.len() as u128) >> 64) as usize;
        WAYS * set..(WAYS * set + WAYS).min(self.slots.len())
    }

    /// An empty stand-in with no slots, left in an engine's field while
    /// the real cache is taken out for a round (so that decisions borrowed
    /// from it can outlive calls on the engine). Never looked up.
    pub(crate) fn parked() -> Self {
        LookupCache {
            slots: Box::default(),
            recent: Box::default(),
            memos: Vec::new(),
            live: 0,
            hits: 0,
            memo_hits: 0,
            misses: 0,
        }
    }

    /// The lookup path: answers `(key, step)` from the step's memo, else
    /// from the flow's own way, else asks `table` for the flow table's
    /// answer and keeps it — in the step's memo if it holds for every flow
    /// and its rule is permanent, in a way of the flow's set otherwise.
    /// `hash` is `key.stable_hash()`; `generation` is the flow's partition
    /// generation ([`SharedFlowTable::generation_for`]), read *before*
    /// `table` runs, so a change that lands in between leaves the fill
    /// tagged with a generation that is already gone. A timed rule's way
    /// answers for `ttl_ns` after its fill at `now_ns` (`0` = no expiry).
    /// `None` if the cache missed and `table` has no answer.
    #[allow(clippy::too_many_arguments)]
    pub fn lookup_with(
        &mut self,
        hash: u64,
        key: &FlowKey,
        step: RulePort,
        generation: u64,
        now_ns: u64,
        ttl_ns: u64,
        table: impl FnOnce() -> Option<Decision>,
    ) -> Option<&Decision> {
        if let Some(memo) = self.probe_memo(hash, step, generation) {
            return Some(&self.memos[memo].decision);
        }
        let way = match self.probe(hash, key, step, generation, now_ns, ttl_ns) {
            Ok(hit) => hit,
            Err(missed) => {
                let decision = table()?;
                if decision.any_flow && !decision.timed {
                    let memo = self.memoize(hash, step, generation, decision);
                    return Some(&self.memos[memo].decision);
                }
                self.fill(missed, key, step, generation, now_ns, decision);
                missed
            }
        };
        self.decision_at(way)
    }

    /// The memo of `step`, if it answers for `hash`'s partition at
    /// `generation` (counted as a hit).
    #[inline]
    fn probe_memo(&mut self, hash: u64, step: RulePort, generation: u64) -> Option<usize> {
        let partition = generation_partition(hash);
        let memo = self
            .memos
            .iter()
            .position(|memo| memo.step == step && memo.tags[partition] == generation)?;
        self.hits += 1;
        self.memo_hits += 1;
        Some(memo)
    }

    /// Keeps `decision`, the table's answer for every flow at `step`, as
    /// seen at `generation` by a flow of `hash`'s partition, and returns
    /// its memo. A decision other than the memo's replaces it and drops
    /// every tag: they vouched for the old one.
    fn memoize(&mut self, hash: u64, step: RulePort, generation: u64, decision: Decision) -> usize {
        let memo = match self.memos.iter().position(|memo| memo.step == step) {
            Some(memo) => {
                let held = &mut self.memos[memo];
                if held.decision != decision {
                    held.decision = decision;
                    held.tags = [UNSEEN; GENERATION_PARTITIONS];
                }
                memo
            }
            None => {
                self.memos.push(StepMemo {
                    step,
                    decision,
                    tags: [UNSEEN; GENERATION_PARTITIONS],
                });
                self.memos.len() - 1
            }
        };
        self.memos[memo].tags[generation_partition(hash)] = generation;
        memo
    }

    /// Looks up a cached decision for `(key, step)` valid at `generation`
    /// (the flow's partition generation,
    /// [`SharedFlowTable::generation_for`]) and, if its rule can expire, no
    /// older than `ttl_ns` at `now_ns` (`ttl_ns == 0` = no expiry). Per-flow
    /// entries only: a step memo never answers here.
    pub fn get(
        &mut self,
        key: &FlowKey,
        step: RulePort,
        generation: u64,
        now_ns: u64,
        ttl_ns: u64,
    ) -> Option<&Decision> {
        self.get_hashed(key.stable_hash(), key, step, generation, now_ns, ttl_ns)
    }

    /// [`LookupCache::get`] with `key.stable_hash()` supplied by the caller.
    pub(crate) fn get_hashed(
        &mut self,
        hash: u64,
        key: &FlowKey,
        step: RulePort,
        generation: u64,
        now_ns: u64,
        ttl_ns: u64,
    ) -> Option<&Decision> {
        let hit = self
            .probe(hash, key, step, generation, now_ns, ttl_ns)
            .ok()?;
        self.decision_at(hit)
    }

    /// The slot of `set` that holds `(key, step)`, whatever generation and
    /// age the entry has: it is refilled where it sits, so a set never
    /// holds one `(key, step)` twice. Inlined, as `probe` is: left out of
    /// line the two calls cost a hit 2 ns.
    #[inline]
    fn holder(&self, set: std::ops::Range<usize>, key: &FlowKey, step: RulePort) -> Option<usize> {
        set.into_iter().find(|&index| {
            matches!(&self.slots[index], Some(slot) if slot.key == *key && slot.step == step)
        })
    }

    /// The slot of `set` a new flow's fill takes over: an empty way, failing
    /// that the less recently used one. A way's tag is its own flow's
    /// partition generation, not comparable with the new flow's.
    fn victim(&self, set: std::ops::Range<usize>) -> usize {
        // The other way of two; way 0 of a one-way set.
        let lru = usize::from(self.recent[set.start / WAYS] ^ 1) & (set.len() - 1);
        set.clone()
            .find(|&index| self.slots[index].is_none())
            .unwrap_or(set.start + lru)
    }

    /// Notes that slot `index` is its set's most recently used way (a store
    /// only when that changes: most hits are in the way that hit last).
    fn touch(&mut self, index: usize) {
        let (recent, way) = (&mut self.recent[index / WAYS], (index % WAYS) as u8);
        if *recent != way {
            *recent = way;
        }
    }

    /// Counts a hit or a miss for `(key, step)` and says which slot it was:
    /// `Ok` holds the answer, `Err` is where a fill belongs. Indices rather
    /// than borrows, so a caller can fill the missed slot and still answer
    /// with a borrow of it.
    #[inline]
    fn probe(
        &mut self,
        hash: u64,
        key: &FlowKey,
        step: RulePort,
        generation: u64,
        now_ns: u64,
        ttl_ns: u64,
    ) -> Result<usize, usize> {
        let set = self.set_of(hash, step);
        match self.holder(set.clone(), key, step) {
            Some(index)
                if self.slots[index].as_ref().is_some_and(|slot| {
                    slot.generation == generation && slot.fresh(now_ns, ttl_ns)
                }) =>
            {
                self.hits += 1;
                self.touch(index);
                Ok(index)
            }
            held => {
                self.misses += 1;
                Err(held.unwrap_or_else(|| self.victim(set)))
            }
        }
    }

    fn decision_at(&self, index: usize) -> Option<&Decision> {
        self.slots[index].as_ref().map(|slot| &slot.decision)
    }

    /// Stores a decision computed at `generation` at time `now_ns`.
    pub fn put(
        &mut self,
        key: &FlowKey,
        step: RulePort,
        generation: u64,
        now_ns: u64,
        decision: Decision,
    ) {
        self.put_hashed(key.stable_hash(), key, step, generation, now_ns, decision);
    }

    /// [`LookupCache::put`] with `key.stable_hash()` supplied by the caller.
    /// Replaces the flow's own entry, else an empty way of its set, else the
    /// set's less recently used flow.
    pub(crate) fn put_hashed(
        &mut self,
        hash: u64,
        key: &FlowKey,
        step: RulePort,
        generation: u64,
        now_ns: u64,
        decision: Decision,
    ) {
        let set = self.set_of(hash, step);
        let index = self
            .holder(set.clone(), key, step)
            .unwrap_or_else(|| self.victim(set));
        self.fill(index, key, step, generation, now_ns, decision);
    }

    /// Replaces whatever slot `index` held and makes it its set's most
    /// recently used way.
    fn fill(
        &mut self,
        index: usize,
        key: &FlowKey,
        step: RulePort,
        generation: u64,
        now_ns: u64,
        decision: Decision,
    ) {
        self.touch(index);
        let slot = &mut self.slots[index];
        if slot.is_none() {
            self.live += 1;
        }
        *slot = Some(CacheSlot {
            key: *key,
            step,
            generation,
            inserted_at_ns: now_ns,
            decision,
        });
    }

    /// Number of per-flow entries (step memos are not counted).
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` if the cache holds no per-flow entry.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Cache hits so far, step memos' included.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Of [`LookupCache::hits`], those a step memo answered.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnfv_flowtable::{Action, FlowMatch, FlowRule, RuleId, ServiceId};
    use sdnfv_proto::flow::IpProtocol;
    use std::net::Ipv4Addr;

    fn key(port: u16) -> FlowKey {
        FlowKey::new(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            port,
            80,
            IpProtocol::Tcp,
        )
    }

    fn decision(svc: u32) -> Decision {
        Decision {
            rule_id: RuleId(svc as u64),
            actions: vec![Action::ToService(ServiceId::new(svc))].into(),
            parallel: false,
            trace: false,
            timed: false,
            any_flow: false,
        }
    }

    /// The decision of a rule that carries a timeout.
    fn timed_decision(svc: u32) -> Decision {
        Decision {
            timed: true,
            ..decision(svc)
        }
    }

    #[test]
    fn hit_after_put_same_generation() {
        let mut cache = LookupCache::new(8);
        let step = RulePort::Nic(0);
        assert!(cache.get(&key(1), step, 0, 0, 0).is_none());
        cache.put(&key(1), step, 0, 0, decision(5));
        assert_eq!(cache.get(&key(1), step, 0, 0, 0), Some(&decision(5)));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn generation_change_invalidates() {
        let mut cache = LookupCache::new(8);
        let step = RulePort::Service(ServiceId::new(1));
        cache.put(&key(1), step, 3, 0, decision(5));
        assert!(cache.get(&key(1), step, 4, 0, 0).is_none());
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn ttl_expires_a_timed_rules_entries() {
        let mut cache = LookupCache::new(8);
        let step = RulePort::Nic(0);
        cache.put(&key(1), step, 0, 1_000, timed_decision(5));
        // Within the TTL the entry is served.
        assert!(cache.get(&key(1), step, 0, 1_400, 500).is_some());
        // Past insertion + TTL the entry misses (forcing a table touch that
        // refreshes the rule's idle timer).
        assert!(cache.get(&key(1), step, 0, 1_500, 500).is_none());
        // TTL 0 disables expiry entirely.
        assert!(cache.get(&key(1), step, 0, u64::MAX, 0).is_some());
    }

    #[test]
    fn only_a_timed_rule_sends_its_flow_back_to_the_table() {
        let table = SharedFlowTable::new();
        let step = RulePort::Nic(0);
        let rule =
            |port| FlowRule::new(FlowMatch::exact(step, &key(port)), vec![Action::ToPort(1)]);
        table.insert(rule(1));
        table.insert(rule(2).with_idle_timeout_ns(Some(1_000_000)));
        table.insert(rule(3).with_hard_timeout_ns(Some(1_000_000)));
        let mut cache = LookupCache::new(8);
        let (inserted, ttl) = (1_000, 500);
        // (flow, table lookups after the fill): the permanent rule's entry
        // is still served ten TTLs on, a timed rule's misses at its TTL.
        for (port, refetches) in [(1, 0), (2, 1), (3, 1)] {
            let before = table.stats().lookups;
            for now_ns in [inserted, inserted + ttl - 1, inserted + ttl] {
                assert!(cached_lookup(&table, &mut cache, step, &key(port), now_ns, ttl).is_some());
            }
            assert_eq!(table.stats().lookups - before, 1 + refetches, "flow {port}");
        }
        let before = table.stats().lookups;
        let late = inserted + 10 * ttl;
        assert!(cached_lookup(&table, &mut cache, step, &key(1), late, ttl).is_some());
        assert_eq!(table.stats().lookups, before);
    }

    /// Ports of two flows in one generation partition and one of a third
    /// flow in another: `(a, b, c)`.
    fn partition_mates() -> (u16, u16, u16) {
        let partition = |port: u16| generation_partition(key(port).stable_hash());
        let mate = (2..).find(|&port| partition(port) == partition(1)).unwrap();
        let other = (2..).find(|&port| partition(port) != partition(1)).unwrap();
        (1, mate, other)
    }

    /// A table with one permanent default rule, at `step`.
    fn forwarding_table(step: RulePort) -> SharedFlowTable {
        let table = SharedFlowTable::new();
        table.insert(FlowRule::new(
            FlowMatch::at_step(step),
            vec![Action::ToPort(1)],
        ));
        table
    }

    /// A cached lookup of flow `port`: the rule it answers with, and the
    /// table lookups and memo hits it took.
    fn counted(
        table: &SharedFlowTable,
        cache: &mut LookupCache,
        step: RulePort,
        port: u16,
    ) -> (Option<RuleId>, u64, u64) {
        let (lookups, memo_hits) = (table.stats().lookups, cache.memo_hits());
        let decision = cached_lookup(table, cache, step, &key(port), 0, 0);
        (
            decision.map(|d| d.rule_id),
            table.stats().lookups - lookups,
            cache.memo_hits() - memo_hits,
        )
    }

    #[test]
    fn a_memo_answers_unseen_flows_of_a_tagged_partition_only() {
        let step = RulePort::Nic(0);
        let table = forwarding_table(step);
        let mut cache = LookupCache::new(64);
        let (a, mate, other) = partition_mates();
        let (forward, ..) = counted(&table, &mut cache, step, a);
        assert!(cache.is_empty(), "the answer went to the step's memo");
        assert_eq!(
            counted(&table, &mut cache, step, mate),
            (forward, 0, 1),
            "a flow never seen, in the tagged partition"
        );
        assert_eq!(
            counted(&table, &mut cache, step, other),
            (forward, 1, 0),
            "an untagged partition asks the table"
        );
        assert_eq!(counted(&table, &mut cache, step, other), (forward, 0, 1));
        assert!(cache.is_empty());
    }

    #[test]
    fn a_pin_invalidates_its_own_flow_not_another_partitions() {
        let step = RulePort::Nic(0);
        let table = forwarding_table(step);
        let mut cache = LookupCache::new(64);
        let (pinned, mate, other) = partition_mates();
        let (wildcard, ..) = counted(&table, &mut cache, step, pinned);
        assert_eq!(counted(&table, &mut cache, step, other), (wildcard, 1, 0));
        let pin = table.insert(FlowRule::new(
            FlowMatch::exact(step, &key(pinned)),
            vec![Action::ToPort(2)],
        ));
        assert_eq!(
            counted(&table, &mut cache, step, other),
            (wildcard, 0, 1),
            "another partition's memo tag holds"
        );
        assert_eq!(
            counted(&table, &mut cache, step, pinned),
            (Some(pin), 1, 0),
            "the pinned flow misses"
        );
        // So does its partition mate; while the step has an exact rule,
        // its answers are kept per flow.
        assert_eq!(counted(&table, &mut cache, step, mate), (wildcard, 1, 0));
        assert_eq!(counted(&table, &mut cache, step, mate), (wildcard, 0, 0));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn a_timed_answer_for_every_flow_goes_to_a_per_flow_way() {
        let step = RulePort::Nic(0);
        let table = SharedFlowTable::new();
        table.insert(
            FlowRule::new(FlowMatch::at_step(step), vec![Action::ToPort(1)])
                .with_idle_timeout_ns(Some(1_000_000)),
        );
        let mut cache = LookupCache::new(8);
        let decision = cached_lookup(&table, &mut cache, step, &key(1), 0, 0).unwrap();
        assert!(decision.any_flow && decision.timed);
        assert!(cache.memos.is_empty());
        assert_eq!(cache.len(), 1);
        assert_eq!(
            counted(&table, &mut cache, step, 2),
            (Some(decision.rule_id), 1, 0)
        );
    }

    #[test]
    fn put_never_fills_a_memo() {
        let step = RulePort::Nic(0);
        let mut cache = LookupCache::new(8);
        let every_flow = Decision {
            any_flow: true,
            ..decision(5)
        };
        cache.put(&key(1), step, 0, 0, every_flow);
        assert!(cache.memos.is_empty());
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key(2), step, 0, 0, 0).is_none());
    }

    #[test]
    fn one_memo_per_step_and_a_new_answer_drops_its_tags() {
        let table = SharedFlowTable::new();
        let steps = [1, 2, 3].map(|id| RulePort::Service(ServiceId::new(id)));
        for step in steps {
            table.insert(FlowRule::new(
                FlowMatch::at_step(step),
                vec![Action::ToPort(1), Action::ToPort(2)],
            ));
        }
        let mut cache = LookupCache::new(8);
        for port in 0..200 {
            for step in steps {
                cached_lookup(&table, &mut cache, step, &key(port), 0, 0);
            }
        }
        assert_eq!(cache.memos.len(), steps.len());
        let tagged = |cache: &LookupCache| {
            cache.memos[0]
                .tags
                .iter()
                .filter(|&&tag| tag != UNSEEN)
                .count()
        };
        assert!(tagged(&cache) > 1);
        // A default change moves every partition; the next answer at the
        // step is a different decision, which keeps only its own tag.
        let changed = table.with_write(|t| {
            t.change_default(
                ServiceId::new(1),
                &FlowMatch::any(),
                Action::ToPort(2),
                false,
            )
        });
        assert_eq!(changed, 1);
        let answer = cached_lookup(&table, &mut cache, steps[0], &key(0), 0, 0);
        assert_eq!(answer.unwrap().default_action(), Some(Action::ToPort(2)));
        assert_eq!(cache.memos.len(), steps.len());
        assert_eq!(tagged(&cache), 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn different_steps_are_distinct_entries() {
        let mut cache = LookupCache::new(8);
        cache.put(&key(1), RulePort::Nic(0), 0, 0, decision(1));
        cache.put(
            &key(1),
            RulePort::Service(ServiceId::new(1)),
            0,
            0,
            decision(2),
        );
        assert_eq!(
            cache.get(&key(1), RulePort::Nic(0), 0, 0, 0),
            Some(&decision(1))
        );
        assert_eq!(
            cache.get(&key(1), RulePort::Service(ServiceId::new(1)), 0, 0, 0),
            Some(&decision(2))
        );
    }

    #[test]
    fn never_holds_more_than_its_slot_count() {
        for slots in [1, 4, 5] {
            let mut cache = LookupCache::new(slots);
            for port in 0..200 {
                cache.put(&key(port), RulePort::Nic(0), 0, 0, decision(1));
                assert!(cache.len() <= slots);
            }
            assert_eq!(cache.len(), slots, "200 flows fill {slots} slots");
        }
    }

    #[test]
    fn colliding_flows_never_answer_for_each_other() {
        // Three distinct flows forced onto one 64-bit hash share a set of
        // two ways; the stored key is what tells them apart, and the way
        // used longest ago is the one that makes room.
        let (flows, hash) = ([key(1), key(2), key(3)], 0xdead_beef);
        let step = RulePort::Nic(0);
        let mut cache = LookupCache::new(8);
        let get = |cache: &mut LookupCache, flow: usize| {
            cache.get_hashed(hash, &flows[flow], step, 0, 0, 0).cloned()
        };
        cache.put_hashed(hash, &flows[0], step, 0, 0, decision(1));
        assert_eq!(get(&mut cache, 0), Some(decision(1)));
        assert_eq!(
            get(&mut cache, 1),
            None,
            "the second flow must not be steered by the first flow's decision"
        );
        cache.put_hashed(hash, &flows[1], step, 0, 0, decision(2));
        assert_eq!(get(&mut cache, 1), Some(decision(2)));
        // Using the first flow again makes the second the one to go.
        assert_eq!(get(&mut cache, 0), Some(decision(1)));
        assert_eq!(get(&mut cache, 2), None);
        cache.put_hashed(hash, &flows[2], step, 0, 0, decision(3));
        assert_eq!(get(&mut cache, 0), Some(decision(1)));
        assert_eq!(get(&mut cache, 2), Some(decision(3)));
        assert_eq!(get(&mut cache, 1), None, "the least recently used way");
        assert_eq!(cache.len(), 2, "one set, both ways");
        // A tag is its own flow's partition generation: a way whose tag is
        // not the incoming flow's generation may be another partition's live
        // entry, so the less recently used way goes, not the first one with
        // a different tag — even when the way used last holds one.
        assert_eq!(get(&mut cache, 0), Some(decision(1)));
        cache.put_hashed(hash, &flows[1], step, 5, 0, decision(5));
        assert_eq!(get(&mut cache, 0), Some(decision(1)), "the way used last");
        assert_eq!(
            cache.get_hashed(hash, &flows[1], step, 5, 0, 0),
            Some(&decision(5))
        );
        assert_eq!(get(&mut cache, 2), None);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = LookupCache::new(0);
    }
}
