//! The per-host flow table and its thread-safe wrapper.
//!
//! # Classifier layout
//!
//! Rules live in a **slab**: a `Vec` of slots with a free list, so a table
//! that churns rules at a steady population stays at steady memory. Every
//! index below stores a rule's slot, and a lookup reaches the entries it
//! inspects — for expiry, for priority, for the winner's actions — by
//! array index. A `RuleId → slot` map exists only for the id-addressed
//! control calls (`remove`, `rule`, `hit_count`). Slots are recycled, ids
//! never: whatever outlives a rule (a deadline-heap entry) names it by
//! both, and is dropped when the slot holds another id.
//!
//! Over the slab sit two kinds of index, matching how OpenFlow switches
//! split their TCAM from their exact-match tables:
//!
//! * **Exact index** — fully-specified `/32` five-tuple rules live in a
//!   hash map keyed by `(step, flow key)`: O(1) insert and remove, never
//!   touching the wildcard structure.
//! * **Per-step tuple spaces** — wildcard rules are first partitioned by
//!   the step they name (every compiled graph rule and every NF-installed
//!   rule names one; rules with `step: None` share one more partition),
//!   and within a partition grouped by *mask shape* (which 5-tuple fields
//!   are constrained, plus the two prefix lengths). Each shape owns a hash
//!   table keyed by the rule's masked tuple. A lookup packs the packet's
//!   5-tuple into one 128-bit word once; each shape carries that word's
//!   mask, so a probe is one AND, one two-word hash and one 128-bit
//!   compare.
//!
//! A lookup at a step walks three sources — the step's own shapes, the
//! step-less shapes and the exact index — merged into one order by
//! *rank*: a source's ceiling (its highest priority), then the
//! specificity of what it can return. The exact index is one more source
//! of the step's tuple space: the space keeps a priority histogram of its
//! exact rules, which gives the index its ceiling, and its specificity is
//! above every wildcard's. The walk stops at the first source whose rank
//! is below the best candidate's (priority, specificity); on equality it
//! goes on, since a later shape may still win on id. So the win order —
//! priority, then specificity, then insertion id, an exact rule above
//! every wildcard of its priority — is the walk's order, with no special
//! case. A flow that a higher-priority wildcard answers never touches the
//! exact map; a match in the most specific shape of the top priority ends
//! the lookup. A lookup never probes a shape that only holds another
//! step's rules. Lookup cost is O(sources at this step), not O(rules);
//! [`TableStats::shape_probes`] counts the shapes and exact-index visits.
//!
//! All of these maps hash with the crate's keyed multiply-mix hasher
//! (`hash.rs`) — one multiply per word against SipHash's dozens of rounds
//! — seeded per table, because exact pins are installed for 5-tuples
//! taken off the wire. Nothing may depend on the iteration order of the
//! maps; listings sort ([`FlowTable::rules`]).
//!
//! Rules share their forwarding lists: the table interns one
//! `Arc<[Action]>` per distinct list, so its pins, which mostly forward
//! alike, hand out one allocation, and building or dropping a decision
//! moves one hot refcount rather than a cold one per rule. A fork
//! ([`SharedFlowTable::fork`]) interns lists of its own, so two shards
//! never write one refcount line, and a sweep drops the lists only the
//! interner still holds.
//!
//! # Lifecycle
//!
//! Rules may carry OpenFlow-style idle and hard timeouts. A lookup skips
//! an expired rule, as [`FlowTable::peek`] does, and leaves it installed:
//! the amortized [`FlowTable::sweep`], driven from the owner's clock, is
//! the only place a rule leaves by timeout (a lazy-deletion deadline heap,
//! so a sweep only inspects rules whose earliest possible deadline has
//! passed). So until the sweep reaches it, an expired rule still counts in
//! [`FlowTable::len`] and [`FlowTable::rules`] and still holds its exact
//! key. The sweep defers the exact rules its caller protects and returns
//! its [`EvictedRule`] events, which the data plane forwards to the
//! control plane and to NF flow-state cleanup in the same step.
//!
//! What a mutation invalidates: the answer for a flow depends on the
//! wildcard rules and on that flow's own exact rules, nothing else. So the
//! table records the *scope* of every change where it touches the slab —
//! [`FlowTable::insert`], the release of a slot (`remove`, an eviction, the
//! replaced rule of an exact insert) and the default rewrites of
//! `change_default` / `retarget_defaults` / `promote_where_allowed`: an
//! exact rule's change is scoped to its key's generation partition (the
//! top six bits of the key's `stable_hash`), any other change to all 64.
//! [`SharedFlowTable`] publishes exactly those partitions, so a pin moves
//! one sixty-fourth of the lookup caches' entries, not all of them, and a
//! write that changed nothing moves none.
//!
//! What an answer promises about other flows: a lookup raises
//! [`Decision::any_flow`] when its answer could not have depended on the
//! flow — no exact rule names the step (the step's histogram is empty,
//! and the walk has no exact index to visit) and no shape bucket it probed
//! constrains a field. A shape the early exit skipped ranks below a
//! candidate every key meets, so it cannot win for any key and does not
//! count. Every flow then gets the same decision at that step until a
//! wildcard change, which moves all 64 partitions, or an exact change for
//! the step, which moves the partition of the one key whose answer it can
//! move. So a cache may keep such an answer once per step, tagged per
//! partition.

use parking_lot::RwLock;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sdnfv_proto::flow::{FlowKey, IpProtocol};

use crate::hash::TableHashKey;
use crate::matching::FlowMatch;
use crate::rule::{Action, Decision, FlowRule, RuleId};
use crate::types::{RulePort, ServiceId};

/// Counters exported by a [`FlowTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TableStats {
    /// Total lookups performed.
    pub lookups: u64,
    /// Lookups that matched a rule.
    pub hits: u64,
    /// Lookups that matched no rule (table misses, i.e. controller punts).
    pub misses: u64,
    /// Rules evicted because their idle timeout elapsed without traffic.
    pub evicted_idle: u64,
    /// Rules evicted because their hard timeout elapsed.
    pub evicted_hard: u64,
    /// Probes made by lookups: one per wildcard shape bucket probed and
    /// one per visit to the exact index, which is a source in the same
    /// probe order (see the module docs).
    pub shape_probes: u64,
}

/// Why a rule was evicted from the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictReason {
    /// The rule's idle timeout elapsed with no lookup hitting it.
    Idle,
    /// The rule's hard timeout elapsed (installation age), regardless of
    /// traffic.
    Hard,
}

/// A rule-eviction event, returned by [`FlowTable::sweep`] so the control
/// plane learns which flows died and NF per-flow state can be scrubbed.
#[derive(Debug, Clone, PartialEq)]
pub struct EvictedRule {
    /// The evicted rule's id.
    pub id: RuleId,
    /// The evicted rule itself (its matcher and final action list).
    pub rule: FlowRule,
    /// For exact per-flow rules, the `(step, 5-tuple)` index key — the
    /// handle NF flow-state cleanup needs. `None` for wildcard rules.
    pub exact: Option<(RulePort, FlowKey)>,
    /// Why the rule expired.
    pub reason: EvictReason,
}

/// One installed rule plus its per-entry bookkeeping: the hit counter
/// (folded in, so a lookup does not probe a side map), the shared action
/// list handed out in [`Decision`]s without cloning, and the timestamps
/// the timeout lifecycle runs on.
#[derive(Debug, Clone)]
struct RuleEntry {
    /// The rule's id: indexes name entries by slab slot, so the id travels
    /// with the entry (decisions, eviction events, stale-deadline checks).
    id: RuleId,
    rule: FlowRule,
    /// `rule.actions` as the table's interned list ([`ActionLists`]), so
    /// lookups are allocation-free; re-taken whenever a bulk mutation
    /// changes the action list. The [`Action::Trace`] marker is stripped
    /// here (and surfaced as `trace`), so decisions only ever carry
    /// forwarding actions.
    shared_actions: Arc<[Action]>,
    /// Whether the rule carried an [`Action::Trace`] marker.
    trace: bool,
    hits: u64,
    /// When the rule was installed and last hit, on the table's clock
    /// ([`Timers`]).
    installed_at_ns: i64,
    last_hit_ns: i64,
}

/// What a rule's timeouts run from, on its table's clock. Signed: a rule
/// handed over from a host whose clock has run longer than this one's can
/// have been installed, and last hit, before this clock's zero.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Timers {
    installed_at_ns: i64,
    last_hit_ns: i64,
}

/// How long ago a rule was installed and last hit: its timers as
/// durations, which mean the same on every host's clock. A rule handed to
/// another host travels with its age (see
/// [`BucketStateBundle`](crate::BucketStateBundle)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleAge {
    /// Nanoseconds since the rule was installed (its hard timeout's clock).
    pub since_install_ns: u64,
    /// Nanoseconds since the rule was last hit (its idle timeout's clock).
    pub since_hit_ns: u64,
}

impl Timers {
    /// Timers started at `now_ns`.
    fn at(now_ns: u64) -> Self {
        Timers {
            installed_at_ns: signed(now_ns),
            last_hit_ns: signed(now_ns),
        }
    }

    /// The rule's age at `now_ns` on the clock these timers run on.
    pub(crate) fn age_at(self, now_ns: u64) -> RuleAge {
        let since = |at: i64| u64::try_from(signed(now_ns).saturating_sub(at)).unwrap_or(0);
        RuleAge {
            since_install_ns: since(self.installed_at_ns),
            since_hit_ns: since(self.last_hit_ns),
        }
    }

    /// Timers that read `age` at `now_ns` on another clock — before that
    /// clock's zero if the age is the greater.
    pub(crate) fn aged(age: RuleAge, now_ns: u64) -> Self {
        let at = |since: u64| signed(now_ns).saturating_sub_unsigned(since);
        Timers {
            installed_at_ns: at(age.since_install_ns),
            last_hit_ns: at(age.since_hit_ns),
        }
    }
}

/// A clock reading as a signed time.
fn signed(ns: u64) -> i64 {
    i64::try_from(ns).unwrap_or(i64::MAX)
}

/// When a timeout of `timeout_ns` running since `since_ns` elapses, on the
/// clock: the instant itself, or 0 if it lies before the clock's zero.
fn deadline(since_ns: i64, timeout_ns: u64) -> u64 {
    u64::try_from(since_ns.saturating_add_unsigned(timeout_ns)).unwrap_or(0)
}

/// The table's forwarding lists, one `Arc` per distinct list. Rules that
/// forward alike — a table's pins mostly do — hand out one allocation, so
/// building a decision or dropping one (a cache eviction) moves one hot
/// refcount instead of a cold one per rule.
#[derive(Debug, Clone)]
struct ActionLists(HashSet<Arc<[Action]>, TableHashKey>);

impl ActionLists {
    fn new(hash_key: TableHashKey) -> Self {
        ActionLists(HashSet::with_hasher(hash_key))
    }

    /// The interned forwarding list of `actions` — [`Action::Trace`]
    /// stripped — and whether the marker was there.
    fn forwarding(&mut self, actions: &[Action]) -> (Arc<[Action]>, bool) {
        let trace = actions.contains(&Action::Trace);
        let shared = if trace {
            let forwarding: Vec<Action> = actions
                .iter()
                .copied()
                .filter(|a| *a != Action::Trace)
                .collect();
            self.intern(&forwarding)
        } else {
            self.intern(actions)
        };
        (shared, trace)
    }

    fn intern(&mut self, list: &[Action]) -> Arc<[Action]> {
        if let Some(shared) = self.0.get(list) {
            return Arc::clone(shared);
        }
        let shared: Arc<[Action]> = Arc::from(list);
        self.0.insert(Arc::clone(&shared));
        shared
    }

    /// Drops the lists no rule and no outstanding decision holds, so the
    /// set stays bounded by the live lists.
    fn prune(&mut self) {
        self.0.retain(|list| Arc::strong_count(list) > 1);
    }
}

impl RuleEntry {
    fn new(id: RuleId, rule: FlowRule, timers: Timers, lists: &mut ActionLists) -> Self {
        let (shared_actions, trace) = lists.forwarding(&rule.actions);
        RuleEntry {
            id,
            rule,
            shared_actions,
            trace,
            hits: 0,
            installed_at_ns: timers.installed_at_ns,
            last_hit_ns: timers.last_hit_ns,
        }
    }

    fn refresh_shared_actions(&mut self, lists: &mut ActionLists) {
        let (shared, trace) = lists.forwarding(&self.rule.actions);
        self.shared_actions = shared;
        self.trace = trace;
    }

    /// The earliest instant at which the entry *could* expire (the
    /// deadline-heap key). `None` when the rule has no timeout.
    fn earliest_deadline(&self) -> Option<u64> {
        let hard = self
            .rule
            .hard_timeout_ns
            .map(|t| deadline(self.installed_at_ns, t));
        let idle = self
            .rule
            .idle_timeout_ns
            .map(|t| deadline(self.last_hit_ns, t));
        match (hard, idle) {
            (Some(h), Some(i)) => Some(h.min(i)),
            (Some(h), None) => Some(h),
            (None, Some(i)) => Some(i),
            (None, None) => None,
        }
    }

    /// Whether the entry is expired at `now_ns` (hard timeout checked
    /// first, mirroring OpenFlow's removal-reason precedence).
    fn expiry(&self, now_ns: u64) -> Option<EvictReason> {
        if let Some(hard) = self.rule.hard_timeout_ns {
            if now_ns >= deadline(self.installed_at_ns, hard) {
                return Some(EvictReason::Hard);
            }
        }
        if let Some(idle) = self.rule.idle_timeout_ns {
            if now_ns >= deadline(self.last_hit_ns, idle) {
                return Some(EvictReason::Idle);
            }
        }
        None
    }
}

/// The 5-tuple in one word, most significant field first: source address
/// (bits 96–127), destination address (64–95), source port (48–63),
/// destination port (32–47) and the protocol's code (0–8, see
/// [`protocol_code`]). A key is packed once per lookup; a shape's mask
/// then projects it with one AND.
fn pack(src: u32, dst: u32, src_port: u16, dst_port: u16, protocol: u16) -> u128 {
    u128::from(src) << 96
        | u128::from(dst) << 64
        | u128::from(src_port) << 48
        | u128::from(dst_port) << 32
        | u128::from(protocol)
}

/// The protocol's number, plus bit 8 for the named variants: `Other(6)`
/// is not `Tcp` to [`FlowMatch::matches`], so it must not pack alike.
fn protocol_code(protocol: IpProtocol) -> u16 {
    let named = !matches!(protocol, IpProtocol::Other(_));
    u16::from(named) << 8 | u16::from(protocol.value())
}

/// Every bit [`protocol_code`] may set.
const PROTOCOL_BITS: u16 = 0x1ff;

/// The packed form of a flow key.
fn pack_key(key: &FlowKey) -> u128 {
    pack(
        key.src_ip.into(),
        key.dst_ip.into(),
        key.src_port,
        key.dst_port,
        protocol_code(key.protocol),
    )
}

/// The address bits a prefix of `len` (at most 32) keeps; none if absent.
fn prefix_bits(len: Option<u8>) -> u32 {
    len.map_or(0, |len| {
        u32::MAX.checked_shl(32 - u32::from(len)).unwrap_or(0)
    })
}

/// Which 5-tuple fields a wildcard rule constrains — the grouping key
/// inside one [`TupleSpace`]. Two rules of a tuple space share a shape iff
/// they mask the same fields with the same prefix lengths, which also
/// fixes their specificity. The step is not part of the shape: rules are
/// partitioned by step before they are grouped by shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MaskShape {
    /// The bits of a packed 5-tuple ([`pack`]) the shape's rules look at.
    mask: u128,
    /// `None` = source IP unconstrained; `Some(len)` = prefix of that
    /// length (0 is a legal, match-all prefix with its own specificity,
    /// so the mask alone, zero in both cases, cannot name the shape).
    src_len: Option<u8>,
    dst_len: Option<u8>,
}

/// A packet's (or rule's) packed 5-tuple masked down to one shape — the
/// per-shape hash key. Unconstrained fields are zeroed so they hash
/// identically for every packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MaskedTuple(u128);

impl Hash for MaskedTuple {
    /// Two words, so the table's hasher mixes twice.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64((self.0 >> 64) as u64);
        state.write_u64(self.0 as u64);
    }
}

impl MaskShape {
    /// The shape of `m`. A prefix longer than `/32` is read as `/32`, as
    /// [`IpPrefix::contains`](crate::matching::IpPrefix::contains) does.
    fn of(m: &FlowMatch) -> Self {
        let src_len = m.src_ip.map(|p| p.len.min(32));
        let dst_len = m.dst_ip.map(|p| p.len.min(32));
        let all_if = |constrained: bool, bits: u16| if constrained { bits } else { 0 };
        MaskShape {
            mask: pack(
                prefix_bits(src_len),
                prefix_bits(dst_len),
                all_if(m.src_port.is_some(), u16::MAX),
                all_if(m.dst_port.is_some(), u16::MAX),
                all_if(m.protocol.is_some(), PROTOCOL_BITS),
            ),
            src_len,
            dst_len,
        }
    }

    /// The masked tuple of a rule with this shape.
    fn mask_rule(&self, m: &FlowMatch) -> MaskedTuple {
        self.project(pack(
            m.src_ip.map_or(0, |p| p.addr.into()),
            m.dst_ip.map_or(0, |p| p.addr.into()),
            m.src_port.unwrap_or(0),
            m.dst_port.unwrap_or(0),
            m.protocol.map_or(0, protocol_code),
        ))
    }

    /// Whether every key projects onto this shape alike: no port, no
    /// protocol, no address prefix longer than `/0`.
    fn ignores_key(&self) -> bool {
        self.mask == 0
    }

    /// Projects a packed key ([`pack_key`]) onto this shape: the result
    /// equals a rule's masked tuple iff the rule's 5-tuple fields match.
    fn project(&self, packed: u128) -> MaskedTuple {
        MaskedTuple(packed & self.mask)
    }
}

/// How many rules of a group hold each priority; the last key is the
/// group's ceiling, its highest priority.
#[derive(Debug, Clone, Default)]
struct Priorities(BTreeMap<u16, usize>);

impl Priorities {
    fn add(&mut self, priority: u16) {
        *self.0.entry(priority).or_insert(0) += 1;
    }

    fn remove(&mut self, priority: u16) {
        if let Some(count) = self.0.get_mut(&priority) {
            *count -= 1;
            if *count == 0 {
                self.0.remove(&priority);
            }
        }
    }

    fn ceiling(&self) -> Option<u16> {
        self.0.keys().next_back().copied()
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Where a probe source stands in a tuple space's probe order: its
/// ceiling, then the specificity every rule it can return has. A source
/// whose rank is below the best candidate's (priority, specificity)
/// cannot return a winner.
type Rank = (u16, u32);

/// The exact index's specificity in the probe order: above every wildcard
/// shape's, so at equal priority an exact rule wins and is probed first.
const EXACT_SPECIFICITY: u32 = u32::MAX;

/// All wildcard rules of one mask shape: a hash table keyed by masked
/// tuple, plus a priority histogram so the probe loop knows the shape's
/// current ceiling without scanning.
#[derive(Debug, Clone)]
struct ShapeBucket {
    shape: MaskShape,
    /// Specificity is a pure function of the shape, shared by every rule
    /// in the bucket.
    specificity: u32,
    /// Creation sequence — the deterministic tiebreak when two shapes have
    /// the same rank.
    seq: u64,
    /// Masked tuple → `(priority, id, slot)` candidates, sorted descending
    /// so the first live entry is the bucket's best match.
    rules: HashMap<MaskedTuple, Vec<(u16, RuleId, Slot)>, TableHashKey>,
    /// Priority histogram over every rule in the bucket.
    priorities: Priorities,
}

impl ShapeBucket {
    /// The bucket's place in the probe order.
    fn rank(&self) -> Rank {
        (self.priorities.ceiling().unwrap_or(0), self.specificity)
    }
}

/// A tuple-space classifier over the wildcard rules of one step (or over
/// those that name no step): one [`ShapeBucket`] per distinct mask shape,
/// kept in descending [`Rank`] order (ties broken by creation order) for
/// early-exit probing. The step's exact rules live in the table's
/// exact index; the space keeps their priority histogram, which places
/// the exact index in the probe order as one more source.
#[derive(Debug, Clone)]
struct TupleSpace {
    shapes: Vec<ShapeBucket>,
    /// Priority histogram of the exact rules that name this space's step;
    /// always empty in the step-less space. Its total is the step's exact
    /// rule count: a lookup at a step with none never probes the exact
    /// index, and its answer cannot depend on the flow unless a probed
    /// shape does.
    exact: Priorities,
    next_seq: u64,
    /// The owning table's hash key, handed to every bucket's map.
    hash_key: TableHashKey,
}

impl TupleSpace {
    fn new(hash_key: TableHashKey) -> Self {
        TupleSpace {
            shapes: Vec::new(),
            exact: Priorities::default(),
            next_seq: 0,
            hash_key,
        }
    }

    /// Whether no rule, exact or wildcard, names the space's step.
    fn is_unused(&self) -> bool {
        self.shapes.is_empty() && self.exact.is_empty()
    }

    /// The exact index's place in this space's probe order, if the step
    /// has an exact rule.
    fn exact_rank(&self) -> Option<Rank> {
        self.exact
            .ceiling()
            .map(|ceiling| (ceiling, EXACT_SPECIFICITY))
    }

    fn insert(&mut self, id: RuleId, slot: Slot, rule: &FlowRule) {
        let shape = MaskShape::of(&rule.matcher);
        let tuple = shape.mask_rule(&rule.matcher);
        let index = match self.shapes.iter().position(|b| b.shape == shape) {
            Some(index) => index,
            None => {
                self.shapes.push(ShapeBucket {
                    shape,
                    specificity: rule.matcher.specificity(),
                    seq: self.next_seq,
                    rules: HashMap::with_hasher(self.hash_key),
                    priorities: Priorities::default(),
                });
                self.next_seq += 1;
                self.shapes.len() - 1
            }
        };
        let bucket = &mut self.shapes[index];
        let ids = bucket.rules.entry(tuple).or_default();
        // Keep (priority desc, id desc): the first live entry wins.
        let at = ids.partition_point(|&(p, other, _)| (p, other) > (rule.priority, id));
        ids.insert(at, (rule.priority, id, slot));
        bucket.priorities.add(rule.priority);
        self.resort();
    }

    fn remove(&mut self, slot: Slot, rule: &FlowRule) {
        let shape = MaskShape::of(&rule.matcher);
        let tuple = shape.mask_rule(&rule.matcher);
        let Some(index) = self.shapes.iter().position(|b| b.shape == shape) else {
            return;
        };
        let bucket = &mut self.shapes[index];
        if let Some(ids) = bucket.rules.get_mut(&tuple) {
            if let Some(at) = ids.iter().position(|&(_, _, other)| other == slot) {
                ids.remove(at);
                bucket.priorities.remove(rule.priority);
            }
            if ids.is_empty() {
                bucket.rules.remove(&tuple);
            }
        }
        if bucket.priorities.is_empty() {
            self.shapes.remove(index);
        }
        self.resort();
    }

    /// Restores the probe order: rank desc (max priority, then
    /// specificity), creation seq asc. The shape count is small by
    /// construction — this is O(S log S) per rule-churn event, not per
    /// lookup.
    fn resort(&mut self) {
        self.shapes
            .sort_by_key(|bucket| (Reverse(bucket.rank()), bucket.seq));
    }
}

/// Index of a rule's entry in the [`FlowTable`] slab.
type Slot = u32;

/// Partitions of the flow-key space with a generation of their own
/// ([`SharedFlowTable::generation_for`]).
pub const GENERATION_PARTITIONS: usize = 64;

/// A set of generation partitions, one bit each.
type Partitions = u64;

/// The scope of a change that is not one exact rule's.
const EVERY_PARTITION: Partitions = Partitions::MAX;

/// The generation partition of a flow whose `stable_hash()` is `hash`: its
/// top six bits (shard steering takes the hash modulo, the lookup cache
/// mixes it, so neither lines up with these).
pub fn generation_partition(hash: u64) -> usize {
    (hash >> (u64::BITS - GENERATION_PARTITIONS.trailing_zeros())) as usize
}

/// The partitions whose answers a change to `rule` can move: an exact rule
/// matches its own key only, anything else may match every key.
fn scope(rule: &FlowRule) -> Partitions {
    match rule.matcher.exact_key() {
        Some((_, key)) => 1 << generation_partition(key.stable_hash()),
        None => EVERY_PARTITION,
    }
}

/// The flow table held by one NF Manager.
///
/// Rules are matched by priority (highest first), then by match
/// specificity, then by recency of installation. Exact per-flow rules
/// rank above every wildcard rule of equal priority; a
/// strictly-higher-priority wildcard still wins. See the module docs for
/// the classifier layout and the timeout lifecycle.
#[derive(Debug, Clone)]
pub struct FlowTable {
    /// The rule slab. Every index below names an entry by its slot, so a
    /// lookup reaches the entries it inspects by array index.
    slots: Vec<Option<RuleEntry>>,
    /// Vacant slots, reused before the slab grows: a table that churns
    /// rules at a steady population stays at steady memory.
    free: Vec<Slot>,
    /// `RuleId → slot`, for the id-addressed control calls only.
    ids: HashMap<RuleId, Slot, TableHashKey>,
    exact: HashMap<(RulePort, FlowKey), Slot, TableHashKey>,
    /// The wildcard rules that name a step — every compiled graph rule and
    /// every NF-installed one — each in its step's own tuple space, so a
    /// lookup never probes a shape that only holds another step's rules.
    /// A step's space also counts its exact rules, and exists while any
    /// rule names the step.
    stepped: HashMap<RulePort, TupleSpace, TableHashKey>,
    /// The wildcard rules with `step: None`, probed at every step.
    any_step: TupleSpace,
    next_id: u64,
    /// The table's notion of "now" (monotone, advanced by the owner's
    /// clock). All timeout comparisons use this, so behavior is identical
    /// under the real and the simulated clock.
    now_ns: u64,
    /// Lazy-deletion deadline heap: `(earliest possible expiry, rule id,
    /// slot)`. Entries are not updated when traffic refreshes an idle
    /// deadline; a popped entry whose rule is gone (the slot is vacant or
    /// holds another id) or not yet expired is discarded or re-armed.
    deadlines: BinaryHeap<Reverse<(u64, RuleId, Slot)>>,
    /// The partitions the changes since the last `take_touched` are scoped
    /// to, recorded where a rule enters, leaves or is rewritten in the slab
    /// (see the module docs).
    touched: Partitions,
    /// The interned forwarding lists the entries share.
    action_lists: ActionLists,
    stats: TableStats,
}

/// What [`FlowTable::probe`] found.
struct Probe {
    /// Slot of the winning live rule.
    winner: Option<Slot>,
    /// Shape buckets probed.
    shape_probes: u64,
    /// Whether the answer holds for every flow ([`Decision::any_flow`]).
    any_flow: bool,
}

impl Default for FlowTable {
    fn default() -> Self {
        FlowTable::new()
    }
}

impl FlowTable {
    /// Creates an empty table. Its maps share one freshly drawn hash key.
    pub fn new() -> Self {
        let hash_key = TableHashKey::default();
        FlowTable {
            slots: Vec::new(),
            free: Vec::new(),
            ids: HashMap::with_hasher(hash_key),
            exact: HashMap::with_hasher(hash_key),
            stepped: HashMap::with_hasher(hash_key),
            any_step: TupleSpace::new(hash_key),
            next_id: 0,
            now_ns: 0,
            deadlines: BinaryHeap::new(),
            touched: 0,
            action_lists: ActionLists::new(hash_key),
            stats: TableStats::default(),
        }
    }

    /// Advances the table clock (monotone). Timeouts only ever fire
    /// against this clock, so a table whose owner never advances it never
    /// expires anything.
    pub fn advance_clock(&mut self, now_ns: u64) {
        self.now_ns = self.now_ns.max(now_ns);
    }

    /// The table's current clock, in nanoseconds.
    pub fn clock_ns(&self) -> u64 {
        self.now_ns
    }

    /// The live entry in `slot`. Indexes only ever hold occupied slots.
    fn entry(&self, slot: Slot) -> &RuleEntry {
        self.slots[slot as usize]
            .as_ref()
            .expect("indexed slots are occupied")
    }

    /// Vacates `slot`, forgets its id and records the rule's scope; the
    /// caller unindexes the rule.
    fn release(&mut self, slot: Slot) -> RuleEntry {
        let entry = self.slots[slot as usize]
            .take()
            .expect("indexed slots are occupied");
        self.ids.remove(&entry.id);
        self.free.push(slot);
        self.touched |= scope(&entry.rule);
        entry
    }

    /// The partitions recorded since the last call, cleared.
    fn take_touched(&mut self) -> Partitions {
        std::mem::take(&mut self.touched)
    }

    /// `step`'s tuple space, created empty if no rule named the step yet.
    fn space_of(&mut self, step: RulePort) -> &mut TupleSpace {
        let hash_key = self.any_step.hash_key;
        self.stepped
            .entry(step)
            .or_insert_with(|| TupleSpace::new(hash_key))
    }

    /// Installs a rule and returns its id.
    ///
    /// Exact rules go to the exact index only and wildcard rules to their
    /// shape bucket only — no full-table re-sort on either path, so flow
    /// pinning stays O(1) in the table size. Installing an exact rule for
    /// a `(step, key)` that already has one replaces the old rule.
    pub fn insert(&mut self, rule: FlowRule) -> RuleId {
        self.insert_timed(rule, Timers::at(self.now_ns))
    }

    /// [`FlowTable::insert`] with timers already running: a rule moved
    /// from a table on the same clock keeps its deadlines, and one handed
    /// over from another host's table keeps what was left of them.
    pub(crate) fn insert_timed(&mut self, rule: FlowRule, timers: Timers) -> RuleId {
        let id = RuleId(self.next_id);
        self.next_id += 1;
        self.touched |= scope(&rule);
        let entry = RuleEntry::new(id, rule, timers, &mut self.action_lists);
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            Slot::try_from(self.slots.len() - 1).expect("fewer than 2^32 rules")
        });
        if let Some(step_key) = entry.rule.matcher.exact_key() {
            // An old rule would be unreachable (exact rules are only found
            // through the index); drop it rather than leak it.
            if let Some(old) = self.exact.insert(step_key, slot) {
                let old = self.release(old);
                self.space_of(step_key.0).exact.remove(old.rule.priority);
            }
            self.space_of(step_key.0).exact.add(entry.rule.priority);
        } else {
            let space = match entry.rule.matcher.step {
                Some(step) => self.space_of(step),
                None => &mut self.any_step,
            };
            space.insert(id, slot, &entry.rule);
        }
        if let Some(deadline) = entry.earliest_deadline() {
            self.deadlines.push(Reverse((deadline, id, slot)));
        }
        self.ids.insert(id, slot);
        self.slots[slot as usize] = Some(entry);
        id
    }

    /// Removes a rule. O(1) for exact rules; O(shape bucket) for
    /// wildcards.
    pub fn remove(&mut self, id: RuleId) -> Option<FlowRule> {
        let slot = *self.ids.get(&id)?;
        Some(self.unlink(slot).0.rule)
    }

    /// Takes the rule in `slot` out of the slab and out of its index.
    /// Returns the entry and, for an exact rule, its index key.
    fn unlink(&mut self, slot: Slot) -> (RuleEntry, Option<(RulePort, FlowKey)>) {
        let entry = self.release(slot);
        let exact = entry.rule.matcher.exact_key();
        if let Some(step_key) = exact {
            // A replaced exact rule is released on the spot, so the index
            // always names the one live rule of its key.
            let indexed = self.exact.remove(&step_key);
            debug_assert_eq!(indexed, Some(slot));
        }
        match entry.rule.matcher.step {
            Some(step) => {
                if let Some(space) = self.stepped.get_mut(&step) {
                    match exact {
                        Some(_) => space.exact.remove(entry.rule.priority),
                        None => space.remove(slot, &entry.rule),
                    }
                    if space.is_unused() {
                        self.stepped.remove(&step);
                    }
                }
            }
            None => self.any_step.remove(slot, &entry.rule),
        }
        (entry, exact)
    }

    /// Evicts the rule in `slot` for `reason`: removes it from every
    /// index and returns the [`EvictedRule`] event.
    fn evict(&mut self, slot: Slot, reason: EvictReason) -> EvictedRule {
        let (entry, exact) = self.unlink(slot);
        match reason {
            EvictReason::Idle => self.stats.evicted_idle += 1,
            EvictReason::Hard => self.stats.evicted_hard += 1,
        }
        EvictedRule {
            id: entry.id,
            rule: entry.rule,
            exact,
            reason,
        }
    }

    /// Looks up the rule governing a packet of flow `key` at `step`,
    /// counting the hit and refreshing the winning rule's idle timer.
    /// Expired rules are skipped and left to [`FlowTable::sweep`].
    pub fn lookup(&mut self, step: RulePort, key: &FlowKey) -> Option<Decision> {
        self.stats.lookups += 1;
        let Probe {
            winner,
            shape_probes,
            any_flow,
        } = self.probe(step, key);
        self.stats.shape_probes += shape_probes;
        let Some(slot) = winner else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        let now_ns = self.now_ns;
        let entry = self.slots[slot as usize]
            .as_mut()
            .expect("probe returns occupied slots");
        entry.hits += 1;
        entry.last_hit_ns = signed(now_ns);
        Some(Decision {
            rule_id: entry.id,
            actions: Arc::clone(&entry.shared_actions),
            parallel: entry.rule.parallel,
            trace: entry.trace,
            timed: entry.rule.has_timeout(),
            any_flow,
        })
    }

    /// Read-only lookup that does not update statistics or idle timers
    /// (used by tests and by the control plane when validating messages).
    /// Expired rules are skipped, as by [`FlowTable::lookup`].
    pub fn peek(&self, step: RulePort, key: &FlowKey) -> Option<&FlowRule> {
        let slot = self.probe(step, key).winner?;
        Some(&self.entry(slot).rule)
    }

    /// The classifier core: one walk over the sources that can answer at
    /// `step` — its own shapes, the step-less shapes and the exact index —
    /// merged in rank order ([`Rank`]), which stops at the first source
    /// that can no longer win. Expired rules are skipped.
    ///
    /// Win order: priority desc, then specificity desc, then insertion id
    /// desc; an exact rule ranks above every wildcard of its priority.
    fn probe(&self, step: RulePort, key: &FlowKey) -> Probe {
        let now_ns = self.now_ns;
        let own_space = self.stepped.get(&step);
        let mut own = own_space.map_or(&[][..], |space| space.shapes.as_slice());
        let mut shared = self.any_step.shapes.as_slice();
        let mut exact = own_space.and_then(TupleSpace::exact_rank);
        let mut any_flow = exact.is_none();
        // The best live candidate so far: (priority, specificity, id, slot).
        let mut best: Option<(u16, u32, RuleId, Slot)> = None;
        let mut shape_probes = 0;
        let packed = pack_key(key);
        loop {
            let own_next = own.first().map(ShapeBucket::rank);
            let shared_next = shared.first().map(ShapeBucket::rank);
            let Some(next) = own_next.max(shared_next).max(exact) else {
                break;
            };
            // Every later source ranks no higher: once this one cannot
            // beat the best candidate, none can. An equal rank still can,
            // by id.
            if best.is_some_and(|(priority, specificity, ..)| next < (priority, specificity)) {
                break;
            }
            shape_probes += 1;
            if exact == Some(next) {
                exact = None;
                if let Some(&slot) = self.exact.get(&(step, *key)) {
                    let entry = self.entry(slot);
                    if entry.expiry(now_ns).is_none() {
                        let candidate = (entry.rule.priority, EXACT_SPECIFICITY, entry.id, slot);
                        best = best.max(Some(candidate));
                    }
                }
                continue;
            }
            let from = if own_next == Some(next) {
                &mut own
            } else {
                &mut shared
            };
            let (bucket, rest) = from.split_first().expect("the next source is a shape");
            *from = rest;
            any_flow &= bucket.shape.ignores_key();
            let tuple = bucket.shape.project(packed);
            let Some(candidates) = bucket.rules.get(&tuple) else {
                continue;
            };
            for &(priority, id, slot) in candidates {
                let entry = self.entry(slot);
                if entry.expiry(now_ns).is_some() {
                    continue;
                }
                debug_assert!(entry.rule.matcher.matches(step, key));
                // Candidates are sorted (priority desc, id desc): the
                // first live one is this bucket's best.
                best = best.max(Some((priority, bucket.specificity, id, slot)));
                break;
            }
        }
        Probe {
            winner: best.map(|(.., slot)| slot),
            shape_probes,
            any_flow,
        }
    }

    /// Evicts up to `max_evictions` expired rules whose deadline has
    /// passed, driven by the lazy-deletion deadline heap (only rules whose
    /// earliest possible deadline elapsed are inspected). Exact rules for
    /// which `protected` returns `true` — e.g. rules of a bucket mid
    /// re-home, whose export must not race an eviction — are deferred to a
    /// later sweep. This is the only place a rule leaves by timeout;
    /// returns the evictions in order.
    pub fn sweep(
        &mut self,
        max_evictions: usize,
        protected: impl Fn(&(RulePort, FlowKey)) -> bool,
    ) -> Vec<EvictedRule> {
        let now_ns = self.now_ns;
        let mut evicted = Vec::new();
        let mut deferred: Vec<Reverse<(u64, RuleId, Slot)>> = Vec::new();
        while evicted.len() < max_evictions {
            let Some(&Reverse((deadline, id, slot))) = self.deadlines.peek() else {
                break;
            };
            if deadline > now_ns {
                break;
            }
            self.deadlines.pop();
            // A slot is recycled, an id never: the id check keeps a dead
            // rule's deadline from evicting the slot's next tenant.
            let Some(entry) = self.slots[slot as usize]
                .as_ref()
                .filter(|entry| entry.id == id)
            else {
                continue; // stale heap entry: the rule is already gone
            };
            match entry.expiry(now_ns) {
                Some(reason) => {
                    if let Some(step_key) = entry.rule.matcher.exact_key() {
                        if protected(&step_key) {
                            deferred.push(Reverse((deadline, id, slot)));
                            continue;
                        }
                    }
                    evicted.push(self.evict(slot, reason));
                }
                None => {
                    // Traffic pushed the idle deadline forward since this
                    // heap entry was armed: re-arm at the new deadline.
                    if let Some(next) = entry.earliest_deadline() {
                        self.deadlines.push(Reverse((next, id, slot)));
                    }
                }
            }
        }
        self.deadlines.extend(deferred);
        self.action_lists.prune();
        evicted
    }

    /// Returns the rule with the given id.
    pub fn rule(&self, id: RuleId) -> Option<&FlowRule> {
        self.ids.get(&id).map(|&slot| &self.entry(slot).rule)
    }

    /// The timers of rule `id`, for [`FlowTable::insert_timed`].
    pub(crate) fn timers(&self, id: RuleId) -> Option<Timers> {
        self.ids.get(&id).map(|&slot| {
            let entry = self.entry(slot);
            Timers {
                installed_at_ns: entry.installed_at_ns,
                last_hit_ns: entry.last_hit_ns,
            }
        })
    }

    /// Returns the id of the exact per-flow rule installed for `(step, key)`,
    /// if one exists (wildcard rules are not considered).
    pub fn exact_rule_id(&self, step: RulePort, key: &FlowKey) -> Option<RuleId> {
        self.exact
            .get(&(step, *key))
            .map(|&slot| self.entry(slot).id)
    }

    /// The installed entries sorted in match order (priority desc,
    /// specificity desc, insertion desc) — computed on demand; the hot
    /// path maintains no global order.
    fn sorted_entries(&self) -> Vec<&RuleEntry> {
        let mut entries: Vec<&RuleEntry> = self.slots.iter().flatten().collect();
        entries.sort_by_key(|entry| {
            Reverse((
                entry.rule.priority,
                entry.rule.matcher.specificity(),
                entry.id,
            ))
        });
        entries
    }

    /// Iterates over all installed rules in match order (a control-plane
    /// convenience; the order is computed on demand).
    pub fn rules(&self) -> impl Iterator<Item = (RuleId, &FlowRule)> {
        self.sorted_entries()
            .into_iter()
            .map(|entry| (entry.id, &entry.rule))
    }

    /// Iterates over the exact per-flow rules, yielding each rule's id, its
    /// `(step, 5-tuple)` index key and the rule itself. This is the rule set
    /// a bucket re-home exports between shard partitions.
    pub fn exact_rules(
        &self,
    ) -> impl Iterator<Item = (RuleId, (RulePort, FlowKey), &FlowRule)> + '_ {
        self.exact.iter().map(move |(step_key, &slot)| {
            let entry = self.entry(slot);
            (entry.id, *step_key, &entry.rule)
        })
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` if the table has no rules.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of times rule `id` has been hit.
    pub fn hit_count(&self, id: RuleId) -> u64 {
        self.ids.get(&id).map_or(0, |&slot| self.entry(slot).hits)
    }

    /// Resets every rule's hit counter (partition forks start fresh).
    fn reset_hit_counts(&mut self) {
        for entry in self.slots.iter_mut().flatten() {
            entry.hits = 0;
        }
    }

    /// Re-interns every entry's forwarding list into lists of this
    /// table's own: a fork then never moves a refcount its source's
    /// lookups move.
    fn own_action_lists(&mut self) {
        self.action_lists = ActionLists::new(self.any_step.hash_key);
        for entry in self.slots.iter_mut().flatten() {
            entry.shared_actions = self.action_lists.intern(&entry.shared_actions);
        }
    }

    /// Lookup/hit/miss/eviction counters.
    pub fn stats(&self) -> TableStats {
        self.stats
    }

    /// Rewrites the default action of every rule `applies` selects, records
    /// their scopes and returns how many it selected.
    fn set_defaults(&mut self, new_default: Action, applies: impl Fn(&FlowRule) -> bool) -> usize {
        let mut updated = 0;
        for entry in self.slots.iter_mut().flatten() {
            if applies(&entry.rule) {
                entry.rule.set_default_action(new_default);
                entry.refresh_shared_actions(&mut self.action_lists);
                self.touched |= scope(&entry.rule);
                updated += 1;
            }
        }
        updated
    }

    /// Updates the default action of every rule for service `service` whose
    /// match intersects `flows` — the table half of `ChangeDefault(F, S, T)`.
    ///
    /// Returns the number of rules updated. Only rules that already allow
    /// `new_default` (or rules explicitly forced with `force`) are changed,
    /// preserving the service-graph constraint that NFs may only steer along
    /// existing edges.
    pub fn change_default(
        &mut self,
        service: ServiceId,
        flows: &FlowMatch,
        new_default: Action,
        force: bool,
    ) -> usize {
        self.set_defaults(new_default, |rule| {
            rule.matcher.step == Some(RulePort::Service(service))
                && rule.matcher.intersects(flows)
                && (force || rule.allows(new_default))
        })
    }

    /// Retargets rules whose default currently points at `service` so that
    /// they instead default to `new_default` — used for `SkipMe` (bypass the
    /// service) and `RequestMe` (steal the default edge) messages.
    ///
    /// Returns the number of rules updated.
    pub fn retarget_defaults(
        &mut self,
        pointing_at: ServiceId,
        flows: &FlowMatch,
        new_default: Action,
    ) -> usize {
        if new_default == Action::ToService(pointing_at) {
            return 0;
        }
        self.set_defaults(new_default, |rule| {
            rule.default_action() == Some(Action::ToService(pointing_at))
                && rule.matcher.intersects(flows)
        })
    }

    /// Makes `action` the default of every rule that already lists it as an
    /// allowed action and whose match intersects `flows` — the table half of
    /// `RequestMe(F, S)` ("all nodes that have an edge to S set S as their
    /// default action").
    ///
    /// Returns the number of rules updated.
    pub fn promote_where_allowed(&mut self, flows: &FlowMatch, action: Action) -> usize {
        self.set_defaults(action, |rule| {
            rule.allows(action)
                && rule.default_action() != Some(action)
                && rule.matcher.intersects(flows)
        })
    }

    /// Rules whose step is the given service (the out-edges installed for it).
    pub fn rules_for_service(&self, service: ServiceId) -> Vec<(RuleId, &FlowRule)> {
        self.rules()
            .filter(|(_, rule)| rule.matcher.step == Some(RulePort::Service(service)))
            .collect()
    }
}

/// A [`FlowTable`] shareable between the NF Manager threads.
///
/// In the paper's design the table lock sits outside the per-packet path
/// (lookups are cached in packet descriptors). Here it is *on* the miss
/// path: [`SharedFlowTable::lookup`] takes the **write** lock, because a
/// lookup counts the hit and refreshes the winner's idle timer. A lookup that the worker's cache answers never
/// comes here; one that misses pays an uncontended lock/unlock pair
/// (a few tens of nanoseconds, part of `flowtable.lookup.ns`) on top of
/// the probes. Who contends: each shard looks up in its own partition
/// ([`FlowTablePartitions`](crate::partition::FlowTablePartitions)), so
/// the only other parties on a shard's lock are that shard's rule sweep,
/// NF messages applied to it, and the control plane installing rules or
/// exporting a bucket — never another shard's packets.
///
/// **Generations.** Lock-free per-thread lookup caches detect staleness
/// through 64 partition generations: a cached decision for a flow is
/// tagged with [`SharedFlowTable::generation_for`] its hash — one atomic
/// load — and discarded once that partition's generation moves. Every
/// write publishes exactly the partitions its changes were scoped to (see
/// the module docs): an exact pin bumps its own key's partition, a
/// wildcard or bulk change all 64, a write that changed nothing none.
/// The generations live in cells of type `C`, `std`'s `AtomicU64` unless
/// a model checker supplies its own ([`GenerationCell`]).
#[derive(Debug)]
pub struct SharedFlowTable<C: GenerationCell = AtomicU64> {
    inner: Arc<RwLock<FlowTable>>,
    /// One generation per key-space partition.
    generations: Arc<[C; GENERATION_PARTITIONS]>,
}

/// The atomic cell a [`SharedFlowTable`] keeps each partition generation
/// in: `std`'s `AtomicU64` in the shipping table. `sdnfv-check` implements
/// it over the model checker's recording atomic (`sdnfv-ring`'s `sync`
/// facade) and model-checks the very same `SharedFlowTable` code — this
/// crate does not depend on `sdnfv-ring` itself. The orderings are the
/// table's, passed through.
pub trait GenerationCell: fmt::Debug + Send + Sync + 'static {
    /// A cell holding `value`.
    fn new(value: u64) -> Self;
    /// Atomic load.
    fn load(&self, order: Ordering) -> u64;
    /// Atomic add; returns the previous value.
    fn fetch_add(&self, value: u64, order: Ordering) -> u64;
}

impl GenerationCell for AtomicU64 {
    fn new(value: u64) -> Self {
        AtomicU64::new(value)
    }

    fn load(&self, order: Ordering) -> u64 {
        AtomicU64::load(self, order)
    }

    fn fetch_add(&self, value: u64, order: Ordering) -> u64 {
        AtomicU64::fetch_add(self, value, order)
    }
}

impl<C: GenerationCell> Clone for SharedFlowTable<C> {
    fn clone(&self) -> Self {
        SharedFlowTable {
            inner: Arc::clone(&self.inner),
            generations: Arc::clone(&self.generations),
        }
    }
}

impl<C: GenerationCell> Default for SharedFlowTable<C> {
    fn default() -> Self {
        SharedFlowTable::with_table(FlowTable::new())
    }
}

impl SharedFlowTable {
    /// Creates an empty shared table.
    pub fn new() -> Self {
        SharedFlowTable::default()
    }
}

impl<C: GenerationCell> SharedFlowTable<C> {
    fn with_table(table: FlowTable) -> Self {
        SharedFlowTable {
            inner: Arc::new(RwLock::new(table)),
            generations: Arc::new(std::array::from_fn(|_| C::new(0))),
        }
    }

    /// Moves the generation of every partition the write lock holder's
    /// changes were scoped to. Called after the mutation and before the
    /// lock is released: a reader that sees the new generation is then
    /// certain to find the mutated table behind the lock. Bumping first
    /// would let it pair the new generation with the old table and cache
    /// that for good.
    fn publish(&self, table: &mut FlowTable) {
        let mut touched = table.take_touched();
        while touched != 0 {
            let partition = touched.trailing_zeros() as usize;
            touched &= touched - 1;
            // ORDER: Release pairs with `generation_for`'s Acquire: a
            // reader that sees this value also sees the mutation before it.
            self.generations[partition].fetch_add(1, Ordering::Release);
        }
    }

    /// The generation of the partition a flow whose `stable_hash()` is
    /// `hash` falls in. A cached lookup result tagged with an older value
    /// must be discarded.
    pub fn generation_for(&self, hash: u64) -> u64 {
        // ORDER: Acquire pairs with `publish`'s Release (see there).
        self.generations[generation_partition(hash)].load(Ordering::Acquire)
    }

    /// A counter that increases on every mutation of the table (the sum
    /// of the partition generations).
    pub fn generation(&self) -> u64 {
        self.generations
            .iter()
            // ORDER: Acquire, as `generation_for`.
            .map(|generation| generation.load(Ordering::Acquire))
            .fold(0, u64::wrapping_add)
    }

    /// Installs a rule.
    pub fn insert(&self, rule: FlowRule) -> RuleId {
        self.with_write(|table| table.insert(rule))
    }

    /// Removes a rule.
    pub fn remove(&self, id: RuleId) -> Option<FlowRule> {
        self.with_write(|table| table.remove(id))
    }

    /// Looks up the decision for a flow at a step ([`FlowTable::lookup`])
    /// under the write lock, which the hit count and idle refresh need.
    /// A lookup changes no rule, so it moves no generation.
    pub fn lookup(&self, step: RulePort, key: &FlowKey) -> Option<Decision> {
        self.inner.write().lookup(step, key)
    }

    /// Advances the table clock to `now_ns` and evicts up to
    /// `max_evictions` expired rules (see [`FlowTable::sweep`]), skipping
    /// exact rules whose `(step, key)` is `protected` (mid-re-home).
    /// Publishes the partitions of the rules it evicted and returns their
    /// eviction events.
    pub fn sweep_expired(
        &self,
        now_ns: u64,
        max_evictions: usize,
        protected: impl Fn(&(RulePort, FlowKey)) -> bool,
    ) -> Vec<EvictedRule> {
        let mut guard = self.inner.write();
        guard.advance_clock(now_ns);
        let evicted = guard.sweep(max_evictions, protected);
        self.publish(&mut guard);
        evicted
    }

    /// Runs `f` with read access to the underlying table.
    pub fn with_read<R>(&self, f: impl FnOnce(&FlowTable) -> R) -> R {
        f(&self.inner.read())
    }

    /// Runs `f` with write access to the underlying table, then publishes
    /// the partitions its changes were scoped to (none if it changed
    /// nothing), still under the lock.
    pub fn with_write<R>(&self, f: impl FnOnce(&mut FlowTable) -> R) -> R {
        let mut guard = self.inner.write();
        let result = f(&mut guard);
        self.publish(&mut guard);
        result
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// Returns `true` if the table has no rules.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }

    /// Lookup/hit/miss counters.
    pub fn stats(&self) -> TableStats {
        self.inner.read().stats()
    }

    /// Forks an independent deep copy of the table: same rules (ids,
    /// priorities and installation order preserved), its own lock, its own
    /// interned action lists, zeroed lookup counters, an empty change
    /// record and fresh partition generations.
    ///
    /// This is the seeding step of per-shard partitioning
    /// ([`FlowTablePartitions`](crate::partition::FlowTablePartitions)):
    /// after the fork, mutations on either side are invisible to the other.
    pub fn fork(&self) -> Self {
        let mut copy = self.inner.read().clone();
        copy.stats = TableStats::default();
        copy.touched = 0;
        copy.reset_hit_counts();
        copy.own_action_lists();
        SharedFlowTable::with_table(copy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::IpPrefix;
    use sdnfv_proto::flow::IpProtocol;
    use std::net::Ipv4Addr;

    fn key(src_last: u8) -> FlowKey {
        FlowKey::new(
            Ipv4Addr::new(10, 0, 0, src_last),
            Ipv4Addr::new(192, 168, 1, 1),
            1000,
            80,
            IpProtocol::Tcp,
        )
    }

    fn svc(id: u32) -> ServiceId {
        ServiceId::new(id)
    }

    #[test]
    fn wildcard_rule_matches_everything_at_step() {
        let mut table = FlowTable::new();
        let id = table.insert(FlowRule::new(
            FlowMatch::at_step(RulePort::Nic(0)),
            vec![Action::ToService(svc(1))],
        ));
        let d = table.lookup(RulePort::Nic(0), &key(1)).unwrap();
        assert_eq!(d.rule_id, id);
        assert_eq!(d.default_action(), Some(Action::ToService(svc(1))));
        assert!(table.lookup(RulePort::Nic(1), &key(1)).is_none());
        assert_eq!(table.stats().hits, 1);
        assert_eq!(table.stats().misses, 1);
        assert_eq!(table.hit_count(id), 1);
    }

    #[test]
    fn trace_marker_is_stripped_from_decisions() {
        let mut table = FlowTable::new();
        let id = table.insert(FlowRule::new(
            FlowMatch::at_step(RulePort::Nic(0)),
            vec![Action::Trace, Action::ToPort(2), Action::Drop],
        ));
        let d = table.lookup(RulePort::Nic(0), &key(1)).unwrap();
        assert_eq!(d.rule_id, id);
        assert!(d.trace, "Trace marker must raise the decision flag");
        // Forwarding semantics are untouched: the marker is filtered out, so
        // the default action is the first *forwarding* action.
        assert_eq!(d.default_action(), Some(Action::ToPort(2)));
        assert!(!d.allows(Action::Trace));
        assert!(d.allows(Action::Drop));

        // A rule without the marker yields trace == false.
        let plain = table.insert(FlowRule::new(
            FlowMatch::at_step(RulePort::Nic(1)),
            vec![Action::ToPort(0)],
        ));
        let d = table.lookup(RulePort::Nic(1), &key(1)).unwrap();
        assert_eq!(d.rule_id, plain);
        assert!(!d.trace);
    }

    #[test]
    fn exact_rule_beats_wildcard_of_same_priority() {
        let mut table = FlowTable::new();
        table.insert(FlowRule::new(
            FlowMatch::at_step(RulePort::Nic(0)),
            vec![Action::ToService(svc(1))],
        ));
        let exact = table.insert(FlowRule::new(
            FlowMatch::exact(RulePort::Nic(0), &key(7)),
            vec![Action::ToService(svc(9))],
        ));
        assert_eq!(
            table.lookup(RulePort::Nic(0), &key(7)).unwrap().rule_id,
            exact
        );
        assert_eq!(
            table
                .lookup(RulePort::Nic(0), &key(8))
                .unwrap()
                .default_action(),
            Some(Action::ToService(svc(1)))
        );
    }

    #[test]
    fn higher_priority_wildcard_beats_exact() {
        let mut table = FlowTable::new();
        let exact = table.insert(FlowRule::new(
            FlowMatch::exact(RulePort::Nic(0), &key(7)),
            vec![Action::ToService(svc(9))],
        ));
        let priority = table.insert(
            FlowRule::new(FlowMatch::at_step(RulePort::Nic(0)), vec![Action::Drop])
                .with_priority(100),
        );
        assert_eq!(
            table.lookup(RulePort::Nic(0), &key(7)).unwrap().rule_id,
            priority
        );
        table.remove(priority);
        assert_eq!(
            table.lookup(RulePort::Nic(0), &key(7)).unwrap().rule_id,
            exact
        );
    }

    #[test]
    fn remove_clears_exact_index() {
        let mut table = FlowTable::new();
        let id = table.insert(FlowRule::new(
            FlowMatch::exact(RulePort::Nic(0), &key(7)),
            vec![Action::Drop],
        ));
        assert_eq!(table.len(), 1);
        let removed = table.remove(id).unwrap();
        assert_eq!(removed.actions, vec![Action::Drop]);
        assert!(table.lookup(RulePort::Nic(0), &key(7)).is_none());
        assert!(table.is_empty());
        assert!(table.remove(id).is_none());
    }

    #[test]
    fn specificity_breaks_priority_ties() {
        let mut table = FlowTable::new();
        table.insert(FlowRule::new(
            FlowMatch::at_step(RulePort::Nic(0)),
            vec![Action::ToService(svc(1))],
        ));
        let narrower = table.insert(FlowRule::new(
            FlowMatch::at_step(RulePort::Nic(0))
                .with_src_ip(IpPrefix::new(Ipv4Addr::new(10, 0, 0, 0), 24)),
            vec![Action::ToService(svc(2))],
        ));
        assert_eq!(
            table.lookup(RulePort::Nic(0), &key(5)).unwrap().rule_id,
            narrower
        );
    }

    #[test]
    fn service_step_rules() {
        let mut table = FlowTable::new();
        let id = table.insert(FlowRule::new(
            FlowMatch::at_step(svc(3)),
            vec![Action::ToService(svc(4)), Action::ToPort(1)],
        ));
        let d = table.lookup(RulePort::Service(svc(3)), &key(1)).unwrap();
        assert_eq!(d.rule_id, id);
        assert!(d.allows(Action::ToPort(1)));
        assert_eq!(table.rules_for_service(svc(3)).len(), 1);
        assert_eq!(table.rules_for_service(svc(4)).len(), 0);
    }

    #[test]
    fn change_default_respects_allowed_actions() {
        let mut table = FlowTable::new();
        table.insert(FlowRule::new(
            FlowMatch::at_step(svc(1)),
            vec![Action::ToService(svc(2)), Action::ToService(svc(3))],
        ));
        // svc(3) is allowed, so the default flips.
        let updated =
            table.change_default(svc(1), &FlowMatch::any(), Action::ToService(svc(3)), false);
        assert_eq!(updated, 1);
        assert_eq!(
            table
                .peek(RulePort::Service(svc(1)), &key(1))
                .unwrap()
                .default_action(),
            Some(Action::ToService(svc(3)))
        );
        // svc(9) is not an allowed next hop: without force nothing changes.
        let updated =
            table.change_default(svc(1), &FlowMatch::any(), Action::ToService(svc(9)), false);
        assert_eq!(updated, 0);
        let updated =
            table.change_default(svc(1), &FlowMatch::any(), Action::ToService(svc(9)), true);
        assert_eq!(updated, 1);
    }

    #[test]
    fn change_default_honours_flow_filter() {
        let mut table = FlowTable::new();
        table.insert(FlowRule::new(
            FlowMatch::at_step(svc(1)).with_src_port(1000),
            vec![Action::ToPort(0), Action::ToService(svc(2))],
        ));
        // Filter on a disjoint src port: no rule should change.
        let filter = FlowMatch::any().with_src_port(2000);
        assert_eq!(
            table.change_default(svc(1), &filter, Action::ToService(svc(2)), false),
            0
        );
        // Overlapping filter applies.
        let filter = FlowMatch::any().with_src_port(1000);
        assert_eq!(
            table.change_default(svc(1), &filter, Action::ToService(svc(2)), false),
            1
        );
    }

    #[test]
    fn retarget_defaults_for_skipme() {
        let mut table = FlowTable::new();
        // Firewall (svc 1) defaults to Sampler (svc 2); Sampler defaults to port 0.
        table.insert(FlowRule::new(
            FlowMatch::at_step(svc(1)),
            vec![Action::ToService(svc(2)), Action::ToPort(0)],
        ));
        table.insert(FlowRule::new(
            FlowMatch::at_step(svc(2)),
            vec![Action::ToPort(0)],
        ));
        // SkipMe(svc 2): everything defaulting to svc 2 now defaults to svc 2's default.
        let updated = table.retarget_defaults(svc(2), &FlowMatch::any(), Action::ToPort(0));
        assert_eq!(updated, 1);
        assert_eq!(
            table
                .peek(RulePort::Service(svc(1)), &key(1))
                .unwrap()
                .default_action(),
            Some(Action::ToPort(0))
        );
    }

    #[test]
    fn promote_where_allowed_is_requestme() {
        let mut table = FlowTable::new();
        // Sampler (svc 2) may send to the scrubber (svc 5) but defaults out.
        table.insert(FlowRule::new(
            FlowMatch::at_step(svc(2)),
            vec![Action::ToPort(0), Action::ToService(svc(5))],
        ));
        // The firewall (svc 1) has no edge to the scrubber.
        table.insert(FlowRule::new(
            FlowMatch::at_step(svc(1)),
            vec![Action::ToService(svc(2))],
        ));
        let updated = table.promote_where_allowed(&FlowMatch::any(), Action::ToService(svc(5)));
        assert_eq!(updated, 1);
        assert_eq!(
            table
                .peek(RulePort::Service(svc(2)), &key(1))
                .unwrap()
                .default_action(),
            Some(Action::ToService(svc(5)))
        );
        assert_eq!(
            table
                .peek(RulePort::Service(svc(1)), &key(1))
                .unwrap()
                .default_action(),
            Some(Action::ToService(svc(2)))
        );
        // Promoting again changes nothing (already the default).
        assert_eq!(
            table.promote_where_allowed(&FlowMatch::any(), Action::ToService(svc(5))),
            0
        );
    }

    #[test]
    fn shared_table_generation_tracks_mutations() {
        let shared = SharedFlowTable::new();
        let g0 = shared.generation();
        let id = shared.insert(FlowRule::new(FlowMatch::any(), vec![Action::Drop]));
        assert!(shared.generation() > g0);
        let g1 = shared.generation();
        // Lookups do not bump the generation.
        let _ = shared.lookup(RulePort::Nic(0), &key(1));
        assert_eq!(shared.generation(), g1);
        shared.remove(id);
        assert!(shared.generation() > g1);
    }

    #[test]
    fn generation_moves_only_once_the_mutation_is_visible() {
        // A reader that sees the new generation must find the new table.
        // Bumping before taking the write lock let it pair the new
        // generation with the old table; so the generation read from
        // inside the mutation must still be the old one.
        let shared = SharedFlowTable::new();
        let observer = shared.clone();
        let inside = shared.with_write(|table| {
            table.insert(FlowRule::new(FlowMatch::any(), vec![Action::Drop]));
            observer.generation()
        });
        assert!(
            shared.generation() > inside,
            "the bump belongs after the mutation, under the lock"
        );
    }

    #[test]
    fn shared_table_is_usable_from_clones() {
        let shared = SharedFlowTable::new();
        let clone = shared.clone();
        shared.insert(FlowRule::new(
            FlowMatch::at_step(RulePort::Nic(0)),
            vec![Action::ToService(svc(1))],
        ));
        assert_eq!(clone.len(), 1);
        assert!(!clone.is_empty());
        assert!(clone.lookup(RulePort::Nic(0), &key(2)).is_some());
        assert_eq!(clone.stats().hits, 1);
        clone.with_write(|t| {
            t.insert(FlowRule::new(FlowMatch::any(), vec![Action::Drop]));
        });
        assert_eq!(shared.with_read(|t| t.len()), 2);
    }

    #[test]
    fn parallel_decision_propagates_flag() {
        let mut table = FlowTable::new();
        table.insert(FlowRule::parallel(
            FlowMatch::at_step(svc(1)),
            vec![Action::ToService(svc(2)), Action::ToService(svc(3))],
        ));
        let d = table.lookup(RulePort::Service(svc(1)), &key(1)).unwrap();
        assert!(d.parallel);
        assert_eq!(d.actions.len(), 2);
    }

    #[test]
    fn decisions_share_the_action_list() {
        let mut table = FlowTable::new();
        table.insert(FlowRule::new(
            FlowMatch::at_step(RulePort::Nic(0)),
            vec![Action::ToPort(1)],
        ));
        let a = table.lookup(RulePort::Nic(0), &key(1)).unwrap();
        let b = table.lookup(RulePort::Nic(0), &key(2)).unwrap();
        // Both decisions point at the same allocation — the per-lookup
        // action-vector clone is gone.
        assert!(Arc::ptr_eq(&a.actions, &b.actions));
    }

    #[test]
    fn rules_that_forward_alike_share_one_list() {
        let mut table = FlowTable::new();
        let pin =
            |last, actions| FlowRule::new(FlowMatch::exact(RulePort::Nic(0), &key(last)), actions);
        table.insert(pin(1, vec![Action::ToService(svc(1))]));
        table.insert(pin(2, vec![Action::Trace, Action::ToService(svc(1))]));
        table.insert(pin(3, vec![Action::ToService(svc(2))]));
        let actions = |table: &mut FlowTable, last| {
            table.lookup(RulePort::Nic(0), &key(last)).unwrap().actions
        };
        let (one, two, three) = (
            actions(&mut table, 1),
            actions(&mut table, 2),
            actions(&mut table, 3),
        );
        assert!(
            Arc::ptr_eq(&one, &two),
            "the marker is not part of the list"
        );
        assert!(!Arc::ptr_eq(&one, &three));
        assert_eq!(table.action_lists.0.len(), 2);
    }

    #[test]
    fn a_list_nothing_holds_goes_at_the_next_sweep() {
        let mut table = FlowTable::new();
        let kept = table.insert(FlowRule::new(
            FlowMatch::at_step(RulePort::Nic(0)),
            vec![Action::ToPort(1)],
        ));
        let gone = table.insert(FlowRule::new(
            FlowMatch::at_step(RulePort::Nic(1)),
            vec![Action::ToPort(2)],
        ));
        let held = table.lookup(RulePort::Nic(1), &key(1)).unwrap();
        table.remove(gone);
        table.sweep(16, |_| false);
        assert_eq!(table.action_lists.0.len(), 2, "a decision still holds it");
        drop(held);
        table.sweep(16, |_| false);
        assert_eq!(table.action_lists.0.len(), 1);
        // A rewrite re-interns: the old list goes at the next sweep.
        let menu = vec![Action::ToPort(1), Action::ToService(svc(2))];
        table.insert(FlowRule::new(FlowMatch::at_step(svc(1)), menu));
        assert_eq!(table.action_lists.0.len(), 2);
        let to_svc2 = Action::ToService(svc(2));
        assert_eq!(
            table.change_default(svc(1), &FlowMatch::any(), to_svc2, false),
            1
        );
        assert_eq!(table.action_lists.0.len(), 3);
        table.sweep(16, |_| false);
        assert_eq!(table.action_lists.0.len(), 2);
        assert!(table.rule(kept).is_some());
    }

    #[test]
    fn a_fork_has_lists_of_its_own() {
        let shared = SharedFlowTable::new();
        for last in 1..=2 {
            shared.insert(FlowRule::new(
                FlowMatch::exact(RulePort::Nic(0), &key(last)),
                vec![Action::ToService(svc(1))],
            ));
        }
        let fork = shared.fork();
        let source = shared.lookup(RulePort::Nic(0), &key(1)).unwrap().actions;
        let forked = fork.lookup(RulePort::Nic(0), &key(1)).unwrap().actions;
        let forked_other = fork.lookup(RulePort::Nic(0), &key(2)).unwrap().actions;
        assert_eq!(source, forked);
        assert!(!Arc::ptr_eq(&source, &forked), "no refcount line is shared");
        assert!(
            Arc::ptr_eq(&forked, &forked_other),
            "the fork still interns"
        );
    }

    #[test]
    fn bulk_mutation_refreshes_shared_actions() {
        let mut table = FlowTable::new();
        table.insert(FlowRule::new(
            FlowMatch::at_step(svc(1)),
            vec![Action::ToPort(0), Action::ToService(svc(2))],
        ));
        let before = table.lookup(RulePort::Service(svc(1)), &key(1)).unwrap();
        assert_eq!(before.default_action(), Some(Action::ToPort(0)));
        table.change_default(svc(1), &FlowMatch::any(), Action::ToService(svc(2)), false);
        let after = table.lookup(RulePort::Service(svc(1)), &key(1)).unwrap();
        assert_eq!(after.default_action(), Some(Action::ToService(svc(2))));
        // The stale decision still sees the old list (detached snapshot).
        assert_eq!(before.default_action(), Some(Action::ToPort(0)));
    }

    #[test]
    fn exact_insert_replaces_previous_exact_rule() {
        let mut table = FlowTable::new();
        let old = table.insert(FlowRule::new(
            FlowMatch::exact(RulePort::Nic(0), &key(7)),
            vec![Action::Drop],
        ));
        let new = table.insert(FlowRule::new(
            FlowMatch::exact(RulePort::Nic(0), &key(7)),
            vec![Action::ToPort(1)],
        ));
        assert_eq!(table.len(), 1);
        assert!(table.rule(old).is_none());
        assert_eq!(
            table.lookup(RulePort::Nic(0), &key(7)).unwrap().rule_id,
            new
        );
    }

    #[test]
    fn idle_timeout_is_refreshed_by_traffic() {
        let mut table = FlowTable::new();
        let id = table.insert(
            FlowRule::new(
                FlowMatch::exact(RulePort::Nic(0), &key(7)),
                vec![Action::ToPort(1)],
            )
            .with_idle_timeout_ns(Some(100)),
        );
        // Traffic every 60 ns keeps the rule alive well past 100 ns.
        for step in 1..=5u64 {
            table.advance_clock(step * 60);
            assert!(table.lookup(RulePort::Nic(0), &key(7)).is_some());
            assert!(table.sweep(16, |_| false).is_empty());
        }
        // 100 ns of silence idles it out via the sweep.
        table.advance_clock(5 * 60 + 100);
        let events = table.sweep(16, |_| false);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].id, id);
        assert_eq!(events[0].reason, EvictReason::Idle);
        assert_eq!(
            events[0].exact,
            Some((RulePort::Nic(0), key(7))),
            "exact key travels with the event for NF state cleanup"
        );
        assert!(table.lookup(RulePort::Nic(0), &key(7)).is_none());
        assert_eq!(table.stats().evicted_idle, 1);
    }

    #[test]
    fn hard_timeout_fires_under_traffic() {
        let mut table = FlowTable::new();
        let id = table.insert(
            FlowRule::new(
                FlowMatch::exact(RulePort::Nic(0), &key(7)),
                vec![Action::ToPort(1)],
            )
            .with_hard_timeout_ns(Some(100)),
        );
        table.advance_clock(90);
        assert!(table.lookup(RulePort::Nic(0), &key(7)).is_some());
        // Constant traffic does not save it from the hard deadline: the
        // next lookup skips it, and the sweep evicts it.
        table.advance_clock(100);
        assert!(table.lookup(RulePort::Nic(0), &key(7)).is_none());
        assert_eq!(table.stats().evicted_hard, 0, "a lookup evicts nothing");
        let events = table.sweep(16, |_| false);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].id, id);
        assert_eq!(events[0].reason, EvictReason::Hard);
        assert_eq!(table.stats().evicted_hard, 1);
    }

    #[test]
    fn a_decision_says_whether_its_rule_can_expire() {
        let mut table = FlowTable::new();
        let at = |last| FlowMatch::exact(RulePort::Nic(0), &key(last));
        let rule = |last| FlowRule::new(at(last), vec![Action::ToPort(1)]);
        table.insert(rule(1));
        table.insert(rule(2).with_idle_timeout_ns(Some(100)));
        table.insert(rule(3).with_hard_timeout_ns(Some(100)));
        let timed =
            |table: &mut FlowTable, last| table.lookup(RulePort::Nic(0), &key(last)).unwrap().timed;
        assert!(!timed(&mut table, 1), "a permanent rule");
        assert!(timed(&mut table, 2), "an idle timeout");
        assert!(timed(&mut table, 3), "a hard timeout");
    }

    #[test]
    fn expired_exact_rule_falls_back_to_wildcard() {
        let mut table = FlowTable::new();
        let wild = table.insert(FlowRule::new(
            FlowMatch::at_step(RulePort::Nic(0)),
            vec![Action::ToService(svc(1))],
        ));
        table.insert(
            FlowRule::new(
                FlowMatch::exact(RulePort::Nic(0), &key(7)),
                vec![Action::Drop],
            )
            .with_hard_timeout_ns(Some(50)),
        );
        table.advance_clock(50);
        // The expired exact rule is skipped and the wildcard wins; the
        // rule stays installed until the sweep evicts it.
        let d = table.lookup(RulePort::Nic(0), &key(7)).unwrap();
        assert_eq!(d.rule_id, wild);
        assert_eq!(table.len(), 2);
        assert_eq!(table.sweep(16, |_| false).len(), 1);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn sweep_defers_protected_exact_rules() {
        let mut table = FlowTable::new();
        let id = table.insert(
            FlowRule::new(
                FlowMatch::exact(RulePort::Nic(0), &key(7)),
                vec![Action::ToPort(1)],
            )
            .with_hard_timeout_ns(Some(10)),
        );
        table.advance_clock(100);
        // Protected (e.g. its bucket is mid-re-home): the sweep skips it.
        assert!(table.sweep(16, |_| true).is_empty());
        assert!(table.rule(id).is_some());
        // Once the protection lifts, the deferred deadline fires.
        assert_eq!(table.sweep(16, |_| false).len(), 1);
        assert!(table.rule(id).is_none());
    }

    #[test]
    fn sweep_is_bounded_per_call() {
        let mut table = FlowTable::new();
        for last in 0..8u8 {
            table.insert(
                FlowRule::new(
                    FlowMatch::exact(RulePort::Nic(0), &key(last)),
                    vec![Action::Drop],
                )
                .with_hard_timeout_ns(Some(10)),
            );
        }
        table.advance_clock(100);
        assert_eq!(table.sweep(3, |_| false).len(), 3);
        assert_eq!(table.len(), 5);
        assert_eq!(table.sweep(100, |_| false).len(), 5);
        assert!(table.is_empty());
    }

    #[test]
    fn peek_skips_expired_without_evicting() {
        let mut table = FlowTable::new();
        table.insert(
            FlowRule::new(
                FlowMatch::exact(RulePort::Nic(0), &key(7)),
                vec![Action::Drop],
            )
            .with_hard_timeout_ns(Some(10)),
        );
        table.advance_clock(50);
        assert!(table.peek(RulePort::Nic(0), &key(7)).is_none());
        // Neither a peek nor a lookup evicts: the rule is still installed
        // until the sweep evicts it.
        assert!(table.lookup(RulePort::Nic(0), &key(7)).is_none());
        assert_eq!(table.len(), 1);
        assert_eq!(table.sweep(16, |_| false).len(), 1);
        assert!(table.is_empty());
    }

    /// Every partition's generation, in partition order.
    fn generations(shared: &SharedFlowTable) -> Vec<u64> {
        (0..GENERATION_PARTITIONS as u64)
            .map(|partition| shared.generation_for(partition << 58))
            .collect()
    }

    /// The partitions whose generation moved from `before` to `after`.
    fn moved(before: &[u64], after: &[u64]) -> Vec<usize> {
        (0..GENERATION_PARTITIONS)
            .filter(|&p| after[p] != before[p])
            .collect()
    }

    fn own_partition(key: &FlowKey) -> Vec<usize> {
        vec![generation_partition(key.stable_hash())]
    }

    #[test]
    fn partitions_are_the_top_six_hash_bits() {
        assert_eq!(generation_partition(0), 0);
        assert_eq!(generation_partition((1 << 58) - 1), 0);
        assert_eq!(generation_partition(1 << 58), 1);
        assert_eq!(generation_partition(u64::MAX), GENERATION_PARTITIONS - 1);
    }

    #[test]
    fn shared_sweep_bumps_generation_only_on_eviction() {
        let shared = SharedFlowTable::new();
        shared.insert(
            FlowRule::new(
                FlowMatch::exact(RulePort::Nic(0), &key(7)),
                vec![Action::Drop],
            )
            .with_hard_timeout_ns(Some(100)),
        );
        let (before, g) = (generations(&shared), shared.generation());
        assert!(shared.sweep_expired(50, 16, |_| false).is_empty());
        assert_eq!(generations(&shared), before, "no eviction, no invalidation");
        let events = shared.sweep_expired(100, 16, |_| false);
        assert_eq!(events.len(), 1);
        assert_eq!(
            moved(&before, &generations(&shared)),
            own_partition(&key(7)),
            "the evicted key's partition moves, no other"
        );
        assert!(shared.generation() > g);
        // A lookup that meets an expired pin skips it and moves nothing;
        // the sweep that evicts it moves its partition.
        shared.insert(
            FlowRule::new(
                FlowMatch::exact(RulePort::Nic(0), &key(8)),
                vec![Action::Drop],
            )
            .with_hard_timeout_ns(Some(10)),
        );
        let before = generations(&shared);
        shared.with_write(|t| t.advance_clock(200));
        assert_eq!(generations(&shared), before, "a clock move changes nothing");
        assert!(shared.lookup(RulePort::Nic(0), &key(8)).is_none());
        assert_eq!(generations(&shared), before, "a lookup moves nothing");
        assert_eq!(shared.sweep_expired(200, 16, |_| false).len(), 1);
        assert_eq!(
            moved(&before, &generations(&shared)),
            own_partition(&key(8))
        );
    }

    /// Runs `f` through `with_write` and says which partitions it moved.
    fn moved_by<R>(
        shared: &SharedFlowTable,
        f: impl FnOnce(&mut FlowTable) -> R,
    ) -> (R, Vec<usize>) {
        let before = generations(shared);
        let result = shared.with_write(f);
        (result, moved(&before, &generations(shared)))
    }

    #[test]
    fn exact_changes_move_their_partition_and_wildcard_ones_every_partition() {
        let shared = SharedFlowTable::new();
        let every: Vec<usize> = (0..GENERATION_PARTITIONS).collect();
        let pinned = own_partition(&key(7));
        let actions = || vec![Action::ToPort(0), Action::ToService(svc(2))];
        let (pin, moved) = moved_by(&shared, |t| {
            t.insert(FlowRule::new(FlowMatch::exact(svc(1), &key(7)), actions()))
        });
        assert_eq!(moved, pinned, "exact insert");
        let to_scrubber = Action::ToService(svc(2));
        let change =
            |t: &mut FlowTable| t.change_default(svc(1), &FlowMatch::any(), to_scrubber, false);
        assert_eq!(
            moved_by(&shared, change),
            (1, pinned.clone()),
            "exact rewrite"
        );
        let wildcard = FlowRule::new(FlowMatch::at_step(svc(3)), actions());
        assert_eq!(
            moved_by(&shared, |t| t.insert(wildcard)).1,
            every,
            "wildcard insert"
        );
        let skip = |t: &mut FlowTable| t.retarget_defaults(svc(2), &FlowMatch::any(), Action::Drop);
        assert_eq!(
            moved_by(&shared, skip),
            (1, pinned.clone()),
            "SkipMe rewrites the pin"
        );
        let request = |t: &mut FlowTable| t.promote_where_allowed(&FlowMatch::any(), to_scrubber);
        assert_eq!(
            moved_by(&shared, request),
            (2, every),
            "RequestMe rewrites both"
        );
        let remove = |t: &mut FlowTable| t.remove(pin).is_some();
        assert_eq!(moved_by(&shared, remove), (true, pinned), "exact remove");
    }

    #[test]
    fn a_write_that_changes_nothing_moves_nothing() {
        let shared = SharedFlowTable::new();
        let id = shared.insert(FlowRule::new(
            FlowMatch::at_step(svc(1)),
            vec![Action::ToPort(0)],
        ));
        let (before, g) = (generations(&shared), shared.generation());
        shared.with_write(|_| ());
        // A rejected ChangeDefault: the next hop is not an allowed edge.
        let rejected =
            shared.with_write(|t| t.change_default(svc(1), &FlowMatch::any(), Action::Drop, false));
        assert_eq!(rejected, 0);
        assert!(shared.remove(RuleId(id.0 + 1)).is_none());
        assert!(shared.lookup(RulePort::Service(svc(1)), &key(1)).is_some());
        assert_eq!(generations(&shared), before);
        assert_eq!(shared.generation(), g);
    }

    #[test]
    fn a_fork_starts_with_an_empty_record_and_its_own_partitions() {
        let shared = SharedFlowTable::new();
        shared.insert(FlowRule::new(
            FlowMatch::at_step(RulePort::Nic(0)),
            vec![Action::ToPort(1)],
        ));
        // A change made on the table itself is recorded, not yet published.
        shared.inner.write().insert(FlowRule::new(
            FlowMatch::exact(RulePort::Nic(0), &key(7)),
            vec![Action::Drop],
        ));
        let source = generations(&shared);
        let fork = shared.fork();
        assert_eq!(fork.inner.read().touched, 0, "the record does not travel");
        assert_eq!(generations(&fork), vec![0; GENERATION_PARTITIONS]);
        assert_eq!(fork.len(), 2);
        fork.insert(FlowRule::new(
            FlowMatch::exact(RulePort::Nic(0), &key(8)),
            vec![Action::Drop],
        ));
        assert_eq!(
            moved(&[0; GENERATION_PARTITIONS], &generations(&fork)),
            own_partition(&key(8))
        );
        assert_eq!(
            generations(&shared),
            source,
            "the source's partitions are its own"
        );
    }

    #[test]
    fn tuple_space_probes_in_priority_order() {
        let mut table = FlowTable::new();
        // Three shapes: step-only, step+src/24, step+src_port.
        table.insert(FlowRule::new(
            FlowMatch::at_step(RulePort::Nic(0)),
            vec![Action::ToPort(0)],
        ));
        let by_prefix = table.insert(
            FlowRule::new(
                FlowMatch::at_step(RulePort::Nic(0))
                    .with_src_ip(IpPrefix::new(Ipv4Addr::new(10, 0, 0, 0), 24)),
                vec![Action::ToPort(1)],
            )
            .with_priority(5),
        );
        let by_port = table.insert(
            FlowRule::new(
                FlowMatch::at_step(RulePort::Nic(0)).with_src_port(1000),
                vec![Action::ToPort(2)],
            )
            .with_priority(9),
        );
        // key() has src 10.0.0.x and src_port 1000: the priority-9 shape wins.
        assert_eq!(
            table.lookup(RulePort::Nic(0), &key(1)).unwrap().rule_id,
            by_port
        );
        table.remove(by_port);
        assert_eq!(
            table.lookup(RulePort::Nic(0), &key(1)).unwrap().rule_id,
            by_prefix
        );
        // A key outside the /24 falls through to the step-only shape.
        let outside = FlowKey::new(
            Ipv4Addr::new(11, 0, 0, 1),
            Ipv4Addr::new(192, 168, 1, 1),
            2000,
            80,
            IpProtocol::Tcp,
        );
        assert_eq!(
            table
                .lookup(RulePort::Nic(0), &outside)
                .unwrap()
                .default_action(),
            Some(Action::ToPort(0))
        );
    }

    /// `any_flow` of the lookup of `key` at `step`.
    fn any_flow(table: &mut FlowTable, step: RulePort, key: &FlowKey) -> bool {
        table.lookup(step, key).expect("a rule matches").any_flow
    }

    /// Ports whose flows fall in as many different generation partitions.
    fn partition_spread(count: usize) -> Vec<u8> {
        let mut seen = std::collections::HashSet::new();
        (0..=u8::MAX)
            .filter(|&last| seen.insert(generation_partition(key(last).stable_hash())))
            .take(count)
            .collect()
    }

    #[test]
    fn one_exact_rule_of_any_partition_makes_its_step_flow_dependent() {
        let (ingress, other_step) = (RulePort::Nic(0), RulePort::Service(svc(1)));
        let forward = |step| FlowRule::new(FlowMatch::at_step(step), vec![Action::ToPort(1)]);
        let spread = partition_spread(3);
        for pinned in spread.clone() {
            let mut table = FlowTable::new();
            table.insert(forward(ingress));
            table.insert(forward(other_step));
            assert!(spread
                .iter()
                .all(|&last| any_flow(&mut table, ingress, &key(last))));
            let pin = table.insert(FlowRule::new(
                FlowMatch::exact(ingress, &key(pinned)),
                vec![Action::Drop],
            ));
            for &last in &spread {
                assert!(
                    !any_flow(&mut table, ingress, &key(last)),
                    "a pin in partition {pinned} and a flow of {last}'s"
                );
                assert!(any_flow(&mut table, other_step, &key(last)), "another step");
            }
            table.remove(pin);
            assert!(spread
                .iter()
                .all(|&last| any_flow(&mut table, ingress, &key(last))));
        }
    }

    #[test]
    fn a_step_is_flow_independent_again_once_its_last_exact_rule_idles_out() {
        let ingress = RulePort::Nic(0);
        let mut table = FlowTable::new();
        table.insert(FlowRule::new(
            FlowMatch::at_step(ingress),
            vec![Action::ToPort(1)],
        ));
        table.insert(
            FlowRule::new(FlowMatch::exact(ingress, &key(7)), vec![Action::Drop])
                .with_idle_timeout_ns(Some(100)),
        );
        assert!(!any_flow(&mut table, ingress, &key(8)));
        table.advance_clock(100);
        assert_eq!(table.sweep(16, |_| false).len(), 1);
        assert!(any_flow(&mut table, ingress, &key(7)));
        // A step named by exact rules only has no space once they are gone.
        let mut table = FlowTable::new();
        let only = table.insert(FlowRule::new(
            FlowMatch::exact(ingress, &key(7)),
            vec![Action::Drop],
        ));
        assert!(!any_flow(&mut table, ingress, &key(7)));
        table.remove(only);
        assert!(table.stepped.is_empty());
    }

    #[test]
    fn replacing_an_exact_rule_keeps_its_steps_count() {
        let ingress = RulePort::Nic(0);
        let exact_rules = |table: &FlowTable| {
            table
                .stepped
                .get(&ingress)
                .map(|s| s.exact.0.values().sum::<usize>())
        };
        let mut table = FlowTable::new();
        table.insert(FlowRule::new(
            FlowMatch::at_step(ingress),
            vec![Action::ToPort(1)],
        ));
        let pin = |action| FlowRule::new(FlowMatch::exact(ingress, &key(7)), vec![action]);
        table.insert(pin(Action::Drop));
        let replacement = table.insert(pin(Action::ToPort(2)));
        assert_eq!(exact_rules(&table), Some(1));
        assert!(!any_flow(&mut table, ingress, &key(8)));
        table.remove(replacement);
        assert_eq!(exact_rules(&table), Some(0));
        assert!(any_flow(&mut table, ingress, &key(8)));
    }

    #[test]
    fn only_a_probed_shape_that_constrains_a_field_makes_an_answer_flow_dependent() {
        let ingress = RulePort::Nic(0);
        let by_port = |at: FlowMatch, priority| {
            FlowRule::new(at.with_src_port(2000), vec![Action::Drop]).with_priority(priority)
        };
        let mut table = FlowTable::new();
        table.insert(
            FlowRule::new(FlowMatch::at_step(ingress), vec![Action::ToPort(1)]).with_priority(5),
        );
        // Below the step's default, the early exit never probes it.
        table.insert(by_port(FlowMatch::at_step(ingress), 1));
        table.insert(by_port(FlowMatch::any(), 1));
        assert!(any_flow(&mut table, ingress, &key(1)));
        // A `/0` prefix matches every address alike.
        let everywhere = IpPrefix::new(Ipv4Addr::UNSPECIFIED, 0);
        table.insert(
            FlowRule::new(
                FlowMatch::at_step(ingress).with_src_ip(everywhere),
                vec![Action::ToPort(2)],
            )
            .with_priority(6),
        );
        assert!(any_flow(&mut table, ingress, &key(1)));
        // Probed, in the step's own space or the step-less one, a shape
        // that looks at a field clears the flag even for a key it misses.
        for at in [FlowMatch::at_step(ingress), FlowMatch::any()] {
            let id = table.insert(by_port(at, 9));
            let answer = table.lookup(ingress, &key(1)).unwrap();
            assert_eq!(answer.default_action(), Some(Action::ToPort(2)));
            assert!(!answer.any_flow);
            table.remove(id);
            assert!(any_flow(&mut table, ingress, &key(1)));
        }
    }

    #[test]
    fn a_fork_carries_the_exact_rule_counts() {
        let ingress = RulePort::Nic(0);
        let shared = SharedFlowTable::new();
        shared.insert(FlowRule::new(
            FlowMatch::at_step(ingress),
            vec![Action::ToPort(1)],
        ));
        let pin = shared.insert(FlowRule::new(
            FlowMatch::exact(ingress, &key(7)),
            vec![Action::Drop],
        ));
        let fork = shared.fork();
        assert!(!fork.lookup(ingress, &key(8)).unwrap().any_flow);
        fork.remove(pin);
        assert!(fork.lookup(ingress, &key(8)).unwrap().any_flow);
        assert!(!shared.lookup(ingress, &key(8)).unwrap().any_flow);
    }

    /// A table shaped like the benchmark's `flows64k`: a three-NF chain,
    /// exact pins at ingress, and six more ingress mask shapes one
    /// priority above the pins.
    fn crowded_table(pinned: &[FlowKey]) -> FlowTable {
        let ingress = RulePort::Nic(0);
        let mut table = FlowTable::new();
        table.insert(FlowRule::new(
            FlowMatch::at_step(ingress),
            vec![Action::ToService(svc(1))],
        ));
        for hop in 1..=3 {
            let next = if hop < 3 {
                Action::ToService(svc(hop + 1))
            } else {
                Action::ToPort(1)
            };
            table.insert(FlowRule::new(FlowMatch::at_step(svc(hop)), vec![next]));
        }
        for key in pinned {
            table.insert(FlowRule::new(
                FlowMatch::exact(ingress, key),
                vec![Action::ToService(svc(1))],
            ));
        }
        let at = || FlowMatch::at_step(ingress);
        let shapes = [
            at().with_src_ip(IpPrefix::new(Ipv4Addr::new(10, 8, 0, 0), 16)),
            at().with_dst_ip(IpPrefix::host(Ipv4Addr::new(172, 16, 0, 4))),
            at().with_dst_port(8080),
            at().with_src_ip(IpPrefix::new(Ipv4Addr::new(10, 0, 0, 0), 8))
                .with_dst_port(8443),
            at().with_protocol(IpProtocol::Udp)
                .with_dst_ip(IpPrefix::new(Ipv4Addr::new(172, 16, 1, 0), 24)),
            at().with_src_port(100),
        ];
        for matcher in shapes {
            table.insert(FlowRule::new(matcher, vec![Action::ToService(svc(1))]).with_priority(1));
        }
        table
    }

    /// SplitMix64, for the seeded tests.
    struct Rng(u64);

    impl Rng {
        /// Uniform in `0..n`.
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }

        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[self.below(from.len() as u64) as usize]
        }

        /// `Some` half of the time.
        fn maybe<T>(&mut self, make: impl FnOnce(&mut Self) -> T) -> Option<T> {
            (self.below(2) == 0).then(|| make(self))
        }
    }

    #[test]
    fn a_packed_key_meets_a_masked_rule_exactly_when_the_rule_matches() {
        let protocols = [
            IpProtocol::Icmp,
            IpProtocol::Tcp,
            IpProtocol::Udp,
            IpProtocol::Other(0),
            IpProtocol::Other(1),
            IpProtocol::Other(6),
            IpProtocol::Other(17),
            IpProtocol::Other(255),
        ];
        let ports = [0, 1, 80, 65535];
        // Addresses one bit apart at either end, so every prefix length
        // drawn splits some pair of them.
        let addrs = [0x0a00_0000, 0x0a00_0001, 0x8a00_0000, 0x0b00_0000, u32::MAX];
        let addr = |rng: &mut Rng| Ipv4Addr::from(rng.pick(&addrs));
        let prefix = |rng: &mut Rng| IpPrefix {
            addr: addr(rng),
            len: rng.pick(&[0, 1, 7, 31, 32, 33]),
        };
        let mut rng = Rng(31);
        let mut matched = 0;
        for round in 0..20_000 {
            let key = FlowKey::new(
                addr(&mut rng),
                addr(&mut rng),
                rng.pick(&ports),
                rng.pick(&ports),
                rng.pick(&protocols),
            );
            let m = FlowMatch {
                step: None,
                src_ip: rng.maybe(prefix),
                dst_ip: rng.maybe(prefix),
                src_port: rng.maybe(|rng| rng.pick(&ports)),
                dst_port: rng.maybe(|rng| rng.pick(&ports)),
                protocol: rng.maybe(|rng| rng.pick(&protocols)),
            };
            let shape = MaskShape::of(&m);
            let meets = shape.project(pack_key(&key)) == shape.mask_rule(&m);
            let matches = m.matches(RulePort::Nic(0), &key);
            assert_eq!(meets, matches, "round {round}: {m:?} against {key:?}");
            matched += usize::from(matches);
        }
        assert!((2_000..18_000).contains(&matched), "{matched} matched");
    }

    #[test]
    fn a_match_all_prefix_and_an_absent_one_are_different_shapes() {
        let mut table = FlowTable::new();
        let everywhere = IpPrefix::new(Ipv4Addr::UNSPECIFIED, 0);
        let rule = |m| FlowRule::new(m, vec![Action::Drop]);
        table.insert(rule(FlowMatch::any()));
        table.insert(rule(FlowMatch::any().with_src_ip(everywhere)));
        table.insert(rule(FlowMatch::any().with_dst_ip(everywhere)));
        let shapes = &table.any_step.shapes;
        assert_eq!(shapes.len(), 3, "one bucket each");
        assert!(shapes.iter().all(|bucket| bucket.shape.ignores_key()));
        let mut specificities: Vec<u32> = shapes.iter().map(|b| b.specificity).collect();
        specificities.sort();
        assert_eq!(specificities, [0, 1, 1]);
        // The more specific `/0` rule wins a priority tie.
        let winner = table.lookup(RulePort::Nic(0), &key(1)).unwrap().rule_id;
        assert_eq!(table.rule(winner).unwrap().matcher.specificity(), 1);
    }

    #[test]
    fn shape_probes_per_lookup_on_a_crowded_table() {
        let ingress = RulePort::Nic(0);
        let flow = |src: [u8; 4], dst_port| {
            FlowKey::new(
                Ipv4Addr::from(src),
                Ipv4Addr::new(192, 168, 1, 1),
                1000,
                dst_port,
                IpProtocol::Tcp,
            )
        };
        let pinned = flow([11, 0, 0, 1], 80);
        let in_a_shape = flow([10, 8, 3, 3], 80); // inside 10.8.0.0/16
        let pinned_in_a_shape = flow([10, 8, 3, 4], 80);
        let on_a_port = flow([11, 0, 0, 4], 8080);
        let in_none = flow([11, 0, 0, 2], 80);
        // The ingress step's probe order, by (ceiling, specificity):
        //   1. dst 172.16.0.4/32          (1, 1 + 33 = 34)
        //   2. UDP + dst 172.16.1.0/24    (1, 1 + 4 + 25 = 30)
        //   3. src 10.0.0.0/8 + dst port  (1, 1 + 9 + 16 = 26)
        //   4. src 10.8.0.0/16            (1, 1 + 17 = 18)
        //   5. dst port 8080              (1, 1 + 16 = 17), created first
        //   6. src port 100               (1, 17)
        //   7. the exact index            (0, above every wildcard)
        //   8. the step-only shape        (0, 1)
        // The walk stops at the first source that ranks below the best
        // candidate's (priority, specificity); an equal rank goes on.
        let cases = [
            // No priority-1 match; the pin (0, exact) outranks the
            // step-only shape: 1–7, seven probes.
            (ingress, pinned, 7),
            // Shape 4 matches, (1, 18); shape 5 ranks below it: 1–4.
            (ingress, in_a_shape, 4),
            // The same, pinned: the exact index ranks below the match
            // and is never probed, so the wildcard answers. 1–4.
            (ingress, pinned_in_a_shape, 4),
            // Shape 5 matches, (1, 17); shape 6 ties and may still win
            // by id, the exact index ranks below: 1–6.
            (ingress, on_a_port, 6),
            // Nothing matches before the step-only shape: 1–8.
            (ingress, in_none, 8),
            // A service step has one shape and no exact rule, and the
            // ingress step's sources are not its business.
            (RulePort::Service(svc(1)), pinned, 1),
            (RulePort::Service(svc(3)), in_none, 1),
        ];
        // Every table draws its own hash seed; the counts may not care.
        for _ in 0..4 {
            let mut table = crowded_table(&[pinned, flow([11, 0, 0, 3], 80), pinned_in_a_shape]);
            let pin = table.exact_rule_id(ingress, &pinned_in_a_shape).unwrap();
            for _ in 0..2 {
                for (step, key, expected) in cases {
                    let before = table.stats().shape_probes;
                    let answer = table.lookup(step, &key).unwrap();
                    assert_ne!(answer.rule_id, pin, "the shape outranks the pin");
                    assert_eq!(
                        table.stats().shape_probes - before,
                        expected,
                        "{step} {key:?}"
                    );
                }
            }
            assert_eq!(table.hit_count(pin), 0);
        }
    }

    #[test]
    fn an_outranked_expired_pin_is_left_to_the_sweep() {
        let ingress = RulePort::Nic(0);
        let flow = key(7);
        let shared = SharedFlowTable::new();
        let pin = shared.insert(
            FlowRule::new(FlowMatch::exact(ingress, &flow), vec![Action::Drop])
                .with_hard_timeout_ns(Some(10)),
        );
        let wildcard = shared.insert(
            FlowRule::new(FlowMatch::at_step(ingress), vec![Action::ToPort(1)]).with_priority(1),
        );
        shared.with_write(|t| t.advance_clock(100));
        // The wildcard outranks the exact index, so the lookup never meets
        // the expired pin.
        let answer = shared.lookup(ingress, &flow).unwrap();
        assert_eq!(answer.rule_id, wildcard);
        assert!(shared.with_read(|t| t.rule(pin).is_some()));
        // The sweep still evicts it, with the key NF state cleanup needs.
        let before = generations(&shared);
        let events = shared.sweep_expired(100, 16, |_| false);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].id, pin);
        assert_eq!(events[0].reason, EvictReason::Hard);
        assert_eq!(events[0].exact, Some((ingress, flow)));
        assert_eq!(moved(&before, &generations(&shared)), own_partition(&flow));
        assert_eq!(shared.len(), 1);
    }
}
