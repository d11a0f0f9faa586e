//! Per-thread caching of flow-table lookup results (paper §4.2 "Caching
//! flow table lookups").
//!
//! Extracting match fields and walking the rule table at every hop of a long
//! service chain is wasteful; the paper caches lookup results so the TX
//! thread can avoid repeated hash lookups. Here the cache is a bounded map
//! from `(flow, step)` to the previously computed [`Decision`], tagged with
//! the flow-table generation so any rule change invalidates stale entries.
//!
//! Cached entries also carry their insertion time and honour a TTL: with
//! idle timeouts in play, a hot flow served forever from the cache would
//! never touch the table and would idle out despite carrying traffic. The
//! TTL (typically half the rule-sweep interval) forces a periodic
//! fall-through to the table, refreshing the winning rule's idle timer.
//! A TTL of zero disables expiry (the pre-timeout behavior).

use std::collections::HashMap;

use sdnfv_flowtable::{Decision, RulePort, SharedFlowTable};
use sdnfv_proto::flow::FlowKey;

/// Entries in each engine's [`LookupCache`] (one per `NfManager`, one per
/// shard worker).
pub(crate) const LOOKUP_CACHE_ENTRIES: usize = 4096;

/// The cached-lookup protocol both engines share: consult `cache` (tagged
/// with the table's generation, expired after `ttl_ns`) when `enabled`,
/// fall back to the table, and remember the result. The single definition
/// keeps the inline `NfManager` and the threaded runtime's lookup semantics
/// identical.
pub fn cached_lookup(
    table: &SharedFlowTable,
    cache: &mut LookupCache,
    enabled: bool,
    step: RulePort,
    key: &FlowKey,
    now_ns: u64,
    ttl_ns: u64,
) -> Option<Decision> {
    if enabled {
        let generation = table.generation();
        if let Some(hit) = cache.get(key, step, generation, now_ns, ttl_ns) {
            return Some(hit);
        }
        let decision = table.lookup(step, key)?;
        cache.put(key, step, generation, now_ns, decision.clone());
        Some(decision)
    } else {
        table.lookup(step, key)
    }
}

/// A bounded, generation-checked, TTL-bounded cache of flow-table decisions.
#[derive(Debug)]
pub struct LookupCache {
    capacity: usize,
    /// `(flow hash, step)` → `(table generation, inserted at, decision)`.
    entries: HashMap<(u64, RulePort), (u64, u64, Decision)>,
    hits: u64,
    misses: u64,
}

impl LookupCache {
    /// Creates a cache holding at most `capacity` decisions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be non-zero");
        LookupCache {
            capacity,
            entries: HashMap::with_capacity(capacity),
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up a cached decision for `(key, step)` valid at `generation`
    /// and no older than `ttl_ns` at `now_ns` (`ttl_ns == 0` = no expiry).
    pub fn get(
        &mut self,
        key: &FlowKey,
        step: RulePort,
        generation: u64,
        now_ns: u64,
        ttl_ns: u64,
    ) -> Option<Decision> {
        match self.entries.get(&(key.stable_hash(), step)) {
            Some((cached_generation, inserted_at_ns, decision))
                if *cached_generation == generation
                    && (ttl_ns == 0 || now_ns < inserted_at_ns.saturating_add(ttl_ns)) =>
            {
                self.hits += 1;
                Some(decision.clone())
            }
            _ => {
                self.misses += 1;
                None
            }
        }
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
        if self.entries.len() >= self.capacity {
            // Simple wholesale eviction: correctness comes from the
            // generation check, and the cache refills within a few packets.
            self.entries.clear();
        }
        self.entries
            .insert((key.stable_hash(), step), (generation, now_ns, decision));
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnfv_flowtable::{Action, RuleId, ServiceId};
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
        }
    }

    #[test]
    fn hit_after_put_same_generation() {
        let mut cache = LookupCache::new(8);
        let step = RulePort::Nic(0);
        assert!(cache.get(&key(1), step, 0, 0, 0).is_none());
        cache.put(&key(1), step, 0, 0, decision(5));
        assert_eq!(cache.get(&key(1), step, 0, 0, 0), Some(decision(5)));
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
    fn ttl_expires_entries() {
        let mut cache = LookupCache::new(8);
        let step = RulePort::Nic(0);
        cache.put(&key(1), step, 0, 1_000, decision(5));
        // Within the TTL the entry is served.
        assert!(cache.get(&key(1), step, 0, 1_400, 500).is_some());
        // Past insertion + TTL the entry misses (forcing a table touch that
        // refreshes the rule's idle timer).
        assert!(cache.get(&key(1), step, 0, 1_500, 500).is_none());
        // TTL 0 disables expiry entirely.
        assert!(cache.get(&key(1), step, 0, u64::MAX, 0).is_some());
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
            Some(decision(1))
        );
        assert_eq!(
            cache.get(&key(1), RulePort::Service(ServiceId::new(1)), 0, 0, 0),
            Some(decision(2))
        );
    }

    #[test]
    fn capacity_bound_is_respected() {
        let mut cache = LookupCache::new(4);
        for port in 0..20 {
            cache.put(&key(port), RulePort::Nic(0), 0, 0, decision(1));
            assert!(cache.len() <= 4);
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = LookupCache::new(0);
    }
}
