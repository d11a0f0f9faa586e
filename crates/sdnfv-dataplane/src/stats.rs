//! Counters describing the activity of one NF host.
//!
//! The sharded threaded runtime keeps one set of counters **per shard** so
//! the hot path never bounces a shared cache line between shards:
//! [`HostStats`] is a bundle of [`ShardStats`], each shard's threads hold a
//! clone of their own [`ShardStats`], and [`HostStats::snapshot`] merges all
//! shards into one [`HostStatsSnapshot`].

use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A snapshot of the host counters (for one shard, or merged over all
/// shards — see [`HostStats::snapshot`] / [`HostStats::shard_snapshot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HostStatsSnapshot {
    /// Packets received from the wire (or the traffic generator).
    pub received: u64,
    /// Packets transmitted out a NIC port.
    pub transmitted: u64,
    /// Packets dropped by an NF verdict or a drop rule.
    pub dropped: u64,
    /// Packets dropped because a ring or the packet pool was full.
    pub overflow_drops: u64,
    /// Injections rejected by ingress backpressure (credits exhausted); the
    /// packet was handed back to the caller, not dropped.
    pub throttled: u64,
    /// Packets punted to the SDN controller on a flow-table miss.
    pub controller_punts: u64,
    /// Packets dispatched to more than one NF in parallel.
    pub parallel_dispatches: u64,
    /// Total NF invocations.
    pub nf_invocations: u64,
    /// Cross-layer messages emitted by NFs.
    pub nf_messages: u64,
    /// Applied NF messages discarded because the shard's outbox was full
    /// (the control plane did not drain it in time).
    pub nf_messages_dropped: u64,
    /// Migrated NF flow-state payloads discarded at import because the
    /// destination shard had no replica of the owning service — the one
    /// way a re-home can lose NF state, surfaced so zero-loss checks see
    /// it.
    pub nf_state_import_drops: u64,
    /// Per-flow NF state payloads handed off from a replica retired by a
    /// scale-down to a surviving replica of the same service (the
    /// state-preserving path; losses show up in `nf_state_import_drops`).
    pub nf_state_handoffs: u64,
    /// Flow rules evicted because their idle timeout elapsed without
    /// traffic.
    pub rules_evicted_idle: u64,
    /// Flow rules evicted because their hard timeout elapsed.
    pub rules_evicted_hard: u64,
    /// Per-flow NF state entries scrubbed because their flow's rule was
    /// evicted by the timeout lifecycle.
    pub nf_state_scrubbed: u64,
    /// Trace spans lost because a shard's lossy trace ring was full (or the
    /// span's packet died on a path that cannot reach the ring). Tracing is
    /// best-effort by design; this counter makes the loss explicit.
    pub spans_dropped: u64,
}

impl HostStatsSnapshot {
    /// Merges another snapshot into this one (summing every counter).
    pub fn merge(&mut self, other: &HostStatsSnapshot) {
        self.received += other.received;
        self.transmitted += other.transmitted;
        self.dropped += other.dropped;
        self.overflow_drops += other.overflow_drops;
        self.throttled += other.throttled;
        self.controller_punts += other.controller_punts;
        self.parallel_dispatches += other.parallel_dispatches;
        self.nf_invocations += other.nf_invocations;
        self.nf_messages += other.nf_messages;
        self.nf_messages_dropped += other.nf_messages_dropped;
        self.nf_state_import_drops += other.nf_state_import_drops;
        self.nf_state_handoffs += other.nf_state_handoffs;
        self.rules_evicted_idle += other.rules_evicted_idle;
        self.rules_evicted_hard += other.rules_evicted_hard;
        self.nf_state_scrubbed += other.nf_state_scrubbed;
        self.spans_dropped += other.spans_dropped;
    }
}

#[derive(Debug, Default)]
struct Counters {
    received: AtomicU64,
    transmitted: AtomicU64,
    dropped: AtomicU64,
    overflow_drops: AtomicU64,
    throttled: AtomicU64,
    controller_punts: AtomicU64,
    parallel_dispatches: AtomicU64,
    nf_invocations: AtomicU64,
    nf_messages: AtomicU64,
    nf_messages_dropped: AtomicU64,
    nf_state_import_drops: AtomicU64,
    nf_state_handoffs: AtomicU64,
    rules_evicted_idle: AtomicU64,
    rules_evicted_hard: AtomicU64,
    nf_state_scrubbed: AtomicU64,
    spans_dropped: AtomicU64,
}

macro_rules! counter {
    ($inc:ident, $get:ident, $field:ident, $doc:literal) => {
        #[doc = concat!("Increments the number of ", $doc, ".")]
        pub fn $inc(&self, n: u64) {
            self.inner.$field.fetch_add(n, Ordering::Relaxed);
        }

        #[doc = concat!("Returns the number of ", $doc, ".")]
        pub fn $get(&self) -> u64 {
            self.inner.$field.load(Ordering::Relaxed)
        }
    };
}

/// Thread-safe counters shared by all threads of one shard.
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    inner: Arc<Counters>,
}

impl ShardStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        ShardStats::default()
    }

    counter!(add_received, received, received, "packets received");
    counter!(
        add_transmitted,
        transmitted,
        transmitted,
        "packets transmitted"
    );
    counter!(
        add_dropped,
        dropped,
        dropped,
        "packets dropped by NFs or rules"
    );
    counter!(
        add_overflow_drops,
        overflow_drops,
        overflow_drops,
        "packets dropped due to full rings or pools"
    );
    counter!(
        add_throttled,
        throttled,
        throttled,
        "injections rejected by backpressure"
    );
    counter!(
        add_controller_punts,
        controller_punts,
        controller_punts,
        "packets punted to the SDN controller"
    );
    counter!(
        add_parallel_dispatches,
        parallel_dispatches,
        parallel_dispatches,
        "packets dispatched to parallel NFs"
    );
    counter!(
        add_nf_invocations,
        nf_invocations,
        nf_invocations,
        "NF invocations"
    );
    counter!(
        add_nf_messages,
        nf_messages,
        nf_messages,
        "NF cross-layer messages"
    );
    counter!(
        add_nf_messages_dropped,
        nf_messages_dropped,
        nf_messages_dropped,
        "applied NF messages lost to a full outbox"
    );
    counter!(
        add_nf_state_import_drops,
        nf_state_import_drops,
        nf_state_import_drops,
        "migrated NF flow states dropped at import (no replica)"
    );
    counter!(
        add_nf_state_handoffs,
        nf_state_handoffs,
        nf_state_handoffs,
        "NF flow states handed off on replica scale-down"
    );
    counter!(
        add_rules_evicted_idle,
        rules_evicted_idle,
        rules_evicted_idle,
        "flow rules evicted on idle timeout"
    );
    counter!(
        add_rules_evicted_hard,
        rules_evicted_hard,
        rules_evicted_hard,
        "flow rules evicted on hard timeout"
    );
    counter!(
        add_nf_state_scrubbed,
        nf_state_scrubbed,
        nf_state_scrubbed,
        "NF flow states scrubbed after rule eviction"
    );
    counter!(
        add_spans_dropped,
        spans_dropped,
        spans_dropped,
        "trace spans lost to a full trace ring"
    );

    /// Takes a consistent-enough snapshot of this shard's counters.
    pub fn snapshot(&self) -> HostStatsSnapshot {
        HostStatsSnapshot {
            received: self.received(),
            transmitted: self.transmitted(),
            dropped: self.dropped(),
            overflow_drops: self.overflow_drops(),
            throttled: self.throttled(),
            controller_punts: self.controller_punts(),
            parallel_dispatches: self.parallel_dispatches(),
            nf_invocations: self.nf_invocations(),
            nf_messages: self.nf_messages(),
            nf_messages_dropped: self.nf_messages_dropped(),
            nf_state_import_drops: self.nf_state_import_drops(),
            nf_state_handoffs: self.nf_state_handoffs(),
            rules_evicted_idle: self.rules_evicted_idle(),
            rules_evicted_hard: self.rules_evicted_hard(),
            nf_state_scrubbed: self.nf_state_scrubbed(),
            spans_dropped: self.spans_dropped(),
        }
    }
}

/// Counters for a whole host: one [`ShardStats`] per shard plus a merged
/// view. Cloning shares the underlying counters.
///
/// The shard list is **growable** ([`HostStats::ensure_shard`]) so hosts
/// can spawn shards mid-run; a retired shard's counters are kept (and
/// reused if the shard index is respawned), so the merged snapshot never
/// loses history when the data plane scales down.
#[derive(Debug, Clone)]
pub struct HostStats {
    shards: Arc<RwLock<Vec<ShardStats>>>,
}

impl Default for HostStats {
    fn default() -> Self {
        HostStats::new()
    }
}

impl HostStats {
    /// Creates zeroed counters for a single-shard host.
    pub fn new() -> Self {
        HostStats::with_shards(1)
    }

    /// Creates zeroed counters for `num_shards` shards (at least one).
    pub fn with_shards(num_shards: usize) -> Self {
        let shards: Vec<ShardStats> = (0..num_shards.max(1)).map(|_| ShardStats::new()).collect();
        HostStats {
            shards: Arc::new(RwLock::new(shards)),
        }
    }

    /// Number of shards the counters are split over (never shrinks: a
    /// retired shard keeps its history).
    pub fn num_shards(&self) -> usize {
        self.shards.read().len()
    }

    /// The counters of one shard (a shared handle: clones observe the same
    /// counters).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard(&self, shard: usize) -> ShardStats {
        self.shards.read()[shard].clone()
    }

    /// The counters of `shard`, growing the shard list if needed. A shard
    /// index that was retired and respawned reuses its previous counters —
    /// per-slot history accumulates rather than resetting.
    pub fn ensure_shard(&self, shard: usize) -> ShardStats {
        let mut shards = self.shards.write();
        while shards.len() <= shard {
            shards.push(ShardStats::new());
        }
        shards[shard].clone()
    }

    /// Takes a consistent-enough snapshot of all counters, merged over every
    /// shard.
    pub fn snapshot(&self) -> HostStatsSnapshot {
        let mut merged = HostStatsSnapshot::default();
        for shard in self.shards.read().iter() {
            merged.merge(&shard.snapshot());
        }
        merged
    }

    /// Snapshot of one shard's counters.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_snapshot(&self, shard: usize) -> HostStatsSnapshot {
        self.shards.read()[shard].snapshot()
    }

    /// Snapshots of every shard, in shard order.
    pub fn shard_snapshots(&self) -> Vec<HostStatsSnapshot> {
        self.shards
            .read()
            .iter()
            .map(ShardStats::snapshot)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let host = HostStats::new();
        let stats = host.shard(0);
        stats.add_received(10);
        stats.add_received(5);
        stats.add_transmitted(8);
        stats.add_dropped(2);
        stats.add_overflow_drops(1);
        stats.add_throttled(6);
        stats.add_controller_punts(3);
        stats.add_parallel_dispatches(4);
        stats.add_nf_invocations(20);
        stats.add_nf_messages(1);
        stats.add_nf_messages_dropped(5);
        stats.add_nf_state_import_drops(1);
        stats.add_rules_evicted_idle(2);
        stats.add_rules_evicted_hard(3);
        stats.add_nf_state_scrubbed(4);
        stats.add_spans_dropped(2);
        let snap = host.snapshot();
        assert_eq!(snap, stats.snapshot());
        assert_eq!(snap.received, 15);
        assert_eq!(snap.transmitted, 8);
        assert_eq!(snap.dropped, 2);
        assert_eq!(snap.overflow_drops, 1);
        assert_eq!(snap.throttled, 6);
        assert_eq!(snap.controller_punts, 3);
        assert_eq!(snap.parallel_dispatches, 4);
        assert_eq!(snap.nf_invocations, 20);
        assert_eq!(snap.nf_messages, 1);
        assert_eq!(snap.nf_messages_dropped, 5);
        assert_eq!(snap.nf_state_import_drops, 1);
        assert_eq!(snap.rules_evicted_idle, 2);
        assert_eq!(snap.rules_evicted_hard, 3);
        assert_eq!(snap.nf_state_scrubbed, 4);
        assert_eq!(snap.spans_dropped, 2);
    }

    #[test]
    fn clones_share_counters() {
        let stats = HostStats::new();
        let clone = stats.clone();
        stats.shard(0).add_received(1);
        clone.shard(0).add_received(1);
        assert_eq!(stats.snapshot().received, 2);
    }

    #[test]
    fn per_shard_counters_merge_into_host_snapshot() {
        let stats = HostStats::with_shards(3);
        assert_eq!(stats.num_shards(), 3);
        stats.shard(0).add_received(5);
        stats.shard(1).add_received(7);
        stats.shard(2).add_received(1);
        stats.shard(1).add_transmitted(7);
        stats.shard(2).add_throttled(4);
        assert_eq!(stats.shard_snapshot(0).received, 5);
        assert_eq!(stats.shard_snapshot(1).received, 7);
        assert_eq!(stats.shard_snapshot(1).transmitted, 7);
        let merged = stats.snapshot();
        assert_eq!(merged.received, 13);
        assert_eq!(merged.transmitted, 7);
        assert_eq!(merged.throttled, 4);
        assert_eq!(stats.shard_snapshots().len(), 3);
    }

    #[test]
    fn ensure_shard_grows_and_reuses_slots() {
        let stats = HostStats::with_shards(1);
        let grown = stats.ensure_shard(2);
        assert_eq!(stats.num_shards(), 3);
        grown.add_received(4);
        assert_eq!(stats.shard_snapshot(2).received, 4);
        // Re-ensuring an existing slot hands back the same counters: a
        // respawned shard accumulates onto its slot's history.
        let again = stats.ensure_shard(2);
        again.add_received(1);
        assert_eq!(stats.shard_snapshot(2).received, 5);
        assert_eq!(stats.num_shards(), 3);
    }

    #[test]
    fn with_shards_zero_clamps_to_one() {
        let stats = HostStats::with_shards(0);
        assert_eq!(stats.num_shards(), 1);
        stats.shard(0).add_received(1);
        assert_eq!(stats.snapshot().received, 1);
    }
}
