//! The consumer side of the telemetry bus: merging per-shard snapshot
//! streams into one current view.

use crate::snapshot::{LatencyReport, ShardLifecycleEvent, TelemetrySnapshot};

/// Inter-snapshot rates for one shard, reconstructed from the cumulative
/// counters of two consecutive snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ShardRates {
    /// Wall-clock span the rates cover, in nanoseconds.
    pub interval_ns: u64,
    /// Packets received per second.
    pub received_per_sec: f64,
    /// Packets transmitted per second.
    pub transmitted_per_sec: f64,
    /// Controller punts per second.
    pub punts_per_sec: f64,
    /// Throttled injections per second.
    pub throttled_per_sec: f64,
}

/// Merges the per-shard telemetry streams a
/// [`ThreadedHost`](../../sdnfv_dataplane/runtime/struct.ThreadedHost.html)
/// exports: keeps the most recent [`TelemetrySnapshot`] per shard and the
/// one before it, so callers can read both gauges (queue depths, credit
/// occupancy) and rates (punts/sec, throttles/sec).
#[derive(Debug, Default)]
pub struct TelemetryHub {
    latest: Vec<Option<TelemetrySnapshot>>,
    previous: Vec<Option<TelemetrySnapshot>>,
    /// Shards `observe_lifecycle` saw retire and not respawn since. A
    /// retired shard's snapshots may still be in flight (polled into a
    /// batch before the lifecycle event was observed); absorbing one
    /// would resurrect the dead pipeline's gauges permanently, so they
    /// are rejected here. Never truncated: the flag must outlive the
    /// trailing-slot truncation below.
    retired: Vec<bool>,
    absorbed: u64,
    rejected_retired: u64,
}

impl TelemetryHub {
    /// Creates an empty hub (shard slots grow on demand).
    pub fn new() -> Self {
        TelemetryHub::default()
    }

    /// Folds a batch of snapshots (as returned by
    /// `ThreadedHost::poll_telemetry`) into the per-shard view. Snapshots
    /// may arrive in any shard order; within a shard, stale sequence
    /// numbers are ignored.
    pub fn absorb(&mut self, snapshots: Vec<TelemetrySnapshot>) {
        for snapshot in snapshots {
            let shard = snapshot.shard;
            if self.retired.get(shard).copied().unwrap_or(false) {
                // A straggler from a shard that already retired: folding
                // it in would re-open the slot and let a dead pipeline's
                // gauges contribute to merged rates forever.
                self.rejected_retired += 1;
                continue;
            }
            if shard >= self.latest.len() {
                self.latest.resize(shard + 1, None);
                self.previous.resize(shard + 1, None);
            }
            match &self.latest[shard] {
                Some(current) if current.seq >= snapshot.seq => continue,
                _ => {}
            }
            self.previous[shard] = self.latest[shard].take();
            self.latest[shard] = Some(snapshot);
            self.absorbed += 1;
        }
    }

    /// Folds a batch of snapshots in after shifting every shard index by
    /// `shard_offset` — the federation fold: host 0's shards land at
    /// `0..n0`, host 1's at `n0..n0+n1`, and so on, giving one global
    /// per-shard view over many hosts without the per-host streams
    /// colliding on shard numbers.
    pub fn absorb_offset(&mut self, snapshots: Vec<TelemetrySnapshot>, shard_offset: usize) {
        self.absorb(
            snapshots
                .into_iter()
                .map(|mut snapshot| {
                    snapshot.shard += shard_offset;
                    snapshot
                })
                .collect(),
        );
    }

    /// Number of shard slots the hub has seen snapshots for.
    pub fn num_shards(&self) -> usize {
        self.latest.len()
    }

    /// Total snapshots absorbed (stale ones excluded).
    pub fn absorbed(&self) -> u64 {
        self.absorbed
    }

    /// The most recent snapshot for `shard`, if any.
    pub fn latest(&self, shard: usize) -> Option<&TelemetrySnapshot> {
        self.latest.get(shard).and_then(Option::as_ref)
    }

    /// The most recent snapshot of every shard that has reported.
    pub fn latest_all(&self) -> Vec<&TelemetrySnapshot> {
        self.latest.iter().filter_map(Option::as_ref).collect()
    }

    /// Rates over the last two snapshots of `shard`, or `None` until two
    /// have been absorbed (or if their clocks are not monotonic).
    pub fn rates(&self, shard: usize) -> Option<ShardRates> {
        let current = self.latest(shard)?;
        let previous = self.previous.get(shard)?.as_ref()?;
        let interval_ns = current.at_ns.checked_sub(previous.at_ns)?;
        if interval_ns == 0 {
            return None;
        }
        let per_sec =
            |now: u64, then: u64| now.saturating_sub(then) as f64 * 1e9 / interval_ns as f64;
        Some(ShardRates {
            interval_ns,
            received_per_sec: per_sec(current.received, previous.received),
            transmitted_per_sec: per_sec(current.transmitted, previous.transmitted),
            punts_per_sec: per_sec(current.controller_punts, previous.controller_punts),
            throttled_per_sec: per_sec(current.throttled, previous.throttled),
        })
    }

    /// Total pipeline backlog over every reporting shard.
    pub fn total_backlog(&self) -> usize {
        self.latest_all().iter().map(|s| s.backlog()).sum()
    }

    /// Total packets parked in re-home pens across every reporting shard.
    pub fn total_rehome_pen_depth(&self) -> usize {
        self.latest_all().iter().map(|s| s.rehome_pen_depth).sum()
    }

    /// The worst (oldest) pen age across every reporting shard, in
    /// nanoseconds — the flood-onto-a-mid-move-bucket alarm gauge.
    pub fn worst_rehome_pen_age_ns(&self) -> u64 {
        self.latest_all()
            .iter()
            .map(|s| s.rehome_pen_max_age_ns)
            .max()
            .unwrap_or(0)
    }

    /// Total flow rules evicted by the timeout lifecycle (idle + hard)
    /// across every currently reporting shard. Counters are cumulative per
    /// shard; a retired shard's contribution is forgotten with its
    /// snapshots, so treat this as "evictions on the live data plane".
    pub fn total_rules_evicted(&self) -> u64 {
        self.latest_all()
            .iter()
            .map(|s| s.rules_evicted_idle + s.rules_evicted_hard)
            .sum()
    }

    /// Total per-flow NF state entries scrubbed after rule eviction across
    /// every currently reporting shard (same caveat as
    /// [`TelemetryHub::total_rules_evicted`]).
    pub fn total_nf_state_scrubbed(&self) -> u64 {
        self.latest_all().iter().map(|s| s.nf_state_scrubbed).sum()
    }

    /// Total per-flow NF state entries replica scales moved between
    /// replicas across every currently reporting shard.
    pub fn total_nf_state_handoffs(&self) -> u64 {
        self.latest_all().iter().map(|s| s.nf_state_handoffs).sum()
    }

    /// Total NF state payloads lost at import or drain-exit across every
    /// currently reporting shard.
    pub fn total_nf_state_import_drops(&self) -> u64 {
        self.latest_all()
            .iter()
            .map(|s| s.nf_state_import_drops)
            .sum()
    }

    /// Total trace spans lost to full trace rings across every currently
    /// reporting shard.
    pub fn total_spans_dropped(&self) -> u64 {
        self.latest_all().iter().map(|s| s.spans_dropped).sum()
    }

    /// Snapshots rejected because their shard had already retired (the
    /// straggler count the retired-slot guard absorbed).
    pub fn rejected_retired(&self) -> u64 {
        self.rejected_retired
    }

    /// Whole-host latency distributions: the per-stage histograms of
    /// every currently reporting shard, merged. Because per-shard
    /// histograms are cumulative and merging is exact, the merged report's
    /// p50/p90/p99/p999 are the percentiles of the union of every live
    /// shard's samples.
    pub fn merged_latency(&self) -> LatencyReport {
        let mut merged = LatencyReport::default();
        for snapshot in self.latest_all() {
            merged.merge(&snapshot.latency);
        }
        merged
    }

    /// Applies shard lifecycle events: a retired shard's snapshots are
    /// forgotten (trailing slots are truncated away) so stale gauges of a
    /// dead pipeline cannot drive control decisions; a spawned shard's slot
    /// is (re-)opened and fills on its first snapshot.
    pub fn observe_lifecycle(&mut self, events: &[ShardLifecycleEvent]) {
        for event in events {
            match event {
                ShardLifecycleEvent::Spawned { shard, .. } => {
                    if *shard >= self.latest.len() {
                        self.latest.resize(shard + 1, None);
                        self.previous.resize(shard + 1, None);
                    } else {
                        // A reused slot must not inherit the previous
                        // incarnation's gauges.
                        self.latest[*shard] = None;
                        self.previous[*shard] = None;
                    }
                    if let Some(flag) = self.retired.get_mut(*shard) {
                        *flag = false;
                    }
                }
                ShardLifecycleEvent::Retired { shard, .. } => {
                    if *shard >= self.retired.len() {
                        self.retired.resize(shard + 1, false);
                    }
                    self.retired[*shard] = true;
                    if let Some(slot) = self.latest.get_mut(*shard) {
                        *slot = None;
                    }
                    if let Some(slot) = self.previous.get_mut(*shard) {
                        *slot = None;
                    }
                    while self.latest.last().is_some_and(|slot| slot.is_none()) {
                        self.latest.pop();
                        self.previous.pop();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(shard: usize, seq: u64, at_ns: u64, punts: u64) -> TelemetrySnapshot {
        TelemetrySnapshot {
            shard,
            seq,
            at_ns,
            ingress_depth: 0,
            ingress_capacity: 64,
            egress_depth: 0,
            egress_capacity: 64,
            credits_in_flight: 0,
            credit_capacity: 64,
            nfs: Vec::new(),
            nf_slots_allocated: 0,
            received: seq * 10,
            transmitted: seq * 9,
            dropped: 0,
            controller_punts: punts,
            throttled: 0,
            applied_commands: 0,
            rehome_pen_depth: 0,
            rehome_pen_max_age_ns: 0,
            rules_evicted_idle: 0,
            rules_evicted_hard: 0,
            nf_state_scrubbed: 0,
            nf_state_handoffs: 0,
            nf_state_import_drops: 0,
            spans_dropped: 0,
            latency: LatencyReport::default(),
        }
    }

    #[test]
    fn absorb_offset_relocates_shard_slots() {
        let mut global = TelemetryHub::new();
        // Host 0 has two shards, host 1 has one: its shard 0 must land at
        // global slot 2, not collide with host 0's shard 0.
        global.absorb(vec![snapshot(0, 1, 100, 3), snapshot(1, 1, 100, 0)]);
        global.absorb_offset(vec![snapshot(0, 1, 100, 5)], 2);
        assert_eq!(global.num_shards(), 3);
        assert_eq!(global.latest(0).unwrap().controller_punts, 3);
        assert_eq!(global.latest(2).unwrap().controller_punts, 5);
        assert_eq!(global.latest(2).unwrap().shard, 2, "index rewritten");
    }

    #[test]
    fn keeps_latest_per_shard() {
        let mut hub = TelemetryHub::new();
        assert_eq!(hub.num_shards(), 0);
        hub.absorb(vec![snapshot(0, 1, 100, 0), snapshot(2, 1, 100, 0)]);
        assert_eq!(hub.num_shards(), 3);
        assert_eq!(hub.latest(1), None);
        hub.absorb(vec![snapshot(0, 2, 200, 3)]);
        assert_eq!(hub.latest(0).unwrap().seq, 2);
        assert_eq!(hub.latest_all().len(), 2);
        assert_eq!(hub.absorbed(), 3);
    }

    #[test]
    fn stale_sequences_are_ignored() {
        let mut hub = TelemetryHub::new();
        hub.absorb(vec![snapshot(0, 5, 500, 0)]);
        hub.absorb(vec![snapshot(0, 4, 400, 0), snapshot(0, 5, 500, 0)]);
        assert_eq!(hub.latest(0).unwrap().seq, 5);
        assert_eq!(hub.absorbed(), 1);
    }

    #[test]
    fn rates_come_from_consecutive_snapshots() {
        let mut hub = TelemetryHub::new();
        assert_eq!(hub.rates(0), None);
        hub.absorb(vec![snapshot(0, 1, 1_000_000_000, 0)]);
        assert_eq!(hub.rates(0), None, "one snapshot has no rate");
        hub.absorb(vec![snapshot(0, 2, 2_000_000_000, 7)]);
        let rates = hub.rates(0).unwrap();
        assert_eq!(rates.interval_ns, 1_000_000_000);
        assert!((rates.punts_per_sec - 7.0).abs() < 1e-9);
        assert!((rates.received_per_sec - 10.0).abs() < 1e-9);
        assert!((rates.transmitted_per_sec - 9.0).abs() < 1e-9);
    }

    #[test]
    fn lifecycle_events_prune_and_reopen_shard_slots() {
        let mut hub = TelemetryHub::new();
        hub.absorb(vec![snapshot(0, 5, 100, 0), snapshot(1, 7, 100, 0)]);
        assert_eq!(hub.num_shards(), 2);
        // Retiring the last shard forgets its gauges and shrinks the view.
        hub.observe_lifecycle(&[ShardLifecycleEvent::Retired {
            shard: 1,
            at_ns: 200,
        }]);
        assert_eq!(hub.num_shards(), 1);
        assert_eq!(hub.latest(1), None);
        // A respawned shard starts from a clean slot: the dead
        // incarnation's sequence numbers no longer mask the new stream.
        hub.observe_lifecycle(&[ShardLifecycleEvent::Spawned {
            shard: 1,
            at_ns: 300,
        }]);
        assert_eq!(hub.num_shards(), 2);
        hub.absorb(vec![snapshot(1, 1, 400, 0)]);
        assert_eq!(hub.latest(1).unwrap().seq, 1, "fresh stream accepted");
        assert_eq!(
            ShardLifecycleEvent::Spawned { shard: 1, at_ns: 0 }.shard(),
            1
        );
    }

    #[test]
    fn pen_gauges_aggregate_across_shards() {
        let mut hub = TelemetryHub::new();
        assert_eq!(hub.total_rehome_pen_depth(), 0);
        assert_eq!(hub.worst_rehome_pen_age_ns(), 0);
        let mut a = snapshot(0, 1, 100, 0);
        a.rehome_pen_depth = 4;
        a.rehome_pen_max_age_ns = 1_000;
        let mut b = snapshot(1, 1, 100, 0);
        b.rehome_pen_depth = 2;
        b.rehome_pen_max_age_ns = 9_000;
        hub.absorb(vec![a, b]);
        assert_eq!(hub.total_rehome_pen_depth(), 6);
        assert_eq!(hub.worst_rehome_pen_age_ns(), 9_000);
    }

    #[test]
    fn eviction_totals_aggregate_across_shards() {
        let mut hub = TelemetryHub::new();
        assert_eq!(hub.total_rules_evicted(), 0);
        assert_eq!(hub.total_nf_state_scrubbed(), 0);
        let mut a = snapshot(0, 1, 100, 0);
        a.rules_evicted_idle = 3;
        a.rules_evicted_hard = 1;
        a.nf_state_scrubbed = 2;
        let mut b = snapshot(1, 1, 100, 0);
        b.rules_evicted_idle = 5;
        b.nf_state_scrubbed = 4;
        hub.absorb(vec![a, b]);
        assert_eq!(hub.total_rules_evicted(), 9);
        assert_eq!(hub.total_nf_state_scrubbed(), 6);
    }

    #[test]
    fn late_snapshot_from_retired_shard_is_rejected() {
        let mut hub = TelemetryHub::new();
        hub.absorb(vec![snapshot(0, 1, 100, 0), snapshot(1, 1, 100, 0)]);
        assert_eq!(hub.num_shards(), 2);
        // Shard 1 retires; its final snapshot was still in flight (polled
        // into a batch before the lifecycle event was observed).
        hub.observe_lifecycle(&[ShardLifecycleEvent::Retired {
            shard: 1,
            at_ns: 200,
        }]);
        assert_eq!(hub.num_shards(), 1);
        hub.absorb(vec![snapshot(1, 2, 250, 9)]);
        // The straggler must not re-open the slot or contribute to merges.
        assert_eq!(hub.num_shards(), 1, "retired shard stays pruned");
        assert_eq!(hub.latest(1), None);
        assert_eq!(hub.latest_all().len(), 1);
        assert_eq!(hub.rejected_retired(), 1);
        // A genuine respawn lifts the guard and the new stream is absorbed.
        hub.observe_lifecycle(&[ShardLifecycleEvent::Spawned {
            shard: 1,
            at_ns: 300,
        }]);
        hub.absorb(vec![snapshot(1, 1, 400, 0)]);
        assert_eq!(hub.latest(1).unwrap().seq, 1);
    }

    #[test]
    fn merged_latency_is_union_of_live_shards() {
        use crate::hist::LatencyHistogram;
        let mut hub = TelemetryHub::new();
        let per_shard = |values: &[u64]| {
            let hist = LatencyHistogram::new();
            for &v in values {
                hist.record(v);
            }
            hist.snapshot()
        };
        let mut a = snapshot(0, 1, 100, 0);
        a.latency.end_to_end = per_shard(&[100, 200, 300]);
        let mut b = snapshot(1, 1, 100, 0);
        b.latency.end_to_end = per_shard(&[400, 500]);
        hub.absorb(vec![a, b]);
        let merged = hub.merged_latency();
        assert_eq!(merged.end_to_end.count(), 5);
        assert_eq!(merged.end_to_end.max, 500);
        assert_eq!(merged.end_to_end, per_shard(&[100, 200, 300, 400, 500]));
        // Retiring shard 1 removes its samples from the merged view.
        hub.observe_lifecycle(&[ShardLifecycleEvent::Retired {
            shard: 1,
            at_ns: 200,
        }]);
        assert_eq!(hub.merged_latency().end_to_end.count(), 3);
        assert_eq!(hub.total_spans_dropped(), 0);
        assert_eq!(hub.total_nf_state_handoffs(), 0);
        assert_eq!(hub.total_nf_state_import_drops(), 0);
    }

    #[test]
    fn zero_interval_yields_no_rate() {
        let mut hub = TelemetryHub::new();
        hub.absorb(vec![snapshot(0, 1, 100, 0)]);
        hub.absorb(vec![snapshot(0, 2, 100, 0)]);
        assert_eq!(hub.rates(0), None);
    }
}
