//! The periodic per-shard telemetry record.

use crate::hist::HistogramSnapshot;
use sdnfv_flowtable::ServiceId;

/// Per-stage latency distributions, frozen when read. Every histogram is
/// cumulative since its shard slot came up (like the counters), and
/// merging is exact, so the host's merged report
/// (`ThreadedHost::latency_report`) holds the union of every shard's
/// samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyReport {
    /// Ingress admission → egress-ring push, per transmitted packet.
    pub end_to_end: HistogramSnapshot,
    /// Ingress admission → RX dispatch pop (ingress-ring wait; for a
    /// packet re-homed mid-flight this includes its pen dwell).
    pub ingress_wait: HistogramSnapshot,
    /// Per-packet NF service time (burst time / burst size, recorded by
    /// every replica of the shard into one shared histogram).
    pub nf_service: HistogramSnapshot,
    /// Egress staging → egress-ring push (egress backpressure wait).
    pub egress_wait: HistogramSnapshot,
    /// Re-home pen dwell of packets released to this shard.
    pub pen_dwell: HistogramSnapshot,
}

impl LatencyReport {
    /// Folds another report into this one, stage by stage.
    pub fn merge(&mut self, other: &LatencyReport) {
        self.end_to_end.merge(&other.end_to_end);
        self.ingress_wait.merge(&other.ingress_wait);
        self.nf_service.merge(&other.nf_service);
        self.egress_wait.merge(&other.egress_wait);
        self.pen_dwell.merge(&other.pen_dwell);
    }

    /// The stages as `(name, snapshot)` pairs, in a stable order
    /// (exposition renderers iterate this).
    pub fn stages(&self) -> [(&'static str, &HistogramSnapshot); 5] {
        [
            ("end_to_end", &self.end_to_end),
            ("ingress_wait", &self.ingress_wait),
            ("nf_service", &self.nf_service),
            ("egress_wait", &self.egress_wait),
            ("pen_dwell", &self.pen_dwell),
        ]
    }
}

/// Telemetry for one NF instance on a shard: its input-ring occupancy and
/// the service time the NF thread measured.
#[derive(Debug, Clone, PartialEq)]
pub struct NfTelemetry {
    /// Service the instance implements.
    pub service: ServiceId,
    /// The instance's slot index on its shard (stable across snapshots for
    /// the lifetime of the replica).
    pub slot: usize,
    /// Packets currently waiting in the instance's input ring.
    pub input_depth: usize,
    /// Capacity of the instance's input ring.
    pub input_capacity: usize,
    /// EWMA of the per-packet service time, in nanoseconds (0 until the
    /// instance has processed its first burst).
    pub service_time_ewma_ns: u64,
    /// Total packets the instance has processed.
    pub processed: u64,
    /// `true` while the replica is being retired: it drains its remaining
    /// queue but receives no new packets and does not count as a live
    /// replica.
    pub draining: bool,
}

impl NfTelemetry {
    /// Input-ring occupancy as a fraction of capacity, in `[0, 1]`.
    pub fn fill(&self) -> f64 {
        if self.input_capacity == 0 {
            return 0.0;
        }
        (self.input_depth as f64 / self.input_capacity as f64).min(1.0)
    }
}

/// One shard's periodic telemetry export: every queue-depth gauge, credit
/// occupancy, per-NF service times, and the shard's cumulative counters.
///
/// Snapshots are published by the shard's worker thread over a lock-free
/// SPSC ring; counters are **cumulative** so a lost snapshot (consumer
/// lagging) never loses events — rates are reconstructed from deltas by the
/// [`TelemetryHub`](crate::hub::TelemetryHub).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// The shard this snapshot describes.
    pub shard: usize,
    /// Monotonic per-shard sequence number (gaps mean the consumer lagged
    /// and older snapshots were skipped at the exporter).
    pub seq: u64,
    /// Host-clock time the snapshot was taken, in nanoseconds.
    pub at_ns: u64,
    /// Packets waiting in the shard's ingress ring.
    pub ingress_depth: usize,
    /// Capacity of the ingress ring.
    pub ingress_capacity: usize,
    /// Packets waiting in the shard's egress ring.
    pub egress_depth: usize,
    /// Capacity of the egress ring.
    pub egress_capacity: usize,
    /// Credits currently held by in-flight packets.
    pub credits_in_flight: usize,
    /// The shard's current credit budget.
    pub credit_capacity: usize,
    /// Per-NF-instance telemetry, one entry per live replica.
    pub nfs: Vec<NfTelemetry>,
    /// NF slots currently allocated on the shard — live replicas *plus*
    /// retired slots whose rings have not been compacted yet. Falls back to
    /// `nfs.len()` once the compaction pass has reclaimed every retired
    /// slot.
    pub nf_slots_allocated: usize,
    /// Cumulative packets received by the shard.
    pub received: u64,
    /// Cumulative packets transmitted by the shard.
    pub transmitted: u64,
    /// Cumulative packets dropped by verdicts or rules.
    pub dropped: u64,
    /// Cumulative packets punted to the controller (flow-table misses).
    pub controller_punts: u64,
    /// Cumulative injections rejected by ingress backpressure.
    pub throttled: u64,
    /// Cumulative control commands the shard's worker has applied.
    pub applied_commands: u64,
    /// Packets currently parked in re-home pens destined for this shard
    /// (stamped by the host when the snapshot is polled — the pens live on
    /// the injection side, not in the shard worker).
    pub rehome_pen_depth: usize,
    /// Age of the oldest packet parked in a pen destined for this shard,
    /// in nanoseconds (0 when no packet is penned). A growing value means
    /// a mid-move bucket is being flooded while its drain is stuck —
    /// backpressure that would otherwise be silent.
    pub rehome_pen_max_age_ns: u64,
    /// Cumulative flow rules evicted on this shard because their idle
    /// timeout elapsed without traffic.
    pub rules_evicted_idle: u64,
    /// Cumulative flow rules evicted on this shard because their hard
    /// timeout elapsed.
    pub rules_evicted_hard: u64,
    /// Cumulative per-flow NF state entries scrubbed on this shard because
    /// their flow's rule was evicted.
    pub nf_state_scrubbed: u64,
    /// Cumulative per-flow NF state entries a replica scale moved between
    /// replicas of a service on this shard (the re-picked buckets' flows).
    pub nf_state_handoffs: u64,
    /// Cumulative NF state payloads lost: migrated state no replica of its
    /// service was live to absorb, or state a retiring replica still held
    /// at its drain-exit.
    pub nf_state_import_drops: u64,
    /// Cumulative trace spans discarded because the shard's trace ring was
    /// full (lossy-by-design tracing makes its losses explicit).
    pub spans_dropped: u64,
}

/// A shard joining or leaving the data plane — published by the host when
/// `spawn_shard` / `retire_shard` complete, so telemetry consumers (the
/// [`TelemetryHub`](crate::hub::TelemetryHub), the elastic manager) can
/// grow or prune their per-shard state instead of planning on ghosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardLifecycleEvent {
    /// A new pipeline shard came up and will start publishing snapshots.
    Spawned {
        /// The new shard's index.
        shard: usize,
        /// Host-clock time of the spawn, in nanoseconds.
        at_ns: u64,
    },
    /// A shard finished draining and its pipeline was torn down; no further
    /// snapshots will arrive for it.
    Retired {
        /// The retired shard's (former) index.
        shard: usize,
        /// Host-clock time the teardown completed, in nanoseconds.
        at_ns: u64,
    },
}

impl ShardLifecycleEvent {
    /// The shard the event concerns.
    pub fn shard(&self) -> usize {
        match self {
            ShardLifecycleEvent::Spawned { shard, .. }
            | ShardLifecycleEvent::Retired { shard, .. } => *shard,
        }
    }
}

impl TelemetrySnapshot {
    /// Ingress-ring occupancy as a fraction of capacity, in `[0, 1]`.
    pub fn ingress_fill(&self) -> f64 {
        if self.ingress_capacity == 0 {
            return 0.0;
        }
        (self.ingress_depth as f64 / self.ingress_capacity as f64).min(1.0)
    }

    /// Credit occupancy as a fraction of the budget, in `[0, 1]` (0 for a
    /// zero budget).
    pub fn credit_fill(&self) -> f64 {
        if self.credit_capacity == 0 {
            return 0.0;
        }
        (self.credits_in_flight as f64 / self.credit_capacity as f64).min(1.0)
    }

    /// The live (non-draining) replica count for `service` on this shard.
    pub fn replicas(&self, service: ServiceId) -> usize {
        self.nfs
            .iter()
            .filter(|nf| nf.service == service && !nf.draining)
            .count()
    }

    /// The worst (highest) input-ring fill across `service`'s live replicas,
    /// or `None` if no replica is live.
    pub fn worst_fill(&self, service: ServiceId) -> Option<f64> {
        self.nfs
            .iter()
            .filter(|nf| nf.service == service && !nf.draining)
            .map(NfTelemetry::fill)
            .max_by(|a, b| a.total_cmp(b))
    }

    /// The services with at least one live replica on this shard, sorted and
    /// deduplicated.
    pub fn services(&self) -> Vec<ServiceId> {
        let mut services: Vec<ServiceId> = self
            .nfs
            .iter()
            .filter(|nf| !nf.draining)
            .map(|nf| nf.service)
            .collect();
        services.sort();
        services.dedup();
        services
    }

    /// Total packets queued anywhere inside the shard's pipeline (ingress +
    /// NF rings + egress).
    pub fn backlog(&self) -> usize {
        self.ingress_depth
            + self.egress_depth
            + self.nfs.iter().map(|nf| nf.input_depth).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svc(id: u32) -> ServiceId {
        ServiceId::new(id)
    }

    fn nf(service: u32, slot: usize, depth: usize, capacity: usize) -> NfTelemetry {
        NfTelemetry {
            service: svc(service),
            slot,
            input_depth: depth,
            input_capacity: capacity,
            service_time_ewma_ns: 100,
            processed: 10,
            draining: false,
        }
    }

    fn snapshot() -> TelemetrySnapshot {
        TelemetrySnapshot {
            shard: 1,
            seq: 3,
            at_ns: 1_000,
            ingress_depth: 8,
            ingress_capacity: 32,
            egress_depth: 2,
            egress_capacity: 32,
            credits_in_flight: 24,
            credit_capacity: 64,
            nfs: vec![nf(1, 0, 10, 100), nf(1, 2, 50, 100), nf(2, 1, 0, 100)],
            nf_slots_allocated: 3,
            received: 100,
            transmitted: 80,
            dropped: 0,
            controller_punts: 5,
            throttled: 15,
            applied_commands: 0,
            rehome_pen_depth: 3,
            rehome_pen_max_age_ns: 2_000,
            rules_evicted_idle: 0,
            rules_evicted_hard: 0,
            nf_state_scrubbed: 0,
            nf_state_handoffs: 0,
            nf_state_import_drops: 0,
            spans_dropped: 0,
        }
    }

    #[test]
    fn fills_are_fractions() {
        let snap = snapshot();
        assert!((snap.ingress_fill() - 0.25).abs() < 1e-9);
        assert!((snap.credit_fill() - 0.375).abs() < 1e-9);
        assert!((snap.nfs[1].fill() - 0.5).abs() < 1e-9);
        let empty = NfTelemetry {
            input_capacity: 0,
            ..nf(1, 0, 5, 0)
        };
        assert_eq!(empty.fill(), 0.0);
    }

    #[test]
    fn replica_and_fill_queries() {
        let snap = snapshot();
        assert_eq!(snap.replicas(svc(1)), 2);
        assert_eq!(snap.replicas(svc(2)), 1);
        assert_eq!(snap.replicas(svc(9)), 0);
        assert!((snap.worst_fill(svc(1)).unwrap() - 0.5).abs() < 1e-9);
        assert_eq!(snap.worst_fill(svc(9)), None);
        assert_eq!(snap.services(), vec![svc(1), svc(2)]);
        assert_eq!(snap.backlog(), 8 + 2 + 60);
    }

    #[test]
    fn draining_replicas_count_toward_backlog_but_not_replicas() {
        let mut snap = snapshot();
        snap.nfs[1].draining = true; // the svc-1 replica holding 50 packets
        assert_eq!(snap.replicas(svc(1)), 1);
        assert!((snap.worst_fill(svc(1)).unwrap() - 0.1).abs() < 1e-9);
        assert_eq!(snap.backlog(), 8 + 2 + 60, "draining queue still counted");
        snap.nfs[2].draining = true; // the only svc-2 replica
        assert_eq!(snap.replicas(svc(2)), 0);
        assert_eq!(snap.services(), vec![svc(1)]);
    }

    #[test]
    fn zero_capacity_gauges_are_zero() {
        let mut snap = snapshot();
        snap.ingress_capacity = 0;
        snap.credit_capacity = 0;
        assert_eq!(snap.ingress_fill(), 0.0);
        assert_eq!(snap.credit_fill(), 0.0);
    }
}
