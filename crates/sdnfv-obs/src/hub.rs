//! [`ObsHub`]: the one observability consumer of a running
//! [`ThreadedHost`] — merged telemetry, latency histograms, collected
//! trace spans, and the control-plane flight recorder, drained together in
//! one call.

use std::collections::HashMap;

use sdnfv_dataplane::runtime::ThreadedHost;
use sdnfv_dataplane::RehomeEvent;
use sdnfv_proto::flow::FlowKey;
use sdnfv_telemetry::{
    ControlAction, LatencyReport, ShardLifecycleEvent, TelemetryHub, TelemetrySnapshot, TraceSpan,
    TraceStage,
};

use crate::flight::FlightRecorder;

/// How many trace spans [`ObsHub`] retains between [`ObsHub::take_spans`]
/// drains before counting further spans as shed.
pub const SPAN_BUFFER_CAP: usize = 65_536;

/// How many distinct flows the hub's hash → 5-tuple registry retains;
/// beyond this, new flows are counted as shed rather than registered.
pub const FLOW_KEY_CAP: usize = 262_144;

/// Per-shard eviction counters at the last observation, for computing the
/// sweep deltas the flight recorder journals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct EvictionWatermark {
    idle: u64,
    hard: u64,
    scrubbed: u64,
}

/// Aggregates everything the data plane exports about itself:
///
/// * **telemetry** — per-shard [`TelemetrySnapshot`]s merged by an inner
///   [`TelemetryHub`] (queue gauges, rates, cumulative counters) — the
///   view the elastic manager plans from, too
///   ([`ObsHub::telemetry`]);
/// * **latency** — the host's per-stage histograms, merged over every
///   shard slot ([`ThreadedHost::latency_report`], read at each observe);
/// * **traces** — sampled per-packet [`TraceSpan`]s, buffered for a
///   consumer with per-stage counts;
/// * **flight recorder** — a sequenced journal of control actions, shard
///   lifecycle, bucket re-homes and eviction sweeps.
///
/// The host's lifecycle, re-home, telemetry and trace feeds are
/// destructive drains, so a host has one `ObsHub` and nothing else drains
/// them. One [`ObsHub::observe`] call drains all four in a fixed order, so
/// under a virtual clock two identical runs observe identically; a caller
/// that filters a feed on the way (a fault-injecting harness) drains the
/// host itself and hands each batch to its `absorb_*` method.
#[derive(Debug)]
pub struct ObsHub {
    hub: TelemetryHub,
    recorder: FlightRecorder,
    /// The host's merged latency report as of the last observe.
    pub(crate) latency: LatencyReport,
    spans: Vec<TraceSpan>,
    spans_shed: u64,
    spans_collected: u64,
    spans_by_stage: [u64; 4],
    eviction_marks: Vec<EvictionWatermark>,
    flow_keys: HashMap<u64, FlowKey>,
    flow_keys_shed: u64,
}

impl Default for ObsHub {
    fn default() -> Self {
        ObsHub::new()
    }
}

impl ObsHub {
    /// An empty hub.
    pub fn new() -> Self {
        ObsHub {
            hub: TelemetryHub::new(),
            recorder: FlightRecorder::new(),
            latency: LatencyReport::default(),
            spans: Vec::new(),
            spans_shed: 0,
            spans_collected: 0,
            spans_by_stage: [0; 4],
            eviction_marks: Vec::new(),
            flow_keys: HashMap::new(),
            flow_keys_shed: 0,
        }
    }

    /// Drains every observability feed of `host` once, in a fixed order —
    /// shard lifecycle events, bucket re-home steps, telemetry snapshots,
    /// trace spans — and reads its latency report. Call it from the loop
    /// that drives the host, before the elastic manager's
    /// [`drive`](../../sdnfv_control/elastic/struct.ElasticNfManager.html#method.drive),
    /// which plans from [`ObsHub::telemetry`].
    pub fn observe(&mut self, host: &ThreadedHost) {
        self.absorb_lifecycle(&host.take_shard_events());
        self.absorb_rehomes(&host.take_rehome_events());
        self.absorb_snapshots(host.poll_telemetry());
        self.absorb_spans(host.poll_traces());
        self.latency = host.latency_report();
    }

    /// Journals shard lifecycle events, then applies them to the telemetry
    /// view (a retired shard's slot is pruned, a spawned one reopened).
    /// Apply a batch before the snapshots drained after it: a `Spawned`
    /// event resets its slot.
    pub fn absorb_lifecycle(&mut self, events: &[ShardLifecycleEvent]) {
        for event in events {
            self.recorder.record_lifecycle(event);
        }
        self.hub.observe_lifecycle(events);
    }

    /// Journals bucket re-home steps.
    pub fn absorb_rehomes(&mut self, events: &[RehomeEvent]) {
        for event in events {
            self.recorder.record_rehome(event);
        }
    }

    /// Merges a batch of telemetry snapshots into the view, journaling an
    /// eviction-sweep record for every shard whose cumulative eviction
    /// counters advanced since the last batch.
    pub fn absorb_snapshots(&mut self, snapshots: Vec<TelemetrySnapshot>) {
        for snapshot in &snapshots {
            let shard = snapshot.shard;
            if shard >= self.eviction_marks.len() {
                self.eviction_marks
                    .resize(shard + 1, EvictionWatermark::default());
            }
            let mark = &mut self.eviction_marks[shard];
            // Counters are cumulative per shard; a snapshot below the
            // watermark means the shard slot was reused by a fresh
            // incarnation, whose counters restart from zero.
            if snapshot.rules_evicted_idle < mark.idle
                || snapshot.rules_evicted_hard < mark.hard
                || snapshot.nf_state_scrubbed < mark.scrubbed
            {
                *mark = EvictionWatermark::default();
            }
            let idle = snapshot.rules_evicted_idle - mark.idle;
            let hard = snapshot.rules_evicted_hard - mark.hard;
            let scrubbed = snapshot.nf_state_scrubbed - mark.scrubbed;
            if idle > 0 || hard > 0 || scrubbed > 0 {
                self.recorder
                    .record_evictions(snapshot.at_ns, shard, idle, hard, scrubbed);
                *mark = EvictionWatermark {
                    idle: snapshot.rules_evicted_idle,
                    hard: snapshot.rules_evicted_hard,
                    scrubbed: snapshot.nf_state_scrubbed,
                };
            }
        }
        self.hub.absorb(snapshots);
    }

    /// Buffers a batch of trace spans (bounded by [`SPAN_BUFFER_CAP`]) and
    /// updates the per-stage tallies.
    pub fn absorb_spans(&mut self, spans: Vec<TraceSpan>) {
        for span in spans {
            self.spans_collected += 1;
            self.spans_by_stage[span.stage as usize] += 1;
            if self.spans.len() < SPAN_BUFFER_CAP {
                self.spans.push(span);
            } else {
                self.spans_shed += 1;
            }
        }
    }

    /// Registers a flow's 5-tuple under its stable hash, so a
    /// [`TraceSpan`]'s `flow_hash` can be joined back to the concrete flow
    /// it belongs to. Call it wherever the key is in hand anyway — an
    /// injection path, a wire hand-off — it is idempotent per flow. Bounded
    /// by [`FLOW_KEY_CAP`]; flows beyond the cap are counted as shed.
    pub fn record_flow(&mut self, key: &FlowKey) {
        let hash = key.stable_hash();
        if self.flow_keys.contains_key(&hash) {
            return;
        }
        if self.flow_keys.len() >= FLOW_KEY_CAP {
            self.flow_keys_shed += 1;
            return;
        }
        self.flow_keys.insert(hash, *key);
    }

    /// The 5-tuple registered under `hash`, if the flow has been recorded.
    pub fn key_for_hash(&self, hash: u64) -> Option<&FlowKey> {
        self.flow_keys.get(&hash)
    }

    /// Joins a span back to its flow's 5-tuple: `None` for unrecorded (or
    /// untraced, `flow_hash == 0`) flows.
    pub fn resolve_span(&self, span: &TraceSpan) -> Option<&FlowKey> {
        if span.flow_hash == 0 {
            return None;
        }
        self.key_for_hash(span.flow_hash)
    }

    /// Distinct flows currently registered in the hash → key map.
    pub fn flows_recorded(&self) -> usize {
        self.flow_keys.len()
    }

    /// Flows that could not be registered because the registry was full.
    pub fn flow_keys_shed(&self) -> u64 {
        self.flow_keys_shed
    }

    /// Journals control actions the caller's elastic loop issued this tick
    /// (pass the return value of
    /// [`ElasticNfManager::drive`](../../sdnfv_control/elastic/struct.ElasticNfManager.html#method.drive)).
    pub fn record_actions(&mut self, at_ns: u64, actions: &[ControlAction]) {
        for action in actions {
            self.recorder.record_action(at_ns, action);
        }
    }

    /// The merged telemetry view.
    pub fn telemetry(&self) -> &TelemetryHub {
        &self.hub
    }

    /// The control-plane journal.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Mutable access to the journal (to record events the hub cannot see
    /// itself, or to drain it).
    pub fn recorder_mut(&mut self) -> &mut FlightRecorder {
        &mut self.recorder
    }

    /// The host's latency distributions, merged across every shard slot
    /// (live and retired), as of the last [`ObsHub::observe`].
    pub fn latency(&self) -> &LatencyReport {
        &self.latency
    }

    /// Takes the buffered trace spans, oldest first.
    pub fn take_spans(&mut self) -> Vec<TraceSpan> {
        std::mem::take(&mut self.spans)
    }

    /// Spans collected over the hub's lifetime (buffered or shed).
    pub fn spans_collected(&self) -> u64 {
        self.spans_collected
    }

    /// Spans collected for `stage` over the hub's lifetime.
    pub fn spans_for_stage(&self, stage: TraceStage) -> u64 {
        self.spans_by_stage[stage as usize]
    }

    /// Spans shed because the hub's buffer was full (distinct from the
    /// data plane's own `spans_dropped`, which counts ring overflow).
    pub fn spans_shed(&self) -> u64 {
        self.spans_shed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnfv_telemetry::{NfTelemetry, TelemetrySnapshot};

    fn snapshot(shard: usize, seq: u64, idle: u64, hard: u64, scrubbed: u64) -> TelemetrySnapshot {
        TelemetrySnapshot {
            shard,
            seq,
            at_ns: seq * 1_000,
            ingress_depth: 0,
            ingress_capacity: 64,
            egress_depth: 0,
            egress_capacity: 64,
            credits_in_flight: 0,
            credit_capacity: 64,
            nfs: Vec::<NfTelemetry>::new(),
            nf_slots_allocated: 0,
            received: 0,
            transmitted: 0,
            dropped: 0,
            controller_punts: 0,
            throttled: 0,
            applied_commands: 0,
            rehome_pen_depth: 0,
            rehome_pen_max_age_ns: 0,
            rules_evicted_idle: idle,
            rules_evicted_hard: hard,
            nf_state_scrubbed: scrubbed,
            nf_state_handoffs: 0,
            nf_state_import_drops: 0,
            spans_dropped: 0,
        }
    }

    #[test]
    fn eviction_sweeps_journal_deltas_not_totals() {
        let mut hub = ObsHub::new();
        hub.absorb_snapshots(vec![snapshot(0, 1, 0, 0, 0)]);
        assert!(hub.recorder().is_empty(), "no evictions, no record");
        hub.absorb_snapshots(vec![snapshot(0, 2, 5, 1, 3)]);
        hub.absorb_snapshots(vec![snapshot(0, 3, 7, 1, 3)]);
        let lines = hub.recorder().replay();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("evicted 5 idle + 1 hard rules, scrubbed 3"));
        assert!(lines[1].contains("evicted 2 idle + 0 hard rules, scrubbed 0"));
    }

    #[test]
    fn reused_shard_slot_resets_the_watermark() {
        let mut hub = ObsHub::new();
        hub.absorb_snapshots(vec![snapshot(0, 5, 10, 0, 0)]);
        // A fresh incarnation restarts its counters below the watermark.
        hub.absorb_snapshots(vec![snapshot(0, 6, 2, 0, 0)]);
        let lines = hub.recorder().replay();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("evicted 2 idle"));
    }

    #[test]
    fn spans_join_back_to_recorded_flow_keys() {
        use sdnfv_proto::flow::IpProtocol;
        use std::net::Ipv4Addr;
        let mut hub = ObsHub::new();
        let key = FlowKey::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            4242,
            80,
            IpProtocol::Udp,
        );
        hub.record_flow(&key);
        hub.record_flow(&key);
        assert_eq!(hub.flows_recorded(), 1, "idempotent per flow");
        let span = |flow_hash: u64| TraceSpan {
            shard: 0,
            stage: TraceStage::Rx,
            service: 0,
            flow_hash,
            t_start_ns: 0,
            t_end_ns: 1,
            verdict: sdnfv_telemetry::SpanVerdict::Forwarded,
        };
        assert_eq!(hub.resolve_span(&span(key.stable_hash())), Some(&key));
        assert_eq!(hub.resolve_span(&span(0)), None, "untraced never joins");
        assert_eq!(hub.resolve_span(&span(1)), None, "unknown hash");
        assert_eq!(hub.flow_keys_shed(), 0);
    }

    #[test]
    fn span_buffer_tallies_by_stage_and_sheds_at_cap() {
        let mut hub = ObsHub::new();
        let span = |stage: TraceStage| TraceSpan {
            shard: 0,
            stage,
            service: 0,
            flow_hash: 1,
            t_start_ns: 0,
            t_end_ns: 1,
            verdict: sdnfv_telemetry::SpanVerdict::Forwarded,
        };
        hub.absorb_spans(vec![
            span(TraceStage::Rx),
            span(TraceStage::Rx),
            span(TraceStage::Egress),
        ]);
        assert_eq!(hub.spans_collected(), 3);
        assert_eq!(hub.spans_for_stage(TraceStage::Rx), 2);
        assert_eq!(hub.spans_for_stage(TraceStage::Egress), 1);
        assert_eq!(hub.spans_shed(), 0);
        assert_eq!(hub.take_spans().len(), 3);
        assert!(hub.take_spans().is_empty(), "take drains the buffer");
    }
}
