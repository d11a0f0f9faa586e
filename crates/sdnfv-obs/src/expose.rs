//! Exposition renderers: the merged observability state as
//! Prometheus-compatible text or a single JSON document.
//!
//! Both renderers read only the [`ObsHub`]'s current view — they never
//! drain anything — so rendering is idempotent between
//! [`ObsHub::observe`](crate::ObsHub::observe) calls.

use std::fmt::Write as _;

use sdnfv_telemetry::{HistogramSnapshot, TelemetrySnapshot};

use crate::hub::ObsHub;

/// The cumulative per-shard counters both renderers export, as
/// `(metric name, help text, extractor)` rows. One table keeps the two
/// formats (and their tests) in lockstep.
#[allow(clippy::type_complexity)]
fn counter_rows() -> [(&'static str, &'static str, fn(&TelemetrySnapshot) -> u64); 11] {
    [
        ("received", "packets admitted at ingress", |s| s.received),
        ("transmitted", "packets pushed to egress", |s| s.transmitted),
        ("dropped", "packets dropped", |s| s.dropped),
        (
            "controller_punts",
            "packets punted to the controller",
            |s| s.controller_punts,
        ),
        ("throttled", "injections refused under backpressure", |s| {
            s.throttled
        }),
        (
            "rules_evicted_idle",
            "flow rules evicted by idle timeout",
            |s| s.rules_evicted_idle,
        ),
        (
            "rules_evicted_hard",
            "flow rules evicted by hard timeout",
            |s| s.rules_evicted_hard,
        ),
        (
            "nf_state_scrubbed",
            "per-flow NF state entries scrubbed after eviction",
            |s| s.nf_state_scrubbed,
        ),
        (
            "nf_state_handoffs",
            "per-flow NF state entries moved between replicas by a replica scale",
            |s| s.nf_state_handoffs,
        ),
        (
            "nf_state_import_drops",
            "NF state payloads lost at import or at a replica drain-exit",
            |s| s.nf_state_import_drops,
        ),
        (
            "spans_dropped",
            "trace spans lost to full trace rings",
            |s| s.spans_dropped,
        ),
    ]
}

/// The quantiles both renderers export per latency stage:
/// `(prometheus quantile label, json percentile key, quantile)`.
const QUANTILES: [(&str, &str, f64); 4] = [
    ("0.5", "p50", 0.5),
    ("0.9", "p90", 0.9),
    ("0.99", "p99", 0.99),
    ("0.999", "p999", 0.999),
];

/// Renders the hub's current view in the Prometheus text exposition
/// format: per-shard cumulative counters, queue gauges, and the merged
/// latency histograms as quantile summaries.
pub fn prometheus_text(obs: &ObsHub) -> String {
    let mut out = String::new();
    let snapshots = obs.telemetry().latest_all();
    for (name, help, get) in counter_rows() {
        let _ = writeln!(out, "# HELP sdnfv_{name}_total {help}");
        let _ = writeln!(out, "# TYPE sdnfv_{name}_total counter");
        for snapshot in &snapshots {
            let _ = writeln!(
                out,
                "sdnfv_{name}_total{{shard=\"{}\"}} {}",
                snapshot.shard,
                get(snapshot)
            );
        }
    }
    let _ = writeln!(out, "# HELP sdnfv_ingress_depth packets queued at ingress");
    let _ = writeln!(out, "# TYPE sdnfv_ingress_depth gauge");
    for snapshot in &snapshots {
        let _ = writeln!(
            out,
            "sdnfv_ingress_depth{{shard=\"{}\"}} {}",
            snapshot.shard, snapshot.ingress_depth
        );
    }
    let _ = writeln!(
        out,
        "# HELP sdnfv_rehome_pen_depth packets parked in re-home pens"
    );
    let _ = writeln!(out, "# TYPE sdnfv_rehome_pen_depth gauge");
    for snapshot in &snapshots {
        let _ = writeln!(
            out,
            "sdnfv_rehome_pen_depth{{shard=\"{}\"}} {}",
            snapshot.shard, snapshot.rehome_pen_depth
        );
    }
    let latency = obs.latency();
    let _ = writeln!(
        out,
        "# HELP sdnfv_latency_ns per-stage packet latency, nanoseconds"
    );
    let _ = writeln!(out, "# TYPE sdnfv_latency_ns summary");
    for (stage, histogram) in latency.stages() {
        for (label, _, q) in QUANTILES {
            let _ = writeln!(
                out,
                "sdnfv_latency_ns{{stage=\"{stage}\",quantile=\"{label}\"}} {}",
                histogram.percentile(q)
            );
        }
        let _ = writeln!(
            out,
            "sdnfv_latency_ns_count{{stage=\"{stage}\"}} {}",
            histogram.count()
        );
    }
    let _ = writeln!(
        out,
        "# HELP sdnfv_trace_spans_collected_total trace spans drained from the data plane"
    );
    let _ = writeln!(out, "# TYPE sdnfv_trace_spans_collected_total counter");
    let _ = writeln!(
        out,
        "sdnfv_trace_spans_collected_total {}",
        obs.spans_collected()
    );
    out
}

fn json_histogram(out: &mut String, histogram: &HistogramSnapshot) {
    let _ = write!(out, "{{\"count\":{}", histogram.count());
    for (_, key, q) in QUANTILES {
        let _ = write!(out, ",\"{key}\":{}", histogram.percentile(q));
    }
    out.push('}');
}

/// Renders the hub's current view as one JSON document:
/// `{"shards": [...], "latency": {...}, "flight_recorder": [...]}`.
/// Hand-rolled (no serde): every value is a number, a string from a fixed
/// vocabulary, or a rendered replay line (escaped).
pub fn json_report(obs: &ObsHub) -> String {
    let mut out = String::from("{\"shards\":[");
    for (index, snapshot) in obs.telemetry().latest_all().iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"shard\":{}", snapshot.shard);
        for (name, _, get) in counter_rows() {
            let _ = write!(out, ",\"{name}\":{}", get(snapshot));
        }
        let _ = write!(out, ",\"ingress_depth\":{}", snapshot.ingress_depth);
        let _ = write!(out, ",\"rehome_pen_depth\":{}", snapshot.rehome_pen_depth);
        out.push('}');
    }
    out.push_str("],\"latency\":{");
    let latency = obs.latency();
    for (index, (stage, histogram)) in latency.stages().iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{stage}\":");
        json_histogram(&mut out, histogram);
    }
    let _ = write!(
        out,
        "}},\"spans_collected\":{},\"flight_recorder\":[",
        obs.spans_collected()
    );
    for (index, line) in obs.recorder().replay().iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        out.push('"');
        for c in line.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnfv_telemetry::{LatencyReport, NfTelemetry};

    fn hub_with_snapshot() -> ObsHub {
        let mut latency = LatencyReport::default();
        let hist = sdnfv_telemetry::LatencyHistogram::new();
        for v in [100, 200, 300, 4_000] {
            hist.record(v);
        }
        latency.end_to_end = hist.snapshot();
        let snapshot = TelemetrySnapshot {
            shard: 0,
            seq: 1,
            at_ns: 1_000,
            ingress_depth: 3,
            ingress_capacity: 64,
            egress_depth: 0,
            egress_capacity: 64,
            credits_in_flight: 0,
            credit_capacity: 64,
            nfs: Vec::<NfTelemetry>::new(),
            nf_slots_allocated: 0,
            received: 42,
            transmitted: 40,
            dropped: 1,
            controller_punts: 1,
            throttled: 0,
            applied_commands: 0,
            rehome_pen_depth: 2,
            rehome_pen_max_age_ns: 0,
            rules_evicted_idle: 7,
            rules_evicted_hard: 2,
            nf_state_scrubbed: 5,
            nf_state_handoffs: 4,
            nf_state_import_drops: 1,
            spans_dropped: 3,
        };
        let mut obs = ObsHub::new();
        obs.absorb_snapshots(vec![snapshot]);
        obs.latency = latency;
        obs
    }

    #[test]
    fn prometheus_text_exports_every_counter_and_quantiles() {
        let obs = hub_with_snapshot();
        let text = prometheus_text(&obs);
        for (name, _, _) in counter_rows() {
            assert!(
                text.contains(&format!("sdnfv_{name}_total{{shard=\"0\"}}")),
                "missing counter {name}\n{text}"
            );
        }
        assert!(text.contains("sdnfv_nf_state_handoffs_total{shard=\"0\"} 4"));
        assert!(text.contains("sdnfv_nf_state_import_drops_total{shard=\"0\"} 1"));
        assert!(text.contains("sdnfv_spans_dropped_total{shard=\"0\"} 3"));
        assert!(text.contains("sdnfv_latency_ns{stage=\"end_to_end\",quantile=\"0.5\"}"));
        assert!(text.contains("sdnfv_latency_ns_count{stage=\"end_to_end\"} 4"));
    }

    #[test]
    fn json_report_is_balanced_and_carries_percentiles() {
        let obs = hub_with_snapshot();
        let json = json_report(&obs);
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces:\n{json}"
        );
        assert!(json.contains("\"nf_state_handoffs\":4"));
        assert!(json.contains("\"spans_dropped\":3"));
        assert!(json.contains("\"end_to_end\":{\"count\":4"));
        assert!(json.contains("\"p999\":"));
    }
}
