//! The invariant oracle and the run report.
//!
//! After a schedule finishes (active phase → quiescence → probes →
//! shutdown census) the oracle asserts the properties the re-home and
//! scale protocols promise, regardless of interleaving or injected
//! faults:
//!
//! * **packet conservation** — every admitted packet is accounted for:
//!   `received == transmitted + dropped + overflow_drops +
//!   controller_punts`, and everything transmitted was drained at egress;
//! * **no NF flow state lost or duplicated** — the per-flow counter
//!   census: counter state surviving in replicas at shutdown plus mass
//!   retired by rule-eviction scrubs equals the number of packets
//!   processed, per flow (`nf_state_import_drops` must also stay 0);
//! * **one holder per flow** — at the shutdown census no flow's state
//!   survives in more than one replica: a replica scale or a re-home that
//!   left a flow's history behind shows here, even where the summed census
//!   balances (the flow's packets met a replica without its history);
//! * **no exact-flow rules lost** — a flow pinned by a `ChangeDefault`
//!   during the run still forwards to the pinned port when probed after
//!   quiescence, however many times its bucket moved — unless its rule's
//!   idle timeout legitimately expired, in which case the flow must fall
//!   back to the wildcard defaults (eviction is consistent behavior);
//! * **no evicted rule survives** — every synthetic churn rule (short
//!   hard timeout) is gone from every partition once the clock passes its
//!   deadline;
//! * **no wildcard mutations lost** — same, for the wildcard default
//!   flip;
//! * **span conservation** — with hash-sampled flow tracing on (every DST
//!   run samples 1/4 of flows), each sampled admitted packet emits exactly
//!   one RX span and exactly one terminal span, and no span runs
//!   backwards in time (exact accounting gated on `spans_dropped == 0`);
//! * **credit conservation** — after quiescence every shard's credit gate
//!   is back to its full budget (nothing leaked in a drain or resize);
//! * **eventual quiescence** — the host reaches zero pending re-homes,
//!   no retiring shard, and an idle step fixpoint within a bounded number
//!   of quiescence iterations.
//!
//! A violated invariant becomes a line in [`RunReport::violations`]; the
//! report's failure message prints the seed and the replayable trace tail.

use std::collections::{BTreeMap, BTreeSet};

use sdnfv_dataplane::HostStatsSnapshot;
use sdnfv_proto::flow::FlowKey;
use sdnfv_telemetry::{LatencyReport, TraceSpan, TraceStage};

use crate::fault::FaultKind;
use crate::trace::Trace;

/// Everything one simulated schedule produced.
#[derive(Debug)]
pub struct RunReport {
    /// The seed the schedule was derived from (replay key).
    pub seed: u64,
    /// Invariant violations (empty = the run passed).
    pub violations: Vec<String>,
    /// Which fault kinds actually fired.
    pub fired: BTreeSet<FaultKind>,
    /// The full event trace (byte-identical across same-seed replays).
    pub trace: Trace,
    /// Host counters at the end of the run (pre-shutdown).
    pub stats: HostStatsSnapshot,
    /// Packets admitted by the schedule (including probes).
    pub injected: u64,
    /// Packets drained at egress.
    pub egressed: u64,
    /// Flows pinned by the counter NF during the run.
    pub pins: usize,
    /// Highest shard count the host reached.
    pub peak_shards: usize,
}

impl RunReport {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Short per-kind coverage string, e.g. `actor-stall,telemetry-drop`.
    pub fn fault_coverage(&self) -> String {
        self.fired
            .iter()
            .map(|k| k.as_str())
            .collect::<Vec<_>>()
            .join(",")
    }

    /// The failure report: seed, violations, and the trace tail. The seed
    /// alone replays the identical schedule (`cargo run -p sdnfv-dst --bin
    /// dst -- --seed <seed>` prints the full trace).
    pub fn failure_message(&self) -> String {
        let mut out = format!(
            "DST schedule FAILED: seed={:#x} ({} violations)\n\
             replay with: cargo run -p sdnfv-dst --bin dst -- --seed {}\n",
            self.seed,
            self.violations.len(),
            self.seed,
        );
        for v in &self.violations {
            out.push_str("  violation: ");
            out.push_str(v);
            out.push('\n');
        }
        out.push_str("trace tail:\n");
        out.push_str(&self.trace.tail(60));
        out
    }
}

/// Packet-conservation checks over the final counters.
pub fn check_conservation(
    stats: &HostStatsSnapshot,
    injected: u64,
    egressed: u64,
    violations: &mut Vec<String>,
) {
    if stats.received != injected {
        violations.push(format!(
            "conservation: host received {} but the schedule admitted {}",
            stats.received, injected
        ));
    }
    let accounted = stats.transmitted + stats.dropped + stats.overflow_drops;
    if stats.received != accounted + stats.controller_punts {
        violations.push(format!(
            "conservation: received {} != transmitted {} + dropped {} + overflow {} + punts {}",
            stats.received,
            stats.transmitted,
            stats.dropped,
            stats.overflow_drops,
            stats.controller_punts
        ));
    }
    if egressed != stats.transmitted {
        violations.push(format!(
            "conservation: polled {} at egress but host transmitted {}",
            egressed, stats.transmitted
        ));
    }
}

/// Span conservation: with hash sampling on and no span shed to a full
/// trace ring, every sampled admitted packet must show up in the trace
/// exactly once at RX and reach exactly one terminal verdict (`Egressed`,
/// `Dropped` or `Punted`) — a missing terminal is a packet the trace lost
/// track of; an extra one is a packet observed twice. Every span must
/// also be well-ordered (`t_start <= t_end`). When `spans_dropped != 0`
/// the exact accounting is impossible and only the ordering check runs.
pub fn check_spans(
    spans: &[TraceSpan],
    sampled_admitted: u64,
    spans_dropped: u64,
    violations: &mut Vec<String>,
) {
    for span in spans {
        if span.t_start_ns > span.t_end_ns {
            violations.push(format!(
                "span ordering: {:?}/{:?} span for flow {:#x} runs backwards ({} > {})",
                span.stage, span.verdict, span.flow_hash, span.t_start_ns, span.t_end_ns
            ));
        }
    }
    if spans_dropped != 0 {
        return;
    }
    let rx = spans.iter().filter(|s| s.stage == TraceStage::Rx).count() as u64;
    let terminal = spans.iter().filter(|s| s.verdict.is_terminal()).count() as u64;
    if rx != sampled_admitted {
        violations.push(format!(
            "span conservation: {rx} RX spans for {sampled_admitted} sampled admitted packets"
        ));
    }
    if terminal != sampled_admitted {
        violations.push(format!(
            "span conservation: {terminal} terminal spans for {sampled_admitted} sampled \
             admitted packets ({})",
            if terminal < sampled_admitted {
                "a traced packet vanished"
            } else {
                "a traced packet was observed twice"
            }
        ));
    }
}

/// The zero that must stay zero: NF state discarded at import or left in
/// a retiring replica at its drain-exit.
pub fn check_zeros(stats: &HostStatsSnapshot, violations: &mut Vec<String>) {
    if stats.nf_state_import_drops != 0 {
        violations.push(format!(
            "nf-state: {} flow-state payloads lost at import or drain-exit",
            stats.nf_state_import_drops
        ));
    }
}

/// Latency conservation: every transmitted packet has one end-to-end and
/// one egress-wait sample, and every received one an ingress-wait sample,
/// whichever shard carried it — a shard retired during the run included.
pub fn check_latency(
    latency: &LatencyReport,
    stats: &HostStatsSnapshot,
    violations: &mut Vec<String>,
) {
    let stages = [
        ("end-to-end", latency.end_to_end.count(), stats.transmitted),
        (
            "egress-wait",
            latency.egress_wait.count(),
            stats.transmitted,
        ),
        ("ingress-wait", latency.ingress_wait.count(), stats.received),
    ];
    for (stage, samples, packets) in stages {
        if samples != packets {
            violations.push(format!(
                "latency: {samples} {stage} samples for {packets} counted packets"
            ));
        }
    }
}

/// The NF flow-state census: counter mass surviving in replicas at
/// shutdown, plus mass deliberately retired by rule-eviction scrubs, must
/// equal packets processed, per flow. A rule evicted by its idle/hard
/// timeout (and possibly reinstalled later) is consistent behavior — its
/// scrubbed mass is accounted, not lost. Loss (a dropped export/import)
/// shows as `reported + scrubbed < processed`; duplication (a state
/// payload applied twice) as `>`.
pub fn check_flow_census(
    processed: &BTreeMap<FlowKey, u64>,
    reported: &BTreeMap<FlowKey, u64>,
    scrubbed: &BTreeMap<FlowKey, u64>,
    violations: &mut Vec<String>,
) {
    for (key, want) in processed {
        let surviving = reported.get(key).copied().unwrap_or(0);
        let retired = scrubbed.get(key).copied().unwrap_or(0);
        let got = surviving + retired;
        if got != *want {
            violations.push(format!(
                "nf-state census: flow {}:{} processed {} packets but {} counter units accounted \
                 ({} surviving + {} scrubbed: {})",
                key.src_port,
                key.dst_port,
                want,
                got,
                surviving,
                retired,
                if got < *want {
                    "state lost"
                } else {
                    "state duplicated"
                }
            ));
        }
    }
    for key in reported.keys().chain(scrubbed.keys()) {
        if !processed.contains_key(key) {
            violations.push(format!(
                "nf-state census: flow {}:{} has surviving state but was never processed",
                key.src_port, key.dst_port
            ));
        }
    }
}

/// The one-holder census: `holders` counts, per flow, the replicas whose
/// state survived to shutdown. A flow held by two replicas had its packets
/// split between them — its state did not follow a re-pick.
pub fn check_one_holder(holders: &BTreeMap<FlowKey, u64>, violations: &mut Vec<String>) {
    for (key, &count) in holders {
        if count > 1 {
            violations.push(format!(
                "nf-state holders: flow {}:{} has state in {count} replicas",
                key.src_port, key.dst_port
            ));
        }
    }
}
