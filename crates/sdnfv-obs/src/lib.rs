//! End-to-end observability for the SDNFV data plane.
//!
//! Three feeds, one consumer:
//!
//! * **Latency histograms** — every shard worker records ingress wait, NF
//!   service time, egress wait and end-to-end latency (and the host, pen
//!   dwell) into lock-free
//!   [`LatencyHistogram`](sdnfv_telemetry::LatencyHistogram)s kept with
//!   the shard's counters; merging per-shard histograms is exact, so
//!   whole-host p50/p99/p999 are true percentiles of the union, retired
//!   shards included.
//! * **Sampled flow tracing** — one in N flows (controller-settable via
//!   [`ControlAction::SetTraceSampling`](sdnfv_telemetry::ControlAction),
//!   plus per-flow pins via the `Trace` rule action) emits a compact
//!   [`TraceSpan`](sdnfv_telemetry::TraceSpan) at every pipeline stage,
//!   over lossy per-shard rings with explicit drop accounting.
//! * **Control-plane flight recorder** — a bounded, sequenced,
//!   cause-linked journal of control actions, shard lifecycle, bucket
//!   re-homes and eviction sweeps, replayable in order.
//!
//! [`ObsHub`] drains all three, plus the per-shard telemetry snapshots,
//! from a running [`ThreadedHost`](sdnfv_dataplane::ThreadedHost) in one
//! call — it is the host's one consumer of those feeds, and the elastic
//! manager plans from its telemetry view; [`prometheus_text`] and
//! [`json_report`] render the merged view.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod expose;
pub mod flight;
pub mod hub;

pub use expose::{json_report, prometheus_text};
pub use flight::{FlightEvent, FlightRecord, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use hub::{ObsHub, FLOW_KEY_CAP, SPAN_BUFFER_CAP};
