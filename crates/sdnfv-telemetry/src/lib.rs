//! Data-plane telemetry and elastic control actions (paper §3.5).
//!
//! The paper's hierarchical control plane rests on a feedback path from the
//! data plane to the local NF Manager: the manager makes fast resource
//! decisions (replica scaling, queue management) from observed queue depths
//! and service times, while the SDN controller above it only sets policy.
//! This crate defines the vocabulary of that feedback loop:
//!
//! * [`TelemetrySnapshot`] / [`NfTelemetry`] — the periodic, per-shard
//!   measurement a shard's worker thread publishes: queue-depth gauges for
//!   the ingress/NF/egress rings, credit occupancy, per-NF service-time
//!   EWMAs and the shard's cumulative packet counters. Snapshots travel
//!   over the same lock-free SPSC rings as packets
//!   ([`sdnfv-ring`](../sdnfv_ring/index.html)), so exporting telemetry
//!   takes no lock on the packet path;
//! * [`Ewma`] — the exponentially weighted moving average used for
//!   service-time estimates;
//! * [`TelemetryHub`] — the consumer side: merges snapshot streams from all
//!   shards, keeps the latest view per shard, and computes inter-snapshot
//!   rates (punts/sec, throttles/sec);
//! * [`ControlAction`] — the typed decisions an elastic controller (the
//!   `ElasticNfManager` in
//!   [`sdnfv-control`](../sdnfv_control/index.html)) derives from merged
//!   snapshots: scale an NF's replica count on a shard, resize a shard's
//!   credit budget, or rebalance flow-steering weights.
//!
//! The exporter side lives in the
//! [`sdnfv-dataplane`](../sdnfv_dataplane/index.html) runtime; the control
//! loop that closes the circle lives in `sdnfv-control`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod action;
pub mod clock;
pub mod ewma;
pub mod hist;
pub mod hub;
pub mod snapshot;
pub mod trace;

pub use action::ControlAction;
pub use clock::HostClock;
pub use ewma::Ewma;
pub use hist::{HistogramSnapshot, LatencyHistogram};
pub use hub::{ShardRates, TelemetryHub};
pub use snapshot::{LatencyReport, NfTelemetry, ShardLifecycleEvent, TelemetrySnapshot};
pub use trace::{SpanVerdict, TraceSpan, TraceStage};
