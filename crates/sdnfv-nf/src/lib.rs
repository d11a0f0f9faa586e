//! The SDNFV-User network function library (paper §4.3) and the network
//! functions used throughout the paper's use cases and evaluation.
//!
//! A network function is any type implementing [`NetworkFunction`]: it is
//! handed packets in bursts ([`PacketBatch`]), may keep arbitrary per-flow
//! or cross-flow state, and for every packet yields a [`Verdict`] — follow
//! the default path, discard, or steer to a specific service or port.
//! Per-packet NFs implement only the scalar
//! [`process`](NetworkFunction::process) hook and ride the built-in batch
//! adapter; hot NFs override
//! [`process_batch`](NetworkFunction::process_batch) and amortize work
//! across the burst. Longer-lived routing changes are requested through
//! [`NfMessage`]s emitted via the [`NfContext`], which the NF Manager
//! forwards up the control hierarchy (paper §3.4).
//!
//! The [`nfs`] module contains the paper's functions: the anomaly-detection
//! chain (firewall, sampler, IDS, DDoS detector, scrubber), the video
//! pipeline (video detector, policy engine, quality detector, transcoder,
//! cache, shaper), the ant/elephant flow detector, the memcached proxy, and
//! the no-op / compute-intensive functions used by the microbenchmarks.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod batch;
pub mod nfs;
pub mod pattern;
pub mod registry;

pub use api::{AttributedNfMessage, NetworkFunction, NfContext, NfFlowState, NfMessage, Verdict};
pub use batch::{BurstMemo, PacketBatch, PacketBatchMut, VerdictSlice};
pub use pattern::PatternSet;
pub use registry::NfRegistry;
