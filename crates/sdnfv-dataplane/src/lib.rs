//! The SDNFV NF Manager: the per-host data plane runtime (paper §4).
//!
//! Two execution engines are provided over the same building blocks:
//!
//! * [`manager::NfManager`] — an inline (synchronous) engine that walks each
//!   packet through the host's flow table and network functions on the
//!   calling thread. It is deterministic, which makes it the engine of
//!   choice for the discrete-event simulator and for unit tests.
//! * [`runtime::ThreadedHost`] — the multi-threaded, **sharded** runtime
//!   mirroring the paper's implementation: packets are steered by 5-tuple
//!   flow hash into independent pipeline shards (RSS-style), each running a
//!   poll-mode dispatch/egress worker plus per-NF "VM" threads fed through
//!   lock-free SPSC rings, with credit-based ingress backpressure instead of
//!   silent overflow drops. This engine is what the latency/throughput
//!   experiments (Table 2, Figures 6 and 7) run on.
//!
//! Shared building blocks:
//!
//! * [`loadbalance`] — round-robin, shortest-queue and flow-hash balancing
//!   across NF instances of the same service (§4.2),
//! * [`conflict`] — resolution of conflicting verdicts from NFs processing
//!   one packet in parallel, and validation of an NF's explicit steering
//!   request against the rule at its step (§4.2),
//! * [`cache`] — per-thread caching of flow-table lookups (§4.2),
//! * [`messages`] — application of NF cross-layer messages (SkipMe,
//!   RequestMe, ChangeDefault) to the host flow table (§3.4),
//! * [`stats`] — counters describing everything the host did.

#![warn(missing_docs)]

pub mod cache;
pub mod conflict;
pub mod loadbalance;
pub mod manager;
pub mod messages;
pub mod rehome;
pub mod runtime;
pub mod scratch;
pub mod sim;
pub mod stats;
pub mod wire;

pub use cache::LookupCache;
pub use conflict::resolve_parallel_verdicts;
pub use loadbalance::LoadBalancePolicy;
pub use manager::{NfManager, NfManagerConfig, PacketOutcome};
pub use messages::{apply_nf_message, apply_nf_message_tracked, AppliedChange, NfManagerMessage};
pub use rehome::{BucketHandout, RehomeEvent, RehomeReport, RehomeStep};
pub use runtime::{
    shard_for_flow, BurstInjection, HostOutput, InjectResult, ThreadedHost, ThreadedHostConfig,
    STEER_BUCKETS,
};
pub use sim::{SimActorInfo, SimActorKind, SimHandle};
pub use stats::{HostStats, HostStatsSnapshot, ShardStats};
pub use wire::{HostLink, LoopbackWire, WireFrame};
