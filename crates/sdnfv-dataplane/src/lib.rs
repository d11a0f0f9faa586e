//! The SDNFV NF Manager: the per-host data plane runtime (paper §4).
//!
//! One dispatch engine does lookup → replica pick → fan-out → verdict
//! merge: the **sharded** runtime in [`runtime`], mirroring the paper's
//! implementation. Packets are steered by 5-tuple flow hash into
//! independent pipeline shards (RSS-style), each running a poll-mode
//! dispatch/egress worker plus per-NF "VM" replicas fed through lock-free
//! SPSC rings, with credit-based ingress backpressure instead of silent
//! overflow drops. It runs in one of three ways:
//!
//! * [`runtime::ThreadedHost`] — every worker and replica on its own
//!   thread: production, and the ledger's throughput runs;
//! * [`sim`] — the same engines as step-actors on a virtual clock, driven
//!   by a seeded scheduler (the deterministic simulation harness);
//! * [`manager::NfManager`] — a synchronous driver over a one-shard
//!   stepped host that runs each packet or burst to completion on the
//!   calling thread: the discrete-event simulators, the examples and most
//!   tests.
//!
//! Shared building blocks:
//!
//! * [`conflict`] — resolution of conflicting verdicts from NFs processing
//!   one packet in parallel, and validation of an NF's explicit steering
//!   request against the rule at its step (§4.2),
//! * [`cache`] — per-worker caching of flow-table lookups (§4.2),
//! * [`messages`] — application of NF cross-layer messages (SkipMe,
//!   RequestMe, ChangeDefault) to the host flow table (§3.4),
//! * [`stats`] — counters describing everything the host did.

#![warn(missing_docs)]

pub mod cache;
pub mod conflict;
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
pub use manager::{NfManager, PacketOutcome};
pub use messages::{apply_nf_message, AppliedChange, NfManagerMessage};
pub use rehome::{BucketHandout, MoveTarget, RehomeEvent, RehomeReport, RehomeStep};
pub use runtime::{
    shard_for_flow, BurstInjection, HostOutput, InjectResult, ThreadedHost, ThreadedHostConfig,
    STEER_BUCKETS,
};
pub use sim::{SimActorInfo, SimActorKind, SimHandle};
pub use stats::{HostStats, HostStatsSnapshot, ShardStats};
pub use wire::{HostLink, LoopbackWire, WireFrame};
