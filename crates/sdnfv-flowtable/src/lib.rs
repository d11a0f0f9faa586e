//! Service-ID-extended match/action flow tables for the SDNFV data plane.
//!
//! The paper extends OpenFlow-style flow tables in two ways (§3.3):
//!
//! 1. every rule is keyed not only by packet match fields but also by the
//!    *step* it applies to — either a NIC port (for packets entering the
//!    host) or the Service ID of the NF that just finished with the packet;
//! 2. every rule carries a *list* of actions plus a flag saying whether the
//!    list is a set of parallel destinations (read-only NFs that may process
//!    the packet simultaneously) or a menu of allowed next hops from which
//!    the NF picks — with the first entry being the default.
//!
//! This crate provides those tables: [`FlowMatch`] wildcard matching,
//! [`FlowRule`]s, the single-threaded [`FlowTable`], the lock-protected
//! [`SharedFlowTable`] used by the multi-threaded NF Manager, and the
//! per-shard [`FlowTablePartitions`] the sharded runtime uses to keep every
//! shard's lookups on a lock no other shard ever touches — with a
//! per-partition [`MutationLog`] recording wildcard-rule mutations so
//! bucket re-homes can replay them ([`provenance`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod hash;
pub mod matching;
pub mod partition;
pub mod provenance;
pub mod rule;
pub mod table;
pub mod types;

pub use hash::TableHashKey;
pub use matching::{FlowMatch, IpPrefix};
pub use partition::{BucketStateBundle, BucketStateMoved, FlowTablePartitions};
pub use provenance::{MutationLog, MutationRecord, WildcardMutation};
pub use rule::{Action, Decision, FlowRule, RuleId};
pub use table::{
    generation_partition, EvictReason, EvictedRule, FlowTable, RuleAge, SharedFlowTable,
    TableStats, GENERATION_PARTITIONS,
};
pub use types::{RulePort, ServiceId};
