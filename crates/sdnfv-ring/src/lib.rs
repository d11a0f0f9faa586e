//! Lock-free communication primitives for the SDNFV data plane.
//!
//! The paper's NF Manager exchanges packets with network functions through
//! asynchronous ring buffers backed by shared huge pages, so that no locks
//! are taken on the packet path (§4.1). This crate provides the equivalents
//! used by the [`sdnfv-dataplane`](../sdnfv_dataplane/index.html) runtime:
//!
//! * [`spsc`] — bounded single-producer/single-consumer rings whose producer
//!   and consumer handles are distinct owned types, enforcing the
//!   one-producer/one-consumer discipline at compile time; a burst moves
//!   each element once — [`Producer::stage`] writes it into its slot and
//!   [`Producer::publish`] makes the burst visible with one atomic cursor
//!   update, [`Consumer::take`] (or the in-place [`Consumer::peek_mut`])
//!   reads it out and [`Consumer::release`] returns the slots with one
//!   more ([`Producer::push_n`]/[`Consumer::pop_n`] do the same through a
//!   caller's `Vec`),
//! * [`pool`] — a bounded packet pool modelling the shared huge-page region
//!   DPDK DMAs packets into; exhaustion translates to packet drops exactly
//!   like a full mbuf pool,
//! * [`shared`] — packet frames in flight: owned outright on a sequential
//!   hop, reference-counted descriptors when the manager dispatches one
//!   packet to several read-only NFs in parallel (§4.2); the descriptor
//!   carries the completion counter and the NFs' merged verdict,
//! * [`credit`] — credit gates implementing ingress backpressure: a bounded
//!   pipeline stage admits a packet only while it holds a credit, and the
//!   egress side replenishes the credit when the packet leaves, so overload
//!   throttles the sender instead of silently dropping inside the pipeline.
//!
//! All four modules take their atomics from the [`sync`] facade, so the
//! `model` cargo feature can swap in the recording atomics of the [`model`]
//! interleaving checker (`sdnfv-check` drives it): the shipping primitives
//! are themselves the checked code.

#![warn(missing_docs)]

pub mod credit;
#[cfg(feature = "model")]
pub mod model;
pub mod pool;
pub mod shared;
pub mod spsc;
pub mod sync;

pub use credit::CreditGate;
pub use pool::{PacketPool, PoolStats, PooledPacket};
pub use shared::{
    verdict_key, verdict_parts, Exclusive, Frame, SharedPacket, SolePacket, VerdictClass,
};
pub use spsc::{spsc_ring, Consumer, Producer, PushError};
