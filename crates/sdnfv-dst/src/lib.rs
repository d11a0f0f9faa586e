//! # sdnfv-dst — deterministic simulation testing for the control plane
//!
//! FoundationDB-style simulation testing for the elastic + re-home
//! control plane: thousands of randomized schedules drive the **shipping**
//! runtime — the same `ShardEngine`/`NfEngine` state machines and
//! `ElasticNfManager` decision code the threaded host runs — as
//! single-threaded step-actors under a virtual clock
//! (`ThreadedHost::start_sim_sharded`), with every scheduling and
//! fault-injection decision drawn from one seed.
//!
//! * [`rng`] — the seeded SplitMix64 all randomness comes from.
//! * [`fault`] — the seeded fault plan (actor stalls, telemetry
//!   drop/dup/delay, racing control ops, mid-drain credit resizes) and
//!   the telemetry fault applied between the host's snapshot drain and
//!   the `ObsHub` the control loop plans from.
//! * [`harness`] — the schedule runner: active phase → quiescence →
//!   probes → shutdown census.
//! * [`oracle`] — the invariants: packet conservation, zero NF-state
//!   loss/duplication, one replica holding each flow's state, exact pins
//!   and wildcard mutations surviving every bucket move, credit
//!   conservation, eventual quiescence.
//! * [`trace`] — the replayable event trace; same seed ⇒ byte-identical
//!   trace, and a failure report prints the seed that reproduces it.
//!
//! Entry points: [`run_seed`] for one schedule, [`run_seed_checked`] to
//! also double-run and compare traces, and the `dst` binary for sweeps
//! (`cargo run -p sdnfv-dst --bin dst -- --seeds 1000`) and replays
//! (`-- --seed 0xDEADBEEF`).

pub mod fault;
pub mod harness;
pub mod oracle;
pub mod rng;
pub mod trace;

pub use fault::{fault_snapshots, FaultKind, FaultPlan};
pub use harness::{run_seed, run_seed_checked, DstConfig};
pub use oracle::RunReport;
pub use rng::SplitMix64;
pub use trace::Trace;
