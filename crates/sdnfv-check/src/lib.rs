//! Correctness tooling for the SDNFV reproduction.
//!
//! Two independent halves, both runnable from CI and from `cargo test`:
//!
//! * [`checks`] — bounded-exhaustive interleaving checks of the shipping
//!   lock-free primitives (`sdnfv-ring`, the telemetry histogram, the flow
//!   table's partition generations against the lookup cache), driven
//!   by the loom-lite model checker in [`sdnfv_ring::model`]. The checked
//!   code is the real code: the `model` cargo feature swaps the atomics
//!   behind the [`sdnfv_ring::sync`] facade for recording atomics (the flow
//!   table is instantiated over them, [`checks::ModelGeneration`]), and a
//!   controlled scheduler enumerates every thread interleaving (up to a
//!   preemption bound) under an acquire/release-aware memory model that
//!   lets relaxed loads observe stale values.
//! * [`mutants`] — the checker's own regression suite: deliberately broken
//!   variants of the same algorithms (a `Release` weakened to `Relaxed`, a
//!   dropped credit release, an off-by-one ring wrap, torn read-modify-write
//!   updates, a table generation bumped before the change or in the wrong
//!   partition). Each seeded bug must be *caught*; see
//!   `tests/model_mutants.rs`.
//! * [`lint`] — a token-level scanner enforcing project invariants that
//!   rustc and clippy cannot express: no wall-clock reads outside the
//!   sanctioned `HostClock::Real` construction site, `// SAFETY:` on every
//!   `unsafe`, `// ORDER:` justifications on every atomic in the lock-free
//!   core, no blocking calls in the engine's per-packet hot paths, and no
//!   `todo!`/`unimplemented!` outside tests. Suppressions live in a
//!   checked-in allowlist (`lint.allow`) with one justification per line.
//!
//! Run them with `cargo run -p sdnfv-check --bin model` and
//! `cargo run -p sdnfv-check --bin lint`.

#![warn(missing_docs)]

pub mod checks;
pub mod lint;
pub mod mutants;
