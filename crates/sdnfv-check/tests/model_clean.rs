//! The clean-primitive checks, as a test suite.
//!
//! These are the same bounded scenarios `cargo run -p sdnfv-check --bin
//! model` runs in CI, exercised through `cargo test` so a plain workspace
//! test run also proves the shipping primitives model-check cleanly. Each
//! check panics with a formatted counterexample on any violation and
//! returns the number of exhaustively explored interleavings otherwise.

use sdnfv_check::checks;

#[test]
fn every_clean_check_passes_exhaustively() {
    // Ring (3: bursts, wraparound, deferred publish and release), credit
    // gate (2), histogram (2: the single-recorder rule and
    // the shared form), pool, shared completion, verdict cell, table
    // generation, bucket drain, NF messages.
    assert_eq!(checks::all().len(), 13);
    for (name, run, opts) in checks::all() {
        let executions = run(opts);
        assert!(
            executions > 1,
            "{name}: search space collapsed to {executions} executions"
        );
    }
}
