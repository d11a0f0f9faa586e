//! The DST corpus: a pinned set of named regression seeds plus a broad
//! randomized sweep.
//!
//! **Pinned seeds** encode schedules whose shapes exercised (or once
//! exposed) specific protocol corners — they are regression tests by
//! seed: the schedule a seed generates is frozen forever by the SplitMix64
//! stream, so replaying the seed replays the exact interleaving. When a
//! sweep (local or CI) finds a failing seed, fix the bug and add the seed
//! here under a name describing what it caught.
//!
//! **Sweep** parts run 1000 fresh schedules between them (split four ways
//! so `cargo test` parallelizes), double-checking determinism on every
//! 64th seed and asserting the fault mix actually covered the plan's
//! breadth.

use std::collections::BTreeSet;

use sdnfv_dst::{run_seed, run_seed_checked, DstConfig, FaultKind};

/// Replays one pinned seed with the determinism double-run and asserts a
/// clean pass.
fn replay_pinned(seed: u64) -> sdnfv_dst::RunReport {
    let report = run_seed_checked(&DstConfig::for_seed(seed));
    assert!(report.passed(), "{}", report.failure_message());
    report
}

/// The full fault mix (all telemetry faults, stalls, credit resizes,
/// rebalances racing shard scale and replica churn), with replica scales
/// moving their re-picked buckets' NF state mid-schedule. (Re-pinned from
/// seed 0x1 when replica scaling became a bucket move: the refusals it
/// brought shifted 0x1's schedule, which no longer moved replica state;
/// 0x2 fires all eleven fault kinds.)
#[test]
fn pinned_seed_0x2_full_fault_mix() {
    let report = replay_pinned(0x2);
    assert!(report.stats.nf_state_handoffs > 0);
    assert!(report.pins > 0);
}

/// The replica-scale bucket move: this schedule scales replicas while
/// their per-flow counters are hot, so the run only passes if the state of
/// every re-picked bucket lands on the replica its flows go to next — one
/// holder per flow, nothing left in a retired replica at its drain-exit
/// (`nf_state_import_drops`), and the census balanced. Regression for the
/// scale paths that dropped NF-internal state or left it on a replica the
/// flow no longer reached.
#[test]
fn pinned_seed_0x3_scale_down_state_handoff() {
    let report = replay_pinned(0x3);
    assert!(
        report.stats.nf_state_handoffs > 0,
        "schedule must move state on a replica scale"
    );
    assert_eq!(report.stats.nf_state_import_drops, 0);
}

/// Scale-out to three-plus shards while the control loop observes through
/// heavy telemetry loss — bucket re-homes onto freshly spawned shards
/// racing replica churn and stalled actors. (Re-pinned from seed 0x15
/// when flow-sticky replica dispatch became the default, then from 0x17
/// when the state-mailbox-delay fault added one draw to the plan stream
/// and shifted every schedule, then from 0x19 when replica scaling became
/// a bucket move that shard spawns wait for; each predecessor peaked at
/// two shards after its shift.)
#[test]
fn pinned_seed_0x1b_scale_out_under_telemetry_loss() {
    let report = replay_pinned(0x1b);
    assert!(report.peak_shards >= 3);
    assert!(report.fired.contains(&FaultKind::TelemetryDrop));
}

/// The lost-export-ack regression: this schedule holds back NF replicas'
/// export acks (the state-mailbox-delay fault: the worker leaves a
/// replica's state responses unread for a few polls) while replica scales
/// move per-flow state. When the acks travelled a mailbox beside the
/// message ring, the worker resolved a finished replica's entries empty
/// while its exported state sat undelivered, and the census flagged
/// permanent NF state loss on this seed. Now every ack rides the replica's
/// message ring: once the replica has exited and its ring is empty, the
/// worker has popped all of them, reads them whatever the holdback, and
/// resolves an entry empty only when none is left unread. (A worker that
/// let the holdback delay an exited replica's acks and resolved its
/// entries regardless loses state on default seed 0x5dff001b.)
#[test]
fn pinned_seed_0x9_export_ack_holdback_handoff() {
    let report = replay_pinned(0x9);
    assert!(report.fired.contains(&FaultKind::DelayStateMailbox));
    assert!(
        report.stats.nf_state_handoffs > 0,
        "schedule must move replica state while acks are held back"
    );
}

/// Steering rebalances racing shard retirement (with duplicated
/// telemetry), ending back at a single shard — every bucket the retiring
/// shards owned re-homed with its rules and state intact, between replica
/// scales that move their re-picked buckets' state.
#[test]
fn pinned_seed_0x21_rebalance_races_retirement() {
    let report = replay_pinned(0x21);
    assert!(report.fired.contains(&FaultKind::RaceRebalance));
    assert!(report.fired.contains(&FaultKind::RaceScaleShards));
    assert!(report.stats.nf_state_handoffs > 0);
}

/// Rule churn bursting short-lived exact rules into the tuple-space
/// tables while evict-storm clock jumps outrun both their timeouts and
/// the pins' 30 ms idle window: the run only passes if the sweeps evict
/// every churn copy on every shard and the evicted pins fall back to the
/// wildcard defaults when probed — eviction (and a subsequent re-pin) is
/// consistent behavior, not a lost update. (Re-pinned from seed 0x7 when
/// the state-mailbox-delay fault's extra plan draw shifted every
/// schedule; 0x7's new schedule no longer evicts a pin.)
#[test]
fn pinned_seed_0xf_rule_churn_evict_storm() {
    let report = replay_pinned(0xf);
    assert!(report.fired.contains(&FaultKind::RuleChurn));
    assert!(report.fired.contains(&FaultKind::EvictStorm));
    assert!(
        report.trace.render().contains("evicted by idle timeout"),
        "schedule must evict at least one pin"
    );
}

/// One sweep part: `count` seeds from `base`, determinism-checked every
/// 64th, with the union of fired fault kinds returned for the breadth
/// assertion.
fn sweep(base: u64, count: u64) -> BTreeSet<FaultKind> {
    let mut coverage = BTreeSet::new();
    for offset in 0..count {
        let config = DstConfig::for_seed(base.wrapping_add(offset));
        let report = if offset % 64 == 0 {
            run_seed_checked(&config)
        } else {
            run_seed(&config)
        };
        coverage.extend(report.fired.iter().copied());
        assert!(report.passed(), "{}", report.failure_message());
    }
    assert!(
        coverage.len() >= 4,
        "sweep from {base:#x} covered only {coverage:?}"
    );
    coverage
}

// 1000 randomized schedules, split four ways so the test runner overlaps
// them. The per-part breadth assertion guarantees the acceptance bar of
// spanning at least four fault types.

#[test]
fn sweep_randomized_schedules_part_a() {
    sweep(0x5DFF_0000, 250);
}

#[test]
fn sweep_randomized_schedules_part_b() {
    sweep(0x5DFF_00FA, 250);
}

#[test]
fn sweep_randomized_schedules_part_c() {
    sweep(0x5DFF_01F4, 250);
}

#[test]
fn sweep_randomized_schedules_part_d() {
    sweep(0x5DFF_02EE, 250);
}
