//! Mutation self-tests: prove the model checker actually catches bugs.
//!
//! Each test seeds one known bug into a miniature copy of a shipping
//! primitive (see [`sdnfv_check::mutants`]) and asserts the bounded search
//! finds a violation of the expected kind. The unmutated (`None`) variants
//! must pass exhaustively — that pins down that the detections below come
//! from the seeded bug, not from a broken scenario.

use sdnfv_check::mutants::{
    self, DrainBug, GateBug, HistBug, MemoBug, MessageBug, RingBug, StagedBug, TableBug, VerdictBug,
};
use sdnfv_ring::model::{CheckOpts, CheckReport, ViolationKind};

fn opts() -> CheckOpts {
    CheckOpts::default()
}

/// Asserts the report holds a violation of one of the accepted kinds.
fn assert_caught(report: &CheckReport, accepted: &[ViolationKind], what: &str) {
    let violation = report
        .violation
        .as_ref()
        .unwrap_or_else(|| panic!("{what}: seeded bug escaped the bounded search"));
    assert!(
        accepted.contains(&violation.kind),
        "{what}: caught as {:?}, expected one of {accepted:?}\n{violation}",
        violation.kind
    );
}

#[test]
fn unmutated_ring_passes_exhaustively() {
    let report = mutants::ring_scenario(RingBug::None, opts());
    assert!(
        report.exhaustive_pass(),
        "clean mini-ring must pass: {:?}",
        report.violation
    );
}

#[test]
fn relaxed_publish_is_caught_as_a_race() {
    // Producer publishes the tail with Relaxed: the consumer can read the
    // slot before the producer's write is visible — an uninitialized read
    // or a data race depending on which access the search hits first.
    let report = mutants::ring_scenario(RingBug::RelaxedPublish, opts());
    assert_caught(
        &report,
        &[ViolationKind::UninitRead, ViolationKind::DataRace],
        "RelaxedPublish",
    );
}

#[test]
fn relaxed_observe_is_caught_as_a_race() {
    let report = mutants::ring_scenario(RingBug::RelaxedObserve, opts());
    assert_caught(
        &report,
        &[ViolationKind::UninitRead, ViolationKind::DataRace],
        "RelaxedObserve",
    );
}

#[test]
fn ring_wrap_off_by_one_is_caught() {
    // Over-counting free slots lets the producer clobber an unconsumed
    // slot: surfaces as a data race on the slot or a FIFO-order assert.
    let report = mutants::ring_scenario(RingBug::WrapOffByOne, opts());
    assert_caught(
        &report,
        &[ViolationKind::DataRace, ViolationKind::Panic],
        "WrapOffByOne",
    );
}

#[test]
fn unmutated_staged_ring_passes_exhaustively() {
    let report = mutants::staged_scenario(StagedBug::None, opts());
    assert!(
        report.exhaustive_pass(),
        "clean mini staged ring must pass: {:?}",
        report.violation
    );
}

#[test]
fn relaxed_deferred_publish_is_caught_as_a_race() {
    // The consumer can see the published tail before the staged slot
    // writes behind it.
    let report = mutants::staged_scenario(StagedBug::RelaxedPublish, opts());
    assert_caught(
        &report,
        &[ViolationKind::UninitRead, ViolationKind::DataRace],
        "RelaxedPublish (staged)",
    );
}

#[test]
fn release_before_the_take_reads_its_slot_is_caught() {
    // The producer restages the released slot while the consumer reads it:
    // a race on the slot, or the consumer reads the newer value.
    let report = mutants::staged_scenario(StagedBug::ReleaseBeforeTake, opts());
    assert_caught(
        &report,
        &[ViolationKind::DataRace, ViolationKind::Panic],
        "ReleaseBeforeTake",
    );
}

#[test]
fn unmutated_gate_passes_exhaustively() {
    let report = mutants::gate_scenario(GateBug::None, opts());
    assert!(
        report.exhaustive_pass(),
        "clean mini-gate must pass: {:?}",
        report.violation
    );
}

#[test]
fn dropped_credit_release_is_caught() {
    // Losing a release breaks conservation: the final available-count
    // assert in the scenario panics.
    let report = mutants::gate_scenario(GateBug::DroppedRelease, opts());
    assert_caught(&report, &[ViolationKind::Panic], "DroppedRelease");
}

#[test]
fn torn_credit_release_is_caught() {
    // load+store instead of fetch_add: two racing releases can overwrite
    // each other, losing a credit.
    let report = mutants::gate_scenario(GateBug::TornRelease, opts());
    assert_caught(&report, &[ViolationKind::Panic], "TornRelease");
}

#[test]
fn unmutated_histogram_passes_exhaustively() {
    let report = mutants::hist_scenario(HistBug::None, opts());
    assert!(
        report.exhaustive_pass(),
        "clean mini-histogram must pass: {:?}",
        report.violation
    );
}

#[test]
fn torn_histogram_record_is_caught() {
    let report = mutants::hist_scenario(HistBug::TornRecord, opts());
    assert_caught(&report, &[ViolationKind::Panic], "TornRecord");
}

#[test]
fn torn_verdict_merge_is_caught() {
    // The unmutated descriptor must pass, so the detections below come from
    // the seeded bugs and not from the scenario.
    let clean = mutants::verdict_scenario(VerdictBug::None, opts());
    assert!(
        clean.exhaustive_pass(),
        "clean mini-descriptor must pass: {:?}",
        clean.violation
    );
    // load+store instead of fetch_max: a concurrent merge is overwritten
    // and the final completer reads a word missing the winning verdict.
    let report = mutants::verdict_scenario(VerdictBug::TornMerge, opts());
    assert_caught(&report, &[ViolationKind::Panic], "TornMerge");
}

#[test]
fn re_arm_without_verdict_reset_is_caught() {
    // The second hop's lower verdict can never displace the first hop's
    // stale maximum.
    let report = mutants::verdict_scenario(VerdictBug::StaleReArm, opts());
    assert_caught(&report, &[ViolationKind::Panic], "StaleReArm");
}

#[test]
fn generation_bumped_before_the_table_change_is_caught() {
    // The unmutated mini-table must pass, so the detections below come from
    // the seeded bugs and not from the scenario.
    let clean = mutants::table_scenario(TableBug::None, opts());
    assert!(
        clean.exhaustive_pass(),
        "clean mini-table must pass: {:?}",
        clean.violation
    );
    // The worker tags with the bumped generation, reads the table before
    // the pin lands and caches the old decision under the new tag.
    let report = mutants::table_scenario(TableBug::BumpBeforeMutate, opts());
    assert_caught(&report, &[ViolationKind::Panic], "BumpBeforeMutate");
}

#[test]
fn pin_published_to_the_wrong_partition_is_caught() {
    // The pinned flow's generation never moves, so its cached pre-pin
    // decision outlives the pin.
    let report = mutants::table_scenario(TableBug::WrongPartition, opts());
    assert_caught(&report, &[ViolationKind::Panic], "WrongPartition");
}

#[test]
fn any_flow_answer_despite_the_steps_exact_rules_is_caught() {
    // The pinned flow's answer is kept in the step memo as if it held for
    // every flow: the memo answers for the pinned flow, or drops the other
    // partition's tag when the pin's decision replaces its own.
    let report = mutants::table_scenario(TableBug::AnyFlowIgnoresExact, opts());
    assert_caught(&report, &[ViolationKind::Panic], "AnyFlowIgnoresExact");
}

#[test]
fn memo_that_keeps_its_first_decision_is_caught() {
    // The unmutated mini-cache must pass, so the detection below comes from
    // the seeded bug and not from the scenario.
    let clean = mutants::memo_scenario(MemoBug::None, opts());
    assert!(
        clean.exhaustive_pass(),
        "clean mini-cache must pass: {:?}",
        clean.violation
    );
    // After the default change, the other partition's flow is re-tagged on
    // the old decision and answered with the old default.
    let report = mutants::memo_scenario(MemoBug::KeepsDecision, opts());
    assert_caught(&report, &[ViolationKind::Panic], "KeepsDecision");
}

#[test]
fn unmutated_drain_passes_exhaustively() {
    let report = mutants::drain_scenario(DrainBug::None, opts());
    assert!(
        report.exhaustive_pass(),
        "clean mini-tracker must pass: {:?}",
        report.violation
    );
}

#[test]
fn relaxed_bucket_finish_is_caught() {
    // The host reads the bucket drained through a finish that published
    // nothing: the worker's table write can still be invisible.
    let report = mutants::drain_scenario(DrainBug::RelaxedFinish, opts());
    assert_caught(&report, &[ViolationKind::Panic], "RelaxedFinish");
}

#[test]
fn admit_after_publish_is_caught() {
    // The worker finishes a packet the count does not hold yet: a reader
    // that acquired the finish sees the count below zero.
    let report = mutants::drain_scenario(DrainBug::AdmitAfterPublish, opts());
    assert_caught(&report, &[ViolationKind::Panic], "AdmitAfterPublish");
}

#[test]
fn unmutated_message_hand_back_passes_exhaustively() {
    let report = mutants::message_scenario(MessageBug::None, opts());
    assert!(
        report.exhaustive_pass(),
        "the faithful hand-back must pass: {:?}",
        report.violation
    );
}

#[test]
fn draining_messages_before_taking_completions_is_caught() {
    // The NF sends and publishes between the worker's drain and its take:
    // the worker routes a packet whose message it has not applied.
    let report = mutants::message_scenario(MessageBug::DrainBeforeTake, opts());
    assert_caught(&report, &[ViolationKind::Panic], "DrainBeforeTake");
}

#[test]
fn publishing_completions_before_messages_is_caught() {
    // The worker takes the completion and drains before the NF's messages
    // are on the ring: the owned packet, or the fan-out its sibling
    // finished, is routed first.
    let report = mutants::message_scenario(MessageBug::CompletionBeforeMessages, opts());
    assert_caught(&report, &[ViolationKind::Panic], "CompletionBeforeMessages");
}

#[test]
fn serving_requests_before_a_held_burst_is_caught() {
    // The NF answers the export while the burst that sent a pin waits for
    // room: the response reaches the worker ahead of the pin.
    let report = mutants::message_scenario(MessageBug::RequestsBeforeHeldBurst, opts());
    assert_caught(&report, &[ViolationKind::Panic], "RequestsBeforeHeldBurst");
}

#[test]
fn resolving_an_exited_replicas_export_on_the_exit_alone_is_caught() {
    // The worker pops an empty ring, the replica pushes its answer and
    // exits, and the worker, seeing the exit, resolves the export empty:
    // the answer on the ring is lost.
    let report = mutants::message_scenario(MessageBug::ResolveOnExitAlone, opts());
    assert_caught(&report, &[ViolationKind::Panic], "ResolveOnExitAlone");
}
