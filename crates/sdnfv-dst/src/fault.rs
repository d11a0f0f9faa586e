//! Seeded fault injection.
//!
//! A [`FaultPlan`] is drawn from the run's seed: per-fault firing rates,
//! so different seeds emphasize different adversities (one run hammers
//! telemetry loss, another stalls NF replicas, another races bucket moves
//! against scale-in). The plan only sets *rates*; every individual firing
//! is a fresh draw from the schedule RNG, recorded in the trace.
//!
//! [`fault_snapshots`] is the telemetry-path fault: it sits between the
//! host's snapshot drain and the `ObsHub` the elastic manager plans from,
//! and drops, duplicates, or delays snapshots. Drops and duplicates are
//! always safe (counters are cumulative) but per-shard order must be
//! preserved — delay is therefore implemented by holding back a *suffix*
//! of each batch, which keeps the global (hence per-shard) order intact.

use std::collections::BTreeSet;

use sdnfv_telemetry::TelemetrySnapshot;

use crate::rng::SplitMix64;
use crate::trace::Trace;
use crate::trace_event;

/// The adversities a schedule can inject, for coverage accounting: a run
/// reports which kinds actually fired so sweeps can assert breadth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// A telemetry snapshot was dropped on the way to the control loop.
    TelemetryDrop,
    /// A telemetry snapshot was delivered twice.
    TelemetryDup,
    /// A suffix of a snapshot batch was delayed to a later control tick.
    TelemetryDelay,
    /// An NF replica (or shard worker) was not scheduled for several
    /// ticks — a stalled VM in the paper's terms.
    ActorStall,
    /// The shard credit budget was resized while traffic (and possibly a
    /// drain handshake) was in flight.
    CreditResize,
    /// A steering rebalance was issued while other moves / a retirement
    /// could be in flight.
    RaceRebalance,
    /// A shard spawn or retirement was issued mid-schedule, racing
    /// whatever the control loop and earlier ops left in flight.
    RaceScaleShards,
    /// An NF replica was added or removed mid-schedule (removal exercises
    /// the retire-replica state handoff under load).
    RaceReplica,
    /// A burst of synthetic exact rules with short hard timeouts was
    /// installed, churning the tuple-space tables while moves race.
    RuleChurn,
    /// The virtual clock jumped far past every idle timeout, forcing the
    /// sweep to evict en masse (possibly mid-re-home).
    EvictStorm,
    /// One NF replica's export-ack state mailbox was held back for several
    /// worker polls: the acks of an in-flight bucket-move batch sit queued
    /// while the rest of the host keeps running. This is the *direct*
    /// lost/delayed-export-ack fault (previously only approximated by
    /// stalling the whole replica actor): the replica itself stays live
    /// and keeps processing packets — only its acks are late.
    DelayStateMailbox,
}

impl FaultKind {
    /// Stable short name (used in traces and reports).
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::TelemetryDrop => "telemetry-drop",
            FaultKind::TelemetryDup => "telemetry-dup",
            FaultKind::TelemetryDelay => "telemetry-delay",
            FaultKind::ActorStall => "actor-stall",
            FaultKind::CreditResize => "credit-resize",
            FaultKind::RaceRebalance => "race-rebalance",
            FaultKind::RaceScaleShards => "race-scale-shards",
            FaultKind::RaceReplica => "race-replica",
            FaultKind::RuleChurn => "rule-churn",
            FaultKind::EvictStorm => "evict-storm",
            FaultKind::DelayStateMailbox => "state-mailbox-delay",
        }
    }
}

/// Per-fault firing rates (percent per opportunity), drawn from the seed.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Chance per tick that one actor is stalled for a few ticks.
    pub stall: u64,
    /// Chance per snapshot of being dropped.
    pub telemetry_drop: u64,
    /// Chance per snapshot of being duplicated.
    pub telemetry_dup: u64,
    /// Chance per batch of holding back a suffix until the next tick.
    pub telemetry_delay: u64,
    /// Chance per tick of a racing credit resize.
    pub credit_resize: u64,
    /// Chance per tick of a racing steering rebalance.
    pub rebalance: u64,
    /// Chance per tick of a racing shard spawn/retire.
    pub scale_shards: u64,
    /// Chance per tick of a racing replica add/remove.
    pub replica: u64,
    /// Chance per tick of installing a burst of short-lived exact rules.
    pub rule_churn: u64,
    /// Chance per tick of a clock jump past every idle timeout.
    pub evict_storm: u64,
    /// Chance per tick of holding back one replica's export-ack mailbox.
    pub state_mailbox: u64,
}

impl FaultPlan {
    /// Draws a plan from the seed stream. Every rate is sampled from a
    /// range whose low end is non-zero, so each fault kind has a real
    /// chance of appearing in any schedule while the mix still varies
    /// seed to seed.
    pub fn from_rng(rng: &mut SplitMix64) -> FaultPlan {
        FaultPlan {
            stall: rng.gen_between(5, 35),
            telemetry_drop: rng.gen_between(5, 40),
            telemetry_dup: rng.gen_between(5, 30),
            telemetry_delay: rng.gen_between(5, 40),
            credit_resize: rng.gen_between(2, 12),
            rebalance: rng.gen_between(2, 12),
            scale_shards: rng.gen_between(3, 15),
            replica: rng.gen_between(3, 15),
            rule_churn: rng.gen_between(3, 15),
            evict_storm: rng.gen_between(2, 10),
            // Drawn last so older seeds' plans shift by exactly one draw
            // (the corpus was re-pinned for this; see tests/corpus.rs).
            state_mailbox: rng.gen_between(4, 18),
        }
    }

    /// One-line summary for the trace header.
    pub fn summary(&self) -> String {
        format!(
            "faults%: stall={} tdrop={} tdup={} tdelay={} credits={} rebalance={} shards={} \
             replica={} churn={} evict={} mailbox={}",
            self.stall,
            self.telemetry_drop,
            self.telemetry_dup,
            self.telemetry_delay,
            self.credit_resize,
            self.rebalance,
            self.scale_shards,
            self.replica,
            self.rule_churn,
            self.evict_storm,
            self.state_mailbox,
        )
    }
}

/// Applies the plan's telemetry faults to `fresh`, a batch just drained
/// from the host: snapshots held back by an earlier delay go first, then
/// each fresh one may be dropped or duplicated, then a suffix of the
/// result may be held back (into `held`) for the next batch. Every firing
/// is a draw from `rng`, recorded in `fired` and the trace.
pub fn fault_snapshots(
    fresh: Vec<TelemetrySnapshot>,
    rng: &mut SplitMix64,
    plan: &FaultPlan,
    held: &mut Vec<TelemetrySnapshot>,
    fired: &mut BTreeSet<FaultKind>,
    trace: &mut Trace,
    tick: u64,
) -> Vec<TelemetrySnapshot> {
    let mut out: Vec<TelemetrySnapshot> = std::mem::take(held);
    for snapshot in fresh {
        if rng.chance(plan.telemetry_drop) {
            fired.insert(FaultKind::TelemetryDrop);
            trace_event!(
                trace,
                "tick {}: fault telemetry-drop shard={} seq={}",
                tick,
                snapshot.shard,
                snapshot.seq
            );
            continue;
        }
        if rng.chance(plan.telemetry_dup) {
            fired.insert(FaultKind::TelemetryDup);
            trace_event!(
                trace,
                "tick {}: fault telemetry-dup shard={} seq={}",
                tick,
                snapshot.shard,
                snapshot.seq
            );
            out.push(snapshot.clone());
        }
        out.push(snapshot);
    }
    if !out.is_empty() && rng.chance(plan.telemetry_delay) {
        let keep = rng.gen_range(out.len() as u64) as usize;
        if keep < out.len() {
            fired.insert(FaultKind::TelemetryDelay);
            trace_event!(
                trace,
                "tick {}: fault telemetry-delay held={}",
                tick,
                out.len() - keep
            );
            *held = out.split_off(keep);
        }
    }
    out
}
