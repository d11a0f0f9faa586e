//! The control-plane flight recorder: a bounded, sequenced journal of
//! everything the control plane did to the data plane — elastic actions,
//! shard lifecycle transitions, bucket re-home steps, and eviction sweeps —
//! replayable in order after an incident.
//!
//! Every record carries a monotonic sequence number and, where the
//! recorder can tell, a **cause link**: the sequence number of the control
//! action that set the event in motion (a `SpawnShard` causes the bucket
//! re-homes that follow it; a `RetireShard` causes the shard's `Retired`
//! event). Replaying the journal therefore reads as a causal narrative,
//! not just a flat event list.

use std::collections::VecDeque;

use sdnfv_dataplane::{MoveTarget, RehomeEvent, RehomeStep};
use sdnfv_telemetry::{ControlAction, ShardLifecycleEvent};

/// Journal capacity used by [`FlightRecorder::new`].
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// What one [`FlightRecord`] witnessed.
#[derive(Debug, Clone, PartialEq)]
pub enum FlightEvent {
    /// The elastic control plane issued an action.
    Action(ControlAction),
    /// A pipeline shard came up.
    ShardSpawned {
        /// The new shard's index.
        shard: usize,
    },
    /// A pipeline shard finished draining and was torn down.
    ShardRetired {
        /// The retired shard's (former) index.
        shard: usize,
    },
    /// A steering bucket was parked and began its re-home drain.
    RehomeBegun {
        /// The bucket being moved.
        bucket: usize,
        /// Source shard.
        from: usize,
        /// Destination: a shard (the source itself for a replica scale) or
        /// another host.
        to: MoveTarget,
    },
    /// A steering bucket finished its re-home (pen drained into the
    /// destination).
    RehomeCompleted {
        /// The bucket that moved.
        bucket: usize,
        /// Source shard.
        from: usize,
        /// Destination: a shard (the source itself for a replica scale) or
        /// another host.
        to: MoveTarget,
    },
    /// A shard's timeout sweep evicted rules since the previous telemetry
    /// snapshot (deltas, not cumulative totals).
    EvictionSweep {
        /// The sweeping shard.
        shard: usize,
        /// Rules evicted by idle timeout in the interval.
        idle: u64,
        /// Rules evicted by hard timeout in the interval.
        hard: u64,
        /// NF per-flow state entries scrubbed in the interval.
        scrubbed: u64,
    },
}

impl std::fmt::Display for FlightEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlightEvent::Action(action) => write!(f, "action: {action}"),
            FlightEvent::ShardSpawned { shard } => write!(f, "shard {shard} spawned"),
            FlightEvent::ShardRetired { shard } => write!(f, "shard {shard} retired"),
            FlightEvent::RehomeBegun { bucket, from, to } => {
                write!(f, "bucket {bucket} re-home begun {from} -> {to}")
            }
            FlightEvent::RehomeCompleted { bucket, from, to } => {
                write!(f, "bucket {bucket} re-home completed {from} -> {to}")
            }
            FlightEvent::EvictionSweep {
                shard,
                idle,
                hard,
                scrubbed,
            } => write!(
                f,
                "shard {shard} evicted {idle} idle + {hard} hard rules, scrubbed {scrubbed} NF states"
            ),
        }
    }
}

/// One journal entry: a sequenced, timestamped event with an optional
/// cause link to the control action that triggered it.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    /// Monotonic journal sequence number (never reused, survives eviction
    /// of older records).
    pub seq: u64,
    /// Host-clock nanoseconds when the event happened.
    pub at_ns: u64,
    /// Sequence number of the control-action record that caused this
    /// event, when the recorder can attribute one.
    pub cause: Option<u64>,
    /// The event itself.
    pub event: FlightEvent,
}

impl FlightRecord {
    /// One replay line: `#seq t=<ns> [caused-by #seq] <event>`.
    pub fn replay_line(&self) -> String {
        match self.cause {
            Some(cause) => format!(
                "#{seq} t={at}ns [caused-by #{cause}] {event}",
                seq = self.seq,
                at = self.at_ns,
                event = self.event
            ),
            None => format!(
                "#{seq} t={at}ns {event}",
                seq = self.seq,
                at = self.at_ns,
                event = self.event
            ),
        }
    }
}

/// A bounded ring journal of control-plane events. When full, the oldest
/// record is evicted (and counted) — sequence numbers keep climbing, so a
/// gap at the front of a replay is visible, never silent.
#[derive(Debug)]
pub struct FlightRecorder {
    records: VecDeque<FlightRecord>,
    capacity: usize,
    next_seq: u64,
    evicted: u64,
    /// The most recent re-home-triggering action (`SpawnShard`,
    /// `RetireShard`, `SetSteeringWeights`): the cause link stamped onto
    /// subsequent re-home and lifecycle records.
    last_topology_action: Option<u64>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// A recorder with the default capacity.
    pub fn new() -> Self {
        FlightRecorder::with_capacity(DEFAULT_FLIGHT_CAPACITY)
    }

    /// A recorder holding at most `capacity` records (at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder {
            records: VecDeque::new(),
            capacity: capacity.max(1),
            next_seq: 0,
            evicted: 0,
            last_topology_action: None,
        }
    }

    fn push(&mut self, at_ns: u64, cause: Option<u64>, event: FlightEvent) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.evicted += 1;
        }
        self.records.push_back(FlightRecord {
            seq,
            at_ns,
            cause,
            event,
        });
        seq
    }

    /// Journals one control action, remembering it as the cause of
    /// subsequent topology events when it moves buckets or shards.
    pub fn record_action(&mut self, at_ns: u64, action: &ControlAction) {
        let topology = matches!(
            action,
            ControlAction::SpawnShard
                | ControlAction::RetireShard { .. }
                | ControlAction::SetSteeringWeights { .. }
        );
        let seq = self.push(at_ns, None, FlightEvent::Action(action.clone()));
        if topology {
            self.last_topology_action = Some(seq);
        }
    }

    /// Journals a shard lifecycle transition, cause-linked to the last
    /// topology action.
    pub fn record_lifecycle(&mut self, event: &ShardLifecycleEvent) {
        let (at_ns, flight) = match event {
            ShardLifecycleEvent::Spawned { shard, at_ns } => {
                (*at_ns, FlightEvent::ShardSpawned { shard: *shard })
            }
            ShardLifecycleEvent::Retired { shard, at_ns } => {
                (*at_ns, FlightEvent::ShardRetired { shard: *shard })
            }
        };
        let cause = self.last_topology_action;
        self.push(at_ns, cause, flight);
    }

    /// Journals one bucket re-home step, cause-linked to the last topology
    /// action.
    pub fn record_rehome(&mut self, event: &RehomeEvent) {
        let flight = match event.step {
            RehomeStep::Begun => FlightEvent::RehomeBegun {
                bucket: event.bucket,
                from: event.from,
                to: event.to,
            },
            RehomeStep::Completed => FlightEvent::RehomeCompleted {
                bucket: event.bucket,
                from: event.from,
                to: event.to,
            },
        };
        let cause = self.last_topology_action;
        self.push(event.at_ns, cause, flight);
    }

    /// Journals an eviction sweep delta (no cause: sweeps are autonomous).
    pub fn record_evictions(
        &mut self,
        at_ns: u64,
        shard: usize,
        idle: u64,
        hard: u64,
        scrubbed: u64,
    ) {
        self.push(
            at_ns,
            None,
            FlightEvent::EvictionSweep {
                shard,
                idle,
                hard,
                scrubbed,
            },
        );
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &FlightRecord> {
        self.records.iter()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been journaled (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted to make room (the replay gap at the front).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Renders the journal as replay lines, oldest first; the first line
    /// flags any eviction gap.
    pub fn replay(&self) -> Vec<String> {
        let mut lines = Vec::with_capacity(self.records.len() + 1);
        if self.evicted > 0 {
            lines.push(format!(
                "... {} older records evicted (capacity {})",
                self.evicted, self.capacity
            ));
        }
        lines.extend(self.records.iter().map(FlightRecord::replay_line));
        lines
    }

    /// Order-sensitive digest of the journal (for determinism checks):
    /// FNV-1a over every record's sequence, timestamp, cause and rendered
    /// event text.
    pub fn digest(&self) -> u64 {
        fn fold_bytes(hash: u64, bytes: &[u8]) -> u64 {
            bytes.iter().fold(hash, |h, byte| {
                (h ^ u64::from(*byte)).wrapping_mul(0x1000_0000_01b3)
            })
        }
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for record in &self.records {
            hash = fold_bytes(hash, &record.seq.to_le_bytes());
            hash = fold_bytes(hash, &record.at_ns.to_le_bytes());
            hash = fold_bytes(hash, &record.cause.map_or(u64::MAX, |c| c).to_le_bytes());
            hash = fold_bytes(hash, record.event.to_string().as_bytes());
        }
        hash = fold_bytes(hash, &self.evicted.to_le_bytes());
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_monotonic_and_survive_eviction() {
        let mut rec = FlightRecorder::with_capacity(2);
        for i in 0..5u64 {
            rec.record_evictions(i, 0, 1, 0, 0);
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.evicted(), 3);
        let seqs: Vec<u64> = rec.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
        let replay = rec.replay();
        assert_eq!(replay.len(), 3, "gap line + two records");
        assert!(replay[0].contains("3 older records evicted"));
    }

    #[test]
    fn topology_actions_cause_link_rehomes_and_lifecycle() {
        let mut rec = FlightRecorder::new();
        rec.record_action(10, &ControlAction::SetTraceSampling { every: 8 });
        rec.record_action(20, &ControlAction::SpawnShard);
        rec.record_lifecycle(&ShardLifecycleEvent::Spawned {
            shard: 1,
            at_ns: 25,
        });
        rec.record_rehome(&RehomeEvent {
            at_ns: 30,
            bucket: 7,
            from: 0,
            to: MoveTarget::Shard(1),
            step: RehomeStep::Begun,
        });
        rec.record_rehome(&RehomeEvent {
            at_ns: 40,
            bucket: 7,
            from: 0,
            to: MoveTarget::Shard(1),
            step: RehomeStep::Completed,
        });
        let records: Vec<&FlightRecord> = rec.records().collect();
        assert_eq!(records[0].cause, None, "sampling knob is not topology");
        assert_eq!(records[1].cause, None, "actions are roots");
        // Spawned + both re-home steps point at the SpawnShard record.
        assert_eq!(records[2].cause, Some(records[1].seq));
        assert_eq!(records[3].cause, Some(records[1].seq));
        assert_eq!(records[4].cause, Some(records[1].seq));
        assert!(records[4]
            .replay_line()
            .contains("bucket 7 re-home completed 0 -> 1"));
    }

    #[test]
    fn a_handout_and_a_replica_scale_replay_as_different_moves() {
        let mut rec = FlightRecorder::new();
        for to in [MoveTarget::Shard(2), MoveTarget::Host] {
            rec.record_rehome(&RehomeEvent {
                at_ns: 5,
                bucket: 9,
                from: 2,
                to,
                step: RehomeStep::Begun,
            });
        }
        let replay = rec.replay();
        assert!(replay[0].ends_with("bucket 9 re-home begun 2 -> 2"));
        assert!(replay[1].ends_with("bucket 9 re-home begun 2 -> another host"));
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = FlightRecorder::new();
        let mut b = FlightRecorder::new();
        a.record_evictions(1, 0, 1, 0, 0);
        a.record_evictions(2, 1, 0, 1, 0);
        b.record_evictions(2, 1, 0, 1, 0);
        b.record_evictions(1, 0, 1, 0, 0);
        assert_ne!(a.digest(), b.digest());
    }
}
