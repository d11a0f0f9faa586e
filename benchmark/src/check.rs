//! The outcome checker: every injected packet is registered with what the
//! generator says must happen to it; every egressed packet is looked up
//! again by the sequence number in its trailer. Anything that differs — a
//! wrong port, a packet that should have been dropped, a duplicate, a
//! reordered flow, a packet that never came back — counts as a failure.

use sdnfv_dataplane::{HostOutput, HostStatsSnapshot};

use crate::gen::{read_seq, Expect, Meta};

/// Slots in the in-flight window; must exceed the most packets a host can
/// hold (the default credit budget is 1024).
const RING: usize = 4096;
/// Minimum size of the per-flow ordering table. Concurrent flows are at
/// most a few dozen under churn and flow ids grow by one, so ids that share
/// a slot are never alive together.
const MIN_FLOW_SLOTS: usize = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Free,
    Pending,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    seq: u64,
    flow: u32,
    expect: Expect,
    state: SlotState,
}

/// Why an observed outcome was counted as a failure (kept for the first
/// few, to make a failing run explain itself).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// Egressed a packet that carries no known sequence number, or one that
    /// already egressed (exactly-once violated).
    DuplicateOrUnknown { seq: u64 },
    /// Left on the wrong port, or left although it had to be dropped.
    WrongOutcome {
        seq: u64,
        expected: Expect,
        port: u16,
    },
    /// A flow's packets left out of order.
    Reordered { flow: u32, seq: u64, after: u64 },
    /// Expected to egress but never did.
    Lost { seq: u64 },
    /// The host's own counters disagree with what was observed.
    Ledger(String),
}

/// Tracks packets between injection and egress.
#[derive(Debug)]
pub struct Checker {
    slots: Vec<Slot>,
    /// Per flow slot: `(flow id, last egressed seq + 1)`.
    flows: Vec<(u32, u64)>,
    attempted: u64,
    failed: u64,
    /// Registered packets that must egress and have not yet.
    outstanding: u64,
    egressed: u64,
    expected_drops: u64,
    first_failures: Vec<Failure>,
}

impl Checker {
    pub fn new(flows: usize) -> Checker {
        Checker {
            slots: vec![
                Slot {
                    seq: 0,
                    flow: 0,
                    expect: Expect::Drop,
                    state: SlotState::Free,
                };
                RING
            ],
            flows: vec![(u32::MAX, 0); flows.max(MIN_FLOW_SLOTS)],
            attempted: 0,
            failed: 0,
            outstanding: 0,
            egressed: 0,
            expected_drops: 0,
            first_failures: Vec::new(),
        }
    }

    fn fail(&mut self, failure: Failure) {
        self.failed += 1;
        if self.first_failures.len() < 8 {
            self.first_failures.push(failure);
        }
    }

    /// Registers a packet about to be injected.
    pub fn register(&mut self, meta: Meta) {
        self.attempted += 1;
        let index = (meta.seq % RING as u64) as usize;
        let old = self.slots[index];
        // A slot still pending when its successor arrives belongs to a
        // packet RING sequence numbers back: if it had to egress, it is
        // lost (expected drops simply never come back).
        if old.state == SlotState::Pending && matches!(old.expect, Expect::Egress(_)) {
            self.outstanding -= 1;
            self.fail(Failure::Lost { seq: old.seq });
        }
        self.slots[index] = Slot {
            seq: meta.seq,
            flow: meta.flow,
            expect: meta.expect,
            state: SlotState::Pending,
        };
        match meta.expect {
            Expect::Egress(_) => self.outstanding += 1,
            Expect::Drop => self.expected_drops += 1,
        }
    }

    /// Checks one packet that left the host.
    pub fn observe(&mut self, out: &HostOutput) {
        self.egressed += 1;
        let Some(seq) = read_seq(&out.packet) else {
            self.fail(Failure::DuplicateOrUnknown { seq: u64::MAX });
            return;
        };
        let index = (seq % RING as u64) as usize;
        let slot = self.slots[index];
        if slot.state != SlotState::Pending || slot.seq != seq {
            self.fail(Failure::DuplicateOrUnknown { seq });
            return;
        }
        self.slots[index].state = SlotState::Free;
        match slot.expect {
            Expect::Egress(port) => {
                self.outstanding -= 1;
                if port != out.port {
                    self.fail(Failure::WrongOutcome {
                        seq,
                        expected: slot.expect,
                        port: out.port,
                    });
                }
            }
            Expect::Drop => {
                self.expected_drops -= 1;
                self.fail(Failure::WrongOutcome {
                    seq,
                    expected: slot.expect,
                    port: out.port,
                });
            }
        }
        let flows = self.flows.len();
        let entry = &mut self.flows[slot.flow as usize % flows];
        if entry.0 == slot.flow && seq < entry.1 {
            let after = entry.1 - 1;
            self.fail(Failure::Reordered {
                flow: slot.flow,
                seq,
                after,
            });
        } else {
            *entry = (slot.flow, seq + 1);
        }
    }

    /// Packets registered to egress that have not come back yet.
    pub fn outstanding(&self) -> u64 {
        self.outstanding
    }

    /// Declares the host quiescent: whatever still has to egress is lost.
    pub fn settle_lost(&mut self) {
        if self.outstanding == 0 {
            return;
        }
        for index in 0..RING {
            let slot = self.slots[index];
            if slot.state == SlotState::Pending && matches!(slot.expect, Expect::Egress(_)) {
                self.slots[index].state = SlotState::Free;
                self.outstanding -= 1;
                self.fail(Failure::Lost { seq: slot.seq });
            }
        }
    }

    /// Compares the host's own ledger, taken while quiescent, with what
    /// was observed from outside since `before`: conservation
    /// (`received = transmitted + dropped`), no overflow drops, no
    /// rule-miss punts, and transmit / drop counts equal to the packets
    /// seen leaving and the drops the generator expected.
    pub fn check_ledger(
        &mut self,
        before: &HostStatsSnapshot,
        after: &HostStatsSnapshot,
        egressed: u64,
        expected_drops: u64,
    ) {
        let received = after.received - before.received;
        let transmitted = after.transmitted - before.transmitted;
        let dropped = after.dropped - before.dropped;
        let mut problems = Vec::new();
        if received != transmitted + dropped {
            problems.push(format!(
                "received {received} != transmitted {transmitted} + dropped {dropped}"
            ));
        }
        if after.overflow_drops != before.overflow_drops {
            problems.push(format!(
                "overflow_drops rose by {}",
                after.overflow_drops - before.overflow_drops
            ));
        }
        if after.controller_punts != before.controller_punts {
            problems.push(format!(
                "controller_punts rose by {}",
                after.controller_punts - before.controller_punts
            ));
        }
        if transmitted != egressed {
            problems.push(format!(
                "host transmitted {transmitted}, {egressed} seen leaving"
            ));
        }
        if dropped != expected_drops {
            problems.push(format!(
                "host dropped {dropped}, generator expected {expected_drops}"
            ));
        }
        for problem in problems {
            self.fail(Failure::Ledger(problem));
        }
    }

    /// Counts a workload-specific violation found outside the packet path.
    pub fn fail_ledger(&mut self, problem: String) {
        self.fail(Failure::Ledger(problem));
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    pub fn egressed(&self) -> u64 {
        self.egressed
    }

    /// Expected drops registered and not (wrongly) seen egressing.
    pub fn expected_drops(&self) -> u64 {
        self.expected_drops
    }

    pub fn first_failures(&self) -> &[Failure] {
        &self.first_failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Traffic, TrafficPlan, EGRESS_PORT};
    use sdnfv_proto::Packet;

    const PLAN: TrafficPlan = TrafficPlan::Fixed {
        flows: 4,
        frame_len: 64,
    };

    fn packets(n: usize) -> Vec<(Packet, Meta)> {
        let mut traffic = Traffic::new(PLAN, 9);
        (0..n).map(|_| traffic.next_packet()).collect()
    }

    fn out(packet: &Packet, port: u16) -> HostOutput {
        HostOutput {
            port,
            key: packet.flow_key().unwrap(),
            packet: packet.clone(),
        }
    }

    #[test]
    fn clean_run_has_no_failures() {
        let mut checker = Checker::new(4);
        let stream = packets(100);
        for (_, meta) in &stream {
            checker.register(*meta);
        }
        assert_eq!(checker.outstanding(), 100);
        for (packet, _) in &stream {
            checker.observe(&out(packet, EGRESS_PORT));
        }
        checker.settle_lost();
        assert_eq!((checker.attempted(), checker.failed()), (100, 0));
        assert_eq!(checker.outstanding(), 0);
        assert_eq!(checker.egressed(), 100);
    }

    #[test]
    fn catches_a_reordered_flow() {
        let mut checker = Checker::new(4);
        let stream = packets(12);
        for (_, meta) in &stream {
            checker.register(*meta);
        }
        // Packets 0, 4 and 8 belong to flow 0: deliver 8 before 4.
        let mut order: Vec<usize> = (0..12).collect();
        order.swap(4, 8);
        for i in order {
            checker.observe(&out(&stream[i].0, EGRESS_PORT));
        }
        assert_eq!(checker.failed(), 1);
        assert!(matches!(
            checker.first_failures()[0],
            Failure::Reordered {
                flow: 0,
                seq: 4,
                after: 8
            }
        ));
    }

    #[test]
    fn reordering_across_flows_is_legal() {
        let mut checker = Checker::new(4);
        let stream = packets(8);
        for (_, meta) in &stream {
            checker.register(*meta);
        }
        for i in [1, 0, 3, 2, 5, 4, 7, 6] {
            checker.observe(&out(&stream[i].0, EGRESS_PORT));
        }
        assert_eq!(checker.failed(), 0);
    }

    #[test]
    fn catches_a_dropped_packet() {
        let mut checker = Checker::new(4);
        let stream = packets(10);
        for (_, meta) in &stream {
            checker.register(*meta);
        }
        for (i, (packet, _)) in stream.iter().enumerate() {
            if i != 6 {
                checker.observe(&out(packet, EGRESS_PORT));
            }
        }
        assert_eq!(checker.outstanding(), 1);
        checker.settle_lost();
        assert_eq!(checker.failed(), 1);
        assert_eq!(checker.first_failures()[0], Failure::Lost { seq: 6 });
    }

    #[test]
    fn a_lost_packet_is_also_caught_when_its_slot_is_reused() {
        let mut checker = Checker::new(4);
        let mut traffic = Traffic::new(PLAN, 9);
        for i in 0..(RING + 1) {
            let (packet, meta) = traffic.next_packet();
            checker.register(meta);
            if i != 0 {
                checker.observe(&out(&packet, EGRESS_PORT));
            }
        }
        assert_eq!(checker.failed(), 1);
        assert_eq!(checker.first_failures()[0], Failure::Lost { seq: 0 });
        assert_eq!(checker.outstanding(), 0);
    }

    #[test]
    fn catches_a_duplicated_packet() {
        let mut checker = Checker::new(4);
        let stream = packets(5);
        for (_, meta) in &stream {
            checker.register(*meta);
        }
        for (packet, _) in &stream {
            checker.observe(&out(packet, EGRESS_PORT));
        }
        checker.observe(&out(&stream[2].0, EGRESS_PORT));
        assert_eq!(checker.failed(), 1);
        assert_eq!(
            checker.first_failures()[0],
            Failure::DuplicateOrUnknown { seq: 2 }
        );
    }

    #[test]
    fn catches_wrong_port_and_an_expected_drop_that_egressed() {
        let mut checker = Checker::new(4);
        let stream = packets(2);
        checker.register(stream[0].1);
        checker.register(Meta {
            expect: Expect::Drop,
            ..stream[1].1
        });
        assert_eq!(checker.expected_drops(), 1);
        checker.observe(&out(&stream[0].0, 7));
        checker.observe(&out(&stream[1].0, EGRESS_PORT));
        assert_eq!(checker.failed(), 2);
        assert_eq!(checker.expected_drops(), 0);
    }

    #[test]
    fn ledger_violations_count_as_failures() {
        let mut checker = Checker::new(4);
        let before = HostStatsSnapshot::default();
        let clean = HostStatsSnapshot {
            received: 10,
            transmitted: 9,
            dropped: 1,
            ..before
        };
        checker.check_ledger(&before, &clean, 9, 1);
        assert_eq!(checker.failed(), 0);
        let leaky = HostStatsSnapshot {
            received: 10,
            transmitted: 8,
            dropped: 1,
            overflow_drops: 1,
            ..before
        };
        checker.check_ledger(&before, &leaky, 8, 1);
        assert_eq!(checker.failed(), 2);
    }
}
