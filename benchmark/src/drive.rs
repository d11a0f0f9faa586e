//! The closed-loop drive: pre-built bursts go in under a bounded in-flight
//! window, egress is polled and checked, and — for a stepped host — the
//! worker and NF engines are stepped in between on the calling thread.
//!
//! One loop ([`pump`]) serves warm-up, timed windows and the traced run; it
//! is generic over the [`Recorder`] so that tracing costs nothing when off.

use std::time::{Duration, Instant};

use sdnfv_dataplane::HostStatsSnapshot;
use sdnfv_proto::Packet;

use crate::check::Checker;
use crate::gen::{Meta, Traffic, BURST};
use crate::trace::{Recorder, SpanName};
use crate::workload::Rig;

/// Closed-loop window: at most this many packets between inject and egress
/// (8 bursts of 32).
pub const WINDOW: u64 = 8 * BURST as u64;
/// Virtual-clock advance per round of a stepped host: a nominal 1 µs per
/// packet slot, i.e. host time passes as it would at 1 Mpps. Lookup-cache
/// TTLs, rule sweeps, telemetry exports and pin idle timeouts all run off
/// this clock.
pub const ROUND_NS: u64 = 1_000 * BURST as u64;
/// A stepped host that makes no progress for this many rounds has lost
/// packets; a threaded one gets [`STALL_TIMEOUT`].
const STALL_ROUNDS: u32 = 10_000;
const STALL_TIMEOUT: Duration = Duration::from_secs(5);

/// Span names of the drive loop, in [`crate::trace::SpanLog`] order:
/// `burst`, `dataplane.inject`, `dataplane.worker`, one
/// `dataplane.nf[<service>]` per NF, `dataplane.egress`.
pub fn span_names(service_labels: &[&str]) -> Vec<String> {
    let mut names = vec![
        "burst".to_string(),
        "dataplane.inject".to_string(),
        "dataplane.worker".to_string(),
    ];
    names.extend(service_labels.iter().map(|s| format!("dataplane.nf[{s}]")));
    names.push("dataplane.egress".to_string());
    names
}

const SPAN_INJECT: SpanName = 1;
const SPAN_WORKER: SpanName = 2;
const SPAN_FIRST_NF: SpanName = 3;

/// Bursts built ahead of the clock, with the generator's expectations.
pub struct Prebuilt {
    bursts: Vec<Vec<Packet>>,
    metas: Vec<Meta>,
    /// Signature packets among them (alerts the IDS owes).
    signatures: u64,
}

impl Prebuilt {
    /// Draws the next `packets` packets (rounded up to whole bursts).
    pub fn build(traffic: &mut Traffic, packets: usize) -> Prebuilt {
        let count = packets.div_ceil(BURST).max(1);
        let signatures_before = traffic.signatures();
        let mut bursts = Vec::with_capacity(count);
        let mut metas = Vec::with_capacity(count * BURST);
        for _ in 0..count {
            let mut burst = Vec::with_capacity(BURST);
            for _ in 0..BURST {
                let (packet, meta) = traffic.next_packet();
                burst.push(packet);
                metas.push(meta);
            }
            bursts.push(burst);
        }
        Prebuilt {
            bursts,
            metas,
            signatures: traffic.signatures() - signatures_before,
        }
    }
}

/// What one [`pump`] call did.
#[derive(Debug, Clone, Copy)]
pub struct Pumped {
    pub packets: u64,
    /// First inject → last expected egress.
    pub elapsed: Duration,
    /// Packets the host handed back for retry (credit exhaustion).
    pub throttled: u64,
}

impl Pumped {
    pub fn pps(&self) -> f64 {
        self.packets as f64 / self.elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// Steps every engine of a stepped host once, in pipeline order.
fn step_engines<R: Recorder>(rig: &Rig, rec: &mut R) -> bool {
    let Some(actors) = &rig.actors else {
        return false;
    };
    let mut worked = rec.call(SPAN_WORKER, || {
        let did = actors.sim.step(actors.worker);
        (did, u32::from(did))
    });
    for (index, nf) in actors.nfs.iter().enumerate() {
        worked |= rec.call(SPAN_FIRST_NF + index as SpanName, || {
            let did = actors.sim.step(*nf);
            (did, u32::from(did))
        });
    }
    worked
}

/// Pushes every pre-built burst through the host in a closed loop and
/// returns once every packet that must egress has, checking each against
/// the generator's expectation and the host's ledger.
pub fn pump<R: Recorder>(
    rig: &Rig,
    prebuilt: Prebuilt,
    checker: &mut Checker,
    rec: &mut R,
) -> Pumped {
    let span_egress = SPAN_FIRST_NF + rig.actors.as_ref().map_or(0, |a| a.nfs.len()) as SpanName;
    let host = &rig.host;
    let stats_before = host.stats().snapshot();
    let egressed_before = checker.egressed();
    let drops_before = checker.expected_drops();
    let failed_before = checker.failed();
    let Prebuilt {
        bursts,
        metas,
        signatures,
    } = prebuilt;
    let total = metas.len() as u64;
    let mut bursts = bursts.into_iter();
    let mut metas = metas.into_iter();
    let mut retry: Vec<Packet> = Vec::new();
    let mut pending_bursts = bursts.len();
    let mut throttled = 0u64;
    let mut idle_rounds = 0u32;
    let mut idle_since: Option<Instant> = None;
    let started = Instant::now();
    let mut finished = started;
    while pending_bursts > 0 || !retry.is_empty() || checker.outstanding() > 0 {
        rec.begin_round();
        let mut progressed = false;
        if checker.outstanding() + BURST as u64 <= WINDOW {
            let burst = if !retry.is_empty() {
                Some(std::mem::take(&mut retry))
            } else if let Some(burst) = bursts.next() {
                pending_bursts -= 1;
                for meta in metas.by_ref().take(burst.len()) {
                    checker.register(meta);
                }
                Some(burst)
            } else {
                None
            };
            if let Some(burst) = burst {
                let outcome = rec.call(SPAN_INJECT, || {
                    let outcome = host.inject_burst(burst);
                    let admitted = outcome.admitted as u32;
                    (outcome, admitted)
                });
                progressed |= outcome.admitted > 0;
                throttled += outcome.throttled.len() as u64;
                retry = outcome.throttled;
            }
        }
        progressed |= step_engines(rig, rec);
        let outputs = rec.call(span_egress, || {
            let outputs = host.poll_egress_burst(2 * BURST);
            let polled = outputs.len() as u32;
            (outputs, polled)
        });
        if !outputs.is_empty() {
            progressed = true;
            for output in &outputs {
                checker.observe(output);
            }
            if checker.outstanding() == 0 {
                finished = Instant::now();
            }
        }
        drop(outputs);
        if let Some(actors) = &rig.actors {
            actors.sim.advance_clock_ns(ROUND_NS);
        }
        rec.end_round();
        if progressed {
            idle_rounds = 0;
            idle_since = None;
        } else if rig.actors.is_some() {
            idle_rounds += 1;
            if idle_rounds > STALL_ROUNDS {
                break;
            }
        } else {
            std::hint::spin_loop();
            idle_rounds += 1;
            if idle_rounds.is_multiple_of(1024)
                && idle_since.get_or_insert_with(Instant::now).elapsed() > STALL_TIMEOUT
            {
                break;
            }
        }
    }
    quiesce(rig);
    checker.settle_lost();
    let stats_after = host.stats().snapshot();
    checker.check_ledger(
        &stats_before,
        &stats_after,
        checker.egressed() - egressed_before,
        // Expected drops that (wrongly) egressed were already failed.
        checker.expected_drops() - drops_before,
    );
    check_alerts(&stats_before, &stats_after, signatures, checker);
    // A packet dropped or lost inside the window makes its time meaningless;
    // the failure count carries that, the clock still has to stop somewhere.
    if finished == started || checker.failed() > failed_before {
        finished = Instant::now();
    }
    Pumped {
        packets: total,
        elapsed: finished - started,
        throttled,
    }
}

/// Lets packets that will never egress (expected drops still inside the
/// NF chain) reach their end, so the host's ledger is final.
fn quiesce(rig: &Rig) {
    match &rig.actors {
        Some(actors) => {
            for _ in 0..64 {
                if actors.sim.step_all() == 0 {
                    break;
                }
                actors.sim.advance_clock_ns(ROUND_NS);
            }
        }
        None => {
            // Every expected packet is out already; this only waits for the
            // worker thread's counters to catch up with its last push.
            let deadline = Instant::now() + STALL_TIMEOUT;
            loop {
                let snap = rig.host.stats().snapshot();
                if snap.received == snap.transmitted + snap.dropped || Instant::now() > deadline {
                    break;
                }
                std::thread::yield_now();
            }
        }
    }
}

/// Every signature packet must have raised exactly one cross-layer message
/// (the IDS's `ChangeDefault` pin); nothing else may send any.
fn check_alerts(
    before: &HostStatsSnapshot,
    after: &HostStatsSnapshot,
    signatures: u64,
    checker: &mut Checker,
) {
    let messages = after.nf_messages - before.nf_messages;
    if messages != signatures {
        checker.fail_ledger(format!(
            "{messages} NF messages for {signatures} signature packets"
        ));
    }
}

/// Lone-packet latency: each packet is injected with nothing else in
/// flight and timed from `inject` until `poll_egress` returns it. Returns
/// one latency per packet, in nanoseconds.
pub fn lone_packet_latencies(
    rig: &Rig,
    packets: Vec<(Packet, Meta)>,
    checker: &mut Checker,
) -> Vec<f64> {
    let host = &rig.host;
    let stats_before = host.stats().snapshot();
    let egressed_before = checker.egressed();
    let mut latencies = Vec::with_capacity(packets.len());
    'packets: for (packet, meta) in packets {
        checker.register(meta);
        let started = Instant::now();
        if !host.inject(packet).is_admitted() {
            // Nothing else is in flight, so the credit gate cannot be
            // closed; the packet stays registered and is settled as lost.
            continue;
        }
        let mut spins = 0u32;
        let output = loop {
            if let Some(actors) = &rig.actors {
                actors.sim.step(actors.worker);
                for nf in &actors.nfs {
                    actors.sim.step(*nf);
                }
                actors.sim.advance_clock_ns(ROUND_NS);
            }
            if let Some(output) = host.poll_egress() {
                break output;
            }
            spins += 1;
            if rig.actors.is_some() {
                if spins > STALL_ROUNDS {
                    continue 'packets;
                }
            } else {
                std::hint::spin_loop();
                if spins.is_multiple_of(4096) && started.elapsed() > STALL_TIMEOUT {
                    continue 'packets;
                }
            }
        };
        latencies.push(started.elapsed().as_nanos() as f64);
        checker.observe(&output);
    }
    quiesce(rig);
    checker.settle_lost();
    let stats_after = host.stats().snapshot();
    checker.check_ledger(
        &stats_before,
        &stats_after,
        checker.egressed() - egressed_before,
        0,
    );
    latencies
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Expect;
    use crate::trace::{NoTrace, SpanLog};
    use crate::workload::{find, start, Drive, Spec};

    fn rig_and_traffic(name: &str, drive: Drive) -> (&'static Spec, Rig, Traffic, Checker) {
        let spec = find(name).unwrap();
        let traffic = Traffic::new(spec.traffic, 42);
        let rig = start(spec, drive, traffic.flow_keys());
        (spec, rig, traffic, Checker::new(spec.concurrent_flows()))
    }

    #[test]
    fn stepped_chain_delivers_every_packet_in_order() {
        let (_, rig, mut traffic, mut checker) = rig_and_traffic("chain3_64", Drive::Stepped);
        let pumped = pump(
            &rig,
            Prebuilt::build(&mut traffic, 4096),
            &mut checker,
            &mut NoTrace,
        );
        assert_eq!(pumped.packets, 4096);
        assert_eq!((checker.attempted(), checker.failed()), (4096, 0));
        assert_eq!(checker.egressed(), 4096);
        assert_eq!(pumped.throttled, 0, "the window stays inside the credits");
        rig.host.shutdown();
    }

    #[test]
    fn threaded_forwarding_delivers_every_packet() {
        let (_, rig, mut traffic, mut checker) = rig_and_traffic("fwd64", Drive::Threaded);
        pump(
            &rig,
            Prebuilt::build(&mut traffic, 4096),
            &mut checker,
            &mut NoTrace,
        );
        assert_eq!((checker.attempted(), checker.failed()), (4096, 0));
        rig.host.shutdown();
    }

    #[test]
    fn churn_drops_exactly_the_signature_packets_and_alerts_once_each() {
        let (_, rig, mut traffic, mut checker) = rig_and_traffic("churn_ids", Drive::Stepped);
        let prebuilt = Prebuilt::build(&mut traffic, 64 * 16 * 8);
        let signatures = prebuilt.signatures;
        assert!(signatures > 20, "only {signatures} signature packets");
        pump(&rig, prebuilt, &mut checker, &mut NoTrace);
        assert_eq!(checker.failed(), 0, "{:?}", checker.first_failures());
        let stats = rig.host.stats().snapshot();
        assert_eq!(stats.dropped, signatures);
        assert_eq!(stats.nf_messages, signatures);
        assert_eq!(checker.expected_drops(), signatures);
        rig.host.shutdown();
    }

    #[test]
    fn a_host_that_does_something_else_is_caught() {
        let (_, rig, mut traffic, mut checker) = rig_and_traffic("fwd64", Drive::Stepped);
        let mut prebuilt = Prebuilt::build(&mut traffic, 64);
        // The generator claims port 7 for one packet and a drop for another;
        // the host forwards both to port 1.
        prebuilt.metas[3].expect = Expect::Egress(7);
        prebuilt.metas[9].expect = Expect::Drop;
        pump(&rig, prebuilt, &mut checker, &mut NoTrace);
        assert_eq!(checker.failed(), 2, "{:?}", checker.first_failures());
        rig.host.shutdown();
    }

    #[test]
    fn lone_packets_come_back_one_by_one() {
        let (_, rig, mut traffic, mut checker) = rig_and_traffic("par3_1024", Drive::Stepped);
        let latencies = lone_packet_latencies(&rig, traffic.next_egressing(200), &mut checker);
        assert_eq!(latencies.len(), 200);
        assert!(latencies.iter().all(|ns| *ns > 0.0));
        assert_eq!(checker.failed(), 0);
        rig.host.shutdown();
    }

    #[test]
    fn traced_pump_records_a_span_per_call_and_the_same_outcome() {
        let (spec, rig, mut traffic, mut checker) = rig_and_traffic("chain3_64", Drive::Stepped);
        let names = span_names(spec.service_labels());
        assert_eq!(names.len(), 7);
        let mut log = SpanLog::new(names, 1 << 14);
        pump(
            &rig,
            Prebuilt::build(&mut traffic, 2048),
            &mut checker,
            &mut log,
        );
        assert_eq!(checker.failed(), 0);
        let summary = log.summary();
        let rounds = summary[0].calls;
        assert!(rounds > 64, "64 bursts plus the pipeline's drain");
        // Every round steps the worker and all three NFs and polls egress.
        assert!(summary[2..].iter().all(|s| s.calls == rounds));
        assert_eq!(summary[1].calls, 64, "one inject per burst");
        rig.host.shutdown();
    }
}
