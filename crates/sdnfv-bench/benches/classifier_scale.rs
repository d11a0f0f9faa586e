//! Million-flow classifier scale: the tuple-space wildcard search and the
//! O(1) exact-rule churn path under the idle/hard-timeout lifecycle.
//!
//! Three things are *asserted*, not just measured, because they are the
//! scaling contract of the classifier rewrite:
//!
//! * **≥1M live exact rules at steady memory** — a sustain phase installs
//!   cohorts of hard-timeout rules and keeps churning them: once expiry is
//!   on, the table size plateaus (new cohorts replace evicted ones) instead
//!   of growing without bound;
//! * **per-pin churn cost flat in table size** — an insert/remove cycle on
//!   a table holding ~10k rules costs about the same as on the million-rule
//!   table (no full-table re-sort on the pin path);
//! * **wildcard lookup cost is per-shape, not per-rule** — looking up
//!   against 10k wildcard rules spread over the same mask shapes costs
//!   within ~2× of looking up against 10 rules (vs O(rules) in a linear
//!   scan).
//!
//! Environment knobs (for CI trend recording):
//! * `SDNFV_BENCH_QUICK=1` — fewer churn waves and measurement iterations
//!   (the 1M live floor is asserted in both modes);
//! * `SDNFV_BENCH_JSON=<path>` — write `{"results": [...]}` with the
//!   sustain/churn/lookup numbers and their pass flags (the
//!   `BENCH_classifier.json` CI artifact).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sdnfv_flowtable::{Action, FlowMatch, FlowRule, FlowTable, IpPrefix, RulePort, ServiceId};
use sdnfv_proto::flow::{FlowKey, IpProtocol};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

const SVC: ServiceId = ServiceId::new(1);
/// Cohorts resident at once during the sustain phase; each churn wave
/// retires the oldest and installs a fresh one.
const COHORTS: usize = 16;
/// Rules per cohort — sized so the resident floor stays above one million
/// (`LIVE_TARGET - COHORT >= 1_000_000`).
const COHORT: usize = 70_000;
const LIVE_TARGET: usize = COHORTS * COHORT;
/// Virtual time between cohorts; every rule's hard timeout is one full
/// rotation, so exactly one cohort expires per wave.
const STEP_NS: u64 = 1_000_000;
const LIFETIME_NS: u64 = COHORTS as u64 * STEP_NS;
/// The churn-cost bound: per-pin insert/remove on the million-rule table
/// may cost at most this multiple of the ~10k-rule table (cache effects,
/// not algorithmic growth).
const CHURN_RATIO_BOUND: f64 = 4.0;
/// The lookup bound from the acceptance bar: 10k wildcard rules within
/// ~2× of 10 rules.
const LOOKUP_RATIO_BOUND: f64 = 2.0;

fn quick_mode() -> bool {
    std::env::var("SDNFV_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Distinct flows indexed off the 10/8 space (ports fixed, so the key
/// count is bounded only by the 24 address bits — ~16M, far above what the
/// sustain phase consumes).
fn exact_key(i: u32) -> FlowKey {
    FlowKey::new(
        Ipv4Addr::from(0x0A00_0000 | (i & 0x00FF_FFFF)),
        Ipv4Addr::new(192, 168, 0, 1),
        1024,
        80,
        IpProtocol::Udp,
    )
}

fn pin_rule(i: u32) -> FlowRule {
    FlowRule::new(
        FlowMatch::exact(RulePort::Service(SVC), &exact_key(i)),
        vec![Action::ToPort(1)],
    )
}

/// Runs the sustain phase: fill to `LIVE_TARGET` with hard-timeout rules,
/// then churn for `waves` rotations (each expires one cohort via the sweep
/// and installs a fresh one). Returns `(table, next_index, live_min,
/// live_max, evicted)` where `live_min`/`live_max` bracket the resident
/// rule count *after* each wave's sweep.
fn sustain_million(waves: usize) -> (FlowTable, u32, usize, usize, u64) {
    let mut table = FlowTable::new();
    let mut next: u32 = 0;
    for cohort in 0..COHORTS {
        table.advance_clock(cohort as u64 * STEP_NS);
        for _ in 0..COHORT {
            table.insert(pin_rule(next).with_hard_timeout_ns(Some(LIFETIME_NS)));
            next += 1;
        }
    }
    let mut live_min = usize::MAX;
    let mut live_max = 0;
    let mut evicted = 0u64;
    for wave in 0..waves {
        table.advance_clock((COHORTS + wave) as u64 * STEP_NS);
        // Install the replacement cohort first: the peak resident count
        // (one cohort above target, before the sweep catches up) is the
        // steady-memory bound being asserted.
        for _ in 0..COHORT {
            table.insert(pin_rule(next).with_hard_timeout_ns(Some(LIFETIME_NS)));
            next += 1;
        }
        evicted += table.sweep(usize::MAX, |_| false).len() as u64;
        let live = table.len();
        live_min = live_min.min(live);
        live_max = live_max.max(live);
    }
    (table, next, live_min, live_max, evicted)
}

/// Mean cost of one pin cycle (insert an exact rule, remove it) against
/// whatever `table` currently holds.
fn pin_cycle_ns(table: &mut FlowTable, base: u32, cycles: u32) -> f64 {
    let start = Instant::now();
    for i in 0..cycles {
        let id = table.insert(pin_rule(base + i));
        table.remove(id);
    }
    start.elapsed().as_secs_f64() * 1e9 / f64::from(cycles)
}

/// A wildcard table with `per_shape` rules in each of five mask shapes
/// (src /24, src /16, dst-port, protocol+dst-port, src-port) — rule count
/// scales, shape count does not, which is exactly what the tuple-space
/// lookup cost should track.
fn wildcard_table(per_shape: usize) -> FlowTable {
    let mut table = FlowTable::new();
    for i in 0..per_shape {
        let i32b = i as u32;
        table.insert(FlowRule::new(
            FlowMatch::at_step(SVC)
                .with_src_ip(IpPrefix::new(Ipv4Addr::from(0x0A00_0000 | (i32b << 8)), 24)),
            vec![Action::ToPort(1)],
        ));
        table.insert(FlowRule::new(
            FlowMatch::at_step(SVC).with_src_ip(IpPrefix::new(
                Ipv4Addr::from(0x0B00_0000 | (i32b << 16)),
                16,
            )),
            vec![Action::ToPort(1)],
        ));
        table.insert(FlowRule::new(
            FlowMatch::at_step(SVC).with_dst_port(1000 + (i % 60_000) as u16),
            vec![Action::ToPort(1)],
        ));
        table.insert(FlowRule::new(
            FlowMatch::at_step(SVC)
                .with_protocol(IpProtocol::Tcp)
                .with_dst_port(1000 + (i % 60_000) as u16),
            vec![Action::ToPort(1)],
        ));
        table.insert(FlowRule::new(
            FlowMatch::at_step(SVC).with_src_port(1000 + (i % 60_000) as u16),
            vec![Action::ToPort(1)],
        ));
    }
    table
}

/// Probe keys that match no rule in [`wildcard_table`] (172.16/12 source,
/// ports below 1000): a miss walks every shape bucket, the worst case the
/// ratio must hold for.
fn miss_keys() -> Vec<FlowKey> {
    (0..256u32)
        .map(|i| {
            FlowKey::new(
                Ipv4Addr::from(0xAC10_0000 | i),
                Ipv4Addr::new(192, 168, 0, 1),
                (5 + i % 900) as u16,
                7,
                IpProtocol::Udp,
            )
        })
        .collect()
}

/// Mean wildcard-lookup cost over rotating miss keys, min-of-rounds to
/// shave scheduler noise.
fn lookup_cost_ns(table: &mut FlowTable, iters: u32, rounds: usize) -> f64 {
    let keys = miss_keys();
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        for i in 0..iters {
            black_box(table.lookup(RulePort::Service(SVC), &keys[(i & 255) as usize]));
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e9 / f64::from(iters));
    }
    best
}

fn bench_classifier_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("classifier_scale");
    if quick_mode() {
        group.measurement_time(Duration::from_millis(300));
    }

    let mut small = wildcard_table(2);
    group.bench_function("wildcard_lookup_10_rules", |b| {
        let keys = miss_keys();
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) & 255;
            black_box(small.lookup(RulePort::Service(SVC), &keys[i]))
        })
    });
    let mut large = wildcard_table(2000);
    group.bench_function("wildcard_lookup_10k_rules", |b| {
        let keys = miss_keys();
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) & 255;
            black_box(large.lookup(RulePort::Service(SVC), &keys[i]))
        })
    });

    let mut pins = FlowTable::new();
    for i in 0..10_000 {
        pins.insert(pin_rule(i));
    }
    group.throughput(Throughput::Elements(1));
    group.bench_function("pin_cycle_10k_live", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i += 1;
            let id = pins.insert(pin_rule(1_000_000 + i));
            black_box(pins.remove(id))
        })
    });
    group.finish();
}

/// The sustain/churn/lookup report written as a JSON artifact
/// (`SDNFV_BENCH_JSON=<path>`, the `BENCH_classifier.json` CI artifact).
fn emit_classifier_json() {
    let Ok(path) = std::env::var("SDNFV_BENCH_JSON") else {
        return;
    };
    let waves = if quick_mode() { 8 } else { 32 };
    let (mut big, next, live_min, live_max, evicted) = sustain_million(waves);
    let sustained_million = live_min >= 1_000_000;
    // Steady memory: churn never leaves the table more than one cohort
    // above the target — expiry keeps pace with installs.
    let steady_memory = live_max <= LIVE_TARGET + COHORT;

    let cycles: u32 = if quick_mode() { 20_000 } else { 100_000 };
    let mut small_pins = FlowTable::new();
    for i in 0..10_000 {
        small_pins.insert(pin_rule(i));
    }
    // Warm both paths once, then measure.
    pin_cycle_ns(&mut small_pins, 20_000_000, cycles / 4);
    pin_cycle_ns(&mut big, next, cycles / 4);
    let pin_ns_small = pin_cycle_ns(&mut small_pins, 21_000_000, cycles);
    let pin_ns_large = pin_cycle_ns(&mut big, next + cycles, cycles);
    let churn_ratio = pin_ns_large / pin_ns_small.max(f64::EPSILON);
    let churn_flat_ok = churn_ratio <= CHURN_RATIO_BOUND;

    let iters: u32 = if quick_mode() { 200_000 } else { 1_000_000 };
    let mut w_small = wildcard_table(2);
    let mut w_large = wildcard_table(2000);
    let lookup_ns_small = lookup_cost_ns(&mut w_small, iters, 5);
    let lookup_ns_large = lookup_cost_ns(&mut w_large, iters, 5);
    let lookup_ratio = lookup_ns_large / lookup_ns_small.max(f64::EPSILON);
    let lookup_ratio_ok = lookup_ratio <= LOOKUP_RATIO_BOUND;

    let json = format!(
        "{{\n  \"bench\": \"classifier_scale\",\n  \"live_target\": {LIVE_TARGET},\n  \
         \"churn_waves\": {waves},\n  \"results\": [\n    {{\"live_min\": {live_min}, \
         \"live_max\": {live_max}, \"rules_evicted\": {evicted}, \
         \"sustained_million\": {sustained_million}, \"steady_memory\": {steady_memory}, \
         \"pin_cycle_ns_10k\": {pin_ns_small:.1}, \"pin_cycle_ns_1m\": {pin_ns_large:.1}, \
         \"churn_ratio\": {churn_ratio:.2}, \"churn_flat_ok\": {churn_flat_ok}, \
         \"wildcard_rules_small\": 10, \"wildcard_rules_large\": 10000, \
         \"lookup_ns_10_rules\": {lookup_ns_small:.1}, \
         \"lookup_ns_10k_rules\": {lookup_ns_large:.1}, \"lookup_ratio\": {lookup_ratio:.2}, \
         \"lookup_ratio_ok\": {lookup_ratio_ok}}}\n  ]\n}}\n",
    );
    assert!(
        sustained_million,
        "churn must keep >=1M exact rules live (min was {live_min})"
    );
    assert!(
        steady_memory,
        "expiry must hold the table at steady size (max was {live_max}, target {LIVE_TARGET})"
    );
    assert!(
        churn_flat_ok,
        "per-pin churn cost must be flat in table size \
         (10k: {pin_ns_small:.1} ns, 1M: {pin_ns_large:.1} ns, ratio {churn_ratio:.2})"
    );
    assert!(
        lookup_ratio_ok,
        "10k-rule wildcard lookup must stay within {LOOKUP_RATIO_BOUND}x of 10 rules \
         (10: {lookup_ns_small:.1} ns, 10k: {lookup_ns_large:.1} ns, ratio {lookup_ratio:.2})"
    );
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote classifier-scale report to {path}"),
        Err(err) => eprintln!("failed to write {path}: {err}"),
    }
}

fn bench_and_report(c: &mut Criterion) {
    bench_classifier_scale(c);
    emit_classifier_json();
}

criterion_group!(benches, bench_and_report);
criterion_main!(benches);
