//! §5.1 micro-measurements: flow-table lookup (~30 ns in the paper), the
//! modelled SDN lookup, and the ring transfer cost per packet — scalar vs
//! batched (one atomic cursor update per burst). The paper's min-queue
//! instance pick (~15 ns) has no counterpart: a replica is picked by flow
//! hash, one modulo at most.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sdnfv_dataplane::LookupCache;
use sdnfv_flowtable::{Action, FlowMatch, FlowRule, FlowTable, RulePort, ServiceId};
use sdnfv_proto::flow::{FlowKey, IpProtocol};
use sdnfv_ring::spsc_ring;
use std::hint::black_box;
use std::net::Ipv4Addr;

fn key(port: u16) -> FlowKey {
    FlowKey::new(
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 2),
        port,
        80,
        IpProtocol::Udp,
    )
}

fn populated_table() -> FlowTable {
    let mut table = FlowTable::new();
    table.insert(FlowRule::new(
        FlowMatch::at_step(RulePort::Nic(0)),
        vec![Action::ToService(ServiceId::new(1))],
    ));
    for service in 1..=8u32 {
        table.insert(FlowRule::new(
            FlowMatch::at_step(ServiceId::new(service)),
            vec![
                Action::ToService(ServiceId::new(service + 1)),
                Action::ToPort(1),
            ],
        ));
    }
    // Some exact per-flow rules, as a busy host would have.
    for port in 0..64 {
        table.insert(FlowRule::new(
            FlowMatch::exact(RulePort::Service(ServiceId::new(1)), &key(port)),
            vec![Action::ToService(ServiceId::new(2))],
        ));
    }
    table
}

fn bench_micro(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_flow_ops");

    let mut table = populated_table();
    group.bench_function("flow_table_lookup_wildcard", |b| {
        b.iter(|| black_box(table.lookup(RulePort::Service(ServiceId::new(3)), &key(1000))))
    });
    group.bench_function("flow_table_lookup_exact", |b| {
        b.iter(|| black_box(table.lookup(RulePort::Service(ServiceId::new(1)), &key(7))))
    });

    let mut cache = LookupCache::new(1024);
    let decision = table
        .lookup(RulePort::Service(ServiceId::new(3)), &key(1000))
        .expect("rule installed");
    cache.put(
        &key(1000),
        RulePort::Service(ServiceId::new(3)),
        0,
        0,
        decision,
    );
    group.bench_function("cached_lookup", |b| {
        // A hit is a borrow of the slot's decision; it cannot leave the
        // closure, so its rule id does.
        b.iter(|| {
            let step = RulePort::Service(ServiceId::new(3));
            black_box(cache.get(&key(1000), step, 0, 0, 0).map(|hit| hit.rule_id))
        })
    });

    // Ring transfer cost per element: 32 scalar push/pop pairs vs one
    // push_n/pop_n burst of 32 (single atomic cursor update per burst).
    const BURST: usize = 32;
    group.throughput(Throughput::Elements(BURST as u64));
    let (tx, rx) = spsc_ring::<u64>(1024);
    group.bench_function("ring_scalar_transfer_32", |b| {
        b.iter(|| {
            for i in 0..BURST as u64 {
                tx.push(i).unwrap();
            }
            for _ in 0..BURST {
                black_box(rx.pop().unwrap());
            }
        })
    });

    let (tx, rx) = spsc_ring::<u64>(1024);
    let mut staged: Vec<u64> = Vec::with_capacity(BURST);
    let mut drained: Vec<u64> = Vec::with_capacity(BURST);
    group.bench_function("ring_batched_transfer_32", |b| {
        b.iter(|| {
            staged.extend(0..BURST as u64);
            tx.push_n(&mut staged);
            drained.clear();
            black_box(rx.pop_n(&mut drained, BURST));
        })
    });

    group.finish();
}

criterion_group!(benches, bench_micro);
criterion_main!(benches);
