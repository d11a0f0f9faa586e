//! The NF hop path allocates nothing and copies nothing.
//!
//! A counting `#[global_allocator]` (thread-local, so the harness's other
//! test threads do not bleed in) watches every `SimHandle::step` of a
//! stepped host: once the descriptor free list is warm, the shard worker
//! and the NF replicas push 10 000 packets through a 3-NF chain —
//! sequential, then the same chain compiled parallel — without a single
//! heap allocation, and every frame leaves `poll_egress_burst` in the very
//! buffer it was injected in.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sdnfv::dataplane::{SimActorKind, SimHandle, ThreadedHost, ThreadedHostConfig};
use sdnfv::flowtable::{ServiceId, SharedFlowTable};
use sdnfv::graph::{catalog, CompileOptions};
use sdnfv::nf::nfs::NoOpNf;
use sdnfv::nf::NetworkFunction;
use sdnfv::proto::packet::{Packet, PacketBuilder};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every method forwards to `System` unchanged; the only addition is
// a thread-local counter bump (a `const`-initialised `Cell<u64>`, which has
// no destructor and never allocates — `try_with` covers thread teardown).
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: `GlobalAlloc`'s own contract; nothing is added to it.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        // SAFETY: the caller's `GlobalAlloc::alloc` contract, passed on.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `GlobalAlloc`'s own contract; nothing is added to it.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's `GlobalAlloc::dealloc` contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: `GlobalAlloc`'s own contract; nothing is added to it.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        // SAFETY: the caller's `GlobalAlloc::realloc` contract, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const BURST: usize = 32;
const FLOWS: u16 = 64;
/// Virtual time per round, as the benchmark drives it (1 µs per packet),
/// so cache TTLs and rule sweeps fire during the measured run.
const ROUND_NS: u64 = 1_000 * BURST as u64;

fn packet(seq: usize) -> Packet {
    PacketBuilder::udp()
        .src_ip([10, 0, 0, 1])
        .dst_ip([10, 0, 0, 2])
        .src_port(1024 + (seq as u16 % FLOWS))
        .dst_port(80)
        .ingress_port(0)
        .total_size(64)
        .build()
}

/// A stepped single-shard host running a 3-`NoOpNf` chain, with the
/// telemetry exporter (which allocates a snapshot per interval by design)
/// off. Returns the host, its scheduler handle and the actor ids in
/// pipeline order (worker first).
fn chain_host(parallel: bool) -> (ThreadedHost, SimHandle, Vec<u64>) {
    let (graph, ids) = catalog::chain(&[("a", true), ("b", true), ("c", true)]);
    let table = SharedFlowTable::new();
    for rule in graph.compile(&CompileOptions {
        enable_parallel: parallel,
        ..CompileOptions::default()
    }) {
        table.insert(rule);
    }
    let (host, sim) = ThreadedHost::start_sim_sharded(
        table,
        |_shard| {
            ids.iter()
                .map(|id: &ServiceId| (*id, Box::new(NoOpNf::new()) as Box<dyn NetworkFunction>))
                .collect()
        },
        ThreadedHostConfig {
            telemetry_interval_ns: 0,
            ..ThreadedHostConfig::default()
        },
    );
    // The worker's first step spawns (registers) the NF replicas.
    let worker = sim.actors()[0].id;
    sim.step(worker);
    let actors: Vec<u64> = sim.actors().iter().map(|actor| actor.id).collect();
    assert_eq!(actors[0], worker);
    assert_eq!(
        sim.actors()
            .iter()
            .filter(|actor| actor.kind == SimActorKind::Nf)
            .count(),
        3
    );
    (host, sim, actors)
}

/// Pushes `packets` packets through the host in bursts of [`BURST`] and
/// returns how many heap allocations happened inside the worker and NF
/// steps. Every egressed frame must be a buffer that was injected and has
/// not come out yet.
fn pump(host: &ThreadedHost, sim: &SimHandle, actors: &[u64], packets: usize) -> u64 {
    let mut in_engines = 0;
    let mut in_flight: Vec<*const u8> = Vec::with_capacity(16 * BURST);
    let (mut sent, mut received) = (0, 0);
    let mut idle_rounds = 0;
    while received < packets {
        if sent < packets && in_flight.len() < 8 * BURST {
            let burst: Vec<Packet> = (sent..sent + BURST).map(packet).collect();
            in_flight.extend(burst.iter().map(|p| p.data().as_ptr()));
            let outcome = host.inject_burst(burst);
            assert!(outcome.throttled.is_empty(), "window is below the credits");
            sent += BURST;
        }
        sim.advance_clock_ns(ROUND_NS);
        for &actor in actors {
            let before = allocations();
            sim.step(actor);
            in_engines += allocations() - before;
        }
        let out = host.poll_egress_burst(4 * BURST);
        idle_rounds = if out.is_empty() { idle_rounds + 1 } else { 0 };
        assert!(idle_rounds < 1_000, "pipeline stalled");
        for output in &out {
            let frame = output.packet.data().as_ptr();
            let position = in_flight
                .iter()
                .position(|&injected| injected == frame)
                .expect("the egressed frame is the buffer that was injected, not a copy");
            in_flight.swap_remove(position);
        }
        received += out.len();
    }
    assert!(in_flight.is_empty());
    in_engines
}

fn assert_hot_path_is_allocation_free(parallel: bool) {
    let (host, sim, actors) = chain_host(parallel);
    // Warm-up: fills the descriptor free list, the lookup cache, and grows
    // every reused scratch buffer to its working size.
    pump(&host, &sim, &actors, 64 * BURST);
    let during = pump(&host, &sim, &actors, 10_000usize.next_multiple_of(BURST));
    assert_eq!(
        during, 0,
        "worker and NF steps must not allocate in steady state (parallel = {parallel})"
    );
    let stats = host.stats().snapshot();
    assert_eq!(stats.transmitted, stats.received);
    assert_eq!(stats.dropped + stats.overflow_drops, 0);
    host.shutdown();
}

#[test]
fn sequential_chain_allocates_and_copies_nothing_per_packet() {
    assert_hot_path_is_allocation_free(false);
}

#[test]
fn parallel_chain_allocates_and_copies_nothing_per_packet() {
    assert_hot_path_is_allocation_free(true);
}
