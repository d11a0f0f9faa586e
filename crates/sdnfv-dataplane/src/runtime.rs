//! The multi-threaded, sharded NF Manager runtime (paper §4.1–4.2).
//!
//! The host is split into [`ThreadedHostConfig::num_shards`] independent
//! packet pipelines. Injection steers every packet by its 5-tuple flow hash
//! (the NIC-RSS analog), so **all packets of one flow traverse one shard**
//! and per-flow state — flow-table interactions, NF state keyed by flow —
//! never needs cross-shard synchronization:
//!
//! ```text
//!             ┌─ shard 0 ───────────────────────────────────────────┐
//!             │ ingress ─► worker (RX dispatch + TX egress) ─► egress│──┐
//! inject ──►──┤              │ NF rings        ▲ done rings          │  ├─► poll_egress
//!  (flow      │              ▼                 │                     │  │
//!   hash,     │           NF threads (one per NF "VM")               │  │
//!   credit    └─────────────────────────────────────────────────────┘  │
//!   gate)     ┌─ shard N−1: same pipeline ───────────────────────────┐ │
//!             └─────────────────────────────────────────────────────-┘─┘
//! ```
//!
//! Per shard, one **worker thread** runs both ends of the pipeline:
//!
//! * its *RX role* takes a burst out of the shard's ingress ring, performs
//!   the first flow-table lookup (lookup cache → exact index → tuple-space
//!   search), wraps the packet in a frame taken from the shard's free
//!   lists, and stages it into its NF's ring (several rings at once for
//!   parallel rules), publishing each ring with one store;
//! * each **NF thread** models one network-function VM pinned to the shard
//!   ([`nf_engine`]): it serves a burst in place in its input ring's slots
//!   through the NF's batch entry point, moves the burst's cross-layer
//!   messages onto its message ring *before* completed packets are handed
//!   onward, records each packet's verdict in its frame, and publishes the
//!   completions it staged into its done ring with one store;
//! * the worker's *TX role* notes what the done rings hold, applies every
//!   replica's messages to the shard's partition, then takes each noted
//!   completion back into an owned frame, reads its resolved verdict,
//!   performs the next flow-table lookup, and either stages the frame for
//!   the next NF, moves the packet out for egress, or drops it.
//!
//! Because one thread plays both roles, every ring in a shard has exactly
//! one producer and one consumer — including the egress ring, which needs no
//! lock at all — and no NF thread writes the flow table.
//!
//! **Ingress backpressure**: each shard holds a
//! [`CreditGate`] of `shard_credits` packet slots. [`ThreadedHost::inject`]
//! acquires one credit per packet and returns
//! [`InjectResult::Throttled`] — handing the packet back — when the shard is
//! saturated; the worker releases the credit when the packet reaches a
//! terminal state (egress, drop verdict, punt). Credits are clamped to the
//! smallest internal ring, so no ring inside the pipeline can overflow and
//! nothing is ever silently dropped: overload is always surfaced to the
//! injector.
//!
//! **What a hop costs** (paper §4.2): a packet rides one [`Frame`] from RX
//! to egress and is never copied — owned outright while it goes to one NF
//! at a time, a [`SharedPacket`] descriptor while a fan-out of read-only
//! NFs shares it. Each hop writes the frame into a ring slot once and reads
//! it out once, with no staging `Vec` between: the producer stages into
//! the slot and publishes, the consumer takes from it (the NF serves its
//! burst in place) and releases the slot before the frame can return. A
//! hop resets the frame's verdict, and egress *moves* the packet out and
//! parks the emptied frame for RX to refill, so the worker allocates
//! nothing per packet. The NFs' requested actions ride the frame too: an
//! owned frame stores its NF's verdict, a fan-out's NFs each merge theirs
//! with one `fetch_max` keyed by position in the dispatched action list
//! ([`crate::conflict::resolve_parallel_verdicts`] is the specification of
//! the merged word). No lock is taken on the packet path: a fan-out's
//! packet is immutable while shared, and a completed fan-out becomes an
//! owned frame again before the worker acts on it. And the flow hash is
//! computed once, at admission: it rides `IngressFrame`, then the frame
//! itself (with the flow key and the trace flag, so the NF rings'
//! `WorkItem` and `DoneItem` carry only the frame and the hop's own
//! fields), and feeds the bucket tracker, the sticky replica pick, trace
//! sampling and the direct-mapped [`LookupCache`](crate::cache::LookupCache).
//!
//! **Which rules fan out**: a sequential rule sends the packet to its
//! default (first) action only — its other services are steering targets
//! an NF may ask for. A parallel rule whose services are all read-only
//! fans out. A parallel rule that names a mutating service (only a
//! hand-installed one can: the graph compiler parallelizes read-only runs)
//! runs as owned hops in list order, each NF seeing the writes of those
//! before it and merging its verdict by position into the one frame, with
//! the exit at the last listed service. A fan-out's completion waits,
//! deferred to the worker's next step, while a straggler NF still holds its
//! handle; fan-out completions already reach the worker through several
//! done rings, so this reorders a flow only as they could. A packet's
//! 64th routed completion (`MAX_CHAIN_HOPS`) drops it, so a rule cycle
//! cannot hold a packet and its credit forever.
//!
//! **NF messages** (paper §3.4): as the NF Manager holds the flow table,
//! the worker applies what its NFs send. A replica puts a burst's messages
//! on its own message ring before it publishes the burst's completions (a
//! full ring holds the burst back), and the worker drains every message
//! ring after it notes what the done rings hold and before it routes any
//! of it, then keeps each message in the shard's bounded outbox ring for
//! the control plane ([`ThreadedHost::take_nf_messages`]). A bucket
//! move's state exchange rides rings too ([`nf_engine`]): no NF thread
//! takes a lock.
//!
//! **Per-shard flow tables**: the table handed to `start_sharded` is the
//! *template*; each shard works against its own
//! [`FlowTablePartitions`] partition (a fork of the template), written on
//! the data plane by the shard's worker alone, so shard lookups and NF
//! cross-layer messages never contend on a lock another shard touches.
//! Control-plane rules installed mid-run go through
//! [`ThreadedHost::install_rule`], which broadcasts to every partition.
//!
//! **Rule expiry**: a rule leaves by idle or hard timeout in one place,
//! the worker's timed sweep of its partition
//! ([`SharedFlowTable::sweep_expired`], every `rule_sweep_interval_ns`).
//! A lookup skips an expired rule and evicts nothing. The sweep defers
//! the exact rules of a parked bucket, whose state is being exported, and
//! the same worker step counts its evictions and posts the evicted flows'
//! keys to the shard's replicas, which scrub their per-flow NF state.
//!
//! **Telemetry and elastic control** (paper §3.5): every shard's worker
//! periodically publishes a [`TelemetrySnapshot`] — queue-depth gauges for
//! all its rings, credit occupancy, per-NF service-time EWMAs and the
//! shard's cumulative counters — over a lock-free SPSC ring drained by
//! [`ThreadedHost::poll_telemetry`]. In the other direction each shard has
//! a **control ring** of commands the worker applies between bursts, with
//! no stop-the-world: [`ThreadedHost::add_nf_replica`] spawns one more NF
//! thread for a service, [`ThreadedHost::remove_nf_replica`] retires the
//! newest one (the replica drains its queue before its thread exits, so no
//! packet is lost), and [`ThreadedHost::resize_credits`] re-budgets the
//! shard's credit gate. A flow's replica follows its steering bucket
//! ([`pick_instance`]), so a replica scale is a bucket move below whose
//! destination is its own shard: only the re-picked buckets park, and
//! these moves show in [`ThreadedHost::take_rehome_events`] like any
//! other.
//! [`ThreadedHost::set_steering_weights`] rebalances the flow-hash → shard
//! bucket table on the injection side.
//!
//! **Elastic shard count**: the pipeline count itself can change while
//! traffic flows. [`ThreadedHost::spawn_shard`] brings up a complete new
//! pipeline — worker thread, NF replica set, all rings, credit gate and a
//! flow-table partition forked from the template — and re-homes a fair
//! share of steering buckets onto it; [`ThreadedHost::retire_shard`] drains
//! the highest shard's buckets back onto the survivors and tears its
//! pipeline down (threads joined, rings reclaimed). Every bucket move —
//! scale-out, scale-in, a plain [`set_steering_weights`] rebalance, a
//! replica scale or a cross-host handout — runs the one
//! **state-complete quiesce-then-move machine** of [`crate::rehome`],
//! driven from the host's injection and polling calls by the child module
//! `rehome_driver`: arrivals are parked, the old shard drains the bucket,
//! its NF-internal per-flow state is collected (via
//! [`NetworkFunction::export_flow_state`]), its exact-flow rules and
//! wildcard mutations are handed over, the NF state is imported, and only
//! then is the pen released — so neither packets, flow-table state,
//! wildcard-rule mutations nor NF flow state are lost. A bucket's
//! in-flight count drops when each packet reaches *egress staging* (past
//! which it can no longer touch flow state), so bucket drain never waits
//! on the consumer polling egress. Completed transitions are published as
//! [`ShardLifecycleEvent`]s via [`ThreadedHost::take_shard_events`].

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::num::NonZeroU32;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use sdnfv_flowtable::{
    Action, Decision, EvictReason, EvictedRule, FlowRule, FlowTablePartitions, MutationLog, RuleId,
    RulePort, ServiceId, SharedFlowTable,
};
use sdnfv_nf::{NetworkFunction, NfFlowState, Verdict};
use sdnfv_proto::flow::FlowKey;
use sdnfv_proto::packet::Port;
use sdnfv_proto::Packet;
use sdnfv_ring::{spsc_ring, Consumer, CreditGate, Producer, PushError};
use sdnfv_telemetry::{
    HostClock, LatencyHistogram, LatencyReport, NfTelemetry, ShardLifecycleEvent, SpanVerdict,
    TelemetrySnapshot, TelemetrySource, TraceSpan, TraceStage,
};

use crate::cache::{cached_lookup_hashed, LookupCache, LOOKUP_CACHE_ENTRIES};
use crate::conflict::{validate_steering, verdict_from_word};
use crate::messages::{apply_nf_message, NfManagerMessage, PinTimeouts};
use crate::rehome::{BucketTracker, RehomeEvent, RehomeReport, RehomeState, RetiringShard};
use crate::stats::{HostStats, ShardStats};

mod nf_engine;
mod rehome_driver;

use nf_engine::{nf_thread_loop, NfOut, NfProbe, NfRequest, StateResponse};
pub(crate) use nf_engine::{NfEngine, NfThread};
use rehome_driver::apportion_targets;

/// Capacity of each shard's control-command ring (commands the worker
/// applies between bursts), and of each replica's control ring (state
/// requests the NF serves between bursts).
const CONTROL_RING_CAPACITY: usize = 16;

/// Capacity of the per-bucket pen that holds arrivals while a steering
/// bucket is mid-re-home (quiesced). A full pen surfaces as ordinary
/// backpressure.
const REHOME_PEN: usize = 32;

/// Eviction budget of one rule sweep: at most this many rules are evicted
/// per sweep pass, bounding the work injected between bursts.
const MAX_EVICTIONS_PER_SWEEP: usize = 256;

/// Upper bound on the hops one packet takes inside a shard (a cycle guard
/// against mis-configured rules): its 64th routed completion drops it.
pub(crate) const MAX_CHAIN_HOPS: u8 = 64;

/// Capacity of each shard's NF-message outbox, the worker → host ring of
/// applied messages. Messages the control plane has not drained past this
/// many are counted in `nf_messages_dropped` and discarded.
const NF_OUTBOX_CAPACITY: usize = 1024;

/// Configuration of a [`ThreadedHost`].
#[derive(Debug, Clone)]
pub struct ThreadedHostConfig {
    /// Capacity of each NF input ring (per shard).
    pub nf_ring_capacity: usize,
    /// Capacity of each shard's ingress ring.
    pub ingress_capacity: usize,
    /// Capacity of each shard's egress ring.
    pub egress_capacity: usize,
    /// Maximum number of packets moved per ring operation — the batch size
    /// of the whole pipeline and the host's primary throughput knob. Larger
    /// bursts amortize atomic ring updates, flow-table lookups and NF
    /// dispatch over more packets at a small cost in per-packet latency.
    pub burst_size: usize,
    /// Number of independent pipeline shards. Packets are steered to shards
    /// by 5-tuple flow hash, so all packets of one flow stay on one shard.
    /// The default of 1 preserves the single-pipeline topology.
    pub num_shards: usize,
    /// Per-shard credit budget: the maximum number of packets one shard
    /// holds in flight. Clamped to the smallest internal ring capacity so
    /// in-pipeline overflow is impossible.
    pub shard_credits: usize,
    /// How often each shard's worker publishes a [`TelemetrySnapshot`]
    /// (nanoseconds). `0` disables the exporter.
    pub telemetry_interval_ns: u64,
    /// How often each shard sweeps its flow-table partition for expired
    /// rules, in nanoseconds of the host clock (identical under the
    /// simulated runtime). The sweep is the only place a rule is evicted:
    /// a lookup skips an expired rule and leaves it to the next sweep.
    /// `0` turns rule expiry off: the partition's clock advances only in
    /// the sweep, so no lookup sees a timeout pass either.
    pub rule_sweep_interval_ns: u64,
    /// OpenFlow-style idle timeout stamped onto exact per-flow rules
    /// installed by NF `ChangeDefault` pins: the pin is evicted once this
    /// many nanoseconds pass without its flow sending a packet. `None`
    /// (the default) keeps pins forever, the pre-lifecycle behavior.
    pub pin_idle_timeout_ns: Option<u64>,
    /// Capacity of each shard's lossy trace-span ring. A full ring drops
    /// the span (counted in `spans_dropped`) — tracing never blocks the
    /// packet path.
    pub trace_ring_capacity: usize,
}

impl Default for ThreadedHostConfig {
    fn default() -> Self {
        ThreadedHostConfig {
            nf_ring_capacity: 1024,
            ingress_capacity: 8192,
            egress_capacity: 8192,
            burst_size: 32,
            num_shards: 1,
            shard_credits: 1024,
            telemetry_interval_ns: 1_000_000,
            rule_sweep_interval_ns: 1_000_000,
            pin_idle_timeout_ns: None,
            trace_ring_capacity: 1024,
        }
    }
}

/// A packet that left the host: the egress port, the frame, and the flow
/// key parsed at ingress.
///
/// Carrying the ingress-time key through egress means a consumer that
/// forwards the packet onward (the federation wire) never re-parses the
/// frame — and never *mis*-parses it when an NF rewrote the 5-tuple
/// mid-chain (NAT): the key that was admitted is the key that leaves.
#[derive(Debug, Clone)]
pub struct HostOutput {
    /// The NIC port the packet left on.
    pub port: Port,
    /// The transmitted frame.
    pub packet: Packet,
    /// The packet's flow key as parsed at ingress (keyless packets are
    /// dropped at RX and never reach egress).
    pub key: FlowKey,
}

/// Number of hash buckets in the flow-steering table: a flow's stable
/// 5-tuple hash picks a bucket, the bucket maps to a shard. Rebalancing
/// ([`ThreadedHost::set_steering_weights`]) remaps buckets, so only the
/// flows of moved buckets change shard.
pub const STEER_BUCKETS: usize = 1024;

/// The shard a flow is steered to **by the default (uniform) bucket
/// table**: its stable 5-tuple hash picks one of [`STEER_BUCKETS`] buckets,
/// and bucket `b` maps to shard `b % num_shards`. Exposed so tests and
/// benches can predict (and assert) steering of hosts that have not been
/// rebalanced.
pub fn shard_for_flow(key: &FlowKey, num_shards: usize) -> usize {
    if num_shards <= 1 {
        return 0;
    }
    if num_shards >= STEER_BUCKETS {
        return (key.stable_hash() % num_shards as u64) as usize;
    }
    (key.stable_hash() % STEER_BUCKETS as u64) as usize % num_shards
}

/// A command a shard's worker applies between bursts (the runtime half of a
/// [`ControlAction`](sdnfv_telemetry::ControlAction)).
enum ShardCommand {
    /// Spawn one more replica (NF thread) of `service` on this shard.
    AddNf {
        service: ServiceId,
        nf: Box<dyn NetworkFunction>,
    },
    /// Retire one replica of `service`: stop steering packets to it, let it
    /// drain its queue, then join its thread. The last replica of a service
    /// is never retired.
    RemoveNf { service: ServiceId },
    /// Re-budget the shard's credit gate (clamped to the internal ring
    /// capacities).
    ResizeCredits { credits: usize },
    /// Collect NF-internal per-flow state for the given (quiesced) steering
    /// buckets from every NF replica on this shard; reply with a
    /// [`BucketStateExport`] tagged `id` on the shard's export ring.
    /// `exact_keys` enumerates the buckets' flows discoverable from the
    /// shard partition's exact-rule index; replicas add their own key sets.
    ExportBucketState {
        id: u64,
        buckets: Vec<usize>,
        exact_keys: Vec<FlowKey>,
    },
    /// Deliver re-homed NF flow state to this (destination) shard's
    /// replicas; set `done` once every replica has absorbed its share —
    /// the host releases the covered buckets' pens only after that, so no
    /// packet can reach an NF before its flow's state does.
    ImportBucketState {
        states: Vec<(ServiceId, FlowKey, NfFlowState)>,
        done: Arc<AtomicBool>,
    },
}

/// A shard worker's reply to [`ShardCommand::ExportBucketState`]: every
/// `(service, flow, state)` its NF replicas detached for the request's
/// buckets.
struct BucketStateExport {
    /// Echo of the request id.
    id: u64,
    /// The exported state triples (possibly several per flow, one per
    /// replica that held state — the importer merges).
    states: Vec<(ServiceId, FlowKey, NfFlowState)>,
}

/// An export in progress on a shard worker: which replica requests (slot,
/// token) still owe a response, and what has been gathered so far.
struct PendingCollect {
    id: u64,
    outstanding: Vec<(usize, u64)>,
    gathered: Vec<(ServiceId, FlowKey, NfFlowState)>,
}

/// An import in progress on a shard worker: which replica requests (slot,
/// token) still owe an acknowledgement before `done` may be set.
struct PendingImport {
    outstanding: Vec<(usize, u64)>,
    done: Arc<AtomicBool>,
}

/// A handle to one engine's execution: a real OS thread in the threaded
/// runtime, or a finished-flag the simulation registry flips when the
/// engine's step function reports completion. Everything that used to ask
/// `JoinHandle::is_finished` asks this instead, so the shipping lifecycle
/// code (drain-exit detection, retirement finalize) is identical under
/// both drivers.
pub(crate) enum TaskHandle {
    /// A spawned OS thread.
    Thread(JoinHandle<()>),
    /// A sim-registered engine; the registry sets the flag when the
    /// engine finishes (there is no thread to join).
    Sim(Arc<AtomicBool>),
}

impl TaskHandle {
    fn is_finished(&self) -> bool {
        match self {
            TaskHandle::Thread(handle) => handle.is_finished(),
            TaskHandle::Sim(finished) => finished.load(Ordering::Acquire),
        }
    }

    fn join(self) {
        if let TaskHandle::Thread(handle) = self {
            let _ = handle.join();
        }
    }
}

/// Where a shard's NF replicas execute: real threads (production) or
/// step-actors registered with a simulation registry. The worker calls
/// this for every `spawn_nf`, initial and elastic alike, so scale-ups
/// under simulation create steppable actors instead of threads.
pub(crate) trait ReplicaSpawner: Send {
    /// Takes ownership of a fully wired replica bundle and starts (or
    /// registers) it, returning the handle its lifecycle is tracked by.
    fn spawn_replica(&mut self, thread: NfThread) -> TaskHandle;
}

/// The production spawner: one OS thread per replica.
struct ThreadSpawner;

impl ReplicaSpawner for ThreadSpawner {
    fn spawn_replica(&mut self, thread: NfThread) -> TaskHandle {
        TaskHandle::Thread(std::thread::spawn(move || nf_thread_loop(thread)))
    }
}

/// How a host's pipelines execute: spawned OS threads, or engines
/// registered with the crate's simulation registry
/// ([`crate::sim::SimRegistry`]) and stepped explicitly by a scheduler.
#[derive(Clone)]
pub(crate) enum PipelineRuntime {
    /// Production: one worker thread per shard, one thread per NF replica.
    Threads,
    /// Deterministic simulation: engines are registered as step-actors.
    Sim(Arc<Mutex<crate::sim::SimRegistry>>),
}

/// The outcome of injecting one packet (see [`ThreadedHost::inject`]).
#[derive(Debug, PartialEq, Eq)]
#[must_use = "a throttled injection hands the packet back for retry"]
pub enum InjectResult {
    /// The packet was admitted into its shard's pipeline.
    Admitted,
    /// Backpressure: the shard is saturated. The packet is handed back so
    /// the caller can retry after draining egress.
    Throttled(Packet),
}

impl InjectResult {
    /// Whether the packet entered the pipeline.
    pub fn is_admitted(&self) -> bool {
        matches!(self, InjectResult::Admitted)
    }

    /// The packet handed back by a throttled injection, if any.
    pub fn into_throttled(self) -> Option<Packet> {
        match self {
            InjectResult::Throttled(packet) => Some(packet),
            InjectResult::Admitted => None,
        }
    }
}

/// The outcome of a burst injection (see [`ThreadedHost::inject_burst`]).
#[derive(Debug, Default)]
pub struct BurstInjection {
    /// Packets admitted into the pipelines.
    pub admitted: usize,
    /// Packets rejected by backpressure, handed back for retry.
    pub throttled: Vec<Packet>,
}

/// A packet on its way from injection to a shard worker, with its flow key
/// parsed — and hashed — once at admission. The hash rides the packet
/// through every hop (in its frame's [`PacketMeta`]): bucket tracking,
/// replica pick, lookup-cache index and trace sampling all read it instead
/// of re-hashing the key.
pub(crate) struct IngressFrame {
    packet: Packet,
    key: Option<FlowKey>,
    /// `key.stable_hash()` (0 for keyless frames, which are dropped at RX).
    hash: u64,
}

/// What the worker keeps with a packet from RX to egress, inside its frame
/// — so the NF rings move only the frame and the hop's own fields.
#[derive(Debug, Clone, Copy)]
struct PacketMeta {
    key: FlowKey,
    /// `key.stable_hash()`, computed at admission.
    hash: u64,
    /// Whether the packet is trace-sampled (hash-sampled or rule-pinned):
    /// the worker emits spans at each stage.
    traced: bool,
    /// The worker's [`ListRun`] slot (its index + 1) while the packet walks
    /// a parallel rule's services in list order.
    list_run: Option<NonZeroU32>,
    /// Completions the worker has routed so far; at [`MAX_CHAIN_HOPS`] the
    /// packet is dropped, so a rule cycle cannot hold it (and its credit)
    /// forever.
    hops: u8,
}

/// A packet in flight, carrying its [`PacketMeta`].
type Frame = sdnfv_ring::Frame<PacketMeta>;
type SolePacket = sdnfv_ring::SolePacket<PacketMeta>;
type SharedPacket = sdnfv_ring::SharedPacket<PacketMeta>;

struct WorkItem {
    /// The packet: [`Frame::Sole`] for a single-target hop, one of the
    /// fan-out's handles otherwise.
    frame: Frame,
    /// The step used for the lookup after this dispatch completes (the last
    /// service in the dispatched action list).
    exit_service: ServiceId,
    /// This item's target's position among the dispatched services: the
    /// priority its NF's verdict merges into the frame with.
    position: u16,
}

struct DoneItem {
    frame: Frame,
    exit_service: ServiceId,
    /// Host-clock window of the NF burst that completed the packet (the
    /// last replica, for parallel dispatch). Stamped by the NF thread so
    /// the worker — the trace ring's single producer — can emit the NF
    /// span without touching the replica's clock.
    nf_started_ns: u64,
    nf_ended_ns: u64,
}

// Ring slots and the per-packet meta every frame carries: the exact sizes
// make any growth deliberate.
const _: () = assert!(std::mem::size_of::<WorkItem>() == 24);
const _: () = assert!(std::mem::size_of::<DoneItem>() == 40);
const _: () = assert!(std::mem::size_of::<PacketMeta>() == 32);

/// A completed hop the worker owns outright: a fan-out's completion has
/// passed its exit test and become an owned frame by the time one exists.
struct Completion {
    sole: Box<SolePacket>,
    exit_service: ServiceId,
    /// When the NF burst that completed the packet ended (the TX span's
    /// start).
    nf_ended_ns: u64,
}

/// A parallel rule that names a mutating service, walked by one packet as
/// owned hops in list order ([`ShardEngine::stage_in_order`]).
struct ListRun {
    /// The rule's action list as it was dispatched.
    actions: Arc<[Action]>,
    /// Where in `actions` to look for the next service.
    next: usize,
    /// Position among the listed services of the hop in flight: its
    /// verdict's priority.
    position: u16,
}

/// Per-shard latency recorders: lock-free log-linear histograms, each with
/// the one thread that records into it — the shard's worker (end-to-end,
/// ingress wait, egress wait) or the host (re-home pen dwell) — except the
/// service-time one, which the shard's NF threads share
/// ([`LatencyHistogram::record_shared`]). Snapshots ride each
/// [`TelemetrySnapshot`] as a [`LatencyReport`]; the host can also read
/// them live via [`ThreadedHost::latency_report`].
#[derive(Debug, Default)]
pub(crate) struct ShardLatency {
    /// Ingress admission stamp → egress-ring push.
    end_to_end: LatencyHistogram,
    /// Ingress admission stamp → shard worker pop (includes pen dwell for
    /// re-homed packets).
    ingress_wait: LatencyHistogram,
    /// Per-packet NF burst service time (burst wall time / burst length),
    /// recorded once per burst by every NF thread of the shard.
    nf_service: LatencyHistogram,
    /// Egress staging → egress-ring push.
    egress_wait: LatencyHistogram,
    /// Time parked in a re-home pen (host-side, destination shard).
    pen_dwell: LatencyHistogram,
}

impl ShardLatency {
    fn report(&self) -> LatencyReport {
        LatencyReport {
            end_to_end: self.end_to_end.snapshot(),
            ingress_wait: self.ingress_wait.snapshot(),
            nf_service: self.nf_service.snapshot(),
            egress_wait: self.egress_wait.snapshot(),
            pen_dwell: self.pen_dwell.snapshot(),
        }
    }
}

/// The host-side ports of one shard.
struct ShardPorts {
    ingress: Producer<IngressFrame>,
    egress: Consumer<HostOutput>,
    gate: Arc<CreditGate>,
    control: Producer<ShardCommand>,
    telemetry: Consumer<TelemetrySnapshot>,
    /// NF-state exports flowing back from the worker (replies to
    /// [`ShardCommand::ExportBucketState`]).
    exports: Consumer<BucketStateExport>,
    /// The shard's counters (shared with its threads), kept at hand so the
    /// injection paths bump them without taking the stats registry lock.
    stats: ShardStats,
    /// Per-shard stop flag: set when the shard is retired so its worker
    /// (and, transitively, its NF threads) wind down without touching the
    /// host-wide `running` flag.
    stop: Arc<AtomicBool>,
    /// Trace spans emitted by the shard's worker (lossy; drained by
    /// [`ThreadedHost::poll_traces`]).
    traces: Consumer<TraceSpan>,
    /// The shard's latency histograms (shared with its threads; the host
    /// records pen dwell here and merges reports on demand).
    latency: Arc<ShardLatency>,
    /// The messages the shard's NFs sent, as its worker applied them
    /// (drained by [`ThreadedHost::take_nf_messages`]).
    outbox: Consumer<NfManagerMessage>,
    /// Tombstone: `true` once the slot's shard has been fully retired (its
    /// worker joined, its buckets re-homed away). A tombstoned slot keeps
    /// its index — steering entries and stats stay valid — until either a
    /// later [`ThreadedHost::spawn_shard`] reuses it or it becomes the
    /// trailing slot and is reaped.
    retired: Cell<bool>,
    /// Each replica's service, once the replica changes pushed so far apply.
    replicas: RefCell<Vec<ServiceId>>,
    /// A replica change waiting for its re-picked buckets to drain.
    replica_change: RefCell<Option<ShardCommand>>,
}

impl ShardPorts {
    /// A replica change's service and its replica count before and after.
    fn replica_counts(&self, change: &ShardCommand) -> (ServiceId, usize, usize) {
        let (service, grow) = match change {
            ShardCommand::AddNf { service, .. } => (*service, 1),
            ShardCommand::RemoveNf { service } => (*service, -1),
            _ => unreachable!("not a replica change"),
        };
        let replicas = self.replicas.borrow();
        let count = replicas.iter().filter(|&&s| s == service).count();
        (service, count, count.saturating_add_signed(grow))
    }

    /// Pushes a replica change and counts it; a full ring hands it back.
    fn push_replica_change(&self, change: ShardCommand) -> Result<(), ShardCommand> {
        let (service, count, next) = self.replica_counts(&change);
        if let Err(PushError(change)) = self.control.push(change) {
            return Err(change);
        }
        let mut replicas = self.replicas.borrow_mut();
        match replicas.iter().position(|&s| s == service) {
            Some(at) if next < count => _ = replicas.swap_remove(at),
            _ => replicas.push(service),
        }
        Ok(())
    }
}

/// A handle to a running multi-threaded NF host.
///
/// The host handle is intended for a single management thread (it is not
/// `Sync`): that thread injects traffic, polls egress and telemetry, and
/// drives control — including the elastic shard lifecycle
/// ([`ThreadedHost::spawn_shard`] / [`ThreadedHost::retire_shard`]) and the
/// bucket re-home handshake, which advances opportunistically inside
/// injection and polling calls.
pub struct ThreadedHost {
    shards: RefCell<Vec<ShardPorts>>,
    stats: HostStats,
    tables: FlowTablePartitions,
    running: Arc<AtomicBool>,
    /// Worker handles, indexed like `shards`; `None` marks a tombstoned
    /// slot (its handle was joined at retirement).
    handles: RefCell<Vec<Option<TaskHandle>>>,
    clock: HostClock,
    /// How pipelines execute (threads vs simulation registry); retained so
    /// shards spawned mid-run join the same driver.
    runtime: PipelineRuntime,
    /// The (normalized) configuration, retained so shards spawned mid-run
    /// get identical pipelines.
    config: ThreadedHostConfig,
    /// Round-robin start shard for egress polling, so no shard starves.
    egress_cursor: Cell<usize>,
    /// Flow-steering bucket table (empty for single-shard hosts — which
    /// steer everything to shard 0 — and for shard counts ≥
    /// [`STEER_BUCKETS`], which fall back to plain modulo). Built lazily on
    /// the first [`ThreadedHost::spawn_shard`] of a single-shard host.
    steering: RefCell<Vec<usize>>,
    /// Per-bucket in-flight packet counts (shared with every shard worker):
    /// the drain condition of the re-home handshake.
    tracker: Arc<BucketTracker>,
    /// In-progress bucket moves and shard retirement.
    rehome: RefCell<RehomeState>,
    /// Completed shard lifecycle transitions awaiting
    /// [`ThreadedHost::take_shard_events`].
    events: RefCell<Vec<ShardLifecycleEvent>>,
    /// Host-wide flow-trace sampling knob (one of every N flows by stable
    /// hash; 0 = off), shared with every shard worker.
    trace_sampling: Arc<AtomicU64>,
}

impl std::fmt::Debug for ThreadedHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedHost")
            .field("shards", &self.shards.borrow().len())
            .field("threads", &self.handles.borrow().iter().flatten().count())
            .field("rules", &self.tables.template().len())
            .finish()
    }
}

impl ThreadedHost {
    /// Starts a **single-shard** host with one set of NF instances.
    ///
    /// `table` holds the (already configured) flow rules; `nfs` lists the NF
    /// instances to run, one thread each, keyed by the service they provide.
    ///
    /// # Panics
    ///
    /// Panics if `config.num_shards > 1`: every shard needs its own NF
    /// instances, so multi-shard hosts are started with
    /// [`ThreadedHost::start_sharded`] and a per-shard NF factory.
    pub fn start(
        table: SharedFlowTable,
        nfs: Vec<(ServiceId, Box<dyn NetworkFunction>)>,
        config: ThreadedHostConfig,
    ) -> Self {
        assert!(
            config.num_shards <= 1,
            "ThreadedHost::start wires one NF set (one shard); \
             use ThreadedHost::start_sharded with a per-shard NF factory"
        );
        let mut nfs = Some(nfs);
        ThreadedHost::start_sharded(
            table,
            move |_shard| nfs.take().expect("start spawns exactly one shard"),
            config,
        )
    }

    /// Starts a sharded host: `nfs_for_shard(shard)` is called once per
    /// shard (0 .. `config.num_shards`) and must return that shard's own NF
    /// instances — flow-hash steering guarantees each instance only ever
    /// sees its shard's flows.
    pub fn start_sharded<F>(
        table: SharedFlowTable,
        nfs_for_shard: F,
        config: ThreadedHostConfig,
    ) -> Self
    where
        F: FnMut(usize) -> Vec<(ServiceId, Box<dyn NetworkFunction>)>,
    {
        ThreadedHost::start_with_runtime(
            table,
            nfs_for_shard,
            config,
            HostClock::real(),
            PipelineRuntime::Threads,
        )
    }

    /// The shared constructor behind [`ThreadedHost::start_sharded`]
    /// (threads, real clock) and [`crate::sim`]'s simulation entry point
    /// (step-actors, virtual clock) — one body, so the code under
    /// simulation is the code that ships.
    pub(crate) fn start_with_runtime<F>(
        table: SharedFlowTable,
        mut nfs_for_shard: F,
        config: ThreadedHostConfig,
        clock: HostClock,
        runtime: PipelineRuntime,
    ) -> Self
    where
        F: FnMut(usize) -> Vec<(ServiceId, Box<dyn NetworkFunction>)>,
    {
        let mut config = config;
        let num_shards = config.num_shards.max(1);
        config.num_shards = num_shards;
        config.burst_size = config.burst_size.max(1);
        config.nf_ring_capacity = config.nf_ring_capacity.max(1);
        config.ingress_capacity = config.ingress_capacity.max(1);
        config.egress_capacity = config.egress_capacity.max(1);
        config.trace_ring_capacity = config.trace_ring_capacity.max(1);
        // Clamping the credit budget to the smallest internal ring makes
        // in-pipeline overflow impossible: a shard never holds more packets
        // in flight than any one ring could absorb.
        config.shard_credits = config
            .shard_credits
            .max(1)
            .min(config.nf_ring_capacity)
            .min(config.ingress_capacity);

        let stats = HostStats::with_shards(num_shards);
        let running = Arc::new(AtomicBool::new(true));
        let tables = FlowTablePartitions::new(&table, num_shards);
        let tracker = Arc::new(BucketTracker::new(STEER_BUCKETS));
        let trace_sampling = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        let mut shards = Vec::with_capacity(num_shards);

        for shard in 0..num_shards {
            let (ports, handle) = launch_pipeline(
                shard,
                nfs_for_shard(shard),
                tables.shard(shard),
                tables.mutation_log(shard),
                stats.shard(shard),
                &running,
                &tracker,
                clock.clone(),
                &config,
                &runtime,
                &trace_sampling,
            );
            handles.push(Some(handle));
            shards.push(ports);
        }

        let steering = if num_shards > 1 && num_shards < STEER_BUCKETS {
            (0..STEER_BUCKETS).map(|b| b % num_shards).collect()
        } else {
            Vec::new()
        };

        ThreadedHost {
            shards: RefCell::new(shards),
            stats,
            tables,
            running,
            handles: RefCell::new(handles),
            clock,
            runtime,
            config,
            egress_cursor: Cell::new(0),
            steering: RefCell::new(steering),
            tracker,
            rehome: RefCell::new(RehomeState::default()),
            events: RefCell::new(Vec::new()),
            trace_sampling,
        }
    }

    /// Number of pipeline shard **slots**, tombstones included (a retiring
    /// shard counts until its teardown completes; a middle-slot tombstone
    /// counts until the slot is reused or reaped). Use
    /// [`ThreadedHost::num_live_shards`] for the number of shards actually
    /// serving traffic.
    pub fn num_shards(&self) -> usize {
        self.shards.borrow().len()
    }

    /// Number of shards currently serving traffic (slots minus tombstones).
    pub fn num_live_shards(&self) -> usize {
        self.shards
            .borrow()
            .iter()
            .filter(|p| !p.retired.get())
            .count()
    }

    /// Whether slot `shard` currently holds a live (non-tombstoned) shard.
    /// Out-of-range slots are not live.
    pub fn is_live_shard(&self, shard: usize) -> bool {
        self.shards
            .borrow()
            .get(shard)
            .is_some_and(|p| !p.retired.get())
    }

    /// The lowest-index live shard — where keyless packets (which cannot be
    /// flow-steered) are injected.
    fn first_live_shard(&self) -> usize {
        self.shards
            .borrow()
            .iter()
            .position(|p| !p.retired.get())
            .unwrap_or(0)
    }

    /// The effective per-shard credit budget a shard starts with.
    pub fn credit_capacity(&self) -> usize {
        self.config.shard_credits
    }

    /// Credits currently available on `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn available_credits(&self, shard: usize) -> usize {
        self.shards.borrow()[shard].gate.available()
    }

    /// The current credit budget of `shard` (it may differ from
    /// [`ThreadedHost::credit_capacity`] after a
    /// [`resize_credits`](ThreadedHost::resize_credits)).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn credit_budget(&self, shard: usize) -> usize {
        self.shards.borrow()[shard].gate.capacity()
    }

    /// The shard a flow hash steers to under the current bucket table.
    fn steer_hash(&self, hash: u64) -> usize {
        let num_shards = self.shards.borrow().len();
        if num_shards <= 1 {
            return 0;
        }
        let steering = self.steering.borrow();
        if steering.is_empty() {
            return (hash % num_shards as u64) as usize;
        }
        steering[(hash % steering.len() as u64) as usize]
    }

    /// The shard a packet would be steered to.
    pub fn shard_of(&self, packet: &Packet) -> usize {
        packet
            .flow_key()
            .map(|key| self.steer_hash(key.stable_hash()))
            .unwrap_or(0)
    }

    /// Injects a packet into the host, stamping its receive timestamp, and
    /// reports the admission outcome. A rejected packet is handed back
    /// inside [`InjectResult::Throttled`] for retry.
    ///
    /// Packets of a steering bucket that is mid-re-home are parked in the
    /// bucket's pen (still [`InjectResult::Admitted`] — they are released
    /// into the bucket's new shard once the move completes); a full pen, or
    /// a bucket a replica scale re-picks, surfaces as ordinary backpressure.
    pub fn inject(&self, mut packet: Packet) -> InjectResult {
        self.advance_rehoming();
        packet.timestamp_ns = self.now_ns();
        let key = packet.flow_key();
        let hash = key.as_ref().map_or(0, FlowKey::stable_hash);
        let (shard, tracked) = match &key {
            Some(k) => {
                let bucket = self.tracker.bucket_of_hash(hash);
                if self.tracker.is_parked(bucket) {
                    return self.park(bucket, packet, *k);
                }
                (self.steer_hash(hash), Some(bucket))
            }
            None => (self.first_live_shard(), None),
        };
        let shards = self.shards.borrow();
        let ports = &shards[shard];
        if !ports.gate.try_acquire(1) {
            ports.stats.add_throttled(1);
            return InjectResult::Throttled(packet);
        }
        // Counted before the push: once pushed, a worker may finish it.
        if let Some(bucket) = tracked {
            self.tracker.admit(bucket);
        }
        match ports.ingress.push(IngressFrame { packet, key, hash }) {
            Ok(()) => InjectResult::Admitted,
            Err(PushError(frame)) => {
                if let Some(bucket) = tracked {
                    self.tracker.unadmit(bucket);
                }
                ports.gate.release(1);
                ports.stats.add_throttled(1);
                InjectResult::Throttled(frame.packet)
            }
        }
    }

    /// Injects a burst of packets — grouped per shard, one credit grant and
    /// one ring operation per shard — stamping their receive timestamps.
    /// Each shard admits a prefix of its packets (as many as its credits
    /// and ring allow) and throttles the rest, so a flow's packets are
    /// never admitted out of order. The returned [`BurstInjection`] hands
    /// every throttled packet back for retry. Packets of mid-re-home
    /// buckets are parked exactly as in [`ThreadedHost::inject`] (parked
    /// packets count as admitted).
    pub fn inject_burst(&self, packets: Vec<Packet>) -> BurstInjection {
        self.advance_rehoming();
        let now = self.now_ns();
        let mut result = BurstInjection::default();
        let rehoming = !self.rehome.borrow().moves.is_empty();
        let num_shards = self.shards.borrow().len();
        if num_shards == 1 && !rehoming {
            // Single shard with no bucket mid-move (a single-shard host can
            // still hand a bucket to another host): frame the admitted prefix in one pass and push it
            // directly, skipping the per-shard grouping. Throttled packets
            // are not parsed.
            let granted = self.shards.borrow()[0].gate.acquire_up_to(packets.len());
            let mut frames: Vec<IngressFrame> = Vec::with_capacity(granted);
            let mut packets = packets.into_iter();
            for mut packet in packets.by_ref().take(granted) {
                packet.timestamp_ns = now;
                let key = packet.flow_key();
                let hash = key.as_ref().map_or(0, FlowKey::stable_hash);
                frames.push(IngressFrame { packet, key, hash });
            }
            let denied = packets.map(|mut packet| {
                packet.timestamp_ns = now;
                packet
            });
            self.push_shard_frames(0, frames, denied, &mut result);
            return result;
        }
        let keyless_shard = self.first_live_shard();
        let mut staged: Vec<Vec<IngressFrame>> = (0..num_shards).map(|_| Vec::new()).collect();
        for mut packet in packets {
            packet.timestamp_ns = now;
            let key = packet.flow_key();
            let hash = key.as_ref().map_or(0, FlowKey::stable_hash);
            let shard = match &key {
                Some(k) => {
                    if rehoming {
                        let bucket = self.tracker.bucket_of_hash(hash);
                        if self.tracker.is_parked(bucket) {
                            match self.park(bucket, packet, *k) {
                                InjectResult::Admitted => result.admitted += 1,
                                InjectResult::Throttled(p) => result.throttled.push(p),
                            }
                            continue;
                        }
                    }
                    self.steer_hash(hash)
                }
                None => keyless_shard,
            };
            staged[shard].push(IngressFrame { packet, key, hash });
        }
        for (shard, mut frames) in staged.into_iter().enumerate() {
            if frames.is_empty() {
                continue;
            }
            let granted = self.shards.borrow()[shard].gate.acquire_up_to(frames.len());
            let denied = frames.split_off(granted);
            let denied = denied.into_iter().map(|frame| frame.packet);
            self.push_shard_frames(shard, frames, denied, &mut result);
        }
        result
    }

    /// Pushes a shard's framed (credit-holding) packets with one ring
    /// operation, folding the outcome into `result`: leftovers that did not
    /// fit the ring are throttled back (their credits and bucket counts
    /// returned), followed by `denied`, the shard's packets after them that
    /// the credit gate granted nothing for.
    fn push_shard_frames(
        &self,
        shard: usize,
        mut frames: Vec<IngressFrame>,
        denied: impl ExactSizeIterator<Item = Packet>,
        result: &mut BurstInjection,
    ) {
        let shards = self.shards.borrow();
        let ports = &shards[shard];
        // Counted before the push that makes them visible to the worker,
        // and taken back for the leftovers the ring rejected (only this
        // thread writes the admitted counts).
        for frame in &frames {
            if frame.key.is_some() {
                self.tracker.admit(self.tracker.bucket_of_hash(frame.hash));
            }
        }
        result.admitted += ports.ingress.push_n(&mut frames);
        let throttled = frames.len() + denied.len();
        if throttled == 0 {
            return;
        }
        for frame in &frames {
            if frame.key.is_some() {
                self.tracker
                    .unadmit(self.tracker.bucket_of_hash(frame.hash));
            }
        }
        ports.gate.release(frames.len());
        ports.stats.add_throttled(throttled as u64);
        result
            .throttled
            .extend(frames.into_iter().map(|f| f.packet).chain(denied));
    }

    /// Nanoseconds since the host started (the clock used for packet
    /// timestamps). Under simulation this is the virtual clock's current
    /// instant.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Retrieves one transmitted packet, if any, polling shards round-robin.
    pub fn poll_egress(&self) -> Option<HostOutput> {
        self.advance_rehoming();
        let shards = self.shards.borrow();
        let n = shards.len();
        let start = self.egress_cursor.get();
        for offset in 0..n {
            let shard = (start + offset) % n;
            if let Some(out) = shards[shard].egress.pop() {
                self.egress_cursor.set((shard + 1) % n);
                return Some(out);
            }
        }
        None
    }

    /// Retrieves up to `max` transmitted packets, draining shards
    /// round-robin with one ring operation each.
    pub fn poll_egress_burst(&self, max: usize) -> Vec<HostOutput> {
        self.advance_rehoming();
        let mut out = Vec::new();
        let shards = self.shards.borrow();
        let n = shards.len();
        let start = self.egress_cursor.get();
        for offset in 0..n {
            if out.len() >= max {
                break;
            }
            let shard = (start + offset) % n;
            let room = max - out.len();
            shards[shard].egress.pop_n(&mut out, room);
        }
        self.egress_cursor.set((start + 1) % n);
        out
    }

    /// Host statistics (merged snapshot via [`HostStats::snapshot`],
    /// per-shard via [`HostStats::shard_snapshot`]).
    pub fn stats(&self) -> &HostStats {
        &self.stats
    }

    /// The host's **template** flow table — the control-plane view. For a
    /// single-shard host this is the live table; multi-shard hosts serve
    /// packets from per-shard partitions (see
    /// [`ThreadedHost::shard_table`]), and mid-run rule installs must go
    /// through [`ThreadedHost::install_rule`] to reach them.
    pub fn flow_table(&self) -> &SharedFlowTable {
        self.tables.template()
    }

    /// The flow-table partition serving `shard` (on a host started with a
    /// single shard, shard 0's partition is the template itself).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_table(&self, shard: usize) -> SharedFlowTable {
        self.tables.shard(shard)
    }

    /// Installs a rule at the template layer and broadcasts it to every
    /// shard partition (the control-plane write path). Returns the rule's
    /// template id.
    pub fn install_rule(&self, rule: FlowRule) -> RuleId {
        self.tables.install(rule)
    }

    /// Drains every shard's telemetry ring, returning the published
    /// [`TelemetrySnapshot`]s in shard order (oldest first within a shard).
    /// Feed them to a
    /// [`TelemetryHub`](sdnfv_telemetry::TelemetryHub) to keep a merged
    /// latest-per-shard view.
    pub fn poll_telemetry(&self) -> Vec<TelemetrySnapshot> {
        self.advance_rehoming();
        let mut out = Vec::new();
        for ports in self.shards.borrow().iter() {
            while let Some(snapshot) = ports.telemetry.pop() {
                out.push(snapshot);
            }
        }
        // The re-home pens live on the host side (the injection path), so
        // their gauges are stamped here rather than by the shard workers:
        // each snapshot reports the pens destined for its shard, making a
        // pathological flood onto a mid-move bucket visible instead of
        // silent backpressure.
        if !out.is_empty() {
            let now_ns = self.now_ns();
            let state = self.rehome.borrow();
            for snapshot in &mut out {
                let (depth, oldest) = state.pen_gauges_for_shard(snapshot.shard);
                snapshot.rehome_pen_depth = depth;
                snapshot.rehome_pen_max_age_ns =
                    oldest.map_or(0, |arrived| now_ns.saturating_sub(arrived));
            }
        }
        out
    }

    /// Drains the ages (nanoseconds parked) of packets released from
    /// re-home pens since the last call — the percentile feed of the
    /// `shard_rehome` bench artifact. Samples are capped at
    /// [`crate::rehome::PEN_AGE_SAMPLE_CAP`] between drains.
    pub fn take_rehome_pen_ages_ns(&self) -> Vec<u64> {
        self.rehome.borrow_mut().take_pen_ages_ns()
    }

    /// Sets the flow-trace sampling rate: one in `every` flows (by stable
    /// flow hash) is traced end to end; `0` disables hash sampling. Flows
    /// pinned by a rule carrying [`Action::Trace`] are traced regardless.
    /// Takes effect on the next RX burst of every shard.
    pub fn set_trace_sampling(&self, every: u64) {
        self.trace_sampling.store(every, Ordering::Relaxed);
    }

    /// The current flow-trace sampling rate (`0` = hash sampling off).
    pub fn trace_sampling(&self) -> u64 {
        self.trace_sampling.load(Ordering::Relaxed)
    }

    /// Drains every shard's trace ring (in shard order) and returns the
    /// collected spans. The rings are lossy: spans that did not fit are
    /// counted in the `spans_dropped` statistic rather than blocking the
    /// packet path.
    pub fn poll_traces(&self) -> Vec<TraceSpan> {
        let mut out = Vec::new();
        for ports in self.shards.borrow().iter() {
            while let Some(span) = ports.traces.pop() {
                out.push(span);
            }
        }
        out
    }

    /// Merged latency histograms across every shard (live and retired):
    /// end-to-end plus the per-stage breakdown. Snapshotting is lock-free
    /// and sound while the workers keep recording.
    pub fn latency_report(&self) -> LatencyReport {
        let mut merged = LatencyReport::default();
        for ports in self.shards.borrow().iter() {
            merged.merge(&ports.latency.report());
        }
        merged
    }

    /// Drains the bucket re-home steps ([`RehomeEvent`]) journaled since
    /// the last call, oldest first — the feed a control-plane flight
    /// recorder replays to reconstruct when each bucket left its old shard
    /// and resumed on the new one.
    pub fn take_rehome_events(&self) -> Vec<RehomeEvent> {
        self.advance_rehoming();
        self.rehome.borrow_mut().take_events()
    }

    /// Drains the shard lifecycle transitions ([`ShardLifecycleEvent`])
    /// that completed since the last call — the feed telemetry consumers
    /// use to grow or prune their per-shard state.
    pub fn take_shard_events(&self) -> Vec<ShardLifecycleEvent> {
        self.advance_rehoming();
        std::mem::take(&mut *self.events.borrow_mut())
    }

    /// Drains the cross-layer messages NFs sent since the last call, in
    /// shard order (oldest first within a shard), each attributed to its
    /// sending service — the feed of the SDNFV Application. Every message
    /// was already applied to its shard's flow table; a shard keeps at most
    /// `NF_OUTBOX_CAPACITY` (1024) undrained messages and counts the rest
    /// in `nf_messages_dropped`.
    pub fn take_nf_messages(&self) -> Vec<NfManagerMessage> {
        let mut out = Vec::new();
        for ports in self.shards.borrow().iter() {
            ports.outbox.pop_n(&mut out, NF_OUTBOX_CAPACITY);
        }
        out
    }

    /// Asks `shard`'s worker to spawn one more replica of `service` running
    /// `nf`, after the drain: the shard's buckets the new replica takes over
    /// park, and their NF flow state moves to it. Refused — the NF handed
    /// back in `Err`, so the caller can retry without re-instantiating it —
    /// for a tombstoned shard, on a host that steers by plain modulo, while
    /// a bucket move, handout or replica scale involves the shard, or while
    /// its control ring is full.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn add_nf_replica(
        &self,
        shard: usize,
        service: ServiceId,
        nf: Box<dyn NetworkFunction>,
    ) -> Result<(), Box<dyn NetworkFunction>> {
        self.scale_replicas(shard, ShardCommand::AddNf { service, nf })
            .map_err(|command| match command {
                ShardCommand::AddNf { nf, .. } => nf,
                _ => unreachable!("the refused command is the one we built"),
            })
    }

    /// Asks `shard`'s worker to retire the newest replica of `service`,
    /// after the drain: that replica's buckets park, their NF flow state
    /// moves to the survivors, and the replica then drains its queue and
    /// exits — no packet or flow state is lost. Returns `false` — refused —
    /// for the last replica of a service, and wherever
    /// [`ThreadedHost::add_nf_replica`] refuses.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn remove_nf_replica(&self, shard: usize, service: ServiceId) -> bool {
        self.scale_replicas(shard, ShardCommand::RemoveNf { service })
            .is_ok()
    }

    /// Asks `shard`'s worker to re-budget its credit gate to `credits`
    /// (clamped to the internal ring capacities). Returns `false` for a
    /// retired shard or if the control ring is full.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn resize_credits(&self, shard: usize, credits: usize) -> bool {
        let shards = self.shards.borrow();
        if shards[shard].retired.get() {
            return false;
        }
        shards[shard]
            .control
            .push(ShardCommand::ResizeCredits { credits })
            .is_ok()
    }

    /// Spawns a complete new pipeline shard — worker thread, the given NF
    /// replica set, ingress/egress/control/telemetry rings, a credit gate
    /// and a flow-table partition forked from the template — while traffic
    /// flows, then re-homes a fair (uniform) share of steering buckets onto
    /// it through the state-safe drain handshake. Returns the new shard's
    /// index.
    ///
    /// Fails (handing the NF set back) while a shard retirement or a
    /// replica scale is in progress, or if the host steers by plain modulo
    /// (≥ [`STEER_BUCKETS`] shards), where bucket re-homing is unavailable.
    #[allow(clippy::type_complexity)]
    pub fn spawn_shard(
        &self,
        nfs: Vec<(ServiceId, Box<dyn NetworkFunction>)>,
    ) -> Result<usize, Vec<(ServiceId, Box<dyn NetworkFunction>)>> {
        self.advance_rehoming();
        if self.rehome.borrow().retiring_or_scaling() {
            return Err(nfs);
        }
        // Reuse the lowest tombstoned slot left by a middle-shard
        // retirement, if any (its flow-table partition is re-forked from
        // the template; the slot's cumulative stats counters carry over);
        // otherwise append a new slot.
        let reused = self
            .shards
            .borrow()
            .iter()
            .position(|ports| ports.retired.get());
        let shard = match reused {
            Some(slot) => slot,
            None => self.shards.borrow().len(),
        };
        if reused.is_none() && shard + 1 >= STEER_BUCKETS {
            return Err(nfs);
        }
        {
            // A host started single-shard has no steering table yet; build
            // the identity assignment (everything on shard 0) so the
            // rebalance below can carve out the new shard's share.
            let mut steering = self.steering.borrow_mut();
            if steering.is_empty() {
                debug_assert_eq!(shard, 1, "only single-shard hosts lack a table");
                *steering = vec![0; STEER_BUCKETS];
            }
        }
        match reused {
            Some(slot) => self.tables.reset_partition(slot),
            None => {
                let partition = self.tables.add_partition();
                debug_assert_eq!(partition, shard, "partitions track shards");
            }
        }
        let (ports, handle) = launch_pipeline(
            shard,
            nfs,
            self.tables.shard(shard),
            self.tables.mutation_log(shard),
            self.stats.ensure_shard(shard),
            &self.running,
            &self.tracker,
            self.clock.clone(),
            &self.config,
            &self.runtime,
            &self.trace_sampling,
        );
        match reused {
            Some(slot) => {
                self.shards.borrow_mut()[slot] = ports;
                self.handles.borrow_mut()[slot] = Some(handle);
            }
            None => {
                self.shards.borrow_mut().push(ports);
                self.handles.borrow_mut().push(Some(handle));
            }
        }
        self.events.borrow_mut().push(ShardLifecycleEvent::Spawned {
            shard,
            at_ns: self.clock.now_ns(),
        });
        // Give every live shard (including the new one) a uniform bucket
        // share; tombstoned slots get none.
        let weights: Vec<u32> = {
            let shards = self.shards.borrow();
            shards.iter().map(|p| u32::from(!p.retired.get())).collect()
        };
        let buckets = self.steering.borrow().len();
        if let Some(target) = apportion_targets(&weights, buckets) {
            self.rebalance_to_targets(&target);
        }
        self.advance_rehoming();
        Ok(shard)
    }

    /// Begins retiring the highest-index **live** shard: every steering
    /// bucket it owns is re-homed onto the remaining shards through the
    /// drain handshake (shard-local exact-flow rules travel along), then
    /// the shard's worker and NF threads are stopped and joined and its
    /// rings reclaimed. The retirement completes asynchronously over
    /// subsequent injection/polling calls; [`ThreadedHost::num_shards`]
    /// drops and a [`ShardLifecycleEvent::Retired`] is published when it
    /// does. Equivalent to [`ThreadedHost::retire_shard_at`] on that shard.
    ///
    /// Returns `false` for single-shard hosts, while another retirement, a
    /// replica scale or a move involving the shard is in progress, or on
    /// hosts that steer by plain modulo.
    pub fn retire_shard(&self) -> bool {
        let highest_live = self.shards.borrow().iter().rposition(|p| !p.retired.get());
        match highest_live {
            Some(shard) => self.retire_shard_at(shard),
            None => false,
        }
    }

    /// Begins retiring **any** live shard, not just the highest-index one:
    /// every steering bucket it owns is re-homed onto the remaining live
    /// shards through the drain handshake, then its worker and NF threads
    /// are stopped and joined. A retired middle slot becomes a tombstone —
    /// it keeps its index so steering entries, per-slot stats and telemetry
    /// attribution stay valid — and is reused by the next
    /// [`ThreadedHost::spawn_shard`] (or reaped once it becomes the
    /// trailing slot). The retirement completes asynchronously over
    /// subsequent injection/polling calls;
    /// [`ThreadedHost::num_live_shards`] drops and a
    /// [`ShardLifecycleEvent::Retired`] is published when it does.
    ///
    /// Returns `false` if `shard` is out of range or already tombstoned, if
    /// it is the only live shard, while another retirement, a replica
    /// scale or a move involving the shard is in progress, or on hosts that
    /// steer by plain modulo.
    pub fn retire_shard_at(&self, shard: usize) -> bool {
        self.advance_rehoming();
        if !self.is_live_shard(shard) || self.num_live_shards() <= 1 {
            return false;
        }
        if self.steering.borrow().is_empty() {
            return false;
        }
        {
            let state = self.rehome.borrow();
            if state.retiring_or_scaling() || state.shard_has_moves(shard) {
                return false;
            }
        }
        // Spread the retiring shard's buckets uniformly over the surviving
        // live shards; tombstoned slots get none.
        let weights: Vec<u32> = {
            let shards = self.shards.borrow();
            shards
                .iter()
                .enumerate()
                .map(|(s, p)| u32::from(s != shard && !p.retired.get()))
                .collect()
        };
        let buckets = self.steering.borrow().len();
        let Some(target) = apportion_targets(&weights, buckets) else {
            return false;
        };
        self.rebalance_to_targets(&target);
        self.rehome.borrow_mut().retiring = Some(RetiringShard {
            shard,
            stop_sent: false,
        });
        self.advance_rehoming();
        true
    }

    /// The shard that owns `bucket` under the current steering table
    /// (shard 0 on hosts without a table: single shard, or plain-modulo
    /// steering).
    pub fn shard_of_bucket(&self, bucket: usize) -> usize {
        let steering = self.steering.borrow();
        if steering.is_empty() {
            0
        } else {
            steering[bucket % steering.len()]
        }
    }

    /// Raises the floor of this host's wildcard-mutation sequence counter.
    /// A federation assigns each host a disjoint sequence range (host index
    /// in the high bits) so that mutation records carried across hosts by
    /// bucket handouts never collide, and local mutations made *after* an
    /// adoption always supersede the carried ones.
    pub fn raise_mutation_seq_floor(&self, floor: u64) {
        self.tables.raise_seq_floor(floor);
    }

    /// Whether a shard retirement is still in progress.
    pub fn is_retiring(&self) -> bool {
        self.rehome.borrow().retiring.is_some()
    }

    /// Number of steering buckets currently mid-move (cross-shard moves,
    /// replica scales and outbound cross-host handouts).
    pub fn pending_rehomes(&self) -> usize {
        self.rehome.borrow().moves.len()
    }

    /// Cumulative re-home activity (buckets and rules moved, packets
    /// penned) — the observability hook the `shard_rehome` bench asserts
    /// on.
    pub fn rehome_report(&self) -> RehomeReport {
        self.rehome.borrow().report
    }

    /// The current bucket → shard steering assignment (empty when the host
    /// steers by plain modulo: single shard, or ≥ [`STEER_BUCKETS`]
    /// shards).
    pub fn steering_table(&self) -> Vec<usize> {
        self.steering.borrow().clone()
    }

    /// Stops all threads and waits for them to exit.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for ThreadedHost {
    fn drop(&mut self) {
        self.running.store(false, Ordering::Release);
        for handle in self.handles.borrow_mut().drain(..).flatten() {
            handle.join();
        }
    }
}

/// The host's own telemetry feed — the pristine [`TelemetrySource`] the
/// elastic control loop observes in production. The deterministic
/// simulation harness wraps this same host in a fault-injecting source
/// instead; the control loop cannot tell the difference.
impl TelemetrySource for &ThreadedHost {
    fn take_shard_events(&mut self) -> Vec<ShardLifecycleEvent> {
        ThreadedHost::take_shard_events(self)
    }

    fn poll_snapshots(&mut self) -> Vec<TelemetrySnapshot> {
        self.poll_telemetry()
    }
}

/// Builds and starts one shard's full pipeline: its rings, credit gate and
/// worker thread (which spawns the shard's NF threads). Shared by
/// `start_sharded` and mid-run [`ThreadedHost::spawn_shard`].
#[allow(clippy::too_many_arguments)]
fn launch_pipeline(
    shard: usize,
    initial_nfs: Vec<(ServiceId, Box<dyn NetworkFunction>)>,
    table: SharedFlowTable,
    mutation_log: Arc<MutationLog>,
    stats: ShardStats,
    running: &Arc<AtomicBool>,
    tracker: &Arc<BucketTracker>,
    clock: HostClock,
    config: &ThreadedHostConfig,
    runtime: &PipelineRuntime,
    trace_sampling: &Arc<AtomicU64>,
) -> (ShardPorts, TaskHandle) {
    let gate = Arc::new(CreditGate::new(config.shard_credits));
    let stop = Arc::new(AtomicBool::new(false));
    let latency = Arc::new(ShardLatency::default());

    let (ingress_tx, ingress_rx) = spsc_ring::<IngressFrame>(config.ingress_capacity);
    let (egress_tx, egress_rx) = spsc_ring::<HostOutput>(config.egress_capacity);
    let (control_tx, control_rx) = spsc_ring::<ShardCommand>(CONTROL_RING_CAPACITY);
    let (telemetry_tx, telemetry_rx) = spsc_ring::<TelemetrySnapshot>(16);
    let (exports_tx, exports_rx) = spsc_ring::<BucketStateExport>(16);
    let (traces_tx, traces_rx) = spsc_ring::<TraceSpan>(config.trace_ring_capacity);
    let (outbox_tx, outbox_rx) = spsc_ring::<NfManagerMessage>(NF_OUTBOX_CAPACITY);

    let replicas = initial_nfs.iter().map(|(service, _)| *service).collect();
    let spawner: Box<dyn ReplicaSpawner> = match runtime {
        PipelineRuntime::Threads => Box::new(ThreadSpawner),
        PipelineRuntime::Sim(registry) => Box::new(crate::sim::SimSpawner::new(registry)),
    };
    let engine = ShardEngine {
        shard,
        initial_nfs,
        started: false,
        phase: EnginePhase::Running,
        slots: Vec::new(),
        service_instances: Vec::new(),
        egress: egress_tx,
        gate: Arc::clone(&gate),
        table,
        mutation_log,
        stats: stats.clone(),
        running: Arc::clone(running),
        stop: Arc::clone(&stop),
        tracker: Arc::clone(tracker),
        burst_size: config.burst_size,
        nf_ring_capacity: config.nf_ring_capacity,
        credit_clamp: config.nf_ring_capacity.min(config.ingress_capacity),
        clock,
        spawner,
        cache: LookupCache::new(LOOKUP_CACHE_ENTRIES),
        staging: BurstStaging::new(config.burst_size),
        free: FreeFrames::new(config.shard_credits),
        targets: Vec::new(),
        deferred: std::collections::VecDeque::new(),
        list_runs: Vec::new(),
        control: control_rx,
        telemetry: telemetry_tx,
        exports: exports_tx,
        export_backlog: std::collections::VecDeque::new(),
        pending_collects: Vec::new(),
        pending_imports: Vec::new(),
        state_token: 0,
        telemetry_interval_ns: config.telemetry_interval_ns,
        last_telemetry_ns: 0,
        telemetry_check: 0,
        telemetry_seq: 0,
        rule_sweep_interval_ns: config.rule_sweep_interval_ns,
        last_sweep_ns: 0,
        sweep_check: 0,
        approx_now_ns: 0,
        // Half the sweep period: a timed rule's cached decision survives at
        // most one sweep interval before the table is consulted again, so
        // idle timers keep refreshing under cache-hit traffic.
        cache_ttl_ns: config.rule_sweep_interval_ns / 2,
        pin_timeouts: PinTimeouts {
            idle_ns: config.pin_idle_timeout_ns,
            hard_ns: None,
        },
        applied_commands: 0,
        draining: 0,
        retired_slots: 0,
        latency: Arc::clone(&latency),
        outbox: outbox_tx,
        traces: traces_tx,
        trace_sampling: Arc::clone(trace_sampling),
    };
    let handle = match runtime {
        PipelineRuntime::Threads => {
            TaskHandle::Thread(std::thread::spawn(move || engine.run(ingress_rx)))
        }
        PipelineRuntime::Sim(registry) => {
            TaskHandle::Sim(crate::sim::register_worker(registry, engine, ingress_rx))
        }
    };

    (
        ShardPorts {
            ingress: ingress_tx,
            egress: egress_rx,
            gate,
            control: control_tx,
            telemetry: telemetry_rx,
            exports: exports_rx,
            stats,
            stop,
            traces: traces_rx,
            latency,
            outbox: outbox_rx,
            retired: Cell::new(false),
            replicas: RefCell::new(replicas),
            replica_change: RefCell::new(None),
        },
        handle,
    )
}

/// Lifecycle of one NF replica slot on a shard. Slot indices are stable
/// between lifecycle events; retired slots are reused by prompt scale-ups
/// and reclaimed (rings freed, indices compacted) once they have stayed
/// retired past [`SLOT_COMPACTION_GRACE_NS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Receiving and processing packets.
    Active,
    /// Scale-down in progress: no new packets are staged for the replica;
    /// its thread exits once the input ring is empty.
    Draining,
    /// Thread joined, rings empty; the slot may be reused or compacted.
    Retired,
}

/// How long a retired NF slot keeps its (empty) rings available for reuse
/// before the compaction pass reclaims them. A scale-up inside the grace
/// window reuses the slot; a host that scales down and stays down gets its
/// ring memory back. Measured on the host clock (virtual under simulation).
const SLOT_COMPACTION_GRACE_NS: u64 = 1_000_000;

/// One NF replica on a shard: its rings, its thread, and its telemetry
/// probe.
struct NfSlot {
    service: ServiceId,
    /// What the replica's NF declared at spawn: only read-only replicas
    /// may share a fan-out's packet.
    read_only: bool,
    ring: Producer<WorkItem>,
    done: Consumer<DoneItem>,
    /// The replica's cross-layer messages, applied by the worker, and its
    /// state responses, kept in `responses` until read.
    messages: Consumer<NfOut>,
    control: Producer<NfRequest>,
    /// State requests not yet on `control`. Bounded: an export or import
    /// is one exchange outstanding on the replica, and back-to-back scrubs
    /// merge, so it holds at most two entries per exchange, plus one.
    unsent: std::collections::VecDeque<NfRequest>,
    responses: Vec<(u64, StateResponse)>,
    /// How many completions `done` held when the worker last looked,
    /// before it applied the messages: what it routes next.
    noted: usize,
    probe: Arc<NfProbe>,
    stop: Arc<AtomicBool>,
    handle: Option<TaskHandle>,
    state: SlotState,
    /// When the slot entered [`SlotState::Retired`] (compaction timer),
    /// nanoseconds on the host clock.
    retired_at: Option<u64>,
}

impl NfSlot {
    /// Whether the replica's loop is over.
    fn exited(&self) -> bool {
        self.handle.as_ref().is_none_or(TaskHandle::is_finished)
    }

    /// Whether the replica has answered every request it ever will: it
    /// exited, and the worker has popped and read all it handed back.
    fn answered_all(&self) -> bool {
        self.exited() && self.messages.is_empty() && self.responses.is_empty()
    }

    /// Puts `request` on the control ring, or behind the requests still
    /// waiting for room there; back-to-back waiting scrubs merge.
    fn queue_request(&mut self, request: NfRequest) {
        let request = if self.unsent.is_empty() {
            match self.control.push(request) {
                Ok(()) => return,
                Err(PushError(request)) => request,
            }
        } else {
            request
        };
        match (self.unsent.back_mut(), request) {
            (Some(NfRequest::Scrub { keys: queued }), NfRequest::Scrub { keys }) => {
                queued.extend(keys);
            }
            (_, request) => self.unsent.push_back(request),
        }
    }

    /// Moves queued requests onto the control ring, oldest first, as far
    /// as there is room: a full ring neither blocks the worker nor drops
    /// or reorders a request. Returns whether any went.
    fn send_requests(&mut self) -> bool {
        let mut sent = false;
        while let Some(request) = self.unsent.pop_front() {
            if let Err(PushError(request)) = self.control.push(request) {
                self.unsent.push_front(request);
                break;
            }
            sent = true;
        }
        sent
    }

    /// Tells a draining replica to exit once its input ring is empty — but
    /// only once every request for it is on its control ring, which it
    /// serves before it exits.
    fn stop_when_sent(&self) {
        if self.unsent.is_empty() {
            self.stop.store(true, Ordering::Release);
        }
    }
}

/// The worker's egress staging: packets leaving the shard are collected
/// here and flushed to the egress ring with one batched push at burst end.
/// (Frames bound for an NF are staged straight into its ring instead.)
struct BurstStaging {
    egress: Vec<HostOutput>,
    /// Latency/trace metadata for each staged egress packet, index-aligned
    /// with `egress` (a batched `push_n` admits a prefix of `egress`; the
    /// same-length prefix of `egress_meta` describes exactly those
    /// packets).
    egress_meta: Vec<EgressMeta>,
}

/// Timing metadata of one staged egress packet, captured at staging time
/// because the [`HostOutput`] itself is moved into the egress ring before
/// the latency is known.
#[derive(Debug, Clone, Copy)]
struct EgressMeta {
    /// The packet's ingress admission stamp (end-to-end latency start).
    ingress_ns: u64,
    /// When the packet entered `staging.egress` (egress-wait start).
    staged_ns: u64,
    /// Whether the packet is trace-sampled (an egress span is emitted).
    traced: bool,
    /// Stable flow hash (span correlation).
    flow_hash: u64,
}

impl BurstStaging {
    fn new(burst_size: usize) -> Self {
        BurstStaging {
            egress: Vec::with_capacity(burst_size),
            egress_meta: Vec::with_capacity(burst_size),
        }
    }
}

/// Where a [`ShardEngine`] is in its lifecycle. The engine is a
/// step-callable state machine: the threaded runtime calls
/// [`ShardEngine::step`] in a spin loop, the deterministic simulator calls
/// it once per scheduled turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EnginePhase {
    /// Normal operation: dispatching, draining done rings, serving control.
    Running,
    /// Per-shard retirement: replicas told to drain-and-exit; the engine
    /// keeps serving done rings until the pipeline is empty.
    TearingDown,
    /// Terminal: nothing left to do; `step` is a no-op.
    Finished,
}

/// One shard's worker: the RX dispatch role and the TX egress role of the
/// shard's pipeline, driven by a single caller so every ring it touches
/// keeps a single producer and a single consumer. The worker also owns the
/// shard's NF replica set — it spawns the NF replicas (initially and on
/// scale-up), retires them on scale-down, and is the single consumer of the
/// shard's control ring and the single producer of its telemetry ring.
///
/// The engine is deliberately a *state machine*, not a loop: all protocol
/// work happens inside [`ShardEngine::step`], which both the threaded
/// runtime (via [`ShardEngine::run`]) and the deterministic simulation
/// harness (which interleaves `step` calls under a seeded schedule) drive.
/// The code under simulation is therefore the shipping code.
pub(crate) struct ShardEngine {
    shard: usize,
    /// The replica set `start_sharded` was configured with; spawned on the
    /// first [`ShardEngine::step`].
    initial_nfs: Vec<(ServiceId, Box<dyn NetworkFunction>)>,
    /// Whether the initial replica set has been spawned yet.
    started: bool,
    phase: EnginePhase,
    slots: Vec<NfSlot>,
    /// Active replica slots per service, in spawn order (one entry per
    /// service this shard has ever run).
    service_instances: Vec<(ServiceId, Vec<usize>)>,
    egress: Producer<HostOutput>,
    /// The shard's credit gate: one credit is released exactly once per
    /// admitted packet, when it reaches a terminal state.
    gate: Arc<CreditGate>,
    /// This shard's flow-table partition.
    table: SharedFlowTable,
    /// The partition's wildcard-mutation provenance log: the worker records
    /// the wildcard rewrites its NFs' messages make.
    mutation_log: Arc<MutationLog>,
    stats: ShardStats,
    running: Arc<AtomicBool>,
    /// Per-shard retirement signal (the shard is drained and being torn
    /// down; the host-wide `running` flag stays up).
    stop: Arc<AtomicBool>,
    /// Per-bucket in-flight counts: decremented at each packet's last
    /// possible flow-state touch (egress staging, drop, punt) — the drain
    /// condition of the bucket re-home handshake.
    tracker: Arc<BucketTracker>,
    burst_size: usize,
    nf_ring_capacity: usize,
    /// Upper bound for credit resizes: the smallest internal ring capacity.
    credit_clamp: usize,
    /// Host clock (real or virtual); the epoch for every timestamp the
    /// engine publishes or compares.
    clock: HostClock,
    /// How NF replicas are launched: OS threads in production, registered
    /// simulation actors under the deterministic harness.
    spawner: Box<dyn ReplicaSpawner>,
    cache: LookupCache,
    staging: BurstStaging,
    /// Emptied owned frames and descriptors awaiting reuse.
    free: FreeFrames,
    /// Reused scratch: the NF slot indices of the dispatch being staged.
    targets: Vec<usize>,
    /// Fan-out completions whose exit test failed — a straggler NF still
    /// held its handle — retried at the next step ahead of new completions.
    deferred: std::collections::VecDeque<DoneItem>,
    /// Parallel rules being walked in list order, one slot per packet on
    /// such a walk (`PacketMeta::list_run` names it); a freed slot is
    /// `None`.
    list_runs: Vec<Option<ListRun>>,
    control: Consumer<ShardCommand>,
    telemetry: Producer<TelemetrySnapshot>,
    /// Replies to [`ShardCommand::ExportBucketState`], drained by the host.
    exports: Producer<BucketStateExport>,
    /// Completed exports the export ring had no room for (retried).
    export_backlog: std::collections::VecDeque<BucketStateExport>,
    /// NF-state exports awaiting replica responses.
    pending_collects: Vec<PendingCollect>,
    /// NF-state imports awaiting replica acknowledgements.
    pending_imports: Vec<PendingImport>,
    /// The last token handed to a replica's export or import.
    state_token: u64,
    telemetry_interval_ns: u64,
    /// Host-clock instant of the last published snapshot.
    last_telemetry_ns: u64,
    /// Loop-iteration countdown between clock checks, so the idle spin
    /// path does not read the clock every iteration.
    telemetry_check: u32,
    telemetry_seq: u64,
    /// How often the worker sweeps the flow table for rules whose
    /// idle/hard timeout elapsed (0 disables the sweep).
    rule_sweep_interval_ns: u64,
    /// Host-clock instant of the last timeout sweep.
    last_sweep_ns: u64,
    /// Loop-iteration countdown between sweep clock checks (same pattern
    /// as `telemetry_check`).
    sweep_check: u32,
    /// Latest clock reading taken by the sweep path; the lookup cache's
    /// TTL checks use it so the hot path never reads the clock itself.
    approx_now_ns: u64,
    /// TTL for the lookup-cache entries of rules that carry a timeout,
    /// forcing periodic table fall-through so idle timers refresh under
    /// cached traffic (0 = no TTL).
    cache_ttl_ns: u64,
    /// Idle/hard timeouts stamped onto NF-requested exact-pin rules.
    pin_timeouts: PinTimeouts,
    applied_commands: u64,
    /// Number of slots currently in [`SlotState::Draining`].
    draining: usize,
    /// Number of slots currently in [`SlotState::Retired`] (compaction
    /// candidates).
    retired_slots: usize,
    /// The shard's latency histograms (shared with its NF threads and the
    /// host).
    latency: Arc<ShardLatency>,
    /// Where the worker keeps the NF messages it applied, for the control
    /// plane.
    outbox: Producer<NfManagerMessage>,
    /// Producer side of the shard's lossy trace-span ring. The worker is
    /// the ring's **only** producer — NF threads report their burst windows
    /// through [`DoneItem`] instead of pushing spans themselves.
    traces: Producer<TraceSpan>,
    /// Host-wide sampling knob (one of every N flows by stable hash).
    trace_sampling: Arc<AtomicU64>,
}

impl ShardEngine {
    /// Threaded driver: spins [`ShardEngine::step`] until the engine
    /// reaches [`EnginePhase::Finished`], then collects the NF threads so
    /// none outlives the shard.
    fn run(mut self, ingress: Consumer<IngressFrame>) {
        let mut idle: u32 = 0;
        while self.phase != EnginePhase::Finished {
            if self.step(&ingress) {
                idle = 0;
            } else {
                idle_backoff(&mut idle);
            }
        }
        for slot in &mut self.slots {
            if let Some(handle) = slot.handle.take() {
                handle.join();
            }
        }
    }

    /// One turn of the shard worker's state machine. Returns whether any
    /// work was done (the threaded driver uses this for idle backoff; the
    /// simulator for quiescence detection).
    ///
    /// Never blocks: a full egress ring leaves staged packets parked in
    /// `staging.egress` to be retried next step (bounded by the credit
    /// clamp), instead of spinning in place as the old thread loop did.
    pub(crate) fn step(&mut self, ingress: &Consumer<IngressFrame>) -> bool {
        if !self.started {
            self.started = true;
            for (service, nf) in std::mem::take(&mut self.initial_nfs) {
                self.spawn_nf(service, nf);
            }
        }
        match self.phase {
            EnginePhase::Finished => false,
            EnginePhase::Running => {
                if !self.running.load(Ordering::Acquire) {
                    // Host shutdown: account whatever is still staged.
                    self.abort_staged_egress();
                    self.phase = EnginePhase::Finished;
                    return true;
                }
                if self.stop.load(Ordering::Acquire) {
                    // Per-shard retirement (not host shutdown): the shard's
                    // buckets have been re-homed and drained, so wind the
                    // replicas down gracefully — every remaining completion
                    // is processed and no packet or credit is lost.
                    for slot in &self.slots {
                        if slot.state != SlotState::Retired {
                            slot.stop.store(true, Ordering::Release);
                        }
                    }
                    self.phase = EnginePhase::TearingDown;
                    return true;
                }
                let mut did_work = self.flush_staged_egress();
                while let Some(command) = self.control.pop() {
                    did_work = true;
                    self.apply_command(command);
                }
                did_work |= self.rx_round(ingress);
                did_work |= self.drain_done_rings();
                if self.draining > 0 {
                    self.retire_drained();
                }
                if self.retired_slots > 0 {
                    self.compact_retired_slots();
                }
                if !self.pending_collects.is_empty()
                    || !self.pending_imports.is_empty()
                    || !self.export_backlog.is_empty()
                {
                    did_work |= self.poll_state_exchanges();
                }
                did_work |= self.maybe_sweep_rules();
                for slot in &mut self.slots {
                    did_work |= slot.send_requests();
                }
                self.maybe_publish_telemetry(ingress);
                did_work
            }
            EnginePhase::TearingDown => {
                if !self.running.load(Ordering::Acquire) {
                    // Host shutdown overrides the graceful wind-down.
                    self.abort_staged_egress();
                    self.phase = EnginePhase::Finished;
                    return true;
                }
                let mut busy = self.drain_done_rings();
                busy |= self.flush_staged_egress();
                if self.draining > 0 {
                    self.retire_drained();
                }
                let threads_done = self.slots.iter().all(NfSlot::exited);
                let rings_empty = self
                    .slots
                    .iter()
                    .all(|slot| slot.done.is_empty() && slot.messages.is_empty());
                if !busy
                    && threads_done
                    && rings_empty
                    && self.deferred.is_empty()
                    && self.staging.egress.is_empty()
                {
                    // Stragglers in the ingress ring have no pipeline left;
                    // account them as overflow drops and give their credits
                    // and bucket counts back so nothing upstream waits
                    // forever (can't happen when the re-home handshake
                    // preceded the stop — kept for defense in depth).
                    let sample_every = self.trace_sampling.load(Ordering::Relaxed);
                    let now_ns = self.clock.now_ns();
                    while let Some(frame) = ingress.pop() {
                        self.stats.add_overflow_drops(1);
                        self.gate.release(1);
                        if frame.key.is_some() {
                            self.tracker.finish(frame.hash);
                            // Straggler drops still terminate the traces of
                            // hash-sampled flows, so span conservation holds
                            // across a teardown.
                            if sample_every != 0 && frame.hash % sample_every == 0 {
                                self.emit_span(
                                    TraceStage::Rx,
                                    0,
                                    frame.hash,
                                    frame.packet.timestamp_ns,
                                    now_ns,
                                    SpanVerdict::Dropped,
                                );
                            }
                        }
                    }
                    self.phase = EnginePhase::Finished;
                    return true;
                }
                busy
            }
        }
    }

    /// Serves every replica's done ring once: notes how many completions
    /// each holds, applies every replica's messages, then retries the
    /// deferred fan-out completions and routes the noted ones. An NF puts a
    /// burst's messages on its ring before it publishes the burst's
    /// completions, so every message sent before a completion the worker
    /// routes — a fan-out sibling's too — is applied first. (A retired
    /// slot's rings are empty: it retired only once they were.)
    fn drain_done_rings(&mut self) -> bool {
        for slot in &mut self.slots {
            let (front, back) = slot.done.peek_mut(self.burst_size);
            slot.noted = front.len() + back.len();
        }
        let mut did_work = self.apply_nf_messages();
        did_work |= !self.deferred.is_empty() && self.retry_deferred();
        for nf_index in 0..self.slots.len() {
            let noted = self.slots[nf_index].noted;
            if noted > 0 {
                self.tx_round(nf_index, noted);
                did_work = true;
            }
        }
        did_work
    }

    /// Applies every replica's queued messages to the shard's partition, in
    /// each replica's sending order: `force = false`, as NFs are untrusted,
    /// and pins stamped with the pin timeouts. A wildcard rewrite is logged
    /// under the mutating flow's steering bucket (an unattributed one
    /// bucket-less, so it travels with every departing bucket), and each
    /// message then moves into the outbox. A state response popped on the
    /// way is kept, to be read (and count as work) in
    /// [`poll_state_exchanges`](Self::poll_state_exchanges). Returns
    /// whether there were any messages.
    fn apply_nf_messages(&mut self) -> bool {
        let mut applied = false;
        let pin_timeouts = self.pin_timeouts;
        for index in 0..self.slots.len() {
            let from = self.slots[index].service;
            while let Some(entry) = self.slots[index].messages.pop() {
                let messages = match entry {
                    NfOut::Messages(messages) => messages,
                    NfOut::State { token, states } => {
                        self.slots[index].responses.push((token, states));
                        continue;
                    }
                };
                applied = true;
                for attributed in messages {
                    self.stats.add_nf_messages(1);
                    let (_, wildcard) = self.table.with_write(|t| {
                        apply_nf_message(t, from, &attributed.message, false, pin_timeouts)
                    });
                    if let Some(mutation) = wildcard {
                        let key = attributed.flow.as_ref();
                        let bucket = key.map(|key| self.tracker.bucket_of(key));
                        self.mutation_log.record(bucket, mutation);
                    }
                    let message = attributed.message;
                    if self
                        .outbox
                        .push(NfManagerMessage { from, message })
                        .is_err()
                    {
                        self.stats.add_nf_messages_dropped(1);
                    }
                }
            }
        }
        applied
    }

    /// Routes the deferred fan-out completions again; one whose straggler
    /// still holds its handle is deferred once more, so the worker never
    /// waits on it. Returns whether any went through.
    fn retry_deferred(&mut self) -> bool {
        let waiting = self.deferred.len();
        let (now_ns, mut cache) = self.begin_round();
        for _ in 0..waiting {
            let item = self.deferred.pop_front().expect("counted above");
            self.tx_item(&mut cache, item, now_ns);
        }
        self.cache = cache;
        self.flush();
        self.deferred.len() < waiting
    }

    /// Whether the engine reached its terminal phase (simulation driver).
    pub(crate) fn finished(&self) -> bool {
        self.phase == EnginePhase::Finished
    }

    /// The shard this engine serves (simulation-registry labeling).
    pub(crate) fn shard_index(&self) -> usize {
        self.shard
    }

    /// Packets the replicas of `service` on this shard have processed, read
    /// from their telemetry probes (counted while the telemetry exporter is
    /// on).
    pub(crate) fn processed(&self, service: ServiceId) -> u64 {
        self.slots
            .iter()
            .filter(|slot| slot.service == service)
            .map(|slot| slot.probe.processed.load(Ordering::Relaxed))
            .sum()
    }

    /// Lookups the engine's cache has answered so far.
    #[cfg(test)]
    pub(crate) fn lookup_cache_hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Resolves every state-exchange entry pointing at a retired slot —
    /// its replica answered all it ever will — before the slot is
    /// reclaimed (compaction) or reused for a new replica: waiting on it
    /// would stall the covering bucket move forever.
    fn settle_retired_slots(&mut self) {
        let responses = self.popped_responses(|slot| slot.state == SlotState::Retired);
        self.resolve_state_exchanges(responses);
    }

    /// Reclaims NF slots that have stayed [`SlotState::Retired`] past the
    /// compaction grace: their rings are freed and the slot indices above
    /// them shift down (the dispatch tables — and any in-flight
    /// state-exchange bookkeeping — are rebuilt to match). Hosts that
    /// scale down and stay down return to their baseline ring count.
    fn compact_retired_slots(&mut self) {
        let now_ns = self.clock.now_ns();
        let expired = |slot: &NfSlot| {
            slot.state == SlotState::Retired
                && slot
                    .retired_at
                    .is_none_or(|at| now_ns.saturating_sub(at) >= SLOT_COMPACTION_GRACE_NS)
        };
        if !self.slots.iter().any(expired) {
            return;
        }
        // No pending list may be left holding a soon-to-be-dangling index.
        self.settle_retired_slots();
        let mut remap: Vec<Option<usize>> = Vec::with_capacity(self.slots.len());
        let mut kept: Vec<NfSlot> = Vec::with_capacity(self.slots.len());
        for slot in self.slots.drain(..) {
            if expired(&slot) {
                debug_assert_eq!(slot.ring.staged(), 0);
                remap.push(None);
                self.retired_slots -= 1;
                continue;
            }
            remap.push(Some(kept.len()));
            kept.push(slot);
        }
        self.slots = kept;
        for (_, indices) in &mut self.service_instances {
            indices.retain_mut(|index| match remap[*index] {
                Some(new_index) => {
                    *index = new_index;
                    true
                }
                None => false,
            });
        }
        // Shift surviving state-exchange entries to the slots' new indices
        // (entries for removed slots were settled above).
        let remap_entry = |(slot, _): &mut (usize, u64)| match remap[*slot] {
            Some(new_index) => {
                *slot = new_index;
                true
            }
            None => {
                debug_assert!(false, "entry for a compacted slot survived settling");
                false
            }
        };
        for collect in &mut self.pending_collects {
            collect.outstanding.retain_mut(&remap_entry);
        }
        for import in &mut self.pending_imports {
            import.outstanding.retain_mut(&remap_entry);
        }
    }

    /// Spawns one NF replica thread and registers its slot (reusing a
    /// retired slot if one exists).
    fn spawn_nf(&mut self, service: ServiceId, nf: Box<dyn NetworkFunction>) {
        let (ring, input) = spsc_ring::<WorkItem>(self.nf_ring_capacity);
        let (done_tx, done) = spsc_ring::<DoneItem>(self.nf_ring_capacity);
        let (messages_tx, messages) = spsc_ring::<NfOut>(self.nf_ring_capacity);
        let (control, control_rx) = spsc_ring::<NfRequest>(CONTROL_RING_CAPACITY);
        let probe = Arc::new(NfProbe::default());
        let stop = Arc::new(AtomicBool::new(false));
        let read_only = nf.read_only();
        let thread = NfThread {
            shard: self.shard,
            service,
            nf,
            input,
            done: done_tx,
            running: Arc::clone(&self.running),
            stop: Arc::clone(&stop),
            stats: self.stats.clone(),
            tracker: Arc::clone(&self.tracker),
            messages: messages_tx,
            control: control_rx,
            probe: Arc::clone(&probe),
            measure: self.telemetry_interval_ns != 0,
            clock: self.clock.clone(),
            burst_size: self.burst_size,
            latency: Arc::clone(&self.latency),
        };
        let handle = self.spawner.spawn_replica(thread);
        let slot = NfSlot {
            service,
            read_only,
            ring,
            done,
            messages,
            control,
            unsent: std::collections::VecDeque::new(),
            responses: Vec::new(),
            noted: 0,
            probe,
            stop,
            handle: Some(handle),
            state: SlotState::Active,
            retired_at: None,
        };
        let index = match self
            .slots
            .iter()
            .position(|s| s.state == SlotState::Retired)
        {
            Some(index) => {
                // The reused slot gets fresh rings: settle any state-exchange
                // entry still pointing at the old replica, or it would wait
                // forever on a ring the new replica never saw.
                self.settle_retired_slots();
                self.slots[index] = slot;
                self.retired_slots -= 1;
                index
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        match self
            .service_instances
            .iter_mut()
            .find(|(id, _)| *id == service)
        {
            Some((_, replicas)) => replicas.push(index),
            None => self.service_instances.push((service, vec![index])),
        }
    }

    /// Begins retiring the most recently added replica of `service`:
    /// removes it from dispatch and tells its thread to exit once its input
    /// ring is drained (see [`NfSlot::stop_when_sent`]). The last replica
    /// of a service is never retired.
    ///
    /// The host pushes this right after the export of the buckets the
    /// replica served, which the replica answers before it exits.
    fn begin_remove_nf(&mut self, service: ServiceId) {
        let Some((_, instances)) = self
            .service_instances
            .iter_mut()
            .find(|(id, _)| *id == service)
        else {
            return;
        };
        if instances.len() <= 1 {
            return;
        }
        let index = instances.pop().expect("length checked");
        let slot = &mut self.slots[index];
        slot.state = SlotState::Draining;
        slot.stop_when_sent();
        self.draining += 1;
    }

    /// Moves fully drained replicas from [`SlotState::Draining`] to
    /// [`SlotState::Retired`], joining their threads. Retired slots stay
    /// available for reuse for [`SLOT_COMPACTION_GRACE_NS`], then the
    /// compaction pass reclaims their rings.
    fn retire_drained(&mut self) {
        let now_ns = self.clock.now_ns();
        for slot in &mut self.slots {
            if slot.state != SlotState::Draining {
                continue;
            }
            slot.stop_when_sent();
            if slot.exited() && slot.done.is_empty() && slot.messages.is_empty() {
                if let Some(handle) = slot.handle.take() {
                    handle.join();
                }
                slot.state = SlotState::Retired;
                slot.retired_at = Some(now_ns);
                self.draining -= 1;
                self.retired_slots += 1;
            }
        }
    }

    /// Applies one control command between bursts.
    fn apply_command(&mut self, command: ShardCommand) {
        match command {
            ShardCommand::AddNf { service, nf } => self.spawn_nf(service, nf),
            ShardCommand::RemoveNf { service } => self.begin_remove_nf(service),
            ShardCommand::ResizeCredits { credits } => {
                self.gate.resize(credits.clamp(1, self.credit_clamp));
            }
            ShardCommand::ExportBucketState {
                id,
                buckets,
                exact_keys,
            } => self.begin_export(id, buckets, exact_keys),
            ShardCommand::ImportBucketState { states, done } => self.begin_import(states, done),
        }
        self.applied_commands += 1;
    }

    /// Fans an NF-state export request out to every live replica; the
    /// gathered responses are assembled by [`ShardEngine::poll_state_exchanges`].
    fn begin_export(&mut self, id: u64, buckets: Vec<usize>, exact_keys: Vec<FlowKey>) {
        let mut outstanding = Vec::new();
        for (index, slot) in self.slots.iter_mut().enumerate() {
            // An exited replica (every retired one, too) answered every
            // request it ever saw; it holds no reachable state.
            if slot.exited() {
                continue;
            }
            self.state_token += 1;
            slot.queue_request(NfRequest::Export {
                token: self.state_token,
                buckets: buckets.clone(),
                keys: exact_keys.clone(),
            });
            outstanding.push((index, self.state_token));
        }
        self.pending_collects.push(PendingCollect {
            id,
            outstanding,
            gathered: Vec::new(),
        });
        // Resolve immediately when there is nothing to wait for (a shard
        // with no NFs exports an empty state set).
        self.poll_state_exchanges();
    }

    /// Routes each imported flow's NF state to the replica that will serve
    /// the flow's packets ([`pick_instance`]); the shared `done` flag flips
    /// once every routed replica acknowledged.
    fn begin_import(
        &mut self,
        states: Vec<(ServiceId, FlowKey, NfFlowState)>,
        done: Arc<AtomicBool>,
    ) {
        // Grouped into a Vec (not a HashMap) so token assignment follows
        // the arrival order of the states — iteration order must be
        // deterministic for the simulation harness's replay guarantee.
        let mut per_slot: Vec<(usize, Vec<(FlowKey, NfFlowState)>)> = Vec::new();
        for (service, key, state) in states {
            let Some(slot) = pick_instance(&self.service_instances, service, key.stable_hash())
            else {
                // No replica of the service on this shard: the migrated
                // state cannot be absorbed. Count the loss — this is the
                // one gap in the zero-NF-state-loss contract, and it must
                // be visible rather than silent.
                self.stats.add_nf_state_import_drops(1);
                continue;
            };
            match per_slot.iter_mut().find(|(index, _)| *index == slot) {
                Some((_, group)) => group.push((key, state)),
                None => per_slot.push((slot, vec![(key, state)])),
            }
        }
        let mut outstanding = Vec::new();
        for (slot, states) in per_slot {
            self.state_token += 1;
            let token = self.state_token;
            self.slots[slot].queue_request(NfRequest::Import { token, states });
            outstanding.push((slot, token));
        }
        self.pending_imports
            .push(PendingImport { outstanding, done });
        self.poll_state_exchanges();
    }

    /// Advances every in-flight state exchange: gathers export responses
    /// (publishing completed exports on the export ring), collects import
    /// acknowledgements (setting their `done` flags), and retries exports
    /// the ring had no room for. Returns whether anything progressed.
    fn poll_state_exchanges(&mut self) -> bool {
        let responses = self.popped_responses(|slot| {
            // DST fault hook: a held-back replica's responses stay unread
            // this poll — unless it exited, when nothing is left to delay.
            // Only this worker counts the holdback down.
            let held = slot.probe.state_holdback.fetch_update(
                Ordering::Relaxed,
                Ordering::Relaxed,
                |polls| polls.checked_sub(1),
            );
            held.is_err() || slot.exited()
        });
        self.resolve_state_exchanges(responses)
    }

    /// Takes the popped state responses of every slot `read` picks, keyed
    /// (slot, token). The map is consumed by key lookups only (never
    /// iterated), so its internal ordering cannot leak into observable
    /// behavior.
    fn popped_responses(
        &mut self,
        mut read: impl FnMut(&NfSlot) -> bool,
    ) -> HashMap<(usize, u64), StateResponse> {
        let mut responses = HashMap::new();
        for (index, slot) in self.slots.iter_mut().enumerate() {
            if read(slot) {
                let popped = slot.responses.drain(..);
                responses.extend(popped.map(|(token, response)| ((index, token), response)));
            }
        }
        responses
    }

    /// Resolves the entries `responses` answer, and those of replicas that
    /// will never answer, then publishes what completed (see
    /// [`poll_state_exchanges`](Self::poll_state_exchanges)).
    fn resolve_state_exchanges(
        &mut self,
        mut responses: HashMap<(usize, u64), StateResponse>,
    ) -> bool {
        let mut progressed = false;
        let slots = &self.slots;
        for collect in &mut self.pending_collects {
            collect.outstanding.retain(|&(index, token)| {
                let slot = &slots[index];
                match responses.remove(&(index, token)) {
                    Some(response) => collect.gathered.extend(
                        response
                            .into_iter()
                            .map(|(key, state)| (slot.service, key, state)),
                    ),
                    None if !slot.answered_all() => return true,
                    // The replica will never answer: the entry resolves empty.
                    None => {}
                }
                progressed = true;
                false
            });
        }
        let mut finished: Vec<BucketStateExport> = Vec::new();
        self.pending_collects.retain_mut(|collect| {
            if !collect.outstanding.is_empty() {
                return true;
            }
            finished.push(BucketStateExport {
                id: collect.id,
                states: std::mem::take(&mut collect.gathered),
            });
            false
        });
        self.export_backlog.extend(finished);
        while let Some(export) = self.export_backlog.pop_front() {
            if let Err(PushError(export)) = self.exports.push(export) {
                self.export_backlog.push_front(export);
                break;
            }
            progressed = true;
        }
        self.pending_imports.retain_mut(|import| {
            // A replica gone mid-import leaves its share of the state
            // unrecoverable, but the move must not hang.
            import.outstanding.retain(|&(index, token)| {
                responses.remove(&(index, token)).is_none() && !slots[index].answered_all()
            });
            if import.outstanding.is_empty() {
                import.done.store(true, Ordering::Release);
                progressed = true;
                return false;
            }
            true
        });
        progressed
    }

    /// Runs one bounded pass of the flow table's timeout sweep if the
    /// sweep interval has elapsed, then fans the evicted flows' keys out to
    /// the shard's NF replicas as fire-and-forget scrub requests so their
    /// per-flow state is reclaimed with the rule. Lookups evict nothing,
    /// so every eviction of the shard's partition passes here.
    ///
    /// Exact rules of a bucket that is mid-re-home are protected from the
    /// sweep: their state is being exported, and evicting underneath the
    /// handshake could resurrect a just-evicted rule on the destination
    /// shard (or double-scrub its NF state).
    fn maybe_sweep_rules(&mut self) -> bool {
        if self.rule_sweep_interval_ns == 0 {
            return false;
        }
        if self.sweep_check > 0 {
            self.sweep_check -= 1;
            return false;
        }
        self.sweep_check = 32;
        let now_ns = self.clock.now_ns();
        self.approx_now_ns = now_ns;
        if now_ns.saturating_sub(self.last_sweep_ns) < self.rule_sweep_interval_ns {
            return false;
        }
        self.last_sweep_ns = now_ns;
        let tracker = Arc::clone(&self.tracker);
        let evicted = self
            .table
            .sweep_expired(now_ns, MAX_EVICTIONS_PER_SWEEP, |(_, key)| {
                tracker.is_parked(tracker.bucket_of(key))
            });
        if evicted.is_empty() {
            return false;
        }
        self.note_evictions(evicted);
        true
    }

    /// Counts a sweep's evictions into the shard's stats and posts the
    /// evicted exact flows' keys to every live replica for NF-state scrub.
    /// Scrubs are fire-and-forget: replicas send no response, so the
    /// request takes no token and no entry in the state-exchange
    /// bookkeeping.
    fn note_evictions(&mut self, evicted: Vec<EvictedRule>) {
        let mut idle = 0u64;
        let mut hard = 0u64;
        let mut keys: Vec<FlowKey> = Vec::new();
        for eviction in evicted {
            match eviction.reason {
                EvictReason::Idle => idle += 1,
                EvictReason::Hard => hard += 1,
            }
            if let Some((_, key)) = eviction.exact {
                keys.push(key);
            }
        }
        if idle > 0 {
            self.stats.add_rules_evicted_idle(idle);
        }
        if hard > 0 {
            self.stats.add_rules_evicted_hard(hard);
        }
        if keys.is_empty() {
            return;
        }
        for slot in &mut self.slots {
            if !slot.exited() {
                slot.queue_request(NfRequest::Scrub { keys: keys.clone() });
            }
        }
    }

    /// Publishes a [`TelemetrySnapshot`] if the export interval has
    /// elapsed. A full telemetry ring skips the publish — counters are
    /// cumulative, so a lagging consumer loses freshness, never events.
    fn maybe_publish_telemetry(&mut self, ingress: &Consumer<IngressFrame>) {
        if self.telemetry_interval_ns == 0 {
            return;
        }
        if self.telemetry_check > 0 {
            self.telemetry_check -= 1;
            return;
        }
        self.telemetry_check = 32;
        let now_ns = self.clock.now_ns();
        if now_ns.saturating_sub(self.last_telemetry_ns) < self.telemetry_interval_ns {
            return;
        }
        self.last_telemetry_ns = now_ns;
        self.telemetry_seq += 1;
        let nfs = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.state != SlotState::Retired)
            .map(|(slot_index, slot)| NfTelemetry {
                service: slot.service,
                slot: slot_index,
                input_depth: slot.ring.len(),
                input_capacity: slot.ring.capacity(),
                service_time_ewma_ns: slot.probe.service_time_ewma_ns.load(Ordering::Relaxed),
                processed: slot.probe.processed.load(Ordering::Relaxed),
                draining: slot.state == SlotState::Draining,
            })
            .collect();
        let snapshot = TelemetrySnapshot {
            shard: self.shard,
            seq: self.telemetry_seq,
            at_ns: now_ns,
            ingress_depth: ingress.len(),
            ingress_capacity: ingress.capacity(),
            egress_depth: self.egress.len(),
            egress_capacity: self.egress.capacity(),
            credits_in_flight: self.gate.in_flight(),
            credit_capacity: self.gate.capacity(),
            nfs,
            nf_slots_allocated: self.slots.len(),
            received: self.stats.received(),
            transmitted: self.stats.transmitted(),
            dropped: self.stats.dropped(),
            controller_punts: self.stats.controller_punts(),
            throttled: self.stats.throttled(),
            applied_commands: self.applied_commands,
            // The pens live host-side; ThreadedHost::poll_telemetry stamps
            // these two before handing the snapshot to the consumer.
            rehome_pen_depth: 0,
            rehome_pen_max_age_ns: 0,
            rules_evicted_idle: self.stats.rules_evicted_idle(),
            rules_evicted_hard: self.stats.rules_evicted_hard(),
            nf_state_scrubbed: self.stats.nf_state_scrubbed(),
            nf_state_handoffs: self.stats.nf_state_handoffs(),
            nf_state_import_drops: self.stats.nf_state_import_drops(),
            spans_dropped: self.stats.spans_dropped(),
            latency: self.latency.report(),
        };
        let _ = self.telemetry.push(snapshot);
    }

    /// Emits one trace span onto the shard's lossy trace ring; a full ring
    /// counts the span as dropped instead of blocking the packet path.
    fn emit_span(
        &mut self,
        stage: TraceStage,
        service: u32,
        flow_hash: u64,
        t_start_ns: u64,
        t_end_ns: u64,
        verdict: SpanVerdict,
    ) {
        let span = TraceSpan {
            shard: self.shard,
            stage,
            service,
            flow_hash,
            t_start_ns,
            t_end_ns,
            verdict,
        };
        if self.traces.push(span).is_err() {
            self.stats.add_spans_dropped(1);
        }
    }

    /// Stages a packet for egress together with its latency/trace metadata
    /// (kept index-aligned with `staging.egress` — see [`EgressMeta`]).
    fn stage_egress(&mut self, out: HostOutput, flow_hash: u64, staged_ns: u64, traced: bool) {
        self.staging.egress_meta.push(EgressMeta {
            ingress_ns: out.packet.timestamp_ns,
            staged_ns,
            traced,
            flow_hash,
        });
        self.staging.egress.push(out);
    }

    /// Records a keyed packet's last possible flow-state touch: it was
    /// staged for egress, dropped or punted, so it can no longer read or
    /// write this shard's flow table. Called exactly once per tracked
    /// packet — the decrement side of the bucket-drain handshake.
    fn finish_flow(&self, hash: u64) {
        self.tracker.finish(hash);
    }

    /// Accounts staged egress at engine shutdown: the host is gone, so the
    /// packets that will never reach it release their credits and are
    /// counted as overflow drops. Their bucket counts were already released
    /// at staging.
    fn abort_staged_egress(&mut self) {
        let leftover = self.staging.egress.len();
        if leftover == 0 {
            return;
        }
        self.gate.release(leftover);
        self.stats.add_overflow_drops(leftover as u64);
        self.staging.egress.clear();
        if self.staging.egress_meta.iter().any(|m| m.traced) {
            let now_ns = self.clock.now_ns();
            for index in 0..self.staging.egress_meta.len() {
                let meta = self.staging.egress_meta[index];
                if meta.traced {
                    self.emit_span(
                        TraceStage::Egress,
                        0,
                        meta.flow_hash,
                        meta.staged_ns,
                        now_ns,
                        SpanVerdict::Dropped,
                    );
                }
            }
        }
        self.staging.egress_meta.clear();
    }

    /// One cached lookup. `cache` is the engine's own, taken out of `self`
    /// for the round so that the borrowed decision can be followed through
    /// `&mut self` calls without a copy.
    fn lookup<'c>(
        &self,
        cache: &'c mut LookupCache,
        step: RulePort,
        key: &FlowKey,
        hash: u64,
    ) -> Option<&'c Decision> {
        cached_lookup_hashed(
            &self.table,
            cache,
            hash,
            step,
            key,
            self.approx_now_ns,
            self.cache_ttl_ns,
        )
    }

    /// Opens a worker round: one clock read covers the round's latency
    /// records, its trace-span stamps and (as `approx_now_ns`) the
    /// lookup-cache TTL; the engine's cache is taken out of `self` for the
    /// round (see [`ShardEngine::lookup`]).
    fn begin_round(&mut self) -> (u64, LookupCache) {
        let now_ns = self.clock.now_ns();
        self.approx_now_ns = now_ns;
        let cache = std::mem::replace(&mut self.cache, LookupCache::parked());
        (now_ns, cache)
    }

    /// RX role: takes up to a burst of frames straight out of the ingress
    /// ring's slots, dispatches each, releases the slots with one store and
    /// flushes. Returns whether there was a frame.
    fn rx_round(&mut self, ingress: &Consumer<IngressFrame>) -> bool {
        let mut next = ingress.take();
        if next.is_none() {
            return false;
        }
        let (now_ns, mut cache) = self.begin_round();
        let mut received = 0;
        while let Some(frame) = next {
            self.rx_frame(&mut cache, frame, now_ns);
            received += 1;
            if received == self.burst_size {
                break;
            }
            next = ingress.take();
        }
        ingress.release();
        self.stats.add_received(received as u64);
        self.cache = cache;
        self.flush();
        true
    }

    /// First lookup of one ingress frame, then its dispatch.
    fn rx_frame(&mut self, cache: &mut LookupCache, frame: IngressFrame, now_ns: u64) {
        let IngressFrame { packet, key, hash } = frame;
        self.latency
            .ingress_wait
            .record(now_ns.saturating_sub(packet.timestamp_ns));
        let Some(key) = key else {
            self.stats.add_dropped(1);
            self.gate.release(1);
            return;
        };
        let sample_every = self.trace_sampling.load(Ordering::Relaxed);
        let sampled = sample_every != 0 && hash % sample_every == 0;
        let step = RulePort::Nic(packet.ingress_port);
        let Some(decision) = self.lookup(cache, step, &key, hash) else {
            // No controller thread is attached in the threaded runtime; a
            // miss is counted and the packet is dropped.
            self.stats.add_controller_punts(1);
            self.gate.release(1);
            self.finish_flow(hash);
            if sampled {
                self.emit_span(
                    TraceStage::Rx,
                    0,
                    hash,
                    packet.timestamp_ns,
                    now_ns,
                    SpanVerdict::Punted,
                );
            }
            return;
        };
        let traced = sampled || decision.trace;
        self.dispatch(packet, key, hash, decision, traced, now_ns);
    }

    /// Stages a packet according to its ingress decision (first dispatch),
    /// emitting the packet's RX span if it is traced: `Forwarded` when the
    /// packet continues toward an NF or egress, terminal otherwise.
    fn dispatch(
        &mut self,
        packet: Packet,
        key: FlowKey,
        hash: u64,
        decision: &Decision,
        traced: bool,
        now_ns: u64,
    ) {
        let ingress_ns = packet.timestamp_ns;
        let rx_span = |engine: &mut Self, verdict: SpanVerdict| {
            if traced {
                engine.emit_span(TraceStage::Rx, 0, hash, ingress_ns, now_ns, verdict);
            }
        };
        let meta = PacketMeta {
            key,
            hash,
            traced,
            list_run: None,
            hops: 0,
        };
        if decision.parallel {
            let exit_service = match self.resolve_targets(&decision.actions, hash) {
                Targets::Ready(exit_service) => exit_service,
                unplaced => {
                    match unplaced {
                        Targets::None => self.stats.add_dropped(1),
                        _ => self.stats.add_overflow_drops(1),
                    }
                    self.gate.release(1);
                    self.finish_flow(hash);
                    rx_span(self, SpanVerdict::Dropped);
                    return;
                }
            };
            self.stats.add_parallel_dispatches(1);
            if self.fans_out() {
                let readers = self.targets.len() as u32;
                let shared = self.free.descriptor(packet, meta, readers);
                self.stage_targets(shared, exit_service);
            } else {
                let sole = self.free.owned_frame(packet, meta);
                self.stage_in_order(sole, &decision.actions, exit_service);
            }
            rx_span(self, SpanVerdict::Forwarded);
            return;
        }

        match decision.default_action() {
            Some(Action::ToService(service)) => {
                match pick_instance(&self.service_instances, service, hash) {
                    Some(index) => {
                        let frame = Frame::Sole(self.free.owned_frame(packet, meta));
                        self.stage_work(index, frame, service, 0);
                        rx_span(self, SpanVerdict::Forwarded);
                    }
                    None => {
                        self.stats.add_dropped(1);
                        self.gate.release(1);
                        self.finish_flow(hash);
                        rx_span(self, SpanVerdict::Dropped);
                    }
                }
            }
            Some(Action::ToPort(port)) => {
                // Transmitted accounting (and credit release) happens at
                // flush, when the egress push lands; the packet's
                // flow-state work is already over, so its bucket count
                // drops here.
                self.finish_flow(hash);
                self.stage_egress(HostOutput { port, packet, key }, hash, now_ns, traced);
                rx_span(self, SpanVerdict::Forwarded);
            }
            Some(Action::ToController) => {
                self.stats.add_controller_punts(1);
                self.gate.release(1);
                self.finish_flow(hash);
                rx_span(self, SpanVerdict::Punted);
            }
            Some(Action::Drop) | Some(Action::Trace) | None => {
                self.stats.add_dropped(1);
                self.gate.release(1);
                self.finish_flow(hash);
                rx_span(self, SpanVerdict::Dropped);
            }
        }
    }

    /// TX role: takes the `completions` NF slot `nf_index`'s done ring was
    /// seen to hold straight out of it, routes each, releases the slots with
    /// one store and flushes. The release comes first, so a frame never
    /// comes back to the ring before its slot is free.
    fn tx_round(&mut self, nf_index: usize, completions: usize) {
        let (now_ns, mut cache) = self.begin_round();
        for _ in 0..completions {
            let item = self.slots[nf_index]
                .done
                .take()
                .expect("an observed completion stays published");
            self.tx_item(&mut cache, item, now_ns);
        }
        self.slots[nf_index].done.release();
        self.cache = cache;
        self.flush();
    }

    /// Takes one completion back into an owned frame, resolves its verdict,
    /// looks up its next hop, and either re-stages it, stages it for
    /// egress, or drops it. A fan-out whose straggler still holds a handle
    /// is deferred.
    fn tx_item(&mut self, cache: &mut LookupCache, item: DoneItem, now_ns: u64) {
        let DoneItem {
            frame,
            exit_service,
            nf_started_ns,
            nf_ended_ns,
        } = item;
        let sole = match frame {
            Frame::Sole(sole) => sole,
            Frame::Shared(shared) => match self.free.unshare(shared) {
                Ok(sole) => sole,
                Err(shared) => {
                    // A straggler NF counted down but still holds its
                    // handle: wait for it, there is no other way out.
                    self.deferred.push_back(DoneItem {
                        frame: Frame::Shared(shared),
                        exit_service,
                        nf_started_ns,
                        nf_ended_ns,
                    });
                    return;
                }
            },
        };
        let meta = sole.meta;
        if meta.traced {
            // The NF span covers the burst window the NF thread stamped; the
            // worker emits it because it is the trace ring's single producer.
            self.emit_span(
                TraceStage::Nf,
                exit_service.value(),
                meta.hash,
                nf_started_ns,
                nf_ended_ns,
                SpanVerdict::Forwarded,
            );
        }
        let mut hop = Completion {
            sole,
            exit_service,
            nf_ended_ns,
        };
        if let Some(run) = meta.list_run {
            if let Some((index, position)) = self.next_listed(run, meta.hash) {
                self.tx_span(&hop, now_ns, SpanVerdict::Forwarded);
                self.stage_work(index, Frame::Sole(hop.sole), exit_service, position);
                return;
            }
            hop.sole.meta.list_run = None;
        }
        hop.sole.meta.hops += 1;
        if hop.sole.meta.hops >= MAX_CHAIN_HOPS {
            self.stats.add_dropped(1);
            self.end_short(hop, now_ns, SpanVerdict::Dropped);
            return;
        }
        let step = RulePort::Service(exit_service);
        let action = match verdict_from_word(hop.sole.verdict) {
            Verdict::Discard => Action::Drop,
            Verdict::Default => match self.lookup(cache, step, &meta.key, meta.hash) {
                Some(decision) => {
                    self.forward_decision(hop, decision, now_ns);
                    return;
                }
                None => Action::ToController,
            },
            other => {
                let requested = other.as_action().expect("non-default verdict");
                let decision = self.lookup(cache, step, &meta.key, meta.hash);
                validate_steering(decision, requested)
            }
        };
        self.forward_action(hop, action, now_ns);
    }

    /// Emits a traced completion's TX span: from the end of its NF burst to
    /// the worker's decision about it.
    fn tx_span(&mut self, hop: &Completion, now_ns: u64, verdict: SpanVerdict) {
        if hop.sole.meta.traced {
            self.emit_span(
                TraceStage::Tx,
                hop.exit_service.value(),
                hop.sole.meta.hash,
                hop.nf_ended_ns,
                now_ns,
                verdict,
            );
        }
    }

    /// Forwards a completed packet along the decision of its exit step: a
    /// sequential rule's default action (its other actions are steering
    /// targets an NF may ask for, not destinations), or every service of a
    /// parallel rule — one fan-out when they are all read-only, owned hops
    /// in list order otherwise.
    fn forward_decision(&mut self, mut hop: Completion, decision: &Decision, now_ns: u64) {
        if !decision.parallel {
            let action = decision.default_action().unwrap_or(Action::Drop);
            self.forward_action(hop, action, now_ns);
            return;
        }
        let hash = hop.sole.meta.hash;
        let exit_service = match self.resolve_targets(&decision.actions, hash) {
            Targets::Ready(exit_service) => exit_service,
            unplaced => {
                match unplaced {
                    Targets::None => self.stats.add_dropped(1),
                    _ => self.stats.add_overflow_drops(1),
                }
                self.end_short(hop, now_ns, SpanVerdict::Dropped);
                return;
            }
        };
        self.stats.add_parallel_dispatches(1);
        self.tx_span(&hop, now_ns, SpanVerdict::Forwarded);
        if self.fans_out() {
            let shared = self.free.share(hop.sole, self.targets.len() as u32);
            self.stage_targets(shared, exit_service);
        } else {
            hop.sole.verdict = 0;
            self.stage_in_order(hop.sole, &decision.actions, exit_service);
        }
    }

    /// Forwards a completed packet along one action: to its next NF as an
    /// owned hop (verdict reset), to egress, to the controller, or into a
    /// drop.
    fn forward_action(&mut self, mut hop: Completion, action: Action, now_ns: u64) {
        let PacketMeta {
            key, hash, traced, ..
        } = hop.sole.meta;
        match action {
            Action::ToService(service) => {
                match pick_instance(&self.service_instances, service, hash) {
                    Some(index) => {
                        self.tx_span(&hop, now_ns, SpanVerdict::Forwarded);
                        hop.sole.verdict = 0;
                        self.stage_work(index, Frame::Sole(hop.sole), service, 0);
                    }
                    None => {
                        self.stats.add_dropped(1);
                        self.end_short(hop, now_ns, SpanVerdict::Dropped);
                    }
                }
            }
            Action::ToPort(port) => {
                // Transmitted accounting (and credit release) happens at
                // flush, when the egress push lands; the packet's
                // flow-state work is already over, so its bucket count
                // drops here.
                self.finish_flow(hash);
                let packet = self.free.reclaim(hop.sole);
                self.stage_egress(HostOutput { port, packet, key }, hash, now_ns, traced);
            }
            Action::ToController => {
                self.stats.add_controller_punts(1);
                self.end_short(hop, now_ns, SpanVerdict::Punted);
            }
            Action::Drop | Action::Trace => {
                self.stats.add_dropped(1);
                self.end_short(hop, now_ns, SpanVerdict::Dropped);
            }
        }
    }

    /// Ends a completed packet's trip short of egress — a drop or a punt
    /// its caller has counted: gives back its credit and bucket count,
    /// emits its TX span and parks its frame.
    fn end_short(&mut self, hop: Completion, now_ns: u64, verdict: SpanVerdict) {
        self.gate.release(1);
        self.finish_flow(hop.sole.meta.hash);
        self.tx_span(&hop, now_ns, verdict);
        self.free.reclaim(hop.sole);
    }

    /// Picks the replica of every service `actions` lists into the
    /// `targets` scratch, in list order. All-or-nothing: the packet must
    /// reach *every* listed NF or none — partial delivery would let it
    /// bypass e.g. a firewall that has no replica here (or whose ring
    /// happened to be full) and be forwarded on the other NFs' verdicts
    /// alone.
    fn resolve_targets(&mut self, actions: &[Action], hash: u64) -> Targets {
        self.targets.clear();
        let mut exit_service = None;
        let mut placeable = true;
        for action in actions {
            let Action::ToService(service) = *action else {
                continue;
            };
            exit_service = Some(service);
            match pick_instance(&self.service_instances, service, hash) {
                Some(index) => self.targets.push(index),
                None => placeable = false,
            }
        }
        match exit_service {
            None => Targets::None,
            Some(exit_service) if placeable && parallel_fits(&self.slots, &self.targets) => {
                Targets::Ready(exit_service)
            }
            Some(_) => Targets::Unplaceable,
        }
    }

    /// Whether the resolved targets may share one immutable packet: there
    /// are several, and every one is a read-only replica.
    fn fans_out(&self) -> bool {
        self.targets.len() > 1
            && self
                .targets
                .iter()
                .all(|&index| self.slots[index].read_only)
    }

    /// Stages a fan-out's handles, one per resolved target: clones for the
    /// earlier targets, `shared` itself for the last. A target's position
    /// in the list is the priority of its NF's verdict.
    fn stage_targets(&mut self, shared: SharedPacket, exit_service: ServiceId) {
        let (&last, rest) = self.targets.split_last().expect("a fan-out has targets");
        let position = |at: usize| u16::try_from(at).unwrap_or(u16::MAX);
        for (at, &index) in rest.iter().enumerate() {
            let frame = Frame::Shared(shared.clone());
            self.stage_work(index, frame, exit_service, position(at));
        }
        let frame = Frame::Shared(shared);
        self.stage_work(last, frame, exit_service, position(rest.len()));
    }

    /// Stages a parallel rule that cannot fan out — one target, or a list
    /// that names a mutating service — as owned hops in list order: the
    /// first target now, each next one when the previous returns (a
    /// [`ListRun`]). Every NF sees the writes of those before it and merges
    /// its key, by position, into the one frame: the word a fan-out would
    /// resolve to.
    fn stage_in_order(
        &mut self,
        mut sole: Box<SolePacket>,
        actions: &Arc<[Action]>,
        exit_service: ServiceId,
    ) {
        if self.targets.len() > 1 {
            let first = actions
                .iter()
                .position(|action| matches!(action, Action::ToService(_)))
                .expect("resolved targets come from listed services");
            let run = ListRun {
                actions: Arc::clone(actions),
                next: first + 1,
                position: 0,
            };
            let slot = match self.list_runs.iter().position(Option::is_none) {
                Some(slot) => {
                    self.list_runs[slot] = Some(run);
                    slot
                }
                None => {
                    self.list_runs.push(Some(run));
                    self.list_runs.len() - 1
                }
            };
            sole.meta.list_run = NonZeroU32::new(
                u32::try_from(slot + 1).expect("one list run per packet in flight at most"),
            );
        }
        self.stage_work(self.targets[0], Frame::Sole(sole), exit_service, 0);
    }

    /// The next hop of the list run in slot `run`: the replica slot of the
    /// next listed service and that service's position — or `None`, the
    /// run's slot freed, once the last listed service has answered.
    fn next_listed(&mut self, run: NonZeroU32, hash: u64) -> Option<(usize, u16)> {
        let slot = run.get() as usize - 1;
        let list = self.list_runs[slot]
            .as_mut()
            .expect("a packet on a list run holds its slot");
        while let Some(&action) = list.actions.get(list.next) {
            list.next += 1;
            let Action::ToService(service) = action else {
                continue;
            };
            list.position = list.position.saturating_add(1);
            // Every listed service had a replica when the run began; one
            // that has none now answers the default.
            if let Some(index) = pick_instance(&self.service_instances, service, hash) {
                return Some((index, list.position));
            }
        }
        self.list_runs[slot] = None;
        None
    }

    /// Stages one hop straight into the ring of NF slot `index`; the next
    /// [`ShardEngine::flush`] publishes it.
    fn stage_work(&self, index: usize, frame: Frame, exit_service: ServiceId, position: u16) {
        let item = WorkItem {
            frame,
            exit_service,
            position,
        };
        // The zero-loss invariant: a shard holds at most `credits` packets
        // in flight and credits are clamped to the NF ring capacity, so a
        // stage always fits (multi-target dispatch checks `parallel_fits`
        // first). A rejected item would be a silently lost packet — fail
        // loudly instead.
        if self.slots[index].ring.stage(item).is_err() {
            panic!("shard {}: NF ring {index} overflowed", self.shard);
        }
    }

    /// Publishes every NF ring's staged frames with one store per ring, then
    /// flushes egress.
    ///
    /// A full egress ring parks the remainder in `staging.egress` — retried
    /// at the top of every subsequent [`ShardEngine::step`] until the host
    /// drains the ring (this is exactly the backpressure the credits
    /// propagate to `inject`, and it keeps `step` non-blocking so a
    /// simulator can interleave the host's drain with the worker's retry).
    fn flush(&mut self) {
        for slot in &self.slots {
            slot.ring.publish();
        }
        self.flush_staged_egress();
    }

    /// Pushes staged egress packets to the host's egress ring (batched).
    /// Whatever does not fit stays staged (retried next step; bounded by
    /// the credit clamp). Returns whether any packet was transmitted.
    fn flush_staged_egress(&mut self) -> bool {
        if self.staging.egress.is_empty() {
            return false;
        }
        let pushed = self.egress.push_n(&mut self.staging.egress);
        self.stats.add_transmitted(pushed as u64);
        self.gate.release(pushed);
        if pushed > 0 {
            // One clock read covers the whole egress batch: record
            // end-to-end and egress-wait latency for every pushed packet
            // and emit the terminal egress span for the traced ones.
            let now_ns = self.clock.now_ns();
            for index in 0..pushed {
                let meta = self.staging.egress_meta[index];
                self.latency
                    .end_to_end
                    .record(now_ns.saturating_sub(meta.ingress_ns));
                self.latency
                    .egress_wait
                    .record(now_ns.saturating_sub(meta.staged_ns));
                if meta.traced {
                    self.emit_span(
                        TraceStage::Egress,
                        0,
                        meta.flow_hash,
                        meta.staged_ns,
                        now_ns,
                        SpanVerdict::Egressed,
                    );
                }
            }
            self.staging.egress_meta.drain(..pushed);
        }
        pushed > 0
    }
}

/// What [`ShardEngine::resolve_targets`] made of an action list.
enum Targets {
    /// The list names no service.
    None,
    /// A listed service has no replica on this shard, or a target ring has
    /// no room for its copies.
    Unplaceable,
    /// Every target's slot index is in the `targets` scratch; the packet
    /// exits the dispatch at this (the last listed) service.
    Ready(ServiceId),
}

/// Emptied packet holders awaiting reuse: a packet that leaves the pipeline
/// parks its owned frame here, a fan-out's exit its descriptor, and
/// dispatch refills one, so the steady state allocates neither. Each list
/// stops growing at the capacity it was created with — the shard's credit
/// budget, the most packets the shard holds in flight.
struct FreeFrames {
    #[allow(clippy::vec_box)] // the parked allocations are what is reused
    owned: Vec<Box<SolePacket>>,
    descriptors: Vec<SharedPacket>,
}

impl FreeFrames {
    fn new(budget: usize) -> Self {
        FreeFrames {
            owned: Vec::with_capacity(budget),
            descriptors: Vec::with_capacity(budget),
        }
    }

    /// Boxes `packet` for a single-target hop, reusing a parked box.
    fn owned_frame(&mut self, packet: Packet, meta: PacketMeta) -> Box<SolePacket> {
        let fresh = SolePacket {
            packet,
            verdict: 0,
            meta,
        };
        match self.owned.pop() {
            Some(mut parked) => {
                *parked = fresh;
                parked
            }
            None => Box::new(fresh),
        }
    }

    /// Wraps `packet` in a descriptor for `readers` NFs, reusing a parked
    /// one when it is provably unshared.
    fn descriptor(&mut self, packet: Packet, meta: PacketMeta, readers: u32) -> SharedPacket {
        let (packet, meta) = match self.descriptors.pop() {
            Some(parked) => match parked.recycle(packet, readers, meta) {
                Ok(descriptor) => return descriptor,
                Err(returned) => returned,
            },
            None => (packet, meta),
        };
        SharedPacket::with_meta(packet, readers, meta)
    }

    /// Moves an owned frame's packet into a descriptor for a fan-out to
    /// `readers` NFs, parking the emptied box.
    fn share(&mut self, sole: Box<SolePacket>, readers: u32) -> SharedPacket {
        let meta = sole.meta;
        let packet = self.reclaim(sole);
        self.descriptor(packet, meta, readers)
    }

    /// A completed fan-out's exit test ([`SharedPacket::exclusive`]): once
    /// every NF has dropped its handle, moves the packet and the merged
    /// verdict into an owned frame and parks the emptied descriptor. While
    /// a straggler still holds its clone, hands the descriptor back as it
    /// came.
    fn unshare(&mut self, mut shared: SharedPacket) -> Result<Box<SolePacket>, SharedPacket> {
        let meta = *shared.meta();
        let Some(descriptor) = shared.exclusive() else {
            return Err(shared);
        };
        let verdict = descriptor.verdict();
        let packet = descriptor.take_packet();
        if self.descriptors.len() < self.descriptors.capacity() {
            self.descriptors.push(shared);
        }
        let mut sole = self.owned_frame(packet, meta);
        sole.verdict = verdict;
        Ok(sole)
    }

    /// Ends an owned frame's trip through the pipeline: moves the packet
    /// out (zero-copy) and parks the emptied box for reuse.
    fn reclaim(&mut self, mut sole: Box<SolePacket>) -> Packet {
        let packet = std::mem::replace(&mut sole.packet, Packet::from_bytes(Vec::new()));
        if self.owned.len() < self.owned.capacity() {
            self.owned.push(sole);
        }
        packet
    }
}

/// Checks that every target ring of a parallel dispatch can take its
/// copies (counting duplicate targets with multiplicity). The free space is
/// exact for the worker: it is each ring's only producer, staged items count
/// as used, and the consumer only drains.
fn parallel_fits(slots: &[NfSlot], indices: &[usize]) -> bool {
    indices.iter().enumerate().all(|(position, &ring)| {
        let copies_for_ring = indices[..=position].iter().filter(|i| **i == ring).count();
        slots[ring].ring.free_space() >= copies_for_ring
    })
}

/// Picks the replica of a service that serves this packet: the flow's
/// steering bucket picks a position in the (insertion-ordered) replica
/// list ([`replica_of_bucket`]), so every packet of a flow reaches the same
/// replica and per-flow NF state never splinters across instances. The
/// credit clamp (budget ≤ smallest internal ring) keeps the pinned ring
/// from overflowing even when the hash distribution is unlucky.
///
/// Only [`SlotState::Active`] slots appear in `service_instances`, so
/// draining replicas receive no new work. A replica scale moves the NF
/// state of the buckets it re-picks before their packets flow again.
fn pick_instance(
    service_instances: &[(ServiceId, Vec<usize>)],
    service: ServiceId,
    hash: u64,
) -> Option<usize> {
    match replicas_of(service_instances, service) {
        [] => None,
        // One replica (the usual case): no bucket pick per hop.
        [only] => Some(*only),
        candidates => {
            let bucket = (hash & (STEER_BUCKETS as u64 - 1)) as usize;
            Some(candidates[replica_of_bucket(bucket, candidates.len())])
        }
    }
}

/// The position among `replicas` that serves steering bucket `bucket`:
/// jump consistent hashing (Lamping & Veach, arXiv:1406.2294). Growing
/// from `k` to `k + 1` replicas moves buckets only onto the new one, and
/// shrinking moves only the last one's: `1 / (k + 1)` of them, about.
fn replica_of_bucket(bucket: usize, replicas: usize) -> usize {
    let (mut key, mut picked, mut next) = (bucket as u64, 0u64, 0u64);
    while next < replicas as u64 {
        picked = next;
        key = key.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(1);
        next = ((picked + 1) as f64 * ((1u64 << 31) as f64 / ((key >> 33) + 1) as f64)) as u64;
    }
    picked as usize
}

/// The active replica slots of `service` (empty if it has none here). A
/// shard runs a handful of services, so scanning the dense list beats
/// hashing the id.
fn replicas_of(service_instances: &[(ServiceId, Vec<usize>)], service: ServiceId) -> &[usize] {
    service_instances
        .iter()
        .find(|(id, _)| *id == service)
        .map_or(&[], |(_, replicas)| replicas)
}

fn idle_backoff(idle: &mut u32) {
    *idle += 1;
    if *idle < 64 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conflict::{resolve_parallel_verdicts, verdict_to_key};
    use crate::rehome::{MoveTarget, RehomeStep};
    use sdnfv_flowtable::{FlowMatch, FlowRule};
    use sdnfv_graph::{catalog, CompileOptions};
    use sdnfv_nf::nfs::{ComputeNf, IdsNf, NoOpNf};
    use sdnfv_nf::{NfContext, PacketBatch, PacketBatchMut};
    use sdnfv_proto::packet::PacketBuilder;
    use std::time::{Duration, Instant};

    fn packet(src_port: u16) -> Packet {
        PacketBuilder::udp()
            .src_ip([10, 0, 0, 1])
            .dst_ip([10, 0, 0, 2])
            .src_port(src_port)
            .dst_port(80)
            .ingress_port(0)
            .total_size(256)
            .build()
    }

    fn collect_outputs(host: &ThreadedHost, expected: usize) -> Vec<HostOutput> {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut out = Vec::new();
        while out.len() < expected && Instant::now() < deadline {
            let burst = host.poll_egress_burst(64);
            if burst.is_empty() {
                std::thread::yield_now();
            } else {
                out.extend(burst);
            }
        }
        out
    }

    fn forward_table() -> SharedFlowTable {
        let table = SharedFlowTable::new();
        table.insert(FlowRule::new(
            FlowMatch::at_step(RulePort::Nic(0)),
            vec![Action::ToPort(1)],
        ));
        table
    }

    /// Drains trace spans until `expected` have arrived (or a 5s deadline
    /// passes — workers may still be flushing when the packets egress).
    fn collect_spans(host: &ThreadedHost, expected: usize) -> Vec<sdnfv_telemetry::TraceSpan> {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut spans = Vec::new();
        while spans.len() < expected && Instant::now() < deadline {
            let batch = host.poll_traces();
            if batch.is_empty() {
                std::thread::yield_now();
            } else {
                spans.extend(batch);
            }
        }
        spans
    }

    #[test]
    fn shard_for_flow_is_stable_and_in_range() {
        let keys: Vec<FlowKey> = (0..64)
            .map(|i| packet(i).flow_key().expect("udp packet"))
            .collect();
        for key in &keys {
            assert_eq!(shard_for_flow(key, 1), 0);
            for shards in [2usize, 3, 4, 8] {
                let shard = shard_for_flow(key, shards);
                assert!(shard < shards);
                assert_eq!(shard, shard_for_flow(key, shards), "deterministic");
            }
        }
        // The hash actually spreads flows: 64 flows over 4 shards should
        // hit more than one shard.
        let distinct: std::collections::HashSet<usize> =
            keys.iter().map(|k| shard_for_flow(k, 4)).collect();
        assert!(distinct.len() > 1, "flows spread over shards");
    }

    #[test]
    fn a_replica_scale_re_picks_only_the_newest_replicas_buckets() {
        for k in 1..=8usize {
            let mut share = vec![0usize; k];
            for bucket in 0..STEER_BUCKETS {
                let (before, after) = (
                    replica_of_bucket(bucket, k),
                    replica_of_bucket(bucket, k + 1),
                );
                // Growing k → k+1 moves a bucket only onto the new replica;
                // shrinking k+1 → k moves only the last replica's buckets.
                assert!(
                    before < k && (after == before || after == k),
                    "bucket {bucket}: {before} of {k} replicas, {after} of {}",
                    k + 1
                );
                share[before] += 1;
            }
            let fair = STEER_BUCKETS as f64 / k as f64;
            for (replica, &buckets) in share.iter().enumerate() {
                assert!(
                    (buckets as f64 - fair).abs() <= 0.15 * fair,
                    "{k} replicas: replica {replica} serves {buckets} buckets, fair is {fair:.0}"
                );
            }
        }
        // The per-hop pick: every hash of a bucket gets the bucket's pick,
        // and the one-replica shortcut agrees with the general path.
        assert!((0..STEER_BUCKETS).all(|bucket| replica_of_bucket(bucket, 1) == 0));
        let service = ServiceId::new(4);
        for replicas in [vec![7], vec![7, 2], vec![7, 2, 9]] {
            let instances = vec![(ServiceId::new(1), vec![0]), (service, replicas.clone())];
            for bucket in 0..STEER_BUCKETS {
                let want = replicas[replica_of_bucket(bucket, replicas.len())];
                for high in [0u64, 1, 0xdead_beef, u64::MAX >> 10] {
                    let hash = (high << 10) | bucket as u64;
                    assert_eq!(pick_instance(&instances, service, hash), Some(want));
                }
            }
            assert_eq!(pick_instance(&instances, ServiceId::new(5), 1), None);
        }
        assert_eq!(pick_instance(&[(service, vec![])], service, 1), None);
    }

    /// The metadata the worker keeps with a test packet of flow `hash`.
    fn meta(hash: u64) -> PacketMeta {
        PacketMeta {
            key: packet(1).flow_key().unwrap(),
            hash,
            traced: false,
            list_run: None,
            hops: 0,
        }
    }

    /// An owned frame around `packet`, as RX dispatch makes it.
    fn sole_frame(packet: Packet, hash: u64) -> Frame {
        Frame::Sole(Box::new(SolePacket {
            packet,
            verdict: 0,
            meta: meta(hash),
        }))
    }

    /// Builds an inert NF slot (no thread) plus the handles that keep its
    /// rings alive, for testing the staging arithmetic.
    fn test_slot(capacity: usize) -> (NfSlot, Consumer<WorkItem>, Producer<DoneItem>) {
        let (ring, input) = spsc_ring::<WorkItem>(capacity);
        let (done_tx, done) = spsc_ring::<DoneItem>(capacity);
        let (_, messages) = spsc_ring::<NfOut>(capacity);
        let (control, _) = spsc_ring::<NfRequest>(CONTROL_RING_CAPACITY);
        let slot = NfSlot {
            service: ServiceId::new(1),
            read_only: true,
            ring,
            done,
            messages,
            control,
            unsent: std::collections::VecDeque::new(),
            responses: Vec::new(),
            noted: 0,
            probe: Arc::new(NfProbe::default()),
            stop: Arc::new(AtomicBool::new(false)),
            handle: None,
            state: SlotState::Active,
            retired_at: None,
        };
        (slot, input, done_tx)
    }

    /// A stand-alone NF replica engine over fresh rings: the test plays the
    /// worker, pushing work items and popping completions.
    fn test_nf_engine(
        nf: Box<dyn NetworkFunction>,
        capacity: usize,
    ) -> (NfEngine, Producer<WorkItem>, Consumer<DoneItem>) {
        let (engine, ring, completions, _, _) = test_nf_replica(nf, capacity, capacity);
        (engine, ring, completions)
    }

    /// [`test_nf_engine`] serving bursts of `burst_size`, which also
    /// returns the consumer of the replica's message ring (as long as its
    /// other rings, as `spawn_nf` makes it) and the producer of its control
    /// ring.
    fn test_nf_replica(
        nf: Box<dyn NetworkFunction>,
        capacity: usize,
        burst_size: usize,
    ) -> (
        NfEngine,
        Producer<WorkItem>,
        Consumer<DoneItem>,
        Consumer<NfOut>,
        Producer<NfRequest>,
    ) {
        let (ring, input) = spsc_ring::<WorkItem>(capacity);
        let (done, completions) = spsc_ring::<DoneItem>(capacity);
        let (messages_tx, messages) = spsc_ring::<NfOut>(capacity);
        let (control, control_rx) = spsc_ring::<NfRequest>(CONTROL_RING_CAPACITY);
        let engine = NfEngine::new(NfThread {
            shard: 0,
            service: ServiceId::new(1),
            nf,
            input,
            done,
            running: Arc::new(AtomicBool::new(true)),
            stop: Arc::new(AtomicBool::new(false)),
            stats: ShardStats::new(),
            tracker: Arc::new(BucketTracker::new(STEER_BUCKETS)),
            messages: messages_tx,
            control: control_rx,
            probe: Arc::new(NfProbe::default()),
            measure: true,
            clock: HostClock::real(),
            burst_size,
            latency: Arc::new(ShardLatency::default()),
        });
        (engine, ring, completions, messages, control)
    }

    /// Asks for a verdict chosen by the packet's first payload byte, and —
    /// as a mutating NF — counts its visits in the second. Counts the
    /// batches it is handed in `batches`.
    struct StampNf {
        mutate: bool,
        batches: Arc<AtomicU64>,
    }

    impl StampNf {
        fn new(mutate: bool) -> Self {
            StampNf {
                mutate,
                batches: Arc::default(),
            }
        }
    }

    impl NetworkFunction for StampNf {
        fn name(&self) -> &str {
            "stamp"
        }

        fn read_only(&self) -> bool {
            !self.mutate
        }

        fn process(&mut self, packet: &Packet, _ctx: &mut NfContext) -> Verdict {
            match packet.l4_payload().unwrap()[0] % 4 {
                0 => Verdict::Default,
                1 => Verdict::ToService(ServiceId::new(9)),
                2 => Verdict::ToPort(7),
                _ => Verdict::Discard,
            }
        }

        fn process_mut(&mut self, packet: &mut Packet, ctx: &mut NfContext) -> Verdict {
            packet.l4_payload_mut().unwrap()[1] += 1;
            self.process(packet, ctx)
        }

        fn process_batch(
            &mut self,
            batch: &PacketBatch<'_>,
            verdicts: &mut [Verdict],
            ctx: &mut NfContext,
        ) {
            self.batches.fetch_add(1, Ordering::Relaxed);
            for (slot, packet) in verdicts.iter_mut().zip(batch.iter()) {
                *slot = self.process(packet, ctx);
            }
        }

        fn process_batch_mut(
            &mut self,
            batch: &mut PacketBatchMut<'_, '_>,
            verdicts: &mut [Verdict],
            ctx: &mut NfContext,
        ) {
            self.batches.fetch_add(1, Ordering::Relaxed);
            for (slot, packet) in verdicts.iter_mut().zip(batch.iter_mut()) {
                *slot = self.process_mut(packet, ctx);
            }
        }
    }

    /// What one packet looked like after the burst.
    #[derive(Debug, PartialEq)]
    struct Served {
        hash: u64,
        remaining: u32,
        verdict: u64,
        payload_head: [u8; 2],
    }

    /// A test packet whose first payload byte is `selector` and whose
    /// second (the visit count) is 0.
    fn stamped(selector: u8) -> Packet {
        let mut frame = packet(u16::from(selector));
        frame.l4_payload_mut().unwrap()[..2].copy_from_slice(&[selector, 0]);
        frame
    }

    fn served(frame: &Frame) -> Served {
        let (hash, remaining, verdict) = match frame {
            Frame::Sole(sole) => (sole.meta.hash, 0, sole.verdict),
            Frame::Shared(shared) => (shared.meta().hash, shared.remaining(), shared.verdict()),
        };
        Served {
            hash,
            remaining,
            verdict,
            payload_head: frame.packet().l4_payload().unwrap()[..2]
                .try_into()
                .unwrap(),
        }
    }

    /// One burst of a read-only [`StampNf`] over six packets in eight
    /// items, in ring order: owned, fan-out, twice-named (first), owned,
    /// twice-named (second), owned, fan-out, owned. `owned == false` serves
    /// the same burst with each owned frame a one-reader descriptor, i.e.
    /// down the shared path alone. Returns the completions in done-ring
    /// order, then the two fan-out descriptors, and the batches the NF was
    /// handed.
    fn serve_mixed_burst(owned: bool) -> (Vec<Served>, u64) {
        let nf = StampNf::new(false);
        let batches = Arc::clone(&nf.batches);
        let (mut engine, ring, done) = test_nf_engine(Box::new(nf), 8);
        let descriptor = |selector: u8, readers: u32, hash: u64| {
            SharedPacket::with_meta(stamped(selector), readers, meta(hash))
        };
        let single = |selector: u8, hash: u64| {
            if owned {
                sole_frame(stamped(selector), hash)
            } else {
                Frame::Shared(descriptor(selector, 1, hash))
            }
        };
        let work = |frame: Frame, position: u16| WorkItem {
            frame,
            exit_service: ServiceId::new(1),
            position,
        };
        // Fan-out of a parallel rule: three readers, this NF is the second;
        // the test plays the other two and merges a steer of its own.
        let fan_out = [(1, 20), (2, 21)].map(|(selector, hash)| descriptor(selector, 3, hash));
        // A hand-installed parallel rule naming this service twice: two
        // handles on one buffer in one burst.
        let twice = descriptor(3, 2, 30);
        let mut burst = vec![
            work(single(0, 10), 0),
            work(Frame::Shared(fan_out[0].clone()), 1),
            work(Frame::Shared(twice.clone()), 0),
            work(single(1, 11), 0),
            work(Frame::Shared(twice), 1),
            work(single(2, 12), 0),
            work(Frame::Shared(fan_out[1].clone()), 1),
            work(single(3, 13), 0),
        ];
        assert_eq!(ring.push_n(&mut burst), 8);
        assert!(engine.step());

        let mut completions = Vec::new();
        done.pop_n(&mut completions, 8);
        let mut out: Vec<Served> = completions.iter().map(|item| served(&item.frame)).collect();
        for shared in fan_out {
            // The NF was one of three readers: its handle is gone, its
            // request merged, and the descriptor still waits for the rest.
            assert_eq!(shared.remaining(), 2);
            shared.merge_verdict(verdict_to_key(Verdict::ToService(ServiceId::new(5)), 0));
            assert!(!shared.complete_one());
            assert!(shared.complete_one());
            out.push(served(&Frame::Shared(shared)));
        }
        (out, batches.load(Ordering::Relaxed))
    }

    #[test]
    fn a_mixed_burst_is_served_as_the_shared_path_alone_serves_it() {
        let (owned, batches) = serve_mixed_burst(true);
        assert_eq!(
            batches, 1,
            "one batch serves the whole burst, the repeated buffer included"
        );
        assert_eq!(owned, serve_mixed_burst(false).0);
        let key = verdict_to_key;
        let steer = Verdict::ToService(ServiceId::new(9));
        let expected = [
            // The four owned frames and the twice-named descriptor
            // (complete at its second item), in ring order …
            (10, key(Verdict::Default, 0), [0, 0]),
            (11, key(steer, 0), [1, 0]),
            (30, key(Verdict::Discard, 0), [3, 0]),
            (12, key(Verdict::ToPort(7), 0), [2, 0]),
            (13, key(Verdict::Discard, 0), [3, 0]),
            // … then the fan-out descriptors: position 0's steer beats this
            // NF's steer at position 1, its port request beats both.
            (20, key(Verdict::ToService(ServiceId::new(5)), 0), [1, 0]),
            (21, key(Verdict::ToPort(7), 1), [2, 0]),
        ]
        .map(|(hash, verdict, payload_head)| Served {
            hash,
            remaining: 0,
            verdict,
            payload_head,
        });
        assert_eq!(owned, expected);

        // A mutating replica is handed owned frames only, and writes each
        // as plain memory, in one batch.
        let nf = StampNf::new(true);
        let batches = Arc::clone(&nf.batches);
        let (mut engine, ring, done) = test_nf_engine(Box::new(nf), 8);
        let mut burst: Vec<WorkItem> = (0..4u8)
            .map(|selector| WorkItem {
                frame: sole_frame(stamped(selector), 10 + u64::from(selector)),
                exit_service: ServiceId::new(1),
                position: 0,
            })
            .collect();
        assert_eq!(ring.push_n(&mut burst), 4);
        assert!(engine.step());
        assert_eq!(batches.load(Ordering::Relaxed), 1);
        let mut completions = Vec::new();
        done.pop_n(&mut completions, 8);
        let written: Vec<Served> = completions.iter().map(|item| served(&item.frame)).collect();
        let expected = [
            (10, key(Verdict::Default, 0), [0, 1]),
            (11, key(steer, 0), [1, 1]),
            (12, key(Verdict::ToPort(7), 0), [2, 1]),
            (13, key(Verdict::Discard, 0), [3, 1]),
        ]
        .map(|(hash, verdict, payload_head)| Served {
            hash,
            remaining: 0,
            verdict,
            payload_head,
        });
        assert_eq!(written, expected);
    }

    #[test]
    #[should_panic(expected = "a mutating replica was handed a shared frame")]
    fn a_mutating_replica_refuses_a_shared_frame() {
        let (mut engine, ring, _done) = test_nf_engine(Box::new(StampNf::new(true)), 2);
        let shared = SharedPacket::with_meta(stamped(0), 2, meta(0));
        let item = WorkItem {
            frame: Frame::Shared(shared.clone()),
            exit_service: ServiceId::new(1),
            position: 0,
        };
        assert!(ring.push(item).is_ok());
        engine.step();
    }

    /// One NF of the mixed chain: asks for what its role does with the
    /// packet's selector (the first payload byte). The sequential hops `a`
    /// and `d` mutate, counting their visits in the second byte; the
    /// fan-out's `b` and `c` only read.
    struct SelectorNf {
        role: char,
    }

    impl NetworkFunction for SelectorNf {
        fn name(&self) -> &str {
            "selector"
        }

        fn read_only(&self) -> bool {
            matches!(self.role, 'b' | 'c')
        }

        fn process(&mut self, packet: &Packet, _ctx: &mut NfContext) -> Verdict {
            match (self.role, packet.l4_payload().unwrap()[0]) {
                ('a', 5) | ('c', 2) => Verdict::Discard,
                ('b', 1 | 2) | ('c', 3) => Verdict::ToPort(2),
                ('b', 3) | ('d', 4) => Verdict::ToPort(3),
                _ => Verdict::Default,
            }
        }

        fn process_mut(&mut self, packet: &mut Packet, ctx: &mut NfContext) -> Verdict {
            packet.l4_payload_mut().unwrap()[1] += 1;
            self.process(packet, ctx)
        }
    }

    #[test]
    fn a_mixed_chain_converts_its_frame_at_every_fan_out_boundary() {
        // a → parallel (b, c) → d → port. RX stages an owned frame for `a`,
        // `a`'s return moves the packet into a descriptor for the fan-out,
        // the fan-out's exit test takes it back into an owned frame before
        // the worker looks up `d`, and egress reclaims that.
        let [a, b, c, d] = [1, 2, 3, 4].map(ServiceId::new);
        let table = SharedFlowTable::new();
        let at = FlowMatch::at_step;
        table.insert(FlowRule::new(
            at(RulePort::Nic(0)),
            vec![Action::ToService(a)],
        ));
        table.insert(FlowRule::parallel(
            at(RulePort::Service(a)),
            vec![Action::ToService(b), Action::ToService(c)],
        ));
        table.insert(FlowRule::new(
            at(RulePort::Service(c)),
            vec![Action::ToService(d), Action::ToPort(2), Action::ToPort(3)],
        ));
        table.insert(FlowRule::new(
            at(RulePort::Service(d)),
            vec![Action::ToPort(1), Action::ToPort(3)],
        ));
        const CREDITS: usize = 16;
        let roles = [(a, 'a'), (b, 'b'), (c, 'c'), (d, 'd')];
        let (host, sim) = ThreadedHost::start_sim_sharded(
            table,
            move |_shard| {
                roles
                    .map(|(id, role)| {
                        (
                            id,
                            Box::new(SelectorNf { role }) as Box<dyn NetworkFunction>,
                        )
                    })
                    .into()
            },
            ThreadedHostConfig {
                shard_credits: CREDITS,
                ..ThreadedHostConfig::default()
            },
        );
        let worker = sim.actors()[0].id;
        sim.step(worker);
        let actor = |service: ServiceId| {
            let label = format!("shard0/nf{service}");
            sim.actors()
                .into_iter()
                .find(|actor| actor.label == label)
                .expect("every service has a replica")
                .id
        };
        let selected = |seq: u16, selector: u8| {
            let mut frame = packet(seq);
            frame.l4_payload_mut().unwrap()[..2].copy_from_slice(&[selector, 0]);
            frame
        };
        // Selector → (egress port, visits by `a` and `d`); `None`: dropped.
        // 0: every NF follows the table, out `d`'s default port;
        // 1: `b` asks port 2, honoured from the shared frame;
        // 2: `b` asks port 2 and `c` a drop, and the drop wins;
        // 3: `b` (position 0) asks port 3, `c` port 2: the earlier wins;
        // 4: `d` asks port 3 of the owned frame the exit test made;
        // 5: `a` drops its owned frame.
        let expected = [
            Some((1, 2)),
            Some((2, 1)),
            None,
            Some((3, 1)),
            Some((3, 2)),
            None,
        ];
        let mut per_selector = [0usize; 6];
        let mut seq = 0u16;
        for _ in 0..12 {
            // A burst of the whole credit budget, drained before the next:
            // no buffer is freed and reused while its packet is in flight.
            let burst: Vec<Packet> = (0..CREDITS)
                .map(|_| {
                    seq += 1;
                    selected(seq, (seq % 6) as u8)
                })
                .collect();
            let mut in_flight: HashMap<*const u8, u8> = burst
                .iter()
                .map(|frame| (frame.data().as_ptr(), frame.l4_payload().unwrap()[0]))
                .collect();
            assert!(host.inject_burst(burst).throttled.is_empty());
            while sim.step_all() > 0 {}
            for output in host.poll_egress_burst(2 * CREDITS) {
                let selector = in_flight
                    .remove(&output.packet.data().as_ptr())
                    .expect("the egressed frame is the buffer that was injected");
                let payload = output.packet.l4_payload().unwrap();
                assert_eq!(payload[0], selector);
                let (port, visits) = expected[usize::from(selector)].expect("a dropped selector");
                assert_eq!(
                    (output.port, payload[1]),
                    (port, visits),
                    "selector {selector}"
                );
                per_selector[usize::from(selector)] += 1;
            }
            assert!(in_flight
                .values()
                .all(|&selector| expected[usize::from(selector)].is_none()));
        }
        assert_eq!(per_selector, [32, 32, 0, 32, 32, 0]);
        let stats = host.stats().snapshot();
        assert_eq!((stats.received, stats.transmitted), (192, 128));
        assert_eq!(stats.dropped, 64);
        assert_eq!(stats.nf_invocations, 32 * (4 + 3 + 3 + 3 + 4 + 1));

        // A straggler: the fan-out's final completion reaches the worker
        // while another party still holds a clone of its descriptor (here,
        // the test). The exit test fails and the completion waits, keeping
        // its credit, and the worker has nothing to do until the clone goes.
        let probe = selected(seq + 1, 4);
        let buffer = probe.data().as_ptr();
        assert!(host.inject(probe).is_admitted());
        for id in [worker, actor(a), worker, actor(b), actor(c)] {
            assert!(sim.step(id));
        }
        let straggler = sim
            .with_worker(worker, |engine| {
                let mut completed = Vec::new();
                for (index, slot) in engine.slots.iter_mut().enumerate() {
                    let (front, back) = slot.done.peek_mut(2);
                    assert!(back.is_empty());
                    for item in front.iter() {
                        let Frame::Shared(shared) = &item.frame else {
                            panic!("a fan-out completes a shared frame");
                        };
                        completed.push((index, shared.clone()));
                    }
                }
                assert_eq!(completed.len(), 1, "the fan-out completed once");
                let (index, straggler) = completed.remove(0);
                engine.tx_round(index, 1);
                assert_eq!(engine.deferred.len(), 1, "the completion waits");
                assert!(engine.slots[index].done.is_empty(), "its slot was released");
                straggler
            })
            .expect("the worker is running");
        assert_eq!(
            host.available_credits(0),
            CREDITS - 1,
            "it keeps its credit"
        );
        assert!(!sim.step(worker), "nothing moves while the clone is held");
        assert_eq!(straggler.remaining(), 0);

        // Once the clone is dropped, the worker's next step takes the packet
        // back into an owned frame and sends it on to `d` — a mutating NF,
        // which refuses any other kind of frame.
        drop(straggler);
        assert!(sim.step(worker));
        assert!(sim
            .with_worker(worker, |engine| engine.deferred.is_empty())
            .expect("the worker is running"));
        assert!(sim.step(actor(d)));
        while sim.step_all() > 0 {}
        let out = host.poll_egress_burst(4);
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].port, out[0].packet.data().as_ptr()), (3, buffer));
        assert_eq!(out[0].packet.l4_payload().unwrap()[1], 2);
        assert_eq!(host.available_credits(0), CREDITS);

        let (owned, descriptors) = sim
            .with_worker(worker, |engine| {
                (engine.free.owned.len(), engine.free.descriptors.len())
            })
            .expect("the worker is running");
        assert!(
            (1..=CREDITS).contains(&owned),
            "{owned} owned frames parked"
        );
        assert!(
            (1..=CREDITS).contains(&descriptors),
            "{descriptors} descriptors parked"
        );
        host.shutdown();
    }

    /// One NF of the hand-installed parallel rule `r` → `w` → `s`: the
    /// writer `w` counts its visits in the second payload byte, the readers
    /// drop a packet seen on the wrong side of that write, and the requests
    /// chosen by the first byte make the resolution by position visible.
    struct ListNf {
        role: char,
    }

    impl NetworkFunction for ListNf {
        fn name(&self) -> &str {
            "list"
        }

        fn read_only(&self) -> bool {
            self.role != 'w'
        }

        fn process(&mut self, packet: &Packet, _ctx: &mut NfContext) -> Verdict {
            let payload = packet.l4_payload().unwrap();
            match (self.role, payload[0], payload[1]) {
                ('r', _, 1..) | ('s', _, 0) => Verdict::Discard,
                ('r', 1, _) => Verdict::ToPort(2),
                ('w', 1 | 2, _) => Verdict::ToPort(3),
                ('w', 4, _) => Verdict::Discard,
                ('s', 2 | 3, _) => Verdict::ToPort(4),
                _ => Verdict::Default,
            }
        }

        fn process_mut(&mut self, packet: &mut Packet, ctx: &mut NfContext) -> Verdict {
            packet.l4_payload_mut().unwrap()[1] += 1;
            self.process(packet, ctx)
        }
    }

    #[test]
    fn a_parallel_rule_naming_a_writer_runs_in_list_order_as_the_manager_runs_it() {
        let [r, w, s] = [1, 2, 3].map(ServiceId::new);
        let rules = || {
            let at = FlowMatch::at_step;
            let listed = [r, w, s].map(Action::ToService).to_vec();
            [
                FlowRule::parallel(at(RulePort::Nic(0)), listed),
                FlowRule::new(
                    at(RulePort::Service(s)),
                    (1..=4).map(Action::ToPort).collect(),
                ),
            ]
        };
        let nfs = || -> Vec<(ServiceId, Box<dyn NetworkFunction>)> {
            [(r, 'r'), (w, 'w'), (s, 's')]
                .map(|(id, role)| (id, Box::new(ListNf { role }) as Box<dyn NetworkFunction>))
                .into()
        };
        // Selector (first payload byte) → egress port, or `None`: dropped.
        // 0: nobody asks, the exit rule's default; 1: `r` (position 0) beats
        // `w`; 2: `w` (position 1) beats `s`; 3: `s` alone; 4: `w` drops.
        let expected = [Some(1), Some(2), Some(3), Some(4), None];
        let packets = || -> Vec<Packet> {
            (0..10u16)
                .map(|seq| {
                    let mut frame = packet(seq);
                    frame.l4_payload_mut().unwrap()[..2].copy_from_slice(&[(seq % 5) as u8, 0]);
                    frame
                })
                .collect()
        };

        // The specification: each NF sees the packet as the NFs listed
        // before it left it, and the list-ordered verdicts resolve as
        // `resolve_parallel_verdicts` says; `Default` takes the exit rule's
        // default, port 1.
        let by_spec: HashMap<u16, Option<(Port, u8)>> = packets()
            .into_iter()
            .enumerate()
            .map(|(seq, mut packet)| {
                let mut ctx = NfContext::new(0);
                let verdicts: Vec<Verdict> = nfs()
                    .into_iter()
                    .map(|(_, mut nf)| match nf.read_only() {
                        true => nf.process(&packet, &mut ctx),
                        false => nf.process_mut(&mut packet, &mut ctx),
                    })
                    .collect();
                let written = packet.l4_payload().unwrap()[1];
                let port = match resolve_parallel_verdicts(&verdicts) {
                    Verdict::Default => Some(1),
                    Verdict::ToPort(port) => Some(port),
                    _ => None,
                };
                (seq as u16, port.map(|port| (port, written)))
            })
            .collect();

        let table = SharedFlowTable::new();
        for rule in rules() {
            table.insert(rule);
        }
        let (host, sim) = ThreadedHost::start_sim_sharded(
            table,
            move |_shard| nfs(),
            ThreadedHostConfig::default(),
        );
        assert!(host.inject_burst(packets()).throttled.is_empty());
        while sim.step_all() > 0 {}
        let mut threaded: HashMap<u16, Option<(Port, u8)>> =
            (0..10u16).map(|seq| (seq, None)).collect();
        for out in host.poll_egress_burst(32) {
            let written = out.packet.l4_payload().unwrap()[1];
            threaded.insert(out.key.src_port, Some((out.port, written)));
        }
        assert_eq!(threaded, by_spec);
        for (seq, outcome) in &threaded {
            let selector = usize::from(seq % 5);
            // Every NF after the writer saw its write, and so does egress.
            assert_eq!(
                *outcome,
                expected[selector].map(|port| (port, 1)),
                "selector {selector}"
            );
        }
        let stats = host.stats().snapshot();
        assert_eq!(
            (
                stats.parallel_dispatches,
                stats.nf_invocations,
                stats.dropped
            ),
            (10, 30, 2)
        );
        // The writer panics on a shared frame; no descriptor was ever even
        // parked, and every walk gave its slot back.
        let worker = sim.actors()[0].id;
        let (descriptors, runs_done) = sim
            .with_worker(worker, |engine| {
                (
                    engine.free.descriptors.len(),
                    engine.list_runs.iter().all(Option::is_none),
                )
            })
            .expect("the worker is running");
        assert_eq!((descriptors, runs_done), (0, true));
        host.shutdown();
    }

    #[test]
    fn a_rule_cycle_drops_its_packet_at_the_hop_bound() {
        // `Nic(0) → s` and `s → s`: with no hop bound the packet loops
        // forever and its credit never comes back.
        let s = ServiceId::new(1);
        let table = SharedFlowTable::new();
        for (step, target) in [(RulePort::Nic(0), s), (RulePort::Service(s), s)] {
            table.insert(FlowRule::new(
                FlowMatch::at_step(step),
                vec![Action::ToService(target)],
            ));
        }
        let nfs = move |_shard| -> Vec<(ServiceId, Box<dyn NetworkFunction>)> {
            vec![(s, Box::new(NoOpNf::new()))]
        };
        let (host, sim) =
            ThreadedHost::start_sim_sharded(table, nfs, ThreadedHostConfig::default());
        assert!(host.inject(packet(1)).is_admitted());
        let mut steps = 0;
        while sim.step_all() > 0 {
            steps += 1;
            assert!(steps < 10_000, "the host never quiesced");
        }
        let stats = host.stats().snapshot();
        assert_eq!(
            (stats.dropped, stats.transmitted, stats.nf_invocations),
            (1, 0, u64::from(MAX_CHAIN_HOPS))
        );
        assert_eq!(host.available_credits(0), host.credit_capacity());
        host.shutdown();
    }

    /// A read-only NF of a three-way fan-out: reads its own two bits of the
    /// selector (the first payload byte) as a request.
    struct PickNf {
        position: u8,
    }

    fn pick(position: u8, selector: u8) -> Verdict {
        match (selector >> (2 * position)) & 3 {
            0 => Verdict::Default,
            1 => Verdict::ToPort(1 + Port::from(position)),
            2 => Verdict::ToPort(4 + Port::from(position)),
            _ => Verdict::Discard,
        }
    }

    impl NetworkFunction for PickNf {
        fn name(&self) -> &str {
            "pick"
        }

        fn process(&mut self, packet: &Packet, _ctx: &mut NfContext) -> Verdict {
            pick(self.position, packet.l4_payload().unwrap()[0])
        }
    }

    #[test]
    fn a_read_only_fan_out_through_threads_loses_nothing_and_resolves_every_verdict() {
        const PACKETS: u16 = 3000;
        let ids = [1, 2, 3].map(ServiceId::new);
        let table = SharedFlowTable::new();
        let at = FlowMatch::at_step;
        table.insert(FlowRule::parallel(
            at(RulePort::Nic(0)),
            ids.map(Action::ToService).to_vec(),
        ));
        table.insert(FlowRule::new(
            at(RulePort::Service(ids[2])),
            [9, 1, 2, 3, 4, 5, 6].map(Action::ToPort).to_vec(),
        ));
        let nfs: Vec<(ServiceId, Box<dyn NetworkFunction>)> = (0..3u8)
            .map(|position| {
                (
                    ids[usize::from(position)],
                    Box::new(PickNf { position }) as Box<dyn NetworkFunction>,
                )
            })
            .collect();
        let host = ThreadedHost::start(table, nfs, ThreadedHostConfig::default());
        let selected = |seq: u16| {
            let mut frame = packet(seq);
            frame.l4_payload_mut().unwrap()[0] = (seq % 64) as u8;
            frame
        };
        let resolved =
            |selector: u8| match resolve_parallel_verdicts(&[0, 1, 2].map(|p| pick(p, selector))) {
                Verdict::Default => Some(9),
                Verdict::ToPort(port) => Some(port),
                _ => None,
            };
        let transmitted = (0..PACKETS)
            .filter(|&seq| resolved((seq % 64) as u8).is_some())
            .count();
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut injected = 0;
        let mut outputs = Vec::new();
        while (injected < PACKETS || outputs.len() < transmitted) && Instant::now() < deadline {
            if injected < PACKETS && host.inject(selected(injected)).is_admitted() {
                injected += 1;
            }
            outputs.extend(host.poll_egress_burst(64));
        }
        assert_eq!(outputs.len(), transmitted);
        for out in &outputs {
            let selector = out.packet.l4_payload().unwrap()[0];
            assert_eq!(Some(out.port), resolved(selector), "selector {selector}");
        }
        let stats = host.stats().snapshot();
        assert_eq!(stats.received, u64::from(PACKETS));
        assert_eq!(stats.dropped, u64::from(PACKETS) - transmitted as u64);
        assert_eq!(stats.parallel_dispatches, u64::from(PACKETS));
        assert_eq!(stats.nf_invocations, 3 * u64::from(PACKETS));
        host.shutdown();
    }

    #[test]
    fn parallel_fits_accounts_for_staged_items_and_multiplicity() {
        let (slot_a, _keep_a, _keep_da) = test_slot(2);
        let (slot_b, _keep_b, _keep_db) = test_slot(2);
        let slots = vec![slot_a, slot_b];
        // Empty rings: both take up to two copies.
        assert!(parallel_fits(&slots, &[0, 1]));
        assert!(parallel_fits(&slots, &[0, 0]));
        assert!(!parallel_fits(&slots, &[0, 0, 0]));
        // One item staged (not yet published) into ring 0 leaves room for
        // one more copy.
        let item = WorkItem {
            frame: Frame::Shared(SharedPacket::with_meta(packet(9), 1, meta(0))),
            exit_service: ServiceId::new(1),
            position: 0,
        };
        assert!(slots[0].ring.stage(item).is_ok());
        assert!(parallel_fits(&slots, &[0]));
        assert!(!parallel_fits(&slots, &[0, 0]));
        assert!(parallel_fits(&slots, &[0, 1]));
        // Publishing it changes nothing: it holds its slot either way.
        assert_eq!(slots[0].ring.publish(), 1);
        assert!(!parallel_fits(&slots, &[0, 0]));
        assert!(parallel_fits(&slots, &[0]));
    }

    #[test]
    fn zero_nf_forwarding() {
        let host = ThreadedHost::start(forward_table(), vec![], ThreadedHostConfig::default());
        for i in 0..50 {
            assert!(host.inject(packet(i)).is_admitted());
        }
        let outputs = collect_outputs(&host, 50);
        assert_eq!(outputs.len(), 50);
        assert!(outputs.iter().all(|out| out.port == 1));
        let snap = host.stats().snapshot();
        assert_eq!(snap.received, 50);
        assert_eq!(snap.transmitted, 50);
        host.shutdown();
    }

    #[test]
    fn burst_injection_round_trips() {
        let host = ThreadedHost::start(forward_table(), vec![], ThreadedHostConfig::default());
        let burst: Vec<Packet> = (0..64).map(packet).collect();
        let outcome = host.inject_burst(burst);
        assert_eq!(outcome.admitted, 64);
        assert!(outcome.throttled.is_empty());
        let outputs = collect_outputs(&host, 64);
        assert_eq!(outputs.len(), 64);
        host.shutdown();
    }

    #[test]
    fn sequential_chain_through_threads() {
        let (graph, ids) = catalog::chain(&[("a", true), ("b", true), ("c", true)]);
        let table = SharedFlowTable::new();
        for rule in graph.compile(&CompileOptions::default()) {
            table.insert(rule);
        }
        let nfs: Vec<(ServiceId, Box<dyn NetworkFunction>)> = ids
            .iter()
            .map(|id| (*id, Box::new(NoOpNf::new()) as Box<dyn NetworkFunction>))
            .collect();
        let host = ThreadedHost::start(table, nfs, ThreadedHostConfig::default());
        for i in 0..100 {
            assert!(host.inject(packet(i)).is_admitted());
        }
        let outputs = collect_outputs(&host, 100);
        assert_eq!(outputs.len(), 100);
        let snap = host.stats().snapshot();
        assert_eq!(snap.nf_invocations, 300);
        assert_eq!(snap.transmitted, 100);
        assert_eq!(snap.dropped, 0);
        host.shutdown();
    }

    #[test]
    fn every_snapshot_carries_one_latency_record_per_counted_packet() {
        // The worker records and publishes on one thread: whatever batching
        // its recorders do, a snapshot's histogram totals must already hold
        // every packet its counters count, and so must the live report
        // once the host is quiet.
        let (graph, ids) = catalog::chain(&[("a", true), ("b", true)]);
        let table = SharedFlowTable::new();
        for rule in graph.compile(&CompileOptions::default()) {
            table.insert(rule);
        }
        let (host, sim) = ThreadedHost::start_sim_sharded(
            table,
            move |_shard| {
                ids.iter()
                    .map(|id| (*id, Box::new(NoOpNf::new()) as Box<dyn NetworkFunction>))
                    .collect()
            },
            ThreadedHostConfig {
                telemetry_interval_ns: 1_000,
                ..ThreadedHostConfig::default()
            },
        );
        let mut snapshots = 0;
        let mut egressed = 0;
        for round in 0..60u16 {
            // Bursts of 1 to 40 packets, some waiting across several clock
            // advances, so one burst spreads over histogram buckets.
            let burst = (0..=round % 40).map(|i| packet(round * 64 + i)).collect();
            assert!(host.inject_burst(burst).throttled.is_empty());
            for _ in 0..round % 3 {
                sim.advance_clock_ns(700);
            }
            // (The worker looks at the export clock every 32nd step.)
            for _ in 0..16 {
                sim.step_all();
            }
            sim.advance_clock_ns(2_000);
            egressed += host.poll_egress_burst(64).len();
            for snapshot in host.poll_telemetry() {
                snapshots += 1;
                let latency = &snapshot.latency;
                assert_eq!(latency.ingress_wait.count(), snapshot.received);
                assert_eq!(latency.end_to_end.count(), snapshot.transmitted);
                assert_eq!(latency.egress_wait.count(), snapshot.transmitted);
            }
        }
        while sim.step_all() > 0 {
            sim.advance_clock_ns(2_000);
            egressed += host.poll_egress_burst(64).len();
        }
        let received: u64 = (0..60u64).map(|round| round % 40 + 1).sum();
        assert_eq!(egressed as u64, received);
        assert!(snapshots > 10, "{snapshots} snapshots published");
        let stats = host.stats().snapshot();
        assert_eq!((stats.received, stats.transmitted), (received, received));
        let report = host.latency_report();
        assert_eq!(report.ingress_wait.count(), received);
        assert_eq!(report.end_to_end.count(), received);
        assert_eq!(report.egress_wait.count(), received);
        assert_eq!(report.nf_service.count(), 2 * received);
        host.shutdown();
    }

    #[test]
    fn sequential_chain_with_burst_size_one_still_works() {
        // burst_size == 1 degrades to the per-packet runtime.
        let (graph, ids) = catalog::chain(&[("a", true), ("b", true)]);
        let table = SharedFlowTable::new();
        for rule in graph.compile(&CompileOptions::default()) {
            table.insert(rule);
        }
        let nfs: Vec<(ServiceId, Box<dyn NetworkFunction>)> = ids
            .iter()
            .map(|id| (*id, Box::new(NoOpNf::new()) as Box<dyn NetworkFunction>))
            .collect();
        let host = ThreadedHost::start(
            table,
            nfs,
            ThreadedHostConfig {
                burst_size: 1,
                ..ThreadedHostConfig::default()
            },
        );
        for i in 0..40 {
            assert!(host.inject(packet(i)).is_admitted());
        }
        let outputs = collect_outputs(&host, 40);
        assert_eq!(outputs.len(), 40);
        let snap = host.stats().snapshot();
        assert_eq!(snap.nf_invocations, 80);
        host.shutdown();
    }

    #[test]
    fn parallel_chain_through_threads() {
        let (graph, ids) = catalog::chain(&[("a", true), ("b", true)]);
        let table = SharedFlowTable::new();
        for rule in graph.compile(&CompileOptions {
            enable_parallel: true,
            ..CompileOptions::default()
        }) {
            table.insert(rule);
        }
        let nfs: Vec<(ServiceId, Box<dyn NetworkFunction>)> = ids
            .iter()
            .map(|id| {
                (
                    *id,
                    Box::new(ComputeNf::new(10)) as Box<dyn NetworkFunction>,
                )
            })
            .collect();
        let host = ThreadedHost::start(table, nfs, ThreadedHostConfig::default());
        for i in 0..50 {
            assert!(host.inject(packet(i)).is_admitted());
        }
        let outputs = collect_outputs(&host, 50);
        assert_eq!(outputs.len(), 50);
        let snap = host.stats().snapshot();
        assert_eq!(snap.parallel_dispatches, 50);
        assert_eq!(snap.nf_invocations, 100);
        host.shutdown();
    }

    #[test]
    fn table_miss_counts_punt() {
        let host = ThreadedHost::start(
            SharedFlowTable::new(),
            vec![],
            ThreadedHostConfig::default(),
        );
        assert!(host.inject(packet(1)).is_admitted());
        let deadline = Instant::now() + Duration::from_secs(2);
        while host.stats().snapshot().controller_punts == 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(host.stats().snapshot().controller_punts, 1);
        host.shutdown();
    }

    /// An NF whose verdict steers every packet straight out of a port.
    struct SteerToPortNf(Port);

    impl NetworkFunction for SteerToPortNf {
        fn name(&self) -> &str {
            "steer-to-port"
        }

        fn process(&mut self, _packet: &Packet, _ctx: &mut NfContext) -> Verdict {
            Verdict::ToPort(self.0)
        }
    }

    #[test]
    fn unvalidated_nf_steering_is_punted_not_transmitted() {
        // The graph sends NIC 0 to the NF but has no rule at the NF's own
        // step, so nothing says where the NF may steer. Its `ToPort` request
        // must go to the controller, not onto the wire.
        let service = ServiceId::new(1);
        let table = SharedFlowTable::new();
        table.insert(FlowRule::new(
            FlowMatch::at_step(RulePort::Nic(0)),
            vec![Action::ToService(service)],
        ));
        let host = ThreadedHost::start(
            table,
            vec![(
                service,
                Box::new(SteerToPortNf(7)) as Box<dyn NetworkFunction>,
            )],
            ThreadedHostConfig::default(),
        );
        for i in 0..10 {
            assert!(host.inject(packet(i)).is_admitted());
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        while host.stats().snapshot().controller_punts < 10 && Instant::now() < deadline {
            assert!(host.poll_egress().is_none(), "steered past the graph");
            std::thread::yield_now();
        }
        let snap = host.stats().snapshot();
        assert_eq!(snap.controller_punts, 10);
        assert_eq!(snap.transmitted, 0);
        assert!(host.poll_egress().is_none());
        host.shutdown();
    }

    #[test]
    fn timestamps_allow_latency_measurement() {
        let host = ThreadedHost::start(forward_table(), vec![], ThreadedHostConfig::default());
        assert!(host.inject(packet(1)).is_admitted());
        let outputs = collect_outputs(&host, 1);
        let pkt = &outputs[0].packet;
        let latency = host.now_ns().saturating_sub(pkt.timestamp_ns);
        assert!(latency > 0);
        assert!(latency < 5_000_000_000, "latency should be far below 5s");
        host.shutdown();
    }

    #[test]
    fn sharded_forwarding_spreads_and_preserves_packets() {
        let host = ThreadedHost::start_sharded(
            forward_table(),
            |_shard| vec![],
            ThreadedHostConfig {
                num_shards: 4,
                ..ThreadedHostConfig::default()
            },
        );
        assert_eq!(host.num_shards(), 4);
        let total = 200u16;
        for i in 0..total {
            assert!(host.inject(packet(i)).is_admitted());
        }
        let outputs = collect_outputs(&host, total as usize);
        assert_eq!(outputs.len(), total as usize);
        // Per-shard received counters sum to the injected total, and the
        // traffic actually spread over more than one shard.
        let per_shard: Vec<u64> = host
            .stats()
            .shard_snapshots()
            .iter()
            .map(|s| s.received)
            .collect();
        assert_eq!(per_shard.iter().sum::<u64>(), u64::from(total));
        assert!(per_shard.iter().filter(|r| **r > 0).count() > 1);
        // Every shard's received count matches the steering function.
        let mut expected = vec![0u64; 4];
        for i in 0..total {
            let key = packet(i).flow_key().unwrap();
            expected[shard_for_flow(&key, 4)] += 1;
        }
        assert_eq!(per_shard, expected);
        host.shutdown();
    }

    #[test]
    fn a_burst_admits_a_prefix_of_each_shards_packets() {
        // Eight credits a shard and nobody polling egress, so no credit
        // comes back while the burst is injected: each shard admits its
        // first eight packets and hands the rest back behind them, in
        // arrival order — on the single-shard path and the grouped one.
        for num_shards in [1, 2] {
            let host = ThreadedHost::start_sharded(
                forward_table(),
                |_shard| vec![],
                ThreadedHostConfig {
                    num_shards,
                    shard_credits: 8,
                    ..ThreadedHostConfig::default()
                },
            );
            // Four flows per shard, four packets per flow, interleaved.
            let flow = |port: u16| packet(port).flow_key().unwrap();
            let mut ports: Vec<u16> = Vec::new();
            for shard in 0..num_shards {
                ports.extend(
                    (1000..)
                        .filter(|&port| shard_for_flow(&flow(port), num_shards) == shard)
                        .take(4),
                );
            }
            let burst: Vec<Packet> = (0..4u32)
                .flat_map(|round| {
                    ports.iter().map(move |&port| {
                        PacketBuilder::udp()
                            .src_port(port)
                            .payload(&round.to_be_bytes())
                            .build()
                    })
                })
                .collect();
            let shard_of = |p: &Packet| shard_for_flow(&p.flow_key().unwrap(), num_shards);
            let outcome = host.inject_burst(burst.clone());
            assert_eq!(outcome.admitted, 8 * num_shards);
            assert_eq!(outcome.throttled.len(), 8 * num_shards);
            assert_eq!(host.stats().snapshot().throttled, 8 * num_shards as u64);
            let outputs = collect_outputs(&host, outcome.admitted);
            for shard in 0..num_shards {
                let sent: Vec<&Packet> = burst.iter().filter(|p| shard_of(p) == shard).collect();
                let admitted: Vec<&Packet> = outputs
                    .iter()
                    .map(|out| &out.packet)
                    .filter(|p| shard_of(p) == shard)
                    .collect();
                let throttled: Vec<&Packet> = outcome
                    .throttled
                    .iter()
                    .filter(|p| shard_of(p) == shard)
                    .collect();
                let data = |packets: &[&Packet]| -> Vec<Vec<u8>> {
                    packets.iter().map(|p| p.data().to_vec()).collect()
                };
                assert_eq!(data(&admitted), data(&sent[..8]), "shard {shard}");
                assert_eq!(data(&throttled), data(&sent[8..]), "shard {shard}");
            }
            host.shutdown();
        }
    }

    #[test]
    fn sharded_chain_runs_one_nf_set_per_shard() {
        let (graph, ids) = catalog::chain(&[("a", true), ("b", true)]);
        let table = SharedFlowTable::new();
        for rule in graph.compile(&CompileOptions::default()) {
            table.insert(rule);
        }
        let host = ThreadedHost::start_sharded(
            table,
            |_shard| {
                ids.iter()
                    .map(|id| (*id, Box::new(NoOpNf::new()) as Box<dyn NetworkFunction>))
                    .collect()
            },
            ThreadedHostConfig {
                num_shards: 2,
                ..ThreadedHostConfig::default()
            },
        );
        for i in 0..100 {
            assert!(host.inject(packet(i)).is_admitted());
        }
        let outputs = collect_outputs(&host, 100);
        assert_eq!(outputs.len(), 100);
        let snap = host.stats().snapshot();
        assert_eq!(snap.nf_invocations, 200);
        assert_eq!(snap.transmitted, 100);
        host.shutdown();
    }

    #[test]
    fn backpressure_throttles_instead_of_dropping() {
        // A tiny egress ring and credit budget, and nobody draining egress:
        // injection must throttle (handing packets back) instead of
        // silently dropping anywhere in the pipeline.
        let host = ThreadedHost::start(
            forward_table(),
            vec![],
            ThreadedHostConfig {
                egress_capacity: 16,
                shard_credits: 16,
                ..ThreadedHostConfig::default()
            },
        );
        assert_eq!(host.credit_capacity(), 16);
        let mut admitted = 0u64;
        let mut throttled = 0u64;
        for i in 0..200u16 {
            match host.inject(packet(i)) {
                InjectResult::Admitted => admitted += 1,
                InjectResult::Throttled(_) => throttled += 1,
            }
        }
        assert!(throttled > 0, "flood without draining must throttle");
        // Drain everything; every admitted packet comes out.
        let outputs = collect_outputs(&host, admitted as usize);
        assert_eq!(outputs.len() as u64, admitted);
        let snap = host.stats().snapshot();
        assert_eq!(snap.overflow_drops, 0, "no silent drops");
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.transmitted, admitted);
        assert_eq!(snap.throttled, throttled);
        // After the drain every credit is back.
        let deadline = Instant::now() + Duration::from_secs(2);
        while host.available_credits(0) != 16 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(host.available_credits(0), 16);
        host.shutdown();
    }

    #[test]
    fn telemetry_snapshots_flow_without_traffic() {
        let host = ThreadedHost::start(
            forward_table(),
            vec![(
                ServiceId::new(1),
                Box::new(NoOpNf::new()) as Box<dyn NetworkFunction>,
            )],
            ThreadedHostConfig {
                nf_ring_capacity: 64,
                shard_credits: 32,
                telemetry_interval_ns: 100_000,
                ..ThreadedHostConfig::default()
            },
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut snapshots = Vec::new();
        while snapshots.len() < 3 && Instant::now() < deadline {
            snapshots.extend(host.poll_telemetry());
            std::thread::yield_now();
        }
        assert!(snapshots.len() >= 3, "idle host still exports gauges");
        let last = snapshots.last().unwrap();
        assert_eq!(last.shard, 0);
        assert_eq!(last.nfs.len(), 1);
        assert_eq!(last.nfs[0].service, ServiceId::new(1));
        assert_eq!(last.nfs[0].input_capacity, 64);
        assert!(!last.nfs[0].draining);
        assert_eq!(last.credit_capacity, 32);
        assert_eq!(last.credits_in_flight, 0);
        // Sequence numbers are strictly increasing.
        for pair in snapshots.windows(2) {
            assert!(pair[1].seq > pair[0].seq);
        }
        host.shutdown();
    }

    #[test]
    fn telemetry_can_be_disabled() {
        let host = ThreadedHost::start(
            forward_table(),
            vec![],
            ThreadedHostConfig {
                telemetry_interval_ns: 0,
                ..ThreadedHostConfig::default()
            },
        );
        assert!(host.inject(packet(1)).is_admitted());
        let _ = collect_outputs(&host, 1);
        std::thread::sleep(Duration::from_millis(20));
        assert!(host.poll_telemetry().is_empty(), "exporter disabled");
        host.shutdown();
    }

    #[test]
    fn apportion_targets_is_exact_and_weighted() {
        assert_eq!(apportion_targets(&[0, 0], 8), None);
        let uniform = apportion_targets(&[1, 1, 1, 1], 1024).unwrap();
        assert_eq!(uniform, vec![256; 4]);
        let skewed = apportion_targets(&[3, 1], 8).unwrap();
        assert_eq!(skewed.iter().sum::<usize>(), 8);
        assert_eq!(skewed, vec![6, 2]);
        // Remainders are assigned, so the sum always matches.
        let odd = apportion_targets(&[1, 1, 1], 1024).unwrap();
        assert_eq!(odd.iter().sum::<usize>(), 1024);
    }

    #[test]
    fn spawn_shard_grows_single_shard_host_and_spreads_traffic() {
        let host = ThreadedHost::start(forward_table(), vec![], ThreadedHostConfig::default());
        assert_eq!(host.num_shards(), 1);
        assert!(host.steering_table().is_empty(), "modulo steering at start");
        let shard = host
            .spawn_shard(vec![])
            .map_err(|_| "spawn refused")
            .expect("spawn on an idle host");
        assert_eq!(shard, 1);
        assert_eq!(host.num_shards(), 2);
        // Even idle buckets go through the phased handshake (their NF state
        // must be collected from the old shard's worker), so the re-home
        // completes over a few advance ticks rather than synchronously.
        let deadline = Instant::now() + Duration::from_secs(5);
        while host.pending_rehomes() > 0 && Instant::now() < deadline {
            let _ = host.poll_egress();
            std::thread::yield_now();
        }
        assert_eq!(host.pending_rehomes(), 0, "idle buckets re-home promptly");
        // The steering table was built and the new shard got a fair share.
        let steering = host.steering_table();
        assert_eq!(steering.len(), STEER_BUCKETS);
        let moved = steering.iter().filter(|owner| **owner == 1).count();
        assert_eq!(moved, STEER_BUCKETS / 2, "uniform share re-homed");
        // Traffic spreads and nothing is lost.
        for i in 0..100 {
            assert!(host.inject(packet(i)).is_admitted());
        }
        let outputs = collect_outputs(&host, 100);
        assert_eq!(outputs.len(), 100);
        assert!(host.stats().shard_snapshot(1).received > 0);
        // A lifecycle event announced the spawn.
        let events = host.take_shard_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, ShardLifecycleEvent::Spawned { shard: 1, .. })));
        host.shutdown();
    }

    #[test]
    fn retire_shard_completes_on_idle_host() {
        let host = ThreadedHost::start_sharded(
            forward_table(),
            |_shard| vec![],
            ThreadedHostConfig {
                num_shards: 3,
                ..ThreadedHostConfig::default()
            },
        );
        assert!(host.retire_shard());
        let deadline = Instant::now() + Duration::from_secs(5);
        while host.is_retiring() && Instant::now() < deadline {
            let _ = host.poll_egress();
            std::thread::yield_now();
        }
        assert!(!host.is_retiring());
        assert_eq!(host.num_shards(), 2);
        assert!(
            !host.steering_table().contains(&2),
            "no bucket points at it"
        );
        // Retiring the last shard is refused.
        assert!(host.retire_shard());
        let deadline = Instant::now() + Duration::from_secs(5);
        while host.is_retiring() && Instant::now() < deadline {
            let _ = host.poll_egress();
            std::thread::yield_now();
        }
        assert_eq!(host.num_shards(), 1);
        assert!(!host.retire_shard(), "a single-shard host cannot shrink");
        host.shutdown();
    }

    #[test]
    fn parked_bucket_pens_arrivals_and_bounds_the_pen() {
        // Two shards with a slow compute NF, so a flooded flow's bucket
        // reliably has in-flight packets when the rebalance hits it.
        let (graph, ids) = catalog::chain(&[("w", true)]);
        let table = SharedFlowTable::new();
        for rule in graph.compile(&CompileOptions::default()) {
            table.insert(rule);
        }
        let host = ThreadedHost::start_sharded(
            table,
            |_shard| {
                vec![(
                    ids[0],
                    Box::new(ComputeNf::new(10_000)) as Box<dyn NetworkFunction>,
                )]
            },
            ThreadedHostConfig {
                num_shards: 2,
                ..ThreadedHostConfig::default()
            },
        );
        let mut admitted = 0u64;
        let mut pen_admitted = 0u64;
        let mut pen_throttled = 0u64;
        let deadline = Instant::now() + Duration::from_secs(10);
        // Retry until a rebalance catches the bucket busy and the pen both
        // accepts and (once full) throttles — with the slow NF this lands
        // on the first attempt in practice.
        while pen_throttled == 0 && Instant::now() < deadline {
            for _ in 0..8 {
                if host.inject(packet(7)).is_admitted() {
                    admitted += 1;
                }
            }
            let victim = host.shard_of(&packet(7));
            let weights: Vec<u32> = (0..2).map(|s| u32::from(s != victim)).collect();
            assert!(host.set_steering_weights(&weights));
            if host.pending_rehomes() == 0 {
                continue; // the bucket was already idle: try again
            }
            for _ in 0..REHOME_PEN + 2 {
                match host.inject(packet(7)) {
                    InjectResult::Admitted => {
                        admitted += 1;
                        pen_admitted += 1;
                    }
                    InjectResult::Throttled(_) => pen_throttled += 1,
                }
            }
        }
        assert!(pen_throttled > 0, "a full pen surfaces as backpressure");
        assert!(pen_admitted >= 1, "the pen accepted arrivals first");
        // Every admitted packet (parked ones included) comes back out.
        let outputs = collect_outputs(&host, admitted as usize);
        assert_eq!(outputs.len() as u64, admitted);
        let until = Instant::now() + Duration::from_secs(5);
        while host.pending_rehomes() > 0 && Instant::now() < until {
            let _ = host.poll_egress();
            std::thread::yield_now();
        }
        assert_eq!(host.pending_rehomes(), 0);
        let report = host.rehome_report();
        assert!(report.packets_penned >= 1, "pens were exercised");
        assert!(report.pen_throttled >= 1, "the pen bound was hit");
        assert_eq!(host.stats().snapshot().overflow_drops, 0);
        host.shutdown();
    }

    #[test]
    #[should_panic(expected = "per-shard NF factory")]
    fn start_rejects_multi_shard_configs() {
        let _ = ThreadedHost::start(
            SharedFlowTable::new(),
            vec![],
            ThreadedHostConfig {
                num_shards: 2,
                ..ThreadedHostConfig::default()
            },
        );
    }

    /// A minimal stateful NF for eviction tests: one per-flow packet
    /// counter, with a scrub override that logs which keys were reclaimed.
    struct FlowStateNf {
        states: HashMap<FlowKey, u64>,
        scrubbed: Arc<Mutex<Vec<FlowKey>>>,
    }

    impl NetworkFunction for FlowStateNf {
        fn name(&self) -> &str {
            "flow-state"
        }

        fn process(&mut self, packet: &Packet, _ctx: &mut NfContext) -> Verdict {
            if let Some(key) = packet.flow_key() {
                *self.states.entry(key).or_insert(0) += 1;
            }
            Verdict::Default
        }

        fn export_flow_state(&mut self, key: &FlowKey) -> Option<NfFlowState> {
            self.states
                .remove(key)
                .map(|count| NfFlowState::with_counter("packets", count))
        }

        fn scrub_flow_state(&mut self, key: &FlowKey) -> Option<NfFlowState> {
            let state = self.export_flow_state(key)?;
            self.scrubbed.lock().push(*key);
            Some(state)
        }

        fn import_flow_state(&mut self, key: &FlowKey, state: NfFlowState) {
            *self.states.entry(*key).or_insert(0) += state.counter("packets").unwrap_or(0);
        }

        fn flow_state_keys(&self) -> Vec<FlowKey> {
            self.states.keys().copied().collect()
        }
    }

    #[test]
    fn idle_eviction_scrubs_nf_state_and_reaches_telemetry() {
        let service = ServiceId::new(1);
        let table = SharedFlowTable::new();
        // Wildcard fallback so the flow keeps forwarding after eviction.
        table.insert(FlowRule::new(
            FlowMatch::at_step(RulePort::Nic(0)),
            vec![Action::ToService(service)],
        ));
        table.insert(FlowRule::new(
            FlowMatch::at_step(service),
            vec![Action::ToPort(1)],
        ));
        let flow = packet(7).flow_key().unwrap();
        table.insert(
            FlowRule::new(
                FlowMatch::exact(RulePort::Nic(0), &flow),
                vec![Action::ToService(service)],
            )
            .with_idle_timeout_ns(Some(2_000_000)),
        );
        let scrubbed = Arc::new(Mutex::new(Vec::new()));
        let scrub_log = Arc::clone(&scrubbed);
        let (host, sim) = ThreadedHost::start_sim_sharded(
            table,
            move |_shard| {
                vec![(
                    service,
                    Box::new(FlowStateNf {
                        states: HashMap::new(),
                        scrubbed: Arc::clone(&scrub_log),
                    }) as Box<dyn NetworkFunction>,
                )]
            },
            ThreadedHostConfig {
                rule_sweep_interval_ns: 100_000,
                telemetry_interval_ns: 100_000,
                ..ThreadedHostConfig::default()
            },
        );
        // Phase 1: traffic every 0.5 ms refreshes the 2 ms idle timer —
        // the rule survives 10 ms of such traffic even though most lookups
        // are served by the per-thread cache (its TTL forces periodic
        // table fall-through).
        for _ in 0..20 {
            sim.advance_clock_ns(500_000);
            assert!(host.inject(packet(7)).is_admitted());
            for _ in 0..40 {
                sim.step_all();
            }
            let _ = host.poll_egress_burst(16);
        }
        let snap = host.stats().snapshot();
        assert_eq!(
            snap.rules_evicted_idle + snap.rules_evicted_hard,
            0,
            "traffic refreshes the idle timer"
        );
        // Phase 2: go quiet past the idle timeout. The sweep evicts the
        // rule and the NF's per-flow state for the evicted key is
        // scrubbed.
        sim.advance_clock_ns(5_000_000);
        for _ in 0..200 {
            sim.step_all();
        }
        let snap = host.stats().snapshot();
        assert_eq!(snap.rules_evicted_idle, 1);
        assert_eq!(snap.rules_evicted_hard, 0);
        assert_eq!(snap.nf_state_scrubbed, 1);
        assert_eq!(scrubbed.lock().clone(), vec![flow]);
        // The eviction surfaces on the telemetry bus, where the control
        // plane's hub reads it. Drain the (bounded) telemetry ring of
        // pre-eviction snapshots first, then let a fresh one publish.
        let mut hub = sdnfv_telemetry::TelemetryHub::new();
        hub.absorb(host.poll_telemetry());
        sim.advance_clock_ns(200_000);
        for _ in 0..80 {
            sim.step_all();
        }
        hub.absorb(host.poll_telemetry());
        assert_eq!(hub.total_rules_evicted(), 1);
        assert_eq!(hub.total_nf_state_scrubbed(), 1);
        // The flow still forwards via the wildcard rule — no punt.
        assert!(host.inject(packet(7)).is_admitted());
        for _ in 0..40 {
            sim.step_all();
        }
        assert_eq!(host.poll_egress_burst(16).len(), 1);
        assert_eq!(host.stats().snapshot().controller_punts, 0);
        host.shutdown();
    }

    #[test]
    fn hard_timeout_evicts_under_sustained_traffic() {
        let table = SharedFlowTable::new();
        table.insert(FlowRule::new(
            FlowMatch::at_step(RulePort::Nic(0)),
            vec![Action::ToPort(1)],
        ));
        let flow = packet(9).flow_key().unwrap();
        table.insert(
            FlowRule::new(
                FlowMatch::exact(RulePort::Nic(0), &flow),
                vec![Action::ToPort(2)],
            )
            .with_hard_timeout_ns(Some(2_000_000)),
        );
        let (host, sim) = ThreadedHost::start_sim_sharded(
            table,
            |_shard| vec![],
            ThreadedHostConfig {
                rule_sweep_interval_ns: 100_000,
                ..ThreadedHostConfig::default()
            },
        );
        let mut ports = Vec::new();
        for _ in 0..10 {
            sim.advance_clock_ns(500_000);
            assert!(host.inject(packet(9)).is_admitted());
            for _ in 0..40 {
                sim.step_all();
            }
            for out in host.poll_egress_burst(16) {
                ports.push(out.port);
            }
        }
        assert_eq!(ports.len(), 10);
        assert_eq!(ports[0], 2, "exact rule forwarded before the hard cutoff");
        assert_eq!(
            *ports.last().unwrap(),
            1,
            "hard timeout fired despite continuous traffic"
        );
        let snap = host.stats().snapshot();
        assert_eq!(snap.rules_evicted_hard, 1);
        assert_eq!(snap.rules_evicted_idle, 0);
        host.shutdown();
    }

    #[test]
    fn mid_rehome_bucket_defers_eviction_until_move_completes() {
        let service = ServiceId::new(1);
        let table = SharedFlowTable::new();
        table.insert(FlowRule::new(
            FlowMatch::at_step(RulePort::Nic(0)),
            vec![Action::ToPort(1)],
        ));
        table.insert(FlowRule::new(
            FlowMatch::at_step(service),
            vec![Action::ToPort(1)],
        ));
        let flow = packet(7).flow_key().unwrap();
        table.insert(
            FlowRule::new(
                FlowMatch::exact(RulePort::Nic(0), &flow),
                vec![Action::ToService(service)],
            )
            .with_hard_timeout_ns(Some(1_000_000)),
        );
        let (host, sim) = ThreadedHost::start_sim_sharded(
            table,
            |_shard| vec![(service, Box::new(NoOpNf::new()) as Box<dyn NetworkFunction>)],
            ThreadedHostConfig {
                num_shards: 2,
                rule_sweep_interval_ns: 100_000,
                ..ThreadedHostConfig::default()
            },
        );
        let workers: Vec<u64> = sim
            .actors()
            .iter()
            .filter(|a| a.kind == crate::sim::SimActorKind::Worker)
            .map(|a| a.id)
            .collect();
        // Keep the flow's bucket busy: the packet is dispatched into the
        // NF ring (stepping workers only) and sits there, holding the
        // bucket's in-flight count, so the re-home cannot finish draining.
        assert!(host.inject(packet(7)).is_admitted());
        for _ in 0..5 {
            for worker in &workers {
                sim.step(*worker);
            }
        }
        let victim = host.shard_of(&packet(7));
        let weights: Vec<u32> = (0..2).map(|s| u32::from(s != victim as u32)).collect();
        assert!(host.set_steering_weights(&weights));
        assert!(host.pending_rehomes() > 0, "the busy bucket is mid-move");
        // Sail far past the hard timeout while the bucket is parked: the
        // sweep must defer the rule (its state is being exported).
        sim.advance_clock_ns(10_000_000);
        for _ in 0..200 {
            for worker in &workers {
                sim.step(*worker);
            }
        }
        let snap = host.stats().snapshot();
        assert_eq!(
            snap.rules_evicted_idle + snap.rules_evicted_hard,
            0,
            "a mid-re-home bucket's exact rules are protected from eviction"
        );
        // Let the move complete (NFs drain, host advances the handshake).
        for _ in 0..400 {
            sim.step_all();
            let _ = host.poll_egress_burst(64);
            if host.pending_rehomes() == 0 {
                break;
            }
        }
        assert_eq!(host.pending_rehomes(), 0, "re-home completed");
        // Unparked, each partition's copy of the broadcast-installed rule
        // (host installs replicate exact rules to every shard; the move
        // left the destination's pre-existing copy in place) evicts
        // exactly once — and neither copy double-evicts or resurrects.
        sim.advance_clock_ns(10_000_000);
        for _ in 0..200 {
            sim.step_all();
        }
        assert_eq!(host.stats().shard_snapshot(0).rules_evicted_hard, 1);
        assert_eq!(host.stats().shard_snapshot(1).rules_evicted_hard, 1);
        sim.advance_clock_ns(10_000_000);
        for _ in 0..200 {
            sim.step_all();
        }
        assert_eq!(
            host.stats().snapshot().rules_evicted_hard,
            2,
            "evicted rules do not resurrect"
        );
        host.shutdown();
    }

    #[test]
    fn a_lookup_leaves_a_parked_buckets_expired_pin_to_the_move() {
        let service = ServiceId::new(1);
        let at_service = RulePort::Service(service);
        let table = SharedFlowTable::new();
        table.insert(FlowRule::new(
            FlowMatch::at_step(RulePort::Nic(0)),
            vec![Action::ToService(service)],
        ));
        table.insert(FlowRule::new(
            FlowMatch::at_step(service),
            vec![Action::ToPort(1)],
        ));
        let flow = packet(7).flow_key().unwrap();
        table.insert(
            FlowRule::new(FlowMatch::exact(at_service, &flow), vec![Action::ToPort(2)])
                .with_hard_timeout_ns(Some(1_000_000)),
        );
        let (host, sim) = ThreadedHost::start_sim_sharded(
            table,
            |_shard| vec![(service, Box::new(NoOpNf::new()) as Box<dyn NetworkFunction>)],
            ThreadedHostConfig {
                num_shards: 2,
                rule_sweep_interval_ns: 100_000,
                ..ThreadedHostConfig::default()
            },
        );
        let actors = |kind| -> Vec<u64> {
            sim.actors()
                .iter()
                .filter(|a| a.kind == kind)
                .map(|a| a.id)
                .collect()
        };
        let workers = actors(crate::sim::SimActorKind::Worker);
        let step_workers = |times| {
            for _ in 0..times {
                for worker in &workers {
                    sim.step(*worker);
                }
            }
        };
        // The packet waits in the NF ring, so the bucket cannot drain.
        assert!(host.inject(packet(7)).is_admitted());
        step_workers(5);
        let source = host.shard_of(&packet(7));
        let weights: Vec<u32> = (0..2).map(|s| u32::from(s != source as u32)).collect();
        assert!(host.set_steering_weights(&weights));
        assert!(host.pending_rehomes() > 0, "the busy bucket is mid-move");
        // Past the pin's deadline: the sweeps move the partition's clock
        // on and defer the parked bucket's pin.
        sim.advance_clock_ns(10_000_000);
        step_workers(200);
        let partition = host.shard_table(source);
        let pin_installed =
            || partition.with_read(|t| t.exact_rule_id(at_service, &flow).is_some());
        let pin_live =
            || partition.with_read(|t| t.peek(at_service, &flow).unwrap().matcher.is_exact());
        assert!(pin_installed() && !pin_live(), "expired, deferred");
        // The NF hands the packet back; the worker's lookup at the service
        // step meets the expired pin, skips it and evicts nothing. (The
        // workers spawned the NF replicas in their first steps.)
        let nfs = actors(crate::sim::SimActorKind::Nf);
        assert_eq!(nfs.len(), 2);
        for _ in 0..5 {
            for nf in &nfs {
                sim.step(*nf);
            }
            step_workers(5);
        }
        assert!(host.pending_rehomes() > 0, "still parked");
        assert!(
            pin_installed(),
            "a parked bucket's pin stays until its move completes"
        );
        let snap = host.stats().snapshot();
        assert_eq!(snap.rules_evicted_idle + snap.rules_evicted_hard, 0);
        let mut ports = Vec::new();
        for _ in 0..400 {
            sim.step_all();
            ports.extend(host.poll_egress_burst(64).iter().map(|out| out.port));
            if host.pending_rehomes() == 0 {
                break;
            }
        }
        assert_eq!(host.pending_rehomes(), 0, "re-home completed");
        assert_eq!(ports, vec![1], "the expired pin did not forward");
        // Unparked, the source's copy goes at its next sweep, and the
        // destination's broadcast copy at its own.
        sim.advance_clock_ns(1_000_000);
        for _ in 0..200 {
            sim.step_all();
        }
        assert!(!pin_installed());
        for shard in 0..2 {
            assert_eq!(host.stats().shard_snapshot(shard).rules_evicted_hard, 1);
        }
        host.shutdown();
    }

    #[test]
    fn hash_sampling_emits_conserved_spans_and_latency() {
        use sdnfv_telemetry::{SpanVerdict, TraceStage};
        let host = ThreadedHost::start(
            forward_table(),
            vec![],
            ThreadedHostConfig {
                trace_ring_capacity: 4096,
                ..ThreadedHostConfig::default()
            },
        );
        host.set_trace_sampling(1); // trace every flow
        for i in 0..50 {
            assert!(host.inject(packet(i)).is_admitted());
        }
        let outputs = collect_outputs(&host, 50);
        assert_eq!(outputs.len(), 50);
        let spans = collect_spans(&host, 100);
        let snap = host.stats().snapshot();
        assert_eq!(snap.spans_dropped, 0);
        // Fast ToPort path: one RX span and one terminal egress span per
        // admitted packet, nothing else.
        let rx = spans
            .iter()
            .filter(|s| s.stage == TraceStage::Rx && s.verdict == SpanVerdict::Forwarded)
            .count();
        let egress = spans
            .iter()
            .filter(|s| s.stage == TraceStage::Egress && s.verdict == SpanVerdict::Egressed)
            .count();
        assert_eq!(rx, 50);
        assert_eq!(egress, 50);
        assert_eq!(spans.len(), 100);
        // The histograms saw every packet too.
        let latency = host.latency_report();
        assert_eq!(latency.end_to_end.count(), 50);
        assert_eq!(latency.ingress_wait.count(), 50);
        assert_eq!(latency.egress_wait.count(), 50);
        host.shutdown();
    }

    #[test]
    fn rule_miss_emits_punted_span_for_sampled_flows() {
        use sdnfv_telemetry::{SpanVerdict, TraceStage};
        let host = ThreadedHost::start(forward_table(), vec![], ThreadedHostConfig::default());
        host.set_trace_sampling(1);
        // Ingress port 1 has no rule: the lookup misses and the packet is
        // punted — its trace must still terminate.
        let stray = PacketBuilder::udp()
            .src_ip([10, 0, 0, 9])
            .dst_ip([10, 0, 0, 2])
            .src_port(7)
            .dst_port(80)
            .ingress_port(1)
            .total_size(256)
            .build();
        assert!(host.inject(stray).is_admitted());
        let deadline = Instant::now() + Duration::from_secs(5);
        while host.stats().snapshot().controller_punts == 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        let spans = collect_spans(&host, 1);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].stage, TraceStage::Rx);
        assert_eq!(spans[0].verdict, SpanVerdict::Punted);
        host.shutdown();
    }

    #[test]
    fn trace_pin_rule_traces_unsampled_flows() {
        use sdnfv_telemetry::TraceStage;
        let table = SharedFlowTable::new();
        table.insert(FlowRule::new(
            FlowMatch::at_step(RulePort::Nic(0)),
            vec![Action::ToPort(1)],
        ));
        // A rule-level pin: packets from ingress port 2 are traced even
        // with hash sampling off.
        table.insert(FlowRule::new(
            FlowMatch::at_step(RulePort::Nic(2)),
            vec![Action::Trace, Action::ToPort(1)],
        ));
        let host = ThreadedHost::start(
            table,
            vec![],
            ThreadedHostConfig::default(), // hash sampling starts off
        );
        assert_eq!(host.trace_sampling(), 0);
        let build = |port: u8, src_port: u16| {
            PacketBuilder::udp()
                .src_ip([10, 0, 0, 1])
                .dst_ip([10, 0, 0, 2])
                .src_port(src_port)
                .dst_port(80)
                .ingress_port(u16::from(port))
                .total_size(256)
                .build()
        };
        for i in 0..10 {
            assert!(host.inject(build(0, 1000 + i)).is_admitted());
            assert!(host.inject(build(2, 2000 + i)).is_admitted());
        }
        let outputs = collect_outputs(&host, 20);
        assert_eq!(outputs.len(), 20);
        // Only the pinned flows (10 packets, RX + egress each) trace.
        let spans = collect_spans(&host, 20);
        assert_eq!(spans.len(), 20);
        assert!(spans.iter().any(|s| s.stage == TraceStage::Egress));
        assert_eq!(host.stats().snapshot().spans_dropped, 0);
        host.shutdown();
    }

    #[test]
    fn trace_ring_overflow_counts_dropped_spans_exactly() {
        let host = ThreadedHost::start(
            forward_table(),
            vec![],
            ThreadedHostConfig {
                trace_ring_capacity: 4, // deliberately tiny, never drained
                ..ThreadedHostConfig::default()
            },
        );
        host.set_trace_sampling(1);
        for i in 0..100 {
            assert!(host.inject(packet(i)).is_admitted());
        }
        let outputs = collect_outputs(&host, 100);
        assert_eq!(outputs.len(), 100);
        // Every admitted packet generated exactly two spans (RX + egress);
        // each either sits in the ring or was counted dropped — no span
        // vanishes unaccounted. Poll until the books balance (workers may
        // still be flushing the last burst when the packets egress).
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut collected = 0u64;
        let mut dropped = host.stats().snapshot().spans_dropped;
        while collected + dropped < 200 && Instant::now() < deadline {
            collected += host.poll_traces().len() as u64;
            dropped = host.stats().snapshot().spans_dropped;
            std::thread::yield_now();
        }
        assert_eq!(collected + dropped, 200);
        assert!(dropped > 0, "a 4-slot ring cannot hold 200 spans");
        host.shutdown();
    }

    #[test]
    fn nf_path_emits_rx_nf_and_egress_spans() {
        use sdnfv_telemetry::{SpanVerdict, TraceStage};
        let (graph, ids) = catalog::chain(&[("a", true)]);
        let table = SharedFlowTable::new();
        for rule in graph.compile(&CompileOptions::default()) {
            table.insert(rule);
        }
        let nfs: Vec<(ServiceId, Box<dyn NetworkFunction>)> = ids
            .iter()
            .map(|id| (*id, Box::new(NoOpNf::new()) as Box<dyn NetworkFunction>))
            .collect();
        let host = ThreadedHost::start(
            table,
            nfs,
            ThreadedHostConfig {
                trace_ring_capacity: 8192,
                ..ThreadedHostConfig::default()
            },
        );
        host.set_trace_sampling(1);
        for i in 0..30 {
            assert!(host.inject(packet(i)).is_admitted());
        }
        let outputs = collect_outputs(&host, 30);
        assert_eq!(outputs.len(), 30);
        let spans = collect_spans(&host, 90);
        assert_eq!(host.stats().snapshot().spans_dropped, 0);
        let count = |stage: TraceStage| spans.iter().filter(|s| s.stage == stage).count();
        assert_eq!(count(TraceStage::Rx), 30, "one RX span per packet");
        assert_eq!(count(TraceStage::Nf), 30, "one NF span per packet");
        assert_eq!(
            count(TraceStage::Egress),
            30,
            "one terminal span per packet"
        );
        // Exactly one terminal (non-Forwarded) span per packet.
        let terminals = spans
            .iter()
            .filter(|s| s.verdict != SpanVerdict::Forwarded)
            .count();
        assert_eq!(terminals, 30);
        // NF spans carry the service id and a well-ordered burst window.
        for span in spans.iter().filter(|s| s.stage == TraceStage::Nf) {
            assert_eq!(span.service, ids[0].value());
            assert!(span.t_start_ns <= span.t_end_ns);
        }
        // NF service time histogram recorded every invocation.
        assert_eq!(host.latency_report().nf_service.count(), 30);
        host.shutdown();
    }

    #[test]
    fn trace_sampling_knob_is_live() {
        let host = ThreadedHost::start(forward_table(), vec![], ThreadedHostConfig::default());
        assert_eq!(host.trace_sampling(), 0);
        for i in 0..20 {
            assert!(host.inject(packet(i)).is_admitted());
        }
        assert_eq!(collect_outputs(&host, 20).len(), 20);
        // Nothing sampled while the knob is off.
        assert!(host.poll_traces().is_empty());
        host.set_trace_sampling(1);
        assert_eq!(host.trace_sampling(), 1);
        for i in 20..40 {
            assert!(host.inject(packet(i)).is_admitted());
        }
        assert_eq!(collect_outputs(&host, 20).len(), 20);
        assert!(
            !collect_spans(&host, 1).is_empty(),
            "knob took effect mid-run"
        );
        host.shutdown();
    }

    #[test]
    fn retire_middle_shard_tombstones_and_reuses_the_slot() {
        let host = ThreadedHost::start_sharded(
            forward_table(),
            |_shard| vec![],
            ThreadedHostConfig {
                num_shards: 3,
                ..ThreadedHostConfig::default()
            },
        );
        assert!(host.retire_shard_at(1), "a middle shard can retire");
        let deadline = Instant::now() + Duration::from_secs(5);
        while host.is_retiring() && Instant::now() < deadline {
            let _ = host.poll_egress();
            std::thread::yield_now();
        }
        assert!(!host.is_retiring());
        // The slot is tombstoned, not reaped: shards 0 and 2 keep their
        // indices, so steering entries and per-shard stats stay valid.
        assert_eq!(host.num_shards(), 3);
        assert_eq!(host.num_live_shards(), 2);
        assert!(!host.is_live_shard(1));
        assert!(host.is_live_shard(2));
        assert!(
            !host.steering_table().contains(&1),
            "no bucket points at the tombstone"
        );
        // Traffic still round-trips losslessly over the two live shards.
        for i in 0..100 {
            assert!(host.inject(packet(i)).is_admitted());
        }
        assert_eq!(collect_outputs(&host, 100).len(), 100);
        assert_eq!(host.stats().snapshot().overflow_drops, 0);
        // A later spawn recycles the tombstone instead of growing the host.
        let slot = host
            .spawn_shard(vec![])
            .map_err(|_| "spawn refused")
            .expect("spawn reuses the tombstone");
        assert_eq!(slot, 1, "the lowest tombstoned slot is reused");
        assert_eq!(host.num_shards(), 3);
        assert_eq!(host.num_live_shards(), 3);
        let deadline = Instant::now() + Duration::from_secs(5);
        while host.pending_rehomes() > 0 && Instant::now() < deadline {
            let _ = host.poll_egress();
            std::thread::yield_now();
        }
        assert_eq!(host.pending_rehomes(), 0);
        assert!(
            host.steering_table().contains(&1),
            "the revived shard serves buckets again"
        );
        for i in 0..100 {
            assert!(host.inject(packet(i)).is_admitted());
        }
        assert_eq!(collect_outputs(&host, 100).len(), 100);
        host.shutdown();
    }

    /// Records which replica of a service saw which flow, for the
    /// dispatch-policy regression below.
    struct RecorderNf {
        replica: usize,
        seen: Arc<Mutex<std::collections::HashSet<(usize, u64)>>>,
    }

    impl NetworkFunction for RecorderNf {
        fn name(&self) -> &str {
            "recorder"
        }

        fn process(&mut self, packet: &Packet, _ctx: &mut NfContext) -> Verdict {
            if let Some(key) = packet.flow_key() {
                self.seen.lock().insert((self.replica, key.stable_hash()));
            }
            Verdict::Default
        }
    }

    /// Runs 3 flows x 8 packets through a two-replica service and counts
    /// the distinct (replica, flow) owner pairs that appeared — the number
    /// of per-flow state copies a stateful NF would have ended up with.
    #[test]
    fn sticky_dispatch_keeps_each_flow_on_one_replica() {
        let service = ServiceId::new(1);
        let table = SharedFlowTable::new();
        table.insert(FlowRule::new(
            FlowMatch::at_step(RulePort::Nic(0)),
            vec![Action::ToService(service)],
        ));
        table.insert(FlowRule::new(
            FlowMatch::at_step(service),
            vec![Action::ToPort(1)],
        ));
        let seen = Arc::new(Mutex::new(std::collections::HashSet::new()));
        let log = Arc::clone(&seen);
        let (host, sim) = ThreadedHost::start_sim_sharded(
            table,
            move |_shard| {
                (0..2)
                    .map(|replica| {
                        (
                            service,
                            Box::new(RecorderNf {
                                replica,
                                seen: Arc::clone(&log),
                            }) as Box<dyn NetworkFunction>,
                        )
                    })
                    .collect()
            },
            ThreadedHostConfig::default(),
        );
        // One interleaved burst: the whole burst stages before any replica
        // drains, so per-packet balancing would alternate replicas mid-flow.
        let burst: Vec<Packet> = (0..8u16).flat_map(|_| (0..3).map(packet)).collect();
        let outcome = host.inject_burst(burst);
        assert_eq!(outcome.admitted, 24);
        for _ in 0..400 {
            sim.step_all();
        }
        assert_eq!(host.poll_egress_burst(64).len(), 24);
        host.shutdown();
        let owners = seen.lock().len();
        assert_eq!(owners, 3, "sticky: exactly one state owner per flow");
    }

    /// `NIC 0 → service → port 1`, on a stepped host whose shards run one
    /// no-op replica of the service each (spawned before this returns).
    fn scaling_host(shards: usize) -> (ThreadedHost, crate::sim::SimHandle, ServiceId) {
        let service = ServiceId::new(1);
        let table = SharedFlowTable::new();
        table.insert(FlowRule::new(
            FlowMatch::at_step(RulePort::Nic(0)),
            vec![Action::ToService(service)],
        ));
        table.insert(FlowRule::new(
            FlowMatch::at_step(service),
            vec![Action::ToPort(1)],
        ));
        let (host, sim) = ThreadedHost::start_sim_sharded(
            table,
            |_shard| vec![(service, Box::new(NoOpNf::new()) as Box<dyn NetworkFunction>)],
            ThreadedHostConfig {
                num_shards: shards,
                ..ThreadedHostConfig::default()
            },
        );
        sim.step_all();
        (host, sim, service)
    }

    /// Steps and polls until no bucket move is pending.
    fn settle_moves(host: &ThreadedHost, sim: &crate::sim::SimHandle) {
        for _ in 0..1000 {
            sim.step_all();
            host.poll_egress_burst(64);
            if host.pending_rehomes() == 0 {
                return;
            }
        }
        panic!("bucket moves never settled");
    }

    /// A flow `shards`-shard default steering sends to `shard`, in a bucket
    /// whose replica pick changes between 1 and 2 replicas.
    fn repicked_flow(shard: usize, shards: usize) -> u16 {
        (1..u16::MAX)
            .find(|&port| {
                let key = packet(port).flow_key().expect("udp packet");
                let bucket = (key.stable_hash() % STEER_BUCKETS as u64) as usize;
                shard_for_flow(&key, shards) == shard && replica_of_bucket(bucket, 2) == 1
            })
            .expect("some flow is re-picked")
    }

    /// The ordering of a replica scale: the change reaches the worker only
    /// after every bucket it re-picks has drained, right after their export
    /// and only when the control ring has room for both; the worker posts
    /// that export to the replicas before it spawns or stops one.
    #[test]
    fn a_replica_change_follows_its_buckets_drain_and_their_export() {
        let (host, sim, service) = scaling_host(1);
        let worker = sim.actors()[0].id;
        let queued = || host.shards.borrow()[0].control.len();
        let flow = repicked_flow(0, 1);
        let bucket = host.tracker.bucket_of(&packet(flow).flow_key().unwrap());
        assert!(host.inject(packet(flow)).is_admitted());
        assert!(host
            .add_nf_replica(0, service, Box::new(NoOpNf::new()))
            .is_ok());
        assert!(host.tracker.is_parked(bucket));
        let mut most = 0;
        for _ in 0..100 {
            let in_flight = host.tracker.in_flight(bucket) > 0;
            host.poll_egress_burst(64); // advances the handshake
            assert!(!in_flight || queued() == 0, "pushed before the drain");
            most = most.max(queued());
            assert_ne!(most, 1, "the export and the change go together");
            sim.step(sim.actors()[1].id); // the replica, then the worker
            sim.step(worker);
            if most == 2 {
                break;
            }
        }
        assert_eq!(most, 2, "the drained scale pushed its export and change");
        // The worker applied both: the export went to the one replica
        // there was, then the new replica was spawned.
        let (slots, asked) = sim
            .with_worker(worker, |engine| {
                let asked: Vec<usize> = engine.pending_collects[0]
                    .outstanding
                    .iter()
                    .map(|&(slot, _)| slot)
                    .collect();
                (engine.slots.len(), asked)
            })
            .unwrap();
        assert_eq!((slots, asked), (2, vec![0]));
        settle_moves(&host, &sim);

        // Scale back down with a ring that has room for one command only:
        // neither goes on until the worker makes room for both.
        let room = host.shards.borrow()[0].control.free_space();
        for _ in 1..room {
            assert!(host.resize_credits(0, host.credit_budget(0)));
        }
        assert!(host.remove_nf_replica(0, service));
        host.poll_egress_burst(64);
        assert_eq!(queued(), room - 1, "no room for both: nothing pushed");
        sim.step(worker);
        host.poll_egress_burst(64);
        assert_eq!(queued(), 2);
        sim.step(worker);
        // The retiring replica was stopped with the export already on its
        // control ring: the one request there, awaited by the collect.
        let retiring = sim
            .with_worker(worker, |engine| {
                let slot = &engine.slots[1];
                let awaited = engine
                    .pending_collects
                    .iter()
                    .any(|collect| collect.outstanding.iter().any(|&(index, _)| index == 1));
                (slot.state, slot.control.len(), slot.unsent.len(), awaited)
            })
            .unwrap();
        assert_eq!(retiring, (SlotState::Draining, 1, 0, true));
        settle_moves(&host, &sim);
        assert_eq!(host.stats().snapshot().nf_state_import_drops, 0);
        let journal = host.take_rehome_events();
        assert!(journal
            .iter()
            .all(|e| e.from == 0 && e.to == MoveTarget::Shard(0)));
        assert!(journal
            .iter()
            .any(|e| e.bucket == bucket && e.step == RehomeStep::Completed));
        host.shutdown();
    }

    /// While a replica scale is pending no bucket move can begin, and a
    /// scale waits for the moves involving its shard — so no import into
    /// the shard is routed under the replica count it is leaving.
    #[test]
    fn a_replica_scale_and_a_bucket_move_exclude_each_other() {
        let (host, sim, service) = scaling_host(2);
        assert!(host.inject(packet(repicked_flow(0, 2))).is_admitted());
        assert!(host
            .add_nf_replica(0, service, Box::new(NoOpNf::new()))
            .is_ok());
        assert!(host
            .add_nf_replica(0, service, Box::new(NoOpNf::new()))
            .is_err());
        assert!(!host.set_steering_weights(&[1, 2]));
        assert!(host.spawn_shard(Vec::new()).is_err());
        assert!(!host.retire_shard_at(1));
        settle_moves(&host, &sim);

        assert!(host.set_steering_weights(&[1, 2]));
        assert!(host.pending_rehomes() > 0);
        assert!(host
            .add_nf_replica(1, service, Box::new(NoOpNf::new()))
            .is_err());
        assert!(!host.remove_nf_replica(0, service));
        settle_moves(&host, &sim);
        assert!(host
            .add_nf_replica(1, service, Box::new(NoOpNf::new()))
            .is_ok());
        settle_moves(&host, &sim);
        host.shutdown();
    }

    /// A flow (by source port) whose steering bucket satisfies `wanted`.
    fn flow_in_bucket(wanted: impl Fn(usize) -> bool) -> (u16, usize) {
        (1..u16::MAX)
            .map(|port| {
                let key = packet(port).flow_key().expect("udp packet");
                (port, (key.stable_hash() % STEER_BUCKETS as u64) as usize)
            })
            .find(|&(_, bucket)| wanted(bucket))
            .expect("some flow lands in a wanted bucket")
    }

    /// Hands `bucket` out of a stepped host as the federation would (its
    /// bundle taken, the adopting host's acknowledgement assumed) and
    /// returns the pen it gives back.
    fn hand_out(
        host: &ThreadedHost,
        sim: &crate::sim::SimHandle,
        bucket: usize,
    ) -> Vec<(Packet, FlowKey)> {
        assert!(host.begin_bucket_handout(bucket));
        for _ in 0..1000 {
            sim.step_all();
            host.poll_egress_burst(64);
            let bundles = host.take_ready_handouts();
            if !bundles.is_empty() {
                assert_eq!(bundles[0].bucket, bucket);
                return host.finish_bucket_handout(bucket);
            }
        }
        panic!("bucket {bucket} was never handed out");
    }

    /// A replica scale and a handout of the same bucket off the same shard
    /// journal different destinations.
    #[test]
    fn a_handout_and_a_replica_scale_journal_different_moves() {
        let (host, sim, service) = scaling_host(1);
        let (_, bucket) = flow_in_bucket(|bucket| replica_of_bucket(bucket, 2) == 1);
        assert!(host
            .add_nf_replica(0, service, Box::new(NoOpNf::new()))
            .is_ok());
        settle_moves(&host, &sim);
        assert!(hand_out(&host, &sim, bucket).is_empty());
        let to = |step| {
            let journal = host.take_rehome_events();
            let of_bucket = journal.into_iter().filter(|e| e.bucket == bucket);
            of_bucket
                .filter(|e| e.step == step)
                .map(|e| (e.from, e.to))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            to(RehomeStep::Completed),
            [(0, MoveTarget::Shard(0)), (0, MoveTarget::Host)]
        );
        assert_eq!(host.rehome_report().buckets_handed_off, 1);
        host.shutdown();
    }

    /// A cross-shard rebalance and a cross-host handout off one shard run
    /// at once: each drains its in-flight packet, pens its arrivals and
    /// releases them to its own destination; nothing is lost.
    #[test]
    fn a_local_move_and_a_handout_run_at_once() {
        let (host, sim, _) = scaling_host(2);
        // Shard 0 owns the even buckets; weights 1:3 take its 256 highest.
        let (moving, moved) = flow_in_bucket(|bucket| bucket % 2 == 0 && bucket >= 512);
        let (leaving, handed) = flow_in_bucket(|bucket| bucket % 2 == 0 && bucket < 512);
        assert!(host.inject(packet(moving)).is_admitted());
        assert!(host.inject(packet(leaving)).is_admitted());
        assert!(host.begin_bucket_handout(handed));
        assert!(host.set_steering_weights(&[1, 3]));
        assert_eq!(host.pending_rehomes(), 257);
        // Arrivals while both buckets are parked wait in their pens.
        assert!(host.inject(packet(moving)).is_admitted());
        assert!(host.inject(packet(leaving)).is_admitted());
        assert_eq!(host.rehome_report().packets_penned, 2);
        let mut egressed = Vec::new();
        let mut pen = Vec::new();
        for _ in 0..1000 {
            sim.step_all();
            egressed.extend(
                host.poll_egress_burst(64)
                    .into_iter()
                    .map(|o| o.key.src_port),
            );
            if !host.take_ready_handouts().is_empty() {
                pen = host.finish_bucket_handout(handed);
            }
            if host.pending_rehomes() == 0 {
                break;
            }
        }
        assert_eq!(host.pending_rehomes(), 0);
        for _ in 0..40 {
            sim.step_all();
            egressed.extend(
                host.poll_egress_burst(64)
                    .into_iter()
                    .map(|o| o.key.src_port),
            );
        }
        egressed.sort_unstable();
        let mut expected = vec![moving, moving, leaving];
        expected.sort_unstable();
        assert_eq!(
            egressed, expected,
            "both in-flight packets and the moved pen"
        );
        let penned: Vec<u16> = pen.iter().map(|(_, key)| key.src_port).collect();
        assert_eq!(penned, [leaving], "the handout's pen goes back whole");
        assert_eq!(host.steering_table()[moved], 1);
        let report = host.rehome_report();
        assert_eq!(
            (report.buckets_rehomed, report.buckets_handed_off),
            (256, 1)
        );
        let completed: Vec<(usize, MoveTarget)> = host
            .take_rehome_events()
            .into_iter()
            .filter(|e| e.step == RehomeStep::Completed && [moved, handed].contains(&e.bucket))
            .map(|e| (e.bucket, e.to))
            .collect();
        assert_eq!(completed.len(), 2);
        assert!(completed.contains(&(moved, MoveTarget::Shard(1))));
        assert!(completed.contains(&(handed, MoveTarget::Host)));
        host.shutdown();
    }

    /// `rule_sweep_interval_ns: 0` turns rule expiry off: the table's clock
    /// advances only in the sweep, so no lookup sees a pin's idle timeout
    /// pass either. With the sweep on, the same pin is evicted.
    #[test]
    fn a_zero_sweep_interval_turns_rule_expiry_off() {
        struct PinOnceNf {
            own: ServiceId,
            sent: bool,
        }
        impl NetworkFunction for PinOnceNf {
            fn name(&self) -> &str {
                "pin-once"
            }
            fn process(&mut self, packet: &Packet, ctx: &mut NfContext) -> Verdict {
                let key = packet.flow_key().expect("udp packet");
                if !std::mem::replace(&mut self.sent, true) {
                    ctx.send_for_flow(
                        &key,
                        sdnfv_nf::NfMessage::ChangeDefault {
                            flows: FlowMatch::exact(RulePort::Service(self.own), &key),
                            service: self.own,
                            new_default: Action::ToPort(2),
                        },
                    );
                }
                Verdict::Default
            }
        }
        for (sweep_ns, expires) in [(0, false), (100_000, true)] {
            let service = ServiceId::new(1);
            let table = SharedFlowTable::new();
            table.insert(FlowRule::new(
                FlowMatch::at_step(RulePort::Nic(0)),
                vec![Action::ToService(service)],
            ));
            // Port 2 is the service's allowed alternative: the pin's target.
            table.insert(FlowRule::new(
                FlowMatch::at_step(service),
                vec![Action::ToPort(1), Action::ToPort(2)],
            ));
            let (host, sim) = ThreadedHost::start_sim_sharded(
                table,
                move |_shard| {
                    let nf = PinOnceNf {
                        own: service,
                        sent: false,
                    };
                    vec![(service, Box::new(nf) as Box<dyn NetworkFunction>)]
                },
                ThreadedHostConfig {
                    rule_sweep_interval_ns: sweep_ns,
                    pin_idle_timeout_ns: Some(1_000_000),
                    ..ThreadedHostConfig::default()
                },
            );
            let pins = || host.shard_table(0).with_read(|t| t.exact_rules().count());
            let forward = || {
                assert!(host.inject(packet(7)).is_admitted());
                for _ in 0..40 {
                    sim.step_all();
                }
                let out = host.poll_egress_burst(16);
                assert_eq!(out.len(), 1);
                out[0].port
            };
            forward();
            assert_eq!(pins(), 1, "sweep {sweep_ns}: the NF pinned its flow");
            sim.advance_clock_ns(50_000_000);
            for _ in 0..200 {
                sim.step_all();
            }
            let port = forward();
            assert_eq!(pins(), usize::from(!expires), "sweep {sweep_ns}");
            assert_eq!(port, if expires { 1 } else { 2 }, "sweep {sweep_ns}");
            let evicted = host.stats().snapshot().rules_evicted_idle;
            assert_eq!(evicted, u64::from(expires), "sweep {sweep_ns}");
            host.shutdown();
        }
    }

    #[test]
    fn an_idle_evicted_pin_sends_its_flow_through_the_ids_afresh() {
        let (ids, scrubber) = (ServiceId::new(1), ServiceId::new(2));
        let table = SharedFlowTable::new();
        table.insert(FlowRule::new(
            FlowMatch::at_step(RulePort::Nic(0)),
            vec![Action::ToService(ids)],
        ));
        // The scrubber is the IDS's allowed alternative: its pin's target.
        table.insert(FlowRule::new(
            FlowMatch::at_step(ids),
            vec![Action::ToPort(1), Action::ToService(scrubber)],
        ));
        table.insert(FlowRule::new(
            FlowMatch::at_step(scrubber),
            vec![Action::ToPort(2)],
        ));
        let (host, sim) = ThreadedHost::start_sim_sharded(
            table,
            move |_shard| {
                vec![
                    (
                        ids,
                        Box::new(IdsNf::new(ids, scrubber)) as Box<dyn NetworkFunction>,
                    ),
                    (
                        scrubber,
                        Box::new(NoOpNf::new()) as Box<dyn NetworkFunction>,
                    ),
                ]
            },
            ThreadedHostConfig {
                rule_sweep_interval_ns: 100_000,
                pin_idle_timeout_ns: Some(1_000_000),
                ..ThreadedHostConfig::default()
            },
        );
        let forward = |query: &str| {
            let request = PacketBuilder::tcp()
                .src_ip([10, 0, 0, 1])
                .dst_ip([10, 0, 0, 2])
                .src_port(7)
                .dst_port(80)
                .ingress_port(0)
                .payload(format!("GET /q?{query} HTTP/1.1\r\n\r\n").as_bytes())
                .build();
            assert!(host.inject(request).is_admitted());
            for _ in 0..40 {
                sim.step_all();
            }
            let out = host.poll_egress_burst(16);
            assert_eq!(out.len(), 1);
            out[0].port
        };
        let pins = || host.shard_table(0).with_read(|t| t.exact_rules().count());
        assert_eq!(forward("q=' OR '1'='1"), 2, "flagged and scrubbed");
        assert_eq!(pins(), 1, "the IDS pinned its flow to the scrubber");
        assert_eq!(forward("q=hello"), 2, "a flagged flow stays scrubbed");
        // Quiet past the pin's idle timeout: the sweep evicts it and the
        // IDS scrubs the flow from its flagged set.
        sim.advance_clock_ns(50_000_000);
        for _ in 0..200 {
            sim.step_all();
        }
        assert_eq!(pins(), 0);
        let snap = host.stats().snapshot();
        assert_eq!(snap.rules_evicted_idle, 1);
        assert_eq!(snap.nf_state_scrubbed, 1, "the IDS forgot the flow");
        assert_eq!(forward("q=hello"), 1, "inspected afresh and found clean");
        host.shutdown();
    }

    #[test]
    fn bucket_handout_carries_rules_and_nf_state_to_another_host() {
        let service = ServiceId::new(1);
        let start_host = |scrubbed: &Arc<Mutex<Vec<FlowKey>>>| {
            let table = SharedFlowTable::new();
            table.insert(FlowRule::new(
                FlowMatch::at_step(RulePort::Nic(0)),
                vec![Action::ToService(service)],
            ));
            table.insert(FlowRule::new(
                FlowMatch::at_step(service),
                vec![Action::ToPort(1)],
            ));
            let log = Arc::clone(scrubbed);
            ThreadedHost::start(
                table,
                vec![(
                    service,
                    Box::new(FlowStateNf {
                        states: HashMap::new(),
                        scrubbed: log,
                    }) as Box<dyn NetworkFunction>,
                )],
                ThreadedHostConfig::default(),
            )
        };
        let scrub_a = Arc::new(Mutex::new(Vec::new()));
        let scrub_b = Arc::new(Mutex::new(Vec::new()));
        let host_a = start_host(&scrub_a);
        let host_b = start_host(&scrub_b);
        // Federated hosts keep disjoint wildcard-mutation sequence ranges.
        host_b.raise_mutation_seq_floor(1 << 32);
        // Build per-flow NF state on A, plus an exact pin for the flow.
        let flow = packet(7).flow_key().unwrap();
        host_a.install_rule(FlowRule::new(
            FlowMatch::exact(RulePort::Nic(0), &flow),
            vec![Action::ToService(service)],
        ));
        for _ in 0..10 {
            assert!(host_a.inject(packet(7)).is_admitted());
        }
        assert_eq!(collect_outputs(&host_a, 10).len(), 10);
        let bucket = (flow.stable_hash() % STEER_BUCKETS as u64) as usize;
        assert!(host_a.begin_bucket_handout(bucket));
        assert!(
            !host_a.begin_bucket_handout(bucket),
            "a bucket mid-handout is refused"
        );
        // Arrivals during the handout are penned, not dropped.
        assert!(host_a.inject(packet(7)).is_admitted());
        // Drive A until the worker has exported the bucket's state bundle.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut handouts = Vec::new();
        while handouts.is_empty() && Instant::now() < deadline {
            handouts = host_a.take_ready_handouts();
            std::thread::yield_now();
        }
        assert_eq!(handouts.len(), 1);
        let handout = &handouts[0];
        assert_eq!(handout.bucket, bucket);
        assert_eq!(handout.table_state.exact_rules.len(), 1, "the pin travels");
        assert_eq!(handout.nf_states.len(), 1, "the NF counter travels");
        // B adopts: the rule installs and the NF state import is acked.
        let done = host_b.absorb_bucket_handout(handout);
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done.load(Ordering::Acquire) && Instant::now() < deadline {
            let _ = host_b.poll_egress();
            std::thread::yield_now();
        }
        assert!(done.load(Ordering::Acquire), "import acked");
        // Only now does A release: the penned packet forwards to B.
        let pen = host_a.finish_bucket_handout(bucket);
        assert_eq!(pen.len(), 1);
        for (pkt, _key) in pen {
            assert!(host_b.inject(pkt).is_admitted());
        }
        assert_eq!(collect_outputs(&host_b, 1).len(), 1);
        // The ledgers agree end to end: one bucket moved, nothing lost.
        let sent = host_a.rehome_report();
        assert_eq!(sent.buckets_handed_off, 1);
        assert!(sent.packets_penned >= 1);
        let got = host_b.rehome_report();
        assert_eq!(got.buckets_adopted, 1);
        assert_eq!(got.rules_rehomed, 1);
        assert_eq!(got.nf_flow_states_rehomed, 1);
        assert_eq!(host_a.stats().snapshot().overflow_drops, 0);
        assert_eq!(host_b.stats().snapshot().overflow_drops, 0);
        host_a.shutdown();
        host_b.shutdown();
    }

    /// Pins each flow it serves at `exit`'s step to port 2, the exit
    /// rule's allowed alternative, and sends nothing else.
    struct PinExitNf {
        exit: ServiceId,
    }

    impl NetworkFunction for PinExitNf {
        fn name(&self) -> &str {
            "pin-exit"
        }

        fn process(&mut self, packet: &Packet, ctx: &mut NfContext) -> Verdict {
            let key = packet.flow_key().expect("udp packet");
            ctx.send_for_flow(
                &key,
                sdnfv_nf::NfMessage::ChangeDefault {
                    flows: FlowMatch::exact(RulePort::Service(self.exit), &key),
                    service: self.exit,
                    new_default: Action::ToPort(2),
                },
            );
            Verdict::Default
        }
    }

    /// A stepped host whose ingress fans out to `pinner` (two replicas when
    /// `twice` is set) and `exit`, all read only; `exit`'s rule defaults to
    /// port 1 and allows port 2. `exit`'s replica takes slot 0, so the
    /// worker meets its done ring before the pinner's message ring.
    fn fan_out_host(
        pinner: ServiceId,
        twice: bool,
        exit: ServiceId,
    ) -> (ThreadedHost, crate::sim::SimHandle) {
        let table = SharedFlowTable::new();
        table.insert(FlowRule::parallel(
            FlowMatch::at_step(RulePort::Nic(0)),
            vec![Action::ToService(pinner), Action::ToService(exit)],
        ));
        table.insert(FlowRule::new(
            FlowMatch::at_step(exit),
            vec![Action::ToPort(1), Action::ToPort(2)],
        ));
        ThreadedHost::start_sim_sharded(
            table,
            move |_shard| {
                let mut nfs: Vec<(ServiceId, Box<dyn NetworkFunction>)> = vec![
                    (exit, Box::new(NoOpNf::new())),
                    (pinner, Box::new(PinExitNf { exit })),
                ];
                if twice {
                    nfs.push((pinner, Box::new(PinExitNf { exit })));
                }
                nfs
            },
            ThreadedHostConfig::default(),
        )
    }

    /// The sim actor id of `service`'s replicas on shard 0, in spawn order.
    fn replica_ids(sim: &crate::sim::SimHandle, service: ServiceId) -> Vec<u64> {
        let label = format!("shard0/nf{service}");
        sim.actors()
            .into_iter()
            .filter(|actor| actor.label == label)
            .map(|actor| actor.id)
            .collect()
    }

    #[test]
    fn a_fan_out_siblings_pin_steers_the_packet_its_last_completion_routes() {
        let (pinner, exit) = (ServiceId::new(1), ServiceId::new(2));
        let (host, sim) = fan_out_host(pinner, false, exit);
        let worker = sim.actors()[0].id;
        assert!(host.inject(packet(7)).is_admitted());
        assert!(sim.step(worker), "the fan-out goes to both NFs");
        // The pinner finishes first, so its countdown is not the last: its
        // message reaches the worker on its own ring, and the exit NF's
        // done ring carries the packet's one completion.
        assert!(sim.step(replica_ids(&sim, pinner)[0]));
        assert!(sim.step(replica_ids(&sim, exit)[0]));
        assert!(sim.step(worker));
        let out = host.poll_egress_burst(4);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].port, 2, "the next lookup honours the sibling's pin");
        assert_eq!(host.stats().snapshot().nf_messages, 1);
        assert_eq!(host.take_nf_messages().len(), 1);
        host.shutdown();
    }

    #[test]
    fn a_retired_replicas_last_message_is_applied() {
        let (pinner, exit) = (ServiceId::new(1), ServiceId::new(2));
        let (host, sim) = fan_out_host(pinner, true, exit);
        let worker = sim.actors()[0].id;
        sim.step(worker); // the replicas spawn
                          // A flow the newer of the pinner's two replicas serves.
        let src_port = (1..)
            .find(|&port| {
                let hash = packet(port).flow_key().unwrap().stable_hash();
                replica_of_bucket((hash & (STEER_BUCKETS as u64 - 1)) as usize, 2) == 1
            })
            .unwrap();
        assert!(host.inject(packet(src_port)).is_admitted());
        assert!(sim.step(worker), "the fan-out goes to the newer replica");
        let newer = replica_ids(&sim, pinner)[1];
        // The worker starts retiring that replica: it sends its pin, counts
        // its handle down (not the last) and finds its input drained.
        sim.with_worker(worker, |engine| engine.begin_remove_nf(pinner))
            .unwrap();
        assert!(sim.step(newer));
        assert!(sim.step(newer));
        assert!(sim.actors().iter().any(|a| a.id == newer && a.finished));
        // A worker that looks before the message is applied — threaded, the
        // replica can send and exit between its drain and its retire pass —
        // keeps the slot draining: retired, its ring would never be read.
        let state = sim.with_worker(worker, |engine| {
            engine.retire_drained();
            engine.slots[2].state
        });
        assert_eq!(state, Some(SlotState::Draining));
        assert!(sim.step(replica_ids(&sim, exit)[0]));
        assert!(sim.step(worker));
        let state = sim.with_worker(worker, |engine| engine.slots[2].state);
        assert_eq!(state, Some(SlotState::Retired));
        let out = host.poll_egress_burst(4);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].port, 2, "the retired replica's pin steered it");
        let messages = host.take_nf_messages();
        assert_eq!(messages.len(), 1);
        assert_eq!(messages[0].from, pinner);
        host.shutdown();
    }

    /// Sends `start` from `on_start`, then one message naming each packet
    /// it serves by its first payload byte.
    struct TellNf;

    impl NetworkFunction for TellNf {
        fn name(&self) -> &str {
            "tell"
        }

        fn on_start(&mut self, ctx: &mut NfContext) {
            ctx.send(sdnfv_nf::NfMessage::custom("start", ""));
        }

        fn process(&mut self, packet: &Packet, ctx: &mut NfContext) -> Verdict {
            let seq = packet.l4_payload().unwrap()[0];
            ctx.send(sdnfv_nf::NfMessage::custom("seq", seq.to_string()));
            Verdict::Default
        }
    }

    #[test]
    fn a_burst_whose_messages_find_the_ring_full_waits_and_loses_nothing() {
        // A two-slot replica, one packet per burst: its message ring holds
        // two bursts' messages, as `spawn_nf` sizes it.
        let (mut engine, ring, done, messages, _control) = test_nf_replica(Box::new(TellNf), 2, 1);
        let work = |seq: u8| WorkItem {
            frame: sole_frame(stamped(seq), u64::from(seq)),
            exit_service: ServiceId::new(1),
            position: 0,
        };
        let mut applied = Vec::new();
        let drain = |applied: &mut Vec<String>| {
            while let Some(entry) = messages.pop() {
                let NfOut::Messages(list) = entry else {
                    panic!("a state response nobody asked for");
                };
                applied.extend(list.into_iter().map(|attributed| match attributed.message {
                    sdnfv_nf::NfMessage::Custom { key, value } => format!("{key}{value}"),
                    other => panic!("unexpected {other:?}"),
                }));
            }
        };
        assert!(ring.push(work(1)).is_ok() && ring.push(work(2)).is_ok());
        assert!(engine.step());
        assert_eq!(done.len(), 1, "`start` and packet 1's message fit");
        assert!(engine.step(), "packet 2 is served");
        assert_eq!(done.len(), 1, "its completion waits for its message");
        assert!(
            !engine.step(),
            "a held burst that still does not fit is no work"
        );
        assert_eq!((done.len(), ring.len()), (1, 1), "and nothing else moves");
        drain(&mut applied);
        assert!(engine.step(), "room: the held burst goes out");
        assert_eq!(done.len(), 2);
        drain(&mut applied);
        assert_eq!(applied, ["start", "seq1", "seq2"]);
        let mut completions = Vec::new();
        done.pop_n(&mut completions, 2);
        let hashes: Vec<u64> = completions
            .iter()
            .map(|item| served(&item.frame).hash)
            .collect();
        assert_eq!(hashes, [1, 2]);
    }

    /// Counts each flow's packets as its NF state, and pins every flow it
    /// serves to port 2 with an exact `ChangeDefault`.
    struct PinCountNf {
        own: ServiceId,
        counts: HashMap<FlowKey, u64>,
    }

    impl NetworkFunction for PinCountNf {
        fn name(&self) -> &str {
            "pin-count"
        }

        fn process(&mut self, packet: &Packet, ctx: &mut NfContext) -> Verdict {
            let key = packet.flow_key().expect("udp packet");
            *self.counts.entry(key).or_insert(0) += 1;
            ctx.send_for_flow(
                &key,
                sdnfv_nf::NfMessage::ChangeDefault {
                    flows: FlowMatch::exact(RulePort::Service(self.own), &key),
                    service: self.own,
                    new_default: Action::ToPort(2),
                },
            );
            Verdict::Default
        }

        fn export_flow_state(&mut self, key: &FlowKey) -> Option<NfFlowState> {
            let count = self.counts.remove(key)?;
            Some(NfFlowState::with_counter("packets", count))
        }

        fn import_flow_state(&mut self, key: &FlowKey, state: NfFlowState) {
            *self.counts.entry(*key).or_insert(0) += state.counter("packets").unwrap_or(0);
        }

        fn flow_state_keys(&self) -> Vec<FlowKey> {
            self.counts.keys().copied().collect()
        }
    }

    /// An export that reaches a replica whose message ring is full, behind
    /// a burst held for room: the replica serves it only once the held
    /// burst's pin is on the ring, so the worker has applied the pin when
    /// it reads the export — and the export carries the flow's state.
    #[test]
    fn an_export_behind_a_held_burst_is_answered_after_its_pin() {
        let service = ServiceId::new(1);
        let table = SharedFlowTable::new();
        table.insert(FlowRule::new(
            FlowMatch::at_step(RulePort::Nic(0)),
            vec![Action::ToService(service)],
        ));
        table.insert(FlowRule::new(
            FlowMatch::at_step(service),
            vec![Action::ToPort(1), Action::ToPort(2)],
        ));
        // Two-entry rings and one packet per burst: an import's response
        // and one burst's pin fill the replica's message ring.
        let (host, sim) = ThreadedHost::start_sim_sharded(
            table,
            move |_shard| {
                vec![(
                    service,
                    Box::new(PinCountNf {
                        own: service,
                        counts: HashMap::new(),
                    }) as Box<dyn NetworkFunction>,
                )]
            },
            ThreadedHostConfig {
                nf_ring_capacity: 2,
                burst_size: 1,
                ..ThreadedHostConfig::default()
            },
        );
        sim.step_all();
        let (worker, replica) = (sim.actors()[0].id, sim.actors()[1].id);
        let (other, flow) = (packet(1), packet(2));
        let key = flow.flow_key().unwrap();
        let bucket = host.tracker.bucket_of(&key);
        assert!(host.inject(other).is_admitted() && host.inject(flow).is_admitted());
        assert!(
            sim.step(worker) && sim.step(worker),
            "both go to the replica"
        );
        let imported = Arc::new(AtomicBool::new(false));
        let done = Arc::clone(&imported);
        let stranger = packet(3).flow_key().unwrap();
        sim.with_worker(worker, |engine| {
            let state = NfFlowState::with_counter("packets", 5);
            engine.begin_import(vec![(service, stranger, state)], done);
            engine.slots[0].send_requests();
        })
        .unwrap();
        // The import's response and the first burst's pin fill the ring;
        // the second burst is held with its pin.
        assert!(sim.step(replica) && sim.step(replica));
        const EXPORT: u64 = 77;
        let look = |engine: &mut ShardEngine| {
            let slot = &engine.slots[0];
            let pinned = engine
                .table
                .with_read(|t| t.exact_rule_id(RulePort::Service(service), &key).is_some());
            (slot.messages.len(), slot.control.len(), pinned)
        };
        let seen = sim.with_worker(worker, |engine| {
            engine.begin_export(EXPORT, vec![bucket], vec![key]);
            engine.slots[0].send_requests();
            look(engine)
        });
        assert_eq!(seen, Some((2, 1, false)), "full ring, export posted");
        assert!(!sim.step(replica), "the held burst still does not fit");
        assert_eq!(sim.with_worker(worker, look), Some((2, 1, false)));
        // The worker makes room (and reads the import's ack); the replica
        // hands its held burst back, then answers the export behind it.
        assert!(sim.step(worker));
        assert!(imported.load(Ordering::Acquire));
        assert!(sim.step(replica));
        let order = sim.with_worker(worker, |engine| {
            let (front, back) = engine.slots[0].messages.peek_mut(2);
            let kinds: Vec<bool> = front
                .iter()
                .chain(back.iter())
                .map(|entry| matches!(entry, NfOut::State { .. }))
                .collect();
            assert!(!look(engine).2, "the pin is not applied yet");
            engine.apply_nf_messages();
            let answered = !engine.slots[0].responses.is_empty();
            (kinds, answered, look(engine))
        });
        assert_eq!(
            order,
            Some((vec![false, true], true, (0, 0, true))),
            "the pin, then the export: applied before the response is read"
        );
        assert!(sim.step(worker));
        let export = host.shards.borrow()[0].exports.pop().expect("resolved");
        assert_eq!(export.id, EXPORT);
        let counts: Vec<(FlowKey, Option<u64>)> = export
            .states
            .iter()
            .map(|(from, key, state)| {
                assert_eq!(*from, service);
                (*key, state.counter("packets"))
            })
            .collect();
        assert_eq!(counts, vec![(key, Some(1))]);
        assert_eq!(host.stats().snapshot().nf_state_import_drops, 0);
        host.shutdown();
    }

    /// A replica retired while a request for it still waits for room on
    /// its control ring keeps running until the request is on the ring:
    /// it answers the export of the buckets it served before it exits, so
    /// their flow state moves instead of being counted lost.
    #[test]
    fn a_retiring_replica_answers_a_request_that_waited_for_room() {
        let service = ServiceId::new(1);
        let table = SharedFlowTable::new();
        table.insert(FlowRule::new(
            FlowMatch::at_step(RulePort::Nic(0)),
            vec![Action::ToService(service)],
        ));
        table.insert(FlowRule::new(
            FlowMatch::at_step(service),
            vec![Action::ToPort(1), Action::ToPort(2)],
        ));
        let counting = move || {
            Box::new(PinCountNf {
                own: service,
                counts: HashMap::new(),
            }) as Box<dyn NetworkFunction>
        };
        let (host, sim) = ThreadedHost::start_sim_sharded(
            table,
            move |_shard| vec![(service, counting())],
            ThreadedHostConfig::default(),
        );
        sim.step_all();
        assert!(host.add_nf_replica(0, service, counting()).is_ok());
        settle_moves(&host, &sim);
        // One packet of a flow the newer replica serves: it holds the
        // flow's state.
        let flow = packet(repicked_flow(0, 1));
        let key = flow.flow_key().unwrap();
        assert!(host.inject(flow).is_admitted());
        let mut out = Vec::new();
        for _ in 0..20 {
            sim.step_all();
            out.extend(host.poll_egress_burst(4));
        }
        assert_eq!(out.len(), 1);
        const EXPORT: u64 = 91;
        let bucket = host.tracker.bucket_of(&key);
        let worker = sim.actors()[0].id;
        let waiting = sim.with_worker(worker, |engine| {
            for _ in 0..CONTROL_RING_CAPACITY {
                engine.slots[1].queue_request(NfRequest::Scrub { keys: Vec::new() });
            }
            engine.begin_export(EXPORT, vec![bucket], vec![key]);
            engine.begin_remove_nf(service);
            let slot = &engine.slots[1];
            (slot.unsent.len(), slot.stop.load(Ordering::Acquire))
        });
        assert_eq!(waiting, Some((1, false)), "the export waits, so no stop");
        let mut export = None;
        for _ in 0..20 {
            sim.step_all();
            export = export.or_else(|| host.shards.borrow()[0].exports.pop());
        }
        let export = export.expect("the export resolved");
        assert_eq!(export.id, EXPORT);
        let states: Vec<(ServiceId, FlowKey, Option<u64>)> = export
            .states
            .iter()
            .map(|(from, key, state)| (*from, *key, state.counter("packets")))
            .collect();
        assert_eq!(states, vec![(service, key, Some(1))]);
        let retired = sim.with_worker(worker, |engine| engine.slots[1].state);
        assert_eq!(retired, Some(SlotState::Retired));
        assert_eq!(host.stats().snapshot().nf_state_import_drops, 0);
        host.shutdown();
    }
}
