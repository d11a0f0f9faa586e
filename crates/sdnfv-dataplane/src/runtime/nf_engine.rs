//! The NF side of a shard: one replica's step-callable engine
//! ([`NfEngine`]), the bundle it is spawned from ([`NfThread`]), its
//! threaded driver ([`nf_thread_loop`]), the telemetry probe it shares with
//! the worker ([`NfProbe`]), and the state-migration mailbox the worker
//! posts export, import and scrub requests into ([`NfStateChannel`]).
//! An NF thread writes no flow table: its messages ride its message ring
//! to the worker (see the parent module's **NF messages**).

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use sdnfv_flowtable::ServiceId;
use sdnfv_nf::{
    AttributedNfMessage, NetworkFunction, NfContext, NfFlowState, PacketBatch, PacketBatchMut,
    VerdictSlice,
};
use sdnfv_proto::flow::FlowKey;
use sdnfv_proto::Packet;
use sdnfv_ring::{Consumer, Producer, PushError};
use sdnfv_telemetry::{Ewma, HostClock};

use super::{idle_backoff, DoneItem, Frame, ShardLatency, WorkItem};
use crate::conflict::verdict_to_key;
use crate::rehome::BucketTracker;
use crate::scratch::recycle;
use crate::stats::ShardStats;

/// A state-migration request posted by the shard worker into one NF
/// replica's mailbox (served by the NF thread between bursts).
pub(super) enum NfStateRequest {
    /// Detach state for the given buckets' flows: the listed keys plus any
    /// key of the NF's own set whose bucket is in `buckets`.
    Export {
        buckets: Vec<usize>,
        keys: Vec<FlowKey>,
    },
    /// Absorb state exported on the flow's old shard or old replica.
    Import { states: Vec<(FlowKey, NfFlowState)> },
    /// Discard per-flow state for flows whose rules were evicted by the
    /// timeout lifecycle — per-flow NF state dies with its rule. Fire and
    /// forget: the NF thread serves it without posting a response.
    Scrub { keys: Vec<FlowKey> },
}

/// A queued mailbox between a shard worker and one NF thread, carrying
/// state-migration requests in and responses (exported state, or an empty
/// import acknowledgement) out. Several requests can be in flight at once —
/// overlapping bucket-move batches post new exports before earlier ones
/// resolve, and a shard can import and export concurrently — so each
/// request carries a worker-assigned token its response echoes. Requests
/// are rare (one per bucket-move batch), so mutex-guarded queues polled via
/// atomic flags are plenty — no ring needed.
#[derive(Default)]
pub(super) struct NfStateChannel {
    pub(super) requests: Mutex<std::collections::VecDeque<(u64, NfStateRequest)>>,
    responses: Mutex<std::collections::VecDeque<(u64, StateResponse)>>,
    /// Fault-injection hook (DST): while positive, `drain_responses`
    /// returns nothing — export acks sit queued in the mailbox — and every
    /// drain attempt decrements the counter, so a holdback of `n` delays
    /// the acks by `n` worker polls. Zero (the default) is a no-op on the
    /// fast path beyond one relaxed load.
    ack_holdback: AtomicU32,
    has_requests: AtomicBool,
    has_responses: AtomicBool,
}

/// A replica's response payload: the `(flow, state)` pairs it exported
/// (empty for an import acknowledgement).
pub(super) type StateResponse = Vec<(FlowKey, NfFlowState)>;

impl NfStateChannel {
    /// Worker side: queues a request under `token`.
    pub(super) fn post(&self, token: u64, request: NfStateRequest) {
        self.requests.lock().push_back((token, request));
        self.has_requests.store(true, Ordering::Release);
    }

    /// NF side: drains every pending request, in posting order.
    fn take_requests(&self) -> Vec<(u64, NfStateRequest)> {
        if !self.has_requests.swap(false, Ordering::AcqRel) {
            return Vec::new();
        }
        self.requests.lock().drain(..).collect()
    }

    /// NF side: publishes the response to request `token`.
    fn respond(&self, token: u64, response: StateResponse) {
        self.responses.lock().push_back((token, response));
        self.has_responses.store(true, Ordering::Release);
    }

    /// Worker side: drains every response that has arrived.
    pub(super) fn drain_responses(&self) -> Vec<(u64, StateResponse)> {
        // DST fault hook: a positive holdback keeps acks in the mailbox
        // for that many polls. Only this shard's worker drains, so the
        // load/sub pair cannot race itself.
        if self.ack_holdback.load(Ordering::Relaxed) > 0 {
            self.ack_holdback.fetch_sub(1, Ordering::Relaxed);
            return Vec::new();
        }
        if !self.has_responses.swap(false, Ordering::AcqRel) {
            return Vec::new();
        }
        self.responses.lock().drain(..).collect()
    }

    /// Fault injection (DST): delay delivery of queued and future export
    /// acks by `polls` drain attempts.
    fn delay_acks(&self, polls: u32) {
        self.ack_holdback.store(polls, Ordering::Relaxed);
    }

    /// Worker side, final-look drain: bypasses the ack holdback *and* the
    /// `has_responses` fast-path flag, draining whatever is physically
    /// queued. Used where "no response" is about to be treated as "never
    /// sent" — settling a reclaimed slot, or resolving entries for a
    /// finished replica. A response can be queued yet undelivered (the DST
    /// holdback fault, or the push→flag window in `respond` racing a
    /// regular drain), and resolving the entry empty at that moment would
    /// lose the exported state permanently.
    pub(super) fn drain_responses_final(&self) -> Vec<(u64, StateResponse)> {
        // ORDER: Relaxed — teardown reset of the fault counter; nothing
        // reads it concurrently with meaning.
        self.ack_holdback.store(0, Ordering::Relaxed);
        // ORDER: AcqRel — same edge as the regular drain; the queue lock
        // below synchronizes the payload either way.
        self.has_responses.swap(false, Ordering::AcqRel);
        self.responses.lock().drain(..).collect()
    }
}

/// Lock-free measurements one NF thread shares with its shard's worker: the
/// worker reads them when composing a [`TelemetrySnapshot`].
#[derive(Debug, Default)]
pub(super) struct NfProbe {
    /// EWMA of per-packet service time, nanoseconds.
    pub(super) service_time_ewma_ns: AtomicU64,
    /// Total packets processed.
    pub(super) processed: AtomicU64,
}

/// One entry of a replica's message ring: the cross-layer messages its NF
/// sent during one burst (or from `on_start`), in sending order.
pub(super) type NfMessages = Vec<AttributedNfMessage>;

/// A served burst on its way back to the worker: the messages its NF sent,
/// and how many items it served in which host-clock window.
struct ServedBurst {
    messages: NfMessages,
    len: usize,
    started_ns: u64,
    ended_ns: u64,
}

/// Everything one NF replica thread needs, bundled for
/// [`nf_thread_loop`].
pub(crate) struct NfThread {
    pub(super) shard: usize,
    pub(super) service: ServiceId,
    pub(super) nf: Box<dyn NetworkFunction>,
    pub(super) input: Consumer<WorkItem>,
    pub(super) done: Producer<DoneItem>,
    pub(super) running: Arc<AtomicBool>,
    /// Scale-down signal: exit once the input ring is empty.
    pub(super) stop: Arc<AtomicBool>,
    pub(super) stats: ShardStats,
    /// Bucket mapping, for selecting a bucket's flows on state export.
    pub(super) tracker: Arc<BucketTracker>,
    /// Where the NF's cross-layer messages go, for the worker to apply.
    pub(super) messages: Producer<NfMessages>,
    /// State-migration mailbox (export/import requests from the worker).
    pub(super) channel: Arc<NfStateChannel>,
    pub(super) probe: Arc<NfProbe>,
    /// Whether to measure service times into the probe (off when the
    /// host's telemetry exporter is disabled — nothing would read them).
    pub(super) measure: bool,
    pub(super) clock: HostClock,
    pub(super) burst_size: usize,
    /// The owning shard's latency histograms (NF service time lands here).
    pub(super) latency: Arc<ShardLatency>,
}

impl NfThread {
    /// Display label for the replica's simulation-registry entry.
    pub(crate) fn sim_label(&self) -> String {
        format!("shard{}/nf{}", self.shard, self.service)
    }
}

/// One NF replica as a step-callable state machine: the packet-processing
/// loop body of the old dedicated NF thread, factored out so the threaded
/// runtime ([`nf_thread_loop`]) and the deterministic simulation harness
/// drive the identical code.
pub(crate) struct NfEngine {
    /// The NF, its rings and the handles it shares with its shard.
    replica: NfThread,
    /// A served burst waiting for room on the message ring: its completions
    /// stay unpublished, and its items unread in the input ring, until its
    /// messages are on the ring.
    held: Option<ServedBurst>,
    ctx: NfContext,
    read_only: bool,
    /// The burst's packet references, parked empty between bursts (their
    /// element type borrows from the input ring's slots for one burst only;
    /// see [`recycle`]).
    read_refs: Vec<&'static Packet>,
    write_refs: Vec<&'static mut Packet>,
    verdicts: VerdictSlice,
    service_time: Ewma,
    /// Terminal: the replica exited its loop (drain complete or shutdown).
    pub(crate) finished: bool,
}

impl NfEngine {
    pub(crate) fn new(mut replica: NfThread) -> Self {
        let mut ctx = NfContext::for_shard(replica.shard, replica.clock.now_ns());
        replica.nf.on_start(&mut ctx);
        let read_only = replica.nf.read_only();
        let burst_size = replica.burst_size;
        let mut engine = NfEngine {
            replica,
            held: None,
            ctx,
            read_only,
            read_refs: Vec::with_capacity(burst_size),
            write_refs: Vec::with_capacity(burst_size),
            verdicts: VerdictSlice::with_capacity(burst_size),
            service_time: Ewma::default(),
            finished: false,
        };
        // The messages `on_start` sent lead the ring, as a burst of none.
        let messages = engine.ctx.take_attributed_messages();
        engine.hand_back(ServedBurst {
            messages,
            len: 0,
            started_ns: 0,
            ended_ns: 0,
        });
        engine
    }

    /// Moves a served burst's messages onto the message ring, then hands
    /// its items back: each merges its verdict, and the completions are
    /// published with one store. When the ring is full, the burst is held
    /// and `false` returned; the next [`step`](Self::step) tries again, so
    /// no message is dropped, none overtakes another, and every completion
    /// (a fan-out handle's countdown too) follows its burst's messages.
    fn hand_back(&mut self, mut burst: ServedBurst) -> bool {
        if !burst.messages.is_empty() {
            let messages = std::mem::take(&mut burst.messages);
            if let Err(PushError(messages)) = self.replica.messages.push(messages) {
                burst.messages = messages;
                self.held = Some(burst);
                return false;
            }
        }
        for index in 0..burst.len {
            let mut item = self
                .replica
                .input
                .take()
                .expect("the served burst is unread");
            // An owned frame merges its verdict and is done; a fan-out
            // handle merges and counts down atomically, and only the final
            // one goes back to the worker.
            let key = verdict_to_key(self.verdicts.as_slice()[index], item.position);
            if !item.frame.complete(key) {
                continue;
            }
            let done = DoneItem {
                frame: item.frame,
                exit_service: item.exit_service,
                nf_started_ns: burst.started_ns,
                nf_ended_ns: burst.ended_ns,
            };
            // Same zero-loss invariant as the worker's staging: every
            // packet in flight holds a credit and credits are clamped to
            // the done-ring capacity, so a completion always fits.
            if self.replica.done.stage(done).is_err() {
                panic!("NF {}: done ring overflowed", self.replica.service);
            }
        }
        // The input slots are released before the completions are
        // published, so a frame never comes back to this ring before its
        // slot is free.
        self.replica.input.release();
        self.replica.done.publish();
        true
    }

    /// Serves every pending state-migration request from the worker, in
    /// posting order: detaches the requested buckets' flow state (export),
    /// absorbs migrated state (import, acknowledged with an empty
    /// response), or discards evicted flows' state (scrub).
    fn serve_state_requests(&mut self) {
        for (token, request) in self.replica.channel.take_requests() {
            match request {
                NfStateRequest::Export { buckets, keys } => {
                    let mut exported = Vec::new();
                    for key in &keys {
                        if let Some(state) = self.replica.nf.export_flow_state(key) {
                            exported.push((*key, state));
                        }
                    }
                    // The NF's own key set covers flows that hold state
                    // without an exact rule; export is a move, so keys
                    // already detached above simply return None here — no
                    // dedup needed.
                    for key in self.replica.nf.flow_state_keys() {
                        if buckets.contains(&self.replica.tracker.bucket_of(&key)) {
                            if let Some(state) = self.replica.nf.export_flow_state(&key) {
                                exported.push((key, state));
                            }
                        }
                    }
                    self.replica.channel.respond(token, exported);
                }
                NfStateRequest::Import { states } => {
                    for (key, state) in states {
                        self.replica.nf.import_flow_state(&key, state);
                    }
                    self.replica.channel.respond(token, Vec::new());
                }
                NfStateRequest::Scrub { keys } => {
                    // Fire-and-forget: the worker tracks no entry for scrub
                    // tokens, so no response is posted. Scrub is a move —
                    // a key another replica already scrubbed (or that this
                    // replica never held state for) just returns None.
                    let mut scrubbed = 0u64;
                    for key in &keys {
                        if self.replica.nf.scrub_flow_state(key).is_some() {
                            scrubbed += 1;
                        }
                    }
                    if scrubbed > 0 {
                        self.replica.stats.add_nf_state_scrubbed(scrubbed);
                    }
                }
            }
        }
    }

    /// Fault injection (DST): holds this replica's export acks in the
    /// mailbox for `polls` worker drain attempts. See
    /// [`NfStateChannel::delay_acks`].
    pub(crate) fn delay_state_mailbox(&self, polls: u32) {
        self.replica.channel.delay_acks(polls);
    }

    /// One turn of the replica's state machine: serve state-migration
    /// requests, then hand back a held burst if there is one, or else serve
    /// at most one burst in place in the input ring's slots and move each
    /// completion straight into a done-ring slot. Returns whether any work
    /// was done (a held burst that still finds the message ring full is
    /// none). Sets `finished` when the replica's loop is over (host
    /// shutdown, or scale-down drain complete).
    pub(crate) fn step(&mut self) -> bool {
        if self.finished {
            return false;
        }
        if !self.replica.running.load(Ordering::Acquire) {
            self.finished = true;
            return false;
        }
        // Serve state-migration requests *before* taking packets: an
        // imported flow's state must land before the flow's first re-homed
        // packet (the host only releases the bucket's pen after the import
        // acknowledgement, so checking here closes the ordering).
        self.serve_state_requests();
        if let Some(held) = self.held.take() {
            return self.hand_back(held);
        }
        let (front, back) = self.replica.input.peek_mut(self.replica.burst_size);
        let burst = front.len() + back.len();
        if burst == 0 {
            // Scale-down: with the input ring drained and every completion
            // already published, this replica's work is finished.
            if self.replica.stop.load(Ordering::Acquire) && self.replica.input.is_empty() {
                // One last look at the mailbox so a request racing the
                // drain-exit is answered, not stranded. The export of the
                // buckets this replica served went out before its stop, so
                // any flow state still here is lost — counted, not silent.
                self.serve_state_requests();
                self.replica
                    .stats
                    .add_nf_state_import_drops(self.replica.nf.flow_state_keys().len() as u64);
                self.finished = true;
                return true;
            }
            return false;
        }
        // One clock read opens the burst window: it feeds the NF context,
        // the service-time histogram, and (when traced) the NF span stamps.
        let burst_started_ns = self.replica.clock.now_ns();
        self.ctx.set_now_ns(burst_started_ns);
        let slots = self.verdicts.reset(burst);
        if self.read_only {
            // One batch over the whole burst, every packet read through
            // `&Packet` with no lock: an owned frame is this replica's
            // alone, and a fan-out's packet is immutable while shared (so a
            // service a parallel rule names twice simply borrows one buffer
            // twice).
            let mut refs: Vec<&Packet> = recycle(std::mem::take(&mut self.read_refs));
            refs.extend(
                front
                    .iter()
                    .chain(back.iter())
                    .map(|item| item.frame.packet()),
            );
            self.replica
                .nf
                .process_batch(&PacketBatch::new(&refs), slots, &mut self.ctx);
            refs.clear();
            self.read_refs = recycle(refs);
        } else {
            // A mutating replica is only ever handed owned frames: the
            // worker fans a packet out to read-only replicas alone, and
            // runs any other parallel rule as owned hops. A shared frame
            // here would be a write to a packet other NFs are reading —
            // fail loudly instead.
            let mut refs: Vec<&mut Packet> = recycle(std::mem::take(&mut self.write_refs));
            for item in front.iter_mut().chain(back.iter_mut()) {
                let Frame::Sole(sole) = &mut item.frame else {
                    panic!(
                        "NF {}: a mutating replica was handed a shared frame",
                        self.replica.service
                    );
                };
                refs.push(&mut sole.packet);
            }
            self.replica.nf.process_batch_mut(
                &mut PacketBatchMut::new(&mut refs),
                slots,
                &mut self.ctx,
            );
            refs.clear();
            self.write_refs = recycle(refs);
        }
        let burst_ended_ns = self.replica.clock.now_ns();
        let per_packet_ns = burst_ended_ns.saturating_sub(burst_started_ns) / burst as u64;
        self.replica
            .latency
            .nf_service
            .record_shared(per_packet_ns, burst as u64);
        if self.replica.measure {
            self.replica.probe.service_time_ewma_ns.store(
                self.service_time.update(per_packet_ns as f64) as u64,
                Ordering::Relaxed,
            );
            self.replica
                .probe
                .processed
                .fetch_add(burst as u64, Ordering::Relaxed);
        }
        self.replica.stats.add_nf_invocations(burst as u64);
        // Messages sent anywhere inside the burst go onto the message ring
        // before the burst's completions are published, so the worker has
        // applied them — pins, wildcard rewrites — by the time it routes
        // any of those packets, or a fan-out sibling's last completion.
        let messages = self.ctx.take_attributed_messages();
        self.hand_back(ServedBurst {
            messages,
            len: burst,
            started_ns: burst_started_ns,
            ended_ns: burst_ended_ns,
        });
        true
    }
}

/// Threaded driver for one NF replica: spins [`NfEngine::step`] until the
/// engine finishes (host shutdown or scale-down drain complete).
pub(super) fn nf_thread_loop(thread: NfThread) {
    let mut engine = NfEngine::new(thread);
    let mut idle: u32 = 0;
    while !engine.finished {
        if engine.step() {
            idle = 0;
        } else {
            idle_backoff(&mut idle);
        }
    }
}
