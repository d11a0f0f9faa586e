//! The NF side of a shard: one replica's step-callable engine
//! ([`NfEngine`]), the bundle it is spawned from ([`NfThread`]), its
//! threaded driver ([`nf_thread_loop`]) and the telemetry probe it shares
//! with the worker ([`NfProbe`]).
//!
//! A replica talks to its worker over SPSC rings only, and takes no lock:
//! work comes in on its input ring and completions go back on its done
//! ring; the worker's export, import and scrub requests ([`NfRequest`])
//! come in on its control ring, and everything else goes back on its
//! message ring ([`NfOut`]) — the messages it sent during each burst, and
//! its state responses, in the order it handed them back. An NF thread
//! writes no flow table: the worker applies its messages (see the parent
//! module's **NF messages**).

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

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

/// A request the shard worker puts on one replica's control ring; the NF
/// serves its control ring between bursts, in ring order. Several exports
/// and imports can be in flight at once — overlapping bucket-move batches
/// post new exports before earlier ones resolve, and a shard can import
/// and export concurrently — so each carries a worker-assigned token that
/// its response echoes.
pub(super) enum NfRequest {
    /// Detach state for the given buckets' flows: the listed keys plus any
    /// key of the NF's own set whose bucket is in `buckets`.
    Export {
        token: u64,
        buckets: Vec<usize>,
        keys: Vec<FlowKey>,
    },
    /// Absorb state exported on the flow's old shard or old replica.
    Import {
        token: u64,
        states: Vec<(FlowKey, NfFlowState)>,
    },
    /// Discard per-flow state for flows whose rules were evicted by the
    /// timeout lifecycle — per-flow NF state dies with its rule. Fire and
    /// forget: no token, and no response.
    Scrub { keys: Vec<FlowKey> },
}

/// A replica's state response: the `(flow, state)` pairs it exported
/// (empty for an import acknowledgement).
pub(super) type StateResponse = Vec<(FlowKey, NfFlowState)>;

/// Lock-free measurements one NF thread shares with its shard's worker: the
/// worker reads them when composing a [`TelemetrySnapshot`].
#[derive(Debug, Default)]
pub(super) struct NfProbe {
    /// EWMA of per-packet service time, nanoseconds.
    pub(super) service_time_ewma_ns: AtomicU64,
    /// Total packets processed.
    pub(super) processed: AtomicU64,
    /// Fault injection (DST): while positive, the worker leaves the state
    /// responses it popped from this replica unread, and each of its polls
    /// counts one off — so a holdback of `n` delays the acks by `n` worker
    /// polls while the replica's packets and messages keep flowing.
    pub(super) state_holdback: AtomicU32,
}

/// The cross-layer messages an NF sent during one burst (or from
/// `on_start`), in sending order.
pub(super) type NfMessages = Vec<AttributedNfMessage>;

/// One entry of a replica's message ring, the one way anything goes from
/// the replica to its worker besides completions. A response follows every
/// message of the bursts served before its request, so the worker has
/// applied a replica's pins by the time it reads the replica's export.
pub(super) enum NfOut {
    Messages(NfMessages),
    State { token: u64, states: StateResponse },
}

/// What a step hands back to the worker: an entry for the message ring,
/// then the completions of the `len` items it served in which host-clock
/// window (none for a state response).
#[derive(Default)]
struct HandBack {
    entry: Option<NfOut>,
    len: usize,
    started_ns: u64,
    ended_ns: u64,
}

impl HandBack {
    /// A burst of `len` items (none for `on_start`) and the messages sent
    /// while serving it.
    fn burst(messages: NfMessages, len: usize, started_ns: u64, ended_ns: u64) -> Self {
        HandBack {
            entry: (!messages.is_empty()).then_some(NfOut::Messages(messages)),
            len,
            started_ns,
            ended_ns,
        }
    }
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
    /// Where the NF's cross-layer messages and state responses go, for
    /// the worker to apply and read.
    pub(super) messages: Producer<NfOut>,
    /// The worker's export, import and scrub requests.
    pub(super) control: Consumer<NfRequest>,
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
    /// A hand-back waiting for room on the message ring: a burst's
    /// completions stay unpublished, and its items unread in the input
    /// ring, until its messages are on the ring. At most one is held: while
    /// one is, the replica serves neither requests nor packets.
    held: Option<HandBack>,
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
        engine.hand_back(HandBack::burst(messages, 0, 0, 0));
        engine
    }

    /// Moves a hand-back's entry (a burst's messages, or a state response)
    /// onto the message ring, then hands its items back: each merges its
    /// verdict, and the completions are published with one store. When the
    /// ring is full, the hand-back is held and `false` returned; the next
    /// [`step`](Self::step) tries again, so no entry is dropped, none
    /// overtakes another, and every completion (a fan-out handle's
    /// countdown too) follows its burst's messages.
    fn hand_back(&mut self, mut back: HandBack) -> bool {
        if let Some(entry) = back.entry.take() {
            if let Err(PushError(entry)) = self.replica.messages.push(entry) {
                back.entry = Some(entry);
                self.held = Some(back);
                return false;
            }
        }
        for index in 0..back.len {
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
                nf_started_ns: back.started_ns,
                nf_ended_ns: back.ended_ns,
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

    /// Serves the worker's state requests in ring order: detaches the
    /// requested buckets' flow state (export), absorbs migrated state
    /// (import, acknowledged with an empty response), or discards evicted
    /// flows' state (scrub). Each response goes onto the message ring
    /// behind every entry handed back before it. Returns `false` when a
    /// response found the ring full and is held: the requests behind it
    /// wait in the control ring.
    fn serve_state_requests(&mut self) -> bool {
        while let Some(request) = self.replica.control.pop() {
            let (token, states) = match request {
                NfRequest::Export {
                    token,
                    buckets,
                    keys,
                } => {
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
                    (token, exported)
                }
                NfRequest::Import { token, states } => {
                    for (key, state) in states {
                        self.replica.nf.import_flow_state(&key, state);
                    }
                    (token, Vec::new())
                }
                NfRequest::Scrub { keys } => {
                    // Scrub is a move: a key another replica already
                    // scrubbed (or that this replica never held state for)
                    // just returns None.
                    let mut scrubbed = 0u64;
                    for key in &keys {
                        if self.replica.nf.scrub_flow_state(key).is_some() {
                            scrubbed += 1;
                        }
                    }
                    if scrubbed > 0 {
                        self.replica.stats.add_nf_state_scrubbed(scrubbed);
                    }
                    continue;
                }
            };
            let entry = Some(NfOut::State { token, states });
            if !self.hand_back(HandBack {
                entry,
                ..HandBack::default()
            }) {
                return false;
            }
        }
        true
    }

    /// Fault injection (DST): the worker leaves this replica's state
    /// responses unread for its next `polls` polls (see
    /// [`NfProbe::state_holdback`]).
    pub(crate) fn delay_state_mailbox(&self, polls: u32) {
        self.replica
            .probe
            .state_holdback
            .store(polls, Ordering::Relaxed);
    }

    /// One turn of the replica's state machine: hand back a held burst or
    /// response if there is one, then serve the worker's state requests,
    /// then — unless either of those was held or handed back — serve at
    /// most one burst in place in the input ring's slots and move each
    /// completion straight into a done-ring slot. Returns whether any work
    /// was done (a hand-back that still finds the message ring full is
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
        // What is held goes out first, so a response never overtakes the
        // messages of a burst served before its request.
        let handed_back = match self.held.take() {
            Some(held) => {
                if !self.hand_back(held) {
                    return false;
                }
                true
            }
            None => false,
        };
        // Serve state requests *before* taking packets: an imported flow's
        // state must land before the flow's first re-homed packet (the host
        // only releases the bucket's pen after the import acknowledgement,
        // so serving here closes the ordering).
        if !self.serve_state_requests() || handed_back {
            return true;
        }
        let (front, back) = self.replica.input.peek_mut(self.replica.burst_size);
        let burst = front.len() + back.len();
        if burst == 0 {
            // Scale-down: with the input ring drained and every completion
            // already published, this replica's work is finished.
            if self.replica.stop.load(Ordering::Acquire) && self.replica.input.is_empty() {
                // One last look at the control ring so a request racing the
                // drain-exit is answered, not stranded; a held answer keeps
                // the replica alive until it is on the message ring. The
                // export of the buckets this replica served went out before
                // its stop, so any flow state still here is lost — counted,
                // not silent.
                if !self.serve_state_requests() {
                    return true;
                }
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
        self.hand_back(HandBack::burst(
            messages,
            burst,
            burst_started_ns,
            burst_ended_ns,
        ));
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
