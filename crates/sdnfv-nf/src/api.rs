//! The network-function programming interface (the "SDNFV-User library").

use sdnfv_flowtable::{Action, FlowMatch, ServiceId};
use sdnfv_proto::flow::FlowKey;
use sdnfv_proto::packet::Port;
use sdnfv_proto::Packet;

use crate::batch::{PacketBatch, PacketBatchMut};

/// The per-packet action an NF requests when it finishes processing
/// (paper §3.4 "NF Packet Actions").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Follow the default action installed in the flow table.
    Default,
    /// Drop the packet.
    Discard,
    /// Send the packet to the NF providing the given service, if the flow
    /// table lists it as an allowed next hop.
    ToService(ServiceId),
    /// Send the packet out the given NIC port, if allowed.
    ToPort(Port),
}

impl Verdict {
    /// Translates the verdict into a flow-table [`Action`], or `None` for
    /// [`Verdict::Default`] (which defers to the table).
    pub fn as_action(&self) -> Option<Action> {
        match self {
            Verdict::Default => None,
            Verdict::Discard => Some(Action::Drop),
            Verdict::ToService(id) => Some(Action::ToService(*id)),
            Verdict::ToPort(p) => Some(Action::ToPort(*p)),
        }
    }
}

/// A cross-layer control message an NF can send to its NF Manager
/// (paper §3.4 "Cross-Layer Control").
///
/// The manager attributes the message to the sending service and either
/// applies it locally or forwards it to the SDNFV Application for
/// validation.
#[derive(Debug, Clone, PartialEq)]
pub enum NfMessage {
    /// `SkipMe(F, S)`: flows matching `flows` should bypass the sending
    /// service — NFs whose default edge leads to it will instead default to
    /// its own default action.
    SkipMe {
        /// Flows the change applies to.
        flows: FlowMatch,
    },
    /// `RequestMe(F, S)`: all nodes with an edge to the sending service make
    /// it their default action for flows matching `flows`.
    RequestMe {
        /// Flows the change applies to.
        flows: FlowMatch,
    },
    /// `ChangeDefault(F, S, T)`: update the default action of service
    /// `service`'s rules to `new_default` for flows matching `flows`.
    ChangeDefault {
        /// Flows the change applies to.
        flows: FlowMatch,
        /// The service whose default action is updated.
        service: ServiceId,
        /// The new default action.
        new_default: Action,
    },
    /// `Message(S, K, V)`: an application-defined key/value message for the
    /// NF Manager or the SDNFV Application (e.g. a DDoS alarm).
    Custom {
        /// Application-defined key identifying the message handler.
        key: String,
        /// Application-defined value.
        value: String,
    },
}

impl NfMessage {
    /// Convenience constructor for [`NfMessage::Custom`].
    pub fn custom(key: impl Into<String>, value: impl Into<String>) -> Self {
        NfMessage::Custom {
            key: key.into(),
            value: value.into(),
        }
    }
}

/// A cross-layer message plus the flow that caused the NF to send it, when
/// the NF attributed one ([`NfContext::send_for_flow`]).
///
/// Attribution is what lets the data plane assign a *wildcard* rule
/// mutation to the mutating flow's steering bucket, so the mutation can
/// travel with the bucket when it is re-homed to another shard. Messages
/// sent unattributed (plain [`NfContext::send`]) are conservatively treated
/// as belonging to every bucket of the shard.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributedNfMessage {
    /// The flow whose packet triggered the message, if the NF said so.
    pub flow: Option<FlowKey>,
    /// The message.
    pub message: NfMessage,
}

/// An opaque chunk of NF-internal per-flow state, exported by
/// [`NetworkFunction::export_flow_state`] on a flow's old shard and handed
/// to [`NetworkFunction::import_flow_state`] on its new one.
///
/// The payload is deliberately schema-free — a list of named counters plus
/// an optional raw byte blob — so NFs can round-trip their state without
/// any serialization framework (the offline `serde` shim stays a no-op).
/// Only the NF that produced a state needs to understand it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NfFlowState {
    counters: Vec<(String, u64)>,
    bytes: Vec<u8>,
}

impl NfFlowState {
    /// Creates an empty state payload.
    pub fn new() -> Self {
        NfFlowState::default()
    }

    /// Creates a payload holding a single named counter.
    pub fn with_counter(key: impl Into<String>, value: u64) -> Self {
        let mut state = NfFlowState::new();
        state.set_counter(key, value);
        state
    }

    /// Sets (or overwrites) a named counter.
    pub fn set_counter(&mut self, key: impl Into<String>, value: u64) {
        let key = key.into();
        match self.counters.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v = value,
            None => self.counters.push((key, value)),
        }
    }

    /// Reads a named counter.
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters
            .iter()
            .find_map(|(k, v)| (k == key).then_some(*v))
    }

    /// Replaces the raw byte payload.
    pub fn set_bytes(&mut self, bytes: Vec<u8>) {
        self.bytes = bytes;
    }

    /// The raw byte payload.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Returns `true` if the payload carries nothing.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.bytes.is_empty()
    }
}

/// Per-packet execution context handed to an NF.
///
/// It carries the current (virtual or wall-clock) time, the index of the
/// data-plane **shard** the NF instance serves, and collects the cross-layer
/// messages the NF wants to send; the NF Manager drains them after the call
/// returns.
#[derive(Debug, Default)]
pub struct NfContext {
    now_ns: u64,
    shard: usize,
    messages: Vec<AttributedNfMessage>,
}

impl NfContext {
    /// Creates a context for a packet processed at time `now_ns` on shard 0.
    pub fn new(now_ns: u64) -> Self {
        NfContext::for_shard(0, now_ns)
    }

    /// Creates a context for a packet processed at time `now_ns` on data
    /// plane shard `shard`.
    pub fn for_shard(shard: usize, now_ns: u64) -> Self {
        NfContext {
            now_ns,
            shard,
            messages: Vec::new(),
        }
    }

    /// Current time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// The data-plane shard this NF instance serves. Flow-hash steering
    /// guarantees every packet of a flow is processed on the same shard, so
    /// per-flow NF state keyed by flow never needs cross-shard
    /// synchronization.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Updates the context's notion of time (used when one context is reused
    /// across packets to avoid allocation).
    pub fn set_now_ns(&mut self, now_ns: u64) {
        self.now_ns = now_ns;
    }

    /// Queues a cross-layer message for the NF Manager, unattributed to any
    /// flow. Prefer [`NfContext::send_for_flow`] when the message was
    /// triggered by a specific packet: attribution lets the sharded data
    /// plane carry the resulting wildcard mutation along when the flow's
    /// steering bucket is re-homed; unattributed wildcard mutations are
    /// conservatively replayed with *every* departing bucket.
    pub fn send(&mut self, message: NfMessage) {
        self.messages.push(AttributedNfMessage {
            flow: None,
            message,
        });
    }

    /// Queues a cross-layer message attributed to the flow whose packet
    /// triggered it (see [`NfContext::send`] for why attribution matters).
    pub fn send_for_flow(&mut self, flow: &FlowKey, message: NfMessage) {
        self.messages.push(AttributedNfMessage {
            flow: Some(*flow),
            message,
        });
    }

    /// Drains the queued messages (called by the NF Manager), dropping the
    /// flow attributions. Dispatch layers that feed a sharded flow table
    /// use [`NfContext::take_attributed_messages`] instead.
    pub fn take_messages(&mut self) -> Vec<NfMessage> {
        std::mem::take(&mut self.messages)
            .into_iter()
            .map(|attributed| attributed.message)
            .collect()
    }

    /// Drains the queued messages with their flow attributions.
    pub fn take_attributed_messages(&mut self) -> Vec<AttributedNfMessage> {
        std::mem::take(&mut self.messages)
    }

    /// Returns `true` if the NF queued any messages.
    pub fn has_messages(&self) -> bool {
        !self.messages.is_empty()
    }
}

/// A network function: the user-space packet-processing application running
/// inside one NF "VM".
///
/// The interface is **batch-first**: the data plane moves packets in bursts
/// and invokes [`NetworkFunction::process_batch`] for functions that declare
/// themselves [read-only](NetworkFunction::read_only) (these may be
/// scheduled in parallel on the same burst), and
/// [`NetworkFunction::process_batch_mut`] for functions that modify packets.
/// Simple NFs only implement the per-packet
/// [`process`](NetworkFunction::process) /
/// [`process_mut`](NetworkFunction::process_mut) hooks and ride the default
/// batch adapters, which loop over the burst; throughput-critical NFs
/// override the batch entry points and amortize per-packet work (flow-key
/// extraction, rule matching, state lookups) across the burst.
pub trait NetworkFunction: Send {
    /// Human-readable service name (matched against service-graph vertex
    /// names by the orchestrator).
    fn name(&self) -> &str;

    /// Whether this function only ever reads packets. Read-only functions
    /// are eligible for parallel dispatch (paper §3.3).
    fn read_only(&self) -> bool {
        true
    }

    /// Called once when the function is attached to an NF Manager, before it
    /// receives any packet. NFs that need to announce themselves (e.g. a
    /// scrubber sending `RequestMe` on startup) do so here.
    fn on_start(&mut self, _ctx: &mut NfContext) {}

    /// Detaches and returns this instance's internal state for flow `key`,
    /// if it holds any — the export half of NF state migration.
    ///
    /// When the sharded data plane re-homes a flow's steering bucket to
    /// another shard, it calls this on the old shard's instances (after the
    /// flow has fully quiesced) and feeds the payloads to
    /// [`import_flow_state`](NetworkFunction::import_flow_state) on the new
    /// shard, so per-flow counters, flags and windows survive the move.
    /// Implementations should *remove* the flow's state: the old instance
    /// will never see the flow again.
    ///
    /// The default keeps no per-flow state and exports nothing.
    fn export_flow_state(&mut self, _key: &FlowKey) -> Option<NfFlowState> {
        None
    }

    /// Discards this instance's internal state for flow `key`, if any —
    /// called when the flow's rule was evicted by the table's idle/hard
    /// timeout lifecycle, so per-flow NF state dies with its rule. Returns
    /// the discarded payload (callers ignore it; overrides may use it for
    /// accounting, e.g. final-counter export to a collector).
    ///
    /// The default detaches via
    /// [`export_flow_state`](NetworkFunction::export_flow_state), which is
    /// exactly "remove and return".
    fn scrub_flow_state(&mut self, key: &FlowKey) -> Option<NfFlowState> {
        self.export_flow_state(key)
    }

    /// Absorbs a state payload previously exported for flow `key` by
    /// another instance of the same NF — the import half of NF state
    /// migration. Called before the flow's first packet arrives on the new
    /// shard. May be called more than once per flow (one payload per old
    /// replica), so implementations should *merge* rather than overwrite
    /// where that is meaningful.
    ///
    /// The default discards the payload.
    fn import_flow_state(&mut self, _key: &FlowKey, _state: NfFlowState) {}

    /// The flows this instance currently holds internal state for.
    ///
    /// The re-home handshake enumerates a bucket's flows from the flow
    /// table's exact entries *plus* this set, so state for flows that never
    /// installed an exact rule still migrates. NFs that key state by
    /// something irreversible (a bare hash) cannot implement this — their
    /// state only migrates for flows discoverable elsewhere; prefer keying
    /// by [`FlowKey`].
    ///
    /// The default reports no keys.
    fn flow_state_keys(&self) -> Vec<FlowKey> {
        Vec::new()
    }

    /// Processes a packet the function must not modify.
    fn process(&mut self, packet: &Packet, ctx: &mut NfContext) -> Verdict;

    /// Processes a packet the function may modify in place. The default
    /// implementation falls back to the read-only path.
    fn process_mut(&mut self, packet: &mut Packet, ctx: &mut NfContext) -> Verdict {
        self.process(packet, ctx)
    }

    /// Processes a burst of packets the function must not modify, writing
    /// one verdict per packet.
    ///
    /// The caller guarantees `verdicts.len() == batch.len()` and that every
    /// entry arrives pre-set to [`Verdict::Default`], so implementations
    /// only write the entries that deviate from the default path. Messages
    /// sent through `ctx` anywhere inside the burst are applied by the NF
    /// Manager before the next burst's flow-table lookups.
    ///
    /// The default implementation is the per-packet adapter: it loops over
    /// the burst calling [`process`](NetworkFunction::process).
    fn process_batch(
        &mut self,
        batch: &PacketBatch<'_>,
        verdicts: &mut [Verdict],
        ctx: &mut NfContext,
    ) {
        debug_assert_eq!(batch.len(), verdicts.len());
        for (slot, packet) in verdicts.iter_mut().zip(batch.iter()) {
            *slot = self.process(packet, ctx);
        }
    }

    /// Processes a burst of packets the function may modify in place,
    /// writing one verdict per packet. Same contract as
    /// [`process_batch`](NetworkFunction::process_batch); the default
    /// implementation loops over [`process_mut`](NetworkFunction::process_mut).
    fn process_batch_mut(
        &mut self,
        batch: &mut PacketBatchMut<'_, '_>,
        verdicts: &mut [Verdict],
        ctx: &mut NfContext,
    ) {
        debug_assert_eq!(batch.len(), verdicts.len());
        for (slot, packet) in verdicts.iter_mut().zip(batch.iter_mut()) {
            *slot = self.process_mut(packet, ctx);
        }
    }
}

impl<T: NetworkFunction + ?Sized> NetworkFunction for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn read_only(&self) -> bool {
        (**self).read_only()
    }

    fn on_start(&mut self, ctx: &mut NfContext) {
        (**self).on_start(ctx)
    }

    fn export_flow_state(&mut self, key: &FlowKey) -> Option<NfFlowState> {
        (**self).export_flow_state(key)
    }

    fn scrub_flow_state(&mut self, key: &FlowKey) -> Option<NfFlowState> {
        (**self).scrub_flow_state(key)
    }

    fn import_flow_state(&mut self, key: &FlowKey, state: NfFlowState) {
        (**self).import_flow_state(key, state)
    }

    fn flow_state_keys(&self) -> Vec<FlowKey> {
        (**self).flow_state_keys()
    }

    fn process(&mut self, packet: &Packet, ctx: &mut NfContext) -> Verdict {
        (**self).process(packet, ctx)
    }

    fn process_mut(&mut self, packet: &mut Packet, ctx: &mut NfContext) -> Verdict {
        (**self).process_mut(packet, ctx)
    }

    fn process_batch(
        &mut self,
        batch: &PacketBatch<'_>,
        verdicts: &mut [Verdict],
        ctx: &mut NfContext,
    ) {
        (**self).process_batch(batch, verdicts, ctx)
    }

    fn process_batch_mut(
        &mut self,
        batch: &mut PacketBatchMut<'_, '_>,
        verdicts: &mut [Verdict],
        ctx: &mut NfContext,
    ) {
        (**self).process_batch_mut(batch, verdicts, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnfv_proto::packet::PacketBuilder;

    struct Fixed(Verdict);

    impl NetworkFunction for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }

        fn process(&mut self, _packet: &Packet, ctx: &mut NfContext) -> Verdict {
            ctx.send(NfMessage::custom("seen", "1"));
            self.0
        }
    }

    #[test]
    fn verdict_to_action_mapping() {
        assert_eq!(Verdict::Default.as_action(), None);
        assert_eq!(Verdict::Discard.as_action(), Some(Action::Drop));
        assert_eq!(
            Verdict::ToService(ServiceId::new(3)).as_action(),
            Some(Action::ToService(ServiceId::new(3)))
        );
        assert_eq!(Verdict::ToPort(2).as_action(), Some(Action::ToPort(2)));
    }

    #[test]
    fn context_collects_messages() {
        let mut ctx = NfContext::new(42);
        assert_eq!(ctx.now_ns(), 42);
        assert_eq!(ctx.shard(), 0, "plain contexts run on shard 0");
        assert_eq!(NfContext::for_shard(3, 42).shard(), 3);
        assert!(!ctx.has_messages());
        ctx.send(NfMessage::custom("k", "v"));
        assert!(ctx.has_messages());
        let msgs = ctx.take_messages();
        assert_eq!(msgs.len(), 1);
        assert!(!ctx.has_messages());
        ctx.set_now_ns(100);
        assert_eq!(ctx.now_ns(), 100);
    }

    #[test]
    fn boxed_nf_delegates() {
        let mut nf: Box<dyn NetworkFunction> = Box::new(Fixed(Verdict::Discard));
        assert_eq!(nf.name(), "fixed");
        assert!(nf.read_only());
        let mut ctx = NfContext::new(0);
        nf.on_start(&mut ctx);
        let mut pkt = PacketBuilder::udp().build();
        assert_eq!(nf.process(&pkt, &mut ctx), Verdict::Discard);
        assert_eq!(nf.process_mut(&mut pkt, &mut ctx), Verdict::Discard);
        assert_eq!(ctx.take_messages().len(), 2);
    }

    #[test]
    fn batch_adapter_loops_over_scalar_hooks() {
        use crate::batch::{PacketBatch, PacketBatchMut, VerdictSlice};
        let mut nf = Fixed(Verdict::Discard);
        let mut ctx = NfContext::new(0);
        let a = PacketBuilder::udp().build();
        let b = PacketBuilder::udp().build();
        let refs = [&a, &b];
        let mut verdicts = VerdictSlice::new();
        nf.process_batch(&PacketBatch::new(&refs), verdicts.reset(2), &mut ctx);
        assert_eq!(verdicts.as_slice(), &[Verdict::Discard, Verdict::Discard]);
        // The scalar hook queued one message per packet.
        assert_eq!(ctx.take_messages().len(), 2);

        let mut ma = PacketBuilder::udp().build();
        let mut mb = PacketBuilder::udp().build();
        let mut mut_refs: Vec<&mut Packet> = vec![&mut ma, &mut mb];
        let mut batch = PacketBatchMut::new(&mut mut_refs);
        nf.process_batch_mut(&mut batch, verdicts.reset(2), &mut ctx);
        assert_eq!(verdicts.as_slice(), &[Verdict::Discard, Verdict::Discard]);
        assert_eq!(ctx.take_messages().len(), 2);
    }

    #[test]
    fn boxed_nf_forwards_batch_hooks() {
        use crate::batch::{PacketBatch, VerdictSlice};
        let mut nf: Box<dyn NetworkFunction> = Box::new(Fixed(Verdict::Default));
        let mut ctx = NfContext::new(0);
        let pkt = PacketBuilder::udp().build();
        let refs = [&pkt];
        let mut verdicts = VerdictSlice::new();
        nf.process_batch(&PacketBatch::new(&refs), verdicts.reset(1), &mut ctx);
        assert_eq!(verdicts.as_slice(), &[Verdict::Default]);
        assert_eq!(ctx.take_messages().len(), 1);
    }

    #[test]
    fn flow_state_payload_round_trips() {
        let mut state = NfFlowState::new();
        assert!(state.is_empty());
        state.set_counter("hits", 3);
        state.set_counter("hits", 5); // overwrite
        state.set_counter("bytes", 100);
        state.set_bytes(vec![1, 2, 3]);
        assert!(!state.is_empty());
        assert_eq!(state.counter("hits"), Some(5));
        assert_eq!(state.counter("bytes"), Some(100));
        assert_eq!(state.counter("missing"), None);
        assert_eq!(state.bytes(), &[1, 2, 3]);
        assert_eq!(NfFlowState::with_counter("n", 1).counter("n"), Some(1));
    }

    #[test]
    fn default_state_hooks_are_no_ops() {
        let mut nf: Box<dyn NetworkFunction> = Box::new(Fixed(Verdict::Default));
        let key = PacketBuilder::udp().build().flow_key().unwrap();
        assert_eq!(nf.export_flow_state(&key), None);
        nf.import_flow_state(&key, NfFlowState::with_counter("x", 1));
        assert!(nf.flow_state_keys().is_empty());
    }

    #[test]
    fn attributed_messages_carry_the_flow() {
        let mut ctx = NfContext::new(0);
        let key = PacketBuilder::udp().build().flow_key().unwrap();
        ctx.send(NfMessage::custom("a", "1"));
        ctx.send_for_flow(&key, NfMessage::custom("b", "2"));
        let attributed = ctx.take_attributed_messages();
        assert_eq!(attributed.len(), 2);
        assert_eq!(attributed[0].flow, None);
        assert_eq!(attributed[1].flow, Some(key));
        // take_messages strips attribution but keeps order.
        ctx.send_for_flow(&key, NfMessage::custom("c", "3"));
        let plain = ctx.take_messages();
        assert_eq!(plain, vec![NfMessage::custom("c", "3")]);
    }

    #[test]
    fn custom_message_constructor() {
        let m = NfMessage::custom("ddos.alarm", "10.0.0.0/8");
        assert_eq!(
            m,
            NfMessage::Custom {
                key: "ddos.alarm".to_string(),
                value: "10.0.0.0/8".to_string()
            }
        );
    }
}
