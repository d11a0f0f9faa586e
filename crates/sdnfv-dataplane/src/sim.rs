//! Deterministic single-threaded driving of the sharded runtime.
//!
//! The deterministic-simulation harness (`sdnfv-dst`) needs to interleave
//! every protocol actor — shard workers, NF replicas, the host's re-home
//! engine, the elastic control loop — under a seeded schedule, with a
//! virtual clock, and replay the exact interleaving from the seed alone.
//! That only works if no actor runs on its own thread. This module is the
//! switch: [`ThreadedHost::start_sim_sharded`] builds a host whose shard
//! workers and NF replicas are **registered as step-callable actors** in a
//! [`SimRegistry`] instead of being spawned as threads. The engines driven
//! here are the exact `ShardEngine` / `NfEngine` state machines the
//! threaded runtime spins — the code under simulation is the shipping
//! code, not a model of it.
//!
//! The returned [`SimHandle`] is the scheduler's lever: list actors, step
//! one actor (or all) by id, and advance the shared virtual clock. A
//! scheduler that makes those calls from a seeded RNG gets byte-identical
//! behavior on every replay of the seed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use sdnfv_flowtable::{ServiceId, SharedFlowTable};
use sdnfv_nf::NetworkFunction;
use sdnfv_ring::Consumer;
use sdnfv_telemetry::HostClock;

use crate::runtime::{
    IngressFrame, NfEngine, NfThread, PipelineRuntime, ReplicaSpawner, ShardEngine, TaskHandle,
    ThreadedHost, ThreadedHostConfig,
};

/// One registered actor: a shard worker (with its ingress ring) or an NF
/// replica.
enum SimActor {
    Worker {
        engine: Box<ShardEngine>,
        ingress: Consumer<IngressFrame>,
    },
    Nf(Box<NfEngine>),
}

/// What kind of actor a registry entry is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimActorKind {
    /// A shard worker (RX/TX/control/telemetry roles).
    Worker,
    /// One NF replica.
    Nf,
}

/// A listing entry describing one registered actor.
#[derive(Debug, Clone)]
pub struct SimActorInfo {
    /// Stable actor id (registration order; never reused).
    pub id: u64,
    /// Human-readable label, e.g. `shard0/worker` or `shard1/nf2`.
    pub label: String,
    /// Worker or NF.
    pub kind: SimActorKind,
    /// Whether the actor's engine reached its terminal state.
    pub finished: bool,
}

struct SimCell {
    id: u64,
    label: String,
    kind: SimActorKind,
    finished: Arc<AtomicBool>,
    /// `None` while the actor is being stepped (taken out so stepping can
    /// re-enter the registry, e.g. a worker spawning a replica), or after
    /// it finished (the engine is dropped at that point).
    actor: Option<SimActor>,
}

/// The registry of step-callable actors for one simulated host.
///
/// Actors are registered by the runtime (shard workers at host start /
/// `spawn_shard`; NF replicas whenever a worker spawns one — initial set
/// and elastic scale-ups alike) and stepped by id. Entries are append-only
/// so ids are stable and listing order is deterministic.
#[derive(Default)]
pub struct SimRegistry {
    next_id: u64,
    cells: Vec<SimCell>,
}

impl SimRegistry {
    fn register(&mut self, label: String, kind: SimActorKind, actor: SimActor) -> Arc<AtomicBool> {
        let finished = Arc::new(AtomicBool::new(false));
        let id = self.next_id;
        self.next_id += 1;
        self.cells.push(SimCell {
            id,
            label,
            kind,
            finished: Arc::clone(&finished),
            actor: Some(actor),
        });
        finished
    }
}

/// The [`ReplicaSpawner`] used under simulation: instead of spawning an OS
/// thread per replica, the fully wired replica bundle becomes an
/// [`NfEngine`] registered as a step-actor.
pub(crate) struct SimSpawner {
    registry: Arc<Mutex<SimRegistry>>,
}

impl SimSpawner {
    pub(crate) fn new(registry: &Arc<Mutex<SimRegistry>>) -> Self {
        SimSpawner {
            registry: Arc::clone(registry),
        }
    }
}

impl ReplicaSpawner for SimSpawner {
    fn spawn_replica(&mut self, thread: NfThread) -> TaskHandle {
        let label = thread.sim_label();
        let engine = NfEngine::new(thread);
        let finished =
            self.registry
                .lock()
                .register(label, SimActorKind::Nf, SimActor::Nf(Box::new(engine)));
        TaskHandle::Sim(finished)
    }
}

/// Registers a shard worker engine (with its ingress ring) as a step-actor;
/// called by `launch_pipeline` when the host runs under
/// [`PipelineRuntime::Sim`]. Returns the finished-flag its [`TaskHandle`]
/// tracks.
pub(crate) fn register_worker(
    registry: &Arc<Mutex<SimRegistry>>,
    engine: ShardEngine,
    ingress: Consumer<IngressFrame>,
) -> Arc<AtomicBool> {
    let label = format!("shard{}/worker", engine.shard_index());
    registry.lock().register(
        label,
        SimActorKind::Worker,
        SimActor::Worker {
            engine: Box::new(engine),
            ingress,
        },
    )
}

/// The scheduler's handle to a simulated host: actor listing and stepping,
/// plus the shared virtual clock.
pub struct SimHandle {
    registry: Arc<Mutex<SimRegistry>>,
    clock: HostClock,
}

impl SimHandle {
    /// The current virtual time, nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Advances the shared virtual clock by `delta_ns` and returns the new
    /// instant. Every actor (and the host) observes the same clock.
    pub fn advance_clock_ns(&self, delta_ns: u64) -> u64 {
        self.clock.advance_ns(delta_ns)
    }

    /// A clone of the host's virtual clock.
    pub fn clock(&self) -> HostClock {
        self.clock.clone()
    }

    /// Lists every registered actor, in registration order (deterministic).
    /// Actors registered by elastic scale-ups and shard spawns appear as
    /// they are created; finished actors stay listed with `finished: true`.
    pub fn actors(&self) -> Vec<SimActorInfo> {
        self.registry
            .lock()
            .cells
            .iter()
            .map(|cell| SimActorInfo {
                id: cell.id,
                label: cell.label.clone(),
                kind: cell.kind,
                finished: cell.finished.load(Ordering::Acquire),
            })
            .collect()
    }

    /// Steps one actor by id. Returns whether the actor did any work
    /// (`false` for unknown ids, finished actors, and idle steps).
    ///
    /// The actor is taken out of the registry for the duration of the step
    /// so the step itself may re-enter it — a worker's step spawns NF
    /// replicas through the registry on scale-up.
    pub fn step(&self, id: u64) -> bool {
        let taken = {
            let mut registry = self.registry.lock();
            match registry.cells.iter_mut().find(|cell| cell.id == id) {
                Some(cell) => cell.actor.take(),
                None => None,
            }
        };
        let Some(mut actor) = taken else {
            return false;
        };
        let (did_work, finished) = match &mut actor {
            SimActor::Worker { engine, ingress } => {
                let did_work = engine.step(ingress);
                (did_work, engine.finished())
            }
            SimActor::Nf(engine) => {
                let did_work = engine.step();
                (did_work, engine.finished)
            }
        };
        let mut registry = self.registry.lock();
        if let Some(cell) = registry.cells.iter_mut().find(|cell| cell.id == id) {
            if finished {
                // Dropping the engine here runs NF drop hooks at a
                // deterministic point (the step that finished the actor).
                cell.finished.store(true, Ordering::Release);
            } else {
                cell.actor = Some(actor);
            }
        }
        did_work
    }

    /// Fault injection: delays the state responses of the NF replica actor
    /// `id` — its worker leaves those it popped, and those still to come,
    /// unread for its next `polls` state-exchange polls (or until the
    /// replica exits), while the replica's packets and messages keep
    /// flowing. Returns `false` for unknown ids, finished actors, and
    /// non-NF actors. The delay is bounded (it drains one poll per worker
    /// step), so it can stretch a re-home handshake across arbitrary
    /// interleavings without ever wedging it.
    pub fn delay_state_mailbox(&self, id: u64, polls: u32) -> bool {
        let registry = self.registry.lock();
        match registry.cells.iter().find(|cell| cell.id == id) {
            Some(cell) => match &cell.actor {
                Some(SimActor::Nf(engine)) => {
                    engine.delay_state_mailbox(polls);
                    true
                }
                _ => false,
            },
            None => false,
        }
    }

    /// Runs `f` on the shard worker actor `id` between steps, so a caller
    /// in this crate can look inside it (or a unit test play part of its
    /// turn by hand). `None` for unknown ids, finished actors and NF
    /// replicas.
    pub(crate) fn with_worker<R>(
        &self,
        id: u64,
        f: impl FnOnce(&mut ShardEngine) -> R,
    ) -> Option<R> {
        let mut registry = self.registry.lock();
        let cell = registry.cells.iter_mut().find(|cell| cell.id == id)?;
        match cell.actor.as_mut()? {
            SimActor::Worker { engine, .. } => Some(f(engine)),
            SimActor::Nf(_) => None,
        }
    }

    /// Steps every unfinished actor once, in registration order. Returns
    /// how many reported work — `0` means the host is quiescent for the
    /// current inputs.
    pub fn step_all(&self) -> usize {
        let ids: Vec<u64> = {
            let registry = self.registry.lock();
            registry
                .cells
                .iter()
                .filter(|cell| !cell.finished.load(Ordering::Acquire))
                .map(|cell| cell.id)
                .collect()
        };
        ids.into_iter().filter(|&id| self.step(id)).count()
    }
}

impl ThreadedHost {
    /// Starts a host identical to [`ThreadedHost::start_sharded`] except
    /// that nothing runs on its own thread: shard workers and NF replicas
    /// are registered as step-actors in a [`SimRegistry`], and all
    /// timestamps come from a virtual clock starting at 0. The returned
    /// [`SimHandle`] steps actors and advances the clock; the host's public
    /// API (`inject`, `poll_egress`, `rebalance_buckets`, `spawn_shard`,
    /// ...) is unchanged and is driven by the simulation scheduler between
    /// steps.
    pub fn start_sim_sharded<F>(
        table: SharedFlowTable,
        nfs_for_shard: F,
        config: ThreadedHostConfig,
    ) -> (Self, SimHandle)
    where
        F: FnMut(usize) -> Vec<(ServiceId, Box<dyn NetworkFunction>)>,
    {
        let registry = Arc::new(Mutex::new(SimRegistry::default()));
        let clock = HostClock::simulated(0);
        let host = ThreadedHost::start_with_runtime(
            table,
            nfs_for_shard,
            config,
            clock.clone(),
            PipelineRuntime::Sim(Arc::clone(&registry)),
        );
        (host, SimHandle { registry, clock })
    }
}
