//! The elastic NF manager: the paper's local, fast control loop (§3.5).
//!
//! The SDNFV hierarchy gives the *local* NF manager authority over fast
//! resource decisions — replica scaling and queue management — driven by
//! data-plane telemetry, while the SDN controller above only sets policy.
//! [`ElasticNfManager`] closes that loop for a running
//! [`ThreadedHost`]:
//!
//! 1. it reads the operator's view of the host: the [`TelemetryHub`]
//!    (merged latest-per-shard [`TelemetrySnapshot`]s) inside the host's
//!    `ObsHub`, which is the one consumer of the host's snapshot and
//!    lifecycle feeds — the manager drains nothing itself;
//! 2. [`ElasticNfManager::plan`] turns the view into typed
//!    [`ControlAction`]s under an [`ElasticPolicy`] — scale a service's
//!    replica count up when its worst input-ring fill crosses
//!    `scale_up_fill`, back down when the shard is quiet, optionally
//!    re-budget shard credits and rebalance steering weights;
//! 3. [`ElasticNfManager::drive`] applies them: scale-ups go through the
//!    [`NfvOrchestrator`] (modelling the VM boot delay — the new replica
//!    only joins the data plane once its launch ticket matures), scale-downs
//!    and credit resizes ride the host's per-shard control rings.
//!
//! [`deploy_sharded`] is the provisioning half: it turns a
//! [`ShardPlacement`] (which services, how many replicas, on which shard)
//! into a running host by instantiating every replica through the
//! orchestrator and handing `ThreadedHost::start_sharded` a per-shard NF
//! set — placement decisions, not hand-built NF lists, drive the sharded
//! data plane.
//!
//! On top of the per-shard replica loop, an optional [`ShardPolicy`] layer
//! makes the **shard count** itself elastic: when the aggregate pipeline
//! fill (or an EWMA-derived queueing-latency estimate) crosses its
//! thresholds, the manager provisions a whole new shard's replica set
//! through the orchestrator (honouring boot delays) and hands it to
//! [`ThreadedHost::spawn_shard`], or retires the highest shard through
//! [`ThreadedHost::retire_shard`] — both of which re-home steering buckets
//! through the data plane's state-safe drain handshake.

use std::collections::HashMap;

use sdnfv_dataplane::{ThreadedHost, ThreadedHostConfig};
use sdnfv_flowtable::{ServiceId, SharedFlowTable};
use sdnfv_nf::NetworkFunction;
use sdnfv_telemetry::{ControlAction, TelemetryHub, TelemetrySnapshot};

use crate::orchestrator::NfvOrchestrator;

/// The knobs of the elastic control loop (see [`ElasticNfManager`]).
#[derive(Debug, Clone)]
pub struct ElasticPolicy {
    /// Scale a service up on a shard when the worst input-ring fill across
    /// its replicas reaches this fraction.
    pub scale_up_fill: f64,
    /// Scale a service down on a shard when every replica's fill — and the
    /// shard's ingress fill — is at or below this fraction.
    pub scale_down_fill: f64,
    /// Never grow a service past this many replicas per shard.
    pub max_replicas: usize,
    /// Never shrink a service below this many replicas per shard.
    pub min_replicas: usize,
    /// Minimum time between scale actions for one `(shard, service)` pair.
    /// Also restarted when a booted replica is handed to the host, so keep
    /// it comfortably above the host's telemetry interval — the window in
    /// which the new replica exists but is not yet visible in snapshots.
    pub cooldown_ns: u64,
    /// Whether the loop also manages per-shard credit budgets.
    pub manage_credits: bool,
    /// With `manage_credits`: double the budget when credit occupancy
    /// reaches this fraction.
    pub credit_high_fill: f64,
    /// With `manage_credits`: halve the budget when credit occupancy is at
    /// or below this fraction.
    pub credit_low_fill: f64,
    /// Lower bound for managed credit budgets.
    pub min_credits: usize,
    /// Upper bound for managed credit budgets.
    pub max_credits: usize,
    /// When set, emit a [`ControlAction::SetSteeringWeights`] rebalance
    /// whenever the most backlogged shard exceeds the least backlogged by
    /// this ratio. Weights are each shard's backlog deficit on top of the
    /// mean backlog (bounded skew), and a uniform reset is emitted once
    /// when balance returns.
    pub rebalance_ratio: Option<f64>,
}

impl Default for ElasticPolicy {
    fn default() -> Self {
        ElasticPolicy {
            scale_up_fill: 0.75,
            scale_down_fill: 0.10,
            max_replicas: 4,
            min_replicas: 1,
            cooldown_ns: 50_000_000,
            manage_credits: false,
            credit_high_fill: 0.90,
            credit_low_fill: 0.25,
            min_credits: 64,
            max_credits: 8192,
            rebalance_ratio: None,
        }
    }
}

/// The knobs of the shard-count control loop (see
/// [`ElasticNfManager::enable_shard_scaling`]).
#[derive(Debug, Clone)]
pub struct ShardPolicy {
    /// Spawn a shard when the mean pipeline fill across shards — each
    /// shard's worst of ingress fill and credit occupancy — reaches this
    /// fraction.
    pub scale_out_fill: f64,
    /// Retire the highest shard when *every* shard's pipeline fill is at or
    /// below this fraction (and the latency estimate, if an SLO is set, is
    /// below half the SLO).
    pub scale_in_fill: f64,
    /// Optional latency trigger: spawn a shard when any shard's estimated
    /// queueing latency — the sum over its NF replicas of service-time EWMA
    /// × input-queue depth — reaches this many nanoseconds.
    pub latency_slo_ns: Option<u64>,
    /// Never shrink below this many shards.
    pub min_shards: usize,
    /// Never grow past this many shards.
    pub max_shards: usize,
    /// Minimum time between shard-count actions. Keep it comfortably above
    /// the host's telemetry interval so a freshly spawned shard is visible
    /// before the next decision.
    pub cooldown_ns: u64,
}

impl Default for ShardPolicy {
    fn default() -> Self {
        ShardPolicy {
            scale_out_fill: 0.75,
            scale_in_fill: 0.10,
            latency_slo_ns: None,
            min_shards: 1,
            max_shards: 4,
            cooldown_ns: 100_000_000,
        }
    }
}

/// One shard's initial replica set, as instantiated by [`deploy_sharded`].
type ShardNfSet = Vec<(ServiceId, Box<dyn NetworkFunction>)>;

/// A replica launched through the orchestrator, waiting out its VM boot
/// delay before it joins the data plane.
struct PendingLaunch {
    shard: usize,
    service: ServiceId,
    ready_at_ns: u64,
    nf: Box<dyn NetworkFunction>,
}

/// A whole shard's replica set launched through the orchestrator, waiting
/// for its slowest replica's boot delay before the shard is spawned.
struct PendingShard {
    ready_at_ns: u64,
    nfs: ShardNfSet,
}

/// The local elastic control loop over one [`ThreadedHost`] (see the
/// module docs). Call [`ElasticNfManager::drive`] periodically from the
/// host's management thread, right after the host's `ObsHub` observed it.
pub struct ElasticNfManager {
    policy: ElasticPolicy,
    orchestrator: NfvOrchestrator,
    /// Registry names of the services the loop may scale, keyed by id.
    service_names: HashMap<ServiceId, String>,
    /// The view's per-shard lifecycle counts at the last tick
    /// ([`TelemetryHub::lifecycle_counts`]): a shard whose count moved
    /// since came or went, and its per-shard state below is dropped.
    lifecycle_seen: Vec<u64>,
    last_scale_ns: HashMap<(usize, ServiceId), u64>,
    /// Replica counts the manager has already made true (installs handed to
    /// the host) that telemetry may not reflect yet — the floor `plan` uses
    /// so a stale snapshot cannot trigger a duplicate scale-up.
    expected_replicas: HashMap<(usize, ServiceId), usize>,
    last_credit_ns: HashMap<usize, u64>,
    /// Last credit budget requested per shard, to detect the runtime
    /// clamping a grow (re-emitting it would loop forever).
    last_credit_target: HashMap<usize, usize>,
    last_rebalance_ns: Option<u64>,
    /// Whether the steering table currently carries a non-uniform
    /// assignment from a past rebalance (so it can be reset once the
    /// imbalance has passed).
    steering_skewed: bool,
    pending: Vec<PendingLaunch>,
    scale_ups: u64,
    scale_downs: u64,
    /// Shard-count scaling, off until
    /// [`ElasticNfManager::enable_shard_scaling`].
    shard_policy: Option<ShardPolicy>,
    /// The replica set a spawned shard is provisioned with:
    /// `(service, registry name, replicas)`.
    shard_template: Vec<(ServiceId, String, usize)>,
    /// Shards launched through the orchestrator, waiting out their boot
    /// delay (at most one at a time).
    pending_shard: Option<PendingShard>,
    last_shard_scale_ns: Option<u64>,
    shard_spawns: u64,
    shard_retires: u64,
}

impl std::fmt::Debug for ElasticNfManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElasticNfManager")
            .field("services", &self.service_names.len())
            .field("pending", &self.pending.len())
            .field("scale_ups", &self.scale_ups)
            .field("scale_downs", &self.scale_downs)
            .finish()
    }
}

impl ElasticNfManager {
    /// Creates the loop over an orchestrator (whose registry must be able
    /// to instantiate every service registered for scaling).
    pub fn new(orchestrator: NfvOrchestrator, policy: ElasticPolicy) -> Self {
        ElasticNfManager {
            policy,
            orchestrator,
            service_names: HashMap::new(),
            lifecycle_seen: Vec::new(),
            last_scale_ns: HashMap::new(),
            expected_replicas: HashMap::new(),
            last_credit_ns: HashMap::new(),
            last_credit_target: HashMap::new(),
            last_rebalance_ns: None,
            steering_skewed: false,
            pending: Vec::new(),
            scale_ups: 0,
            scale_downs: 0,
            shard_policy: None,
            shard_template: Vec::new(),
            pending_shard: None,
            last_shard_scale_ns: None,
            shard_spawns: 0,
            shard_retires: 0,
        }
    }

    /// Registers a service for elastic scaling: `name` is the key the
    /// orchestrator's NF registry instantiates replicas from. Unregistered
    /// services are observed but never scaled.
    ///
    /// Rejects names the registry cannot instantiate — otherwise a typo
    /// would surface only as a scale-up loop that silently launches
    /// nothing.
    pub fn register_service(
        &mut self,
        service: ServiceId,
        name: impl Into<String>,
    ) -> Result<(), String> {
        let name = name.into();
        if !self.orchestrator.can_launch(&name) {
            return Err(format!(
                "no NF registered under {name:?}; cannot scale service {service}"
            ));
        }
        self.service_names.insert(service, name);
        Ok(())
    }

    /// The policy in force.
    pub fn policy(&self) -> &ElasticPolicy {
        &self.policy
    }

    /// The orchestrator used for launches.
    pub fn orchestrator(&self) -> &NfvOrchestrator {
        &self.orchestrator
    }

    /// Scale-up actions emitted so far.
    pub fn scale_ups(&self) -> u64 {
        self.scale_ups
    }

    /// Scale-down actions emitted so far.
    pub fn scale_downs(&self) -> u64 {
        self.scale_downs
    }

    /// Launched replicas still waiting out their boot delay.
    pub fn pending_launches(&self) -> usize {
        self.pending.len()
    }

    /// Shard spawns applied so far.
    pub fn shard_spawns(&self) -> u64 {
        self.shard_spawns
    }

    /// Shard retirements initiated so far.
    pub fn shard_retires(&self) -> u64 {
        self.shard_retires
    }

    /// Whether a launched shard is still waiting out its boot delay.
    pub fn shard_pending(&self) -> bool {
        self.pending_shard.is_some()
    }

    /// Turns on shard-count scaling: `policy` gives the triggers and
    /// bounds, `template` the replica set a newly spawned shard is
    /// provisioned with (`(service, registry name, replicas)` per entry —
    /// typically one shard's slice of the [`ShardPlacement`] the host was
    /// deployed from).
    ///
    /// Rejects a template the orchestrator's registry cannot instantiate,
    /// and an empty template (a shard with no NFs could not serve its
    /// share of traffic).
    pub fn enable_shard_scaling(
        &mut self,
        policy: ShardPolicy,
        template: Vec<(ServiceId, String, usize)>,
    ) -> Result<(), String> {
        if template.is_empty() {
            return Err("shard template is empty; a spawned shard needs NFs".to_string());
        }
        for (service, name, _) in &template {
            if !self.orchestrator.can_launch(name) {
                return Err(format!(
                    "no NF registered under {name:?}; cannot provision service {service} on \
                     spawned shards"
                ));
            }
        }
        self.shard_policy = Some(policy);
        self.shard_template = template;
        Ok(())
    }

    /// Derives the control actions the telemetry view `hub` calls for,
    /// marking cooldowns so one burst of pressure yields one action.
    pub fn plan(&mut self, hub: &TelemetryHub, now_ns: u64) -> Vec<ControlAction> {
        let mut actions = Vec::new();
        for snapshot in hub.latest_all() {
            let shard = snapshot.shard;
            for service in snapshot.services() {
                if !self.service_names.contains_key(&service) {
                    continue;
                }
                let pending_here = self
                    .pending
                    .iter()
                    .filter(|p| p.shard == shard && p.service == service)
                    .count();
                let visible = snapshot.replicas(service);
                let expected = match self.expected_replicas.get(&(shard, service)) {
                    // Telemetry caught up with every install: drop the floor.
                    Some(floor) if visible >= *floor => {
                        self.expected_replicas.remove(&(shard, service));
                        visible
                    }
                    Some(floor) => *floor,
                    None => visible,
                };
                let replicas = expected + pending_here;
                let fill = snapshot.worst_fill(service).unwrap_or(0.0);
                let cooled = self
                    .last_scale_ns
                    .get(&(shard, service))
                    .is_none_or(|last| now_ns.saturating_sub(*last) >= self.policy.cooldown_ns);
                if !cooled {
                    continue;
                }
                if fill >= self.policy.scale_up_fill && replicas < self.policy.max_replicas {
                    actions.push(ControlAction::ScaleUp { shard, service });
                    self.last_scale_ns.insert((shard, service), now_ns);
                } else if pending_here == 0
                    && replicas > self.policy.min_replicas
                    && fill <= self.policy.scale_down_fill
                    && snapshot.ingress_fill() <= self.policy.scale_down_fill
                {
                    actions.push(ControlAction::ScaleDown { shard, service });
                    self.last_scale_ns.insert((shard, service), now_ns);
                    // The retirement will drop the visible count; lower the
                    // floor with it so the two never disagree upward.
                    if let Some(floor) = self.expected_replicas.get_mut(&(shard, service)) {
                        *floor = floor.saturating_sub(1);
                        if *floor <= 1 {
                            self.expected_replicas.remove(&(shard, service));
                        }
                    }
                }
            }
            if self.policy.manage_credits && snapshot.credit_capacity > 0 {
                let cooled = self
                    .last_credit_ns
                    .get(&shard)
                    .is_none_or(|last| now_ns.saturating_sub(*last) >= self.policy.cooldown_ns);
                if cooled {
                    let fill = snapshot.credit_fill();
                    let capacity = snapshot.credit_capacity;
                    // A grow the runtime clamped (observed capacity stuck
                    // below what we last asked for) must not be re-emitted:
                    // the gate is already as large as the rings allow.
                    let clamped = self
                        .last_credit_target
                        .get(&shard)
                        .is_some_and(|target| *target > capacity);
                    if fill >= self.policy.credit_high_fill
                        && capacity < self.policy.max_credits
                        && !clamped
                    {
                        let credits = (capacity * 2).min(self.policy.max_credits);
                        actions.push(ControlAction::ResizeCredits { shard, credits });
                        self.last_credit_ns.insert(shard, now_ns);
                        self.last_credit_target.insert(shard, credits);
                    } else if fill <= self.policy.credit_low_fill
                        && capacity > self.policy.min_credits
                    {
                        let credits = (capacity / 2).max(self.policy.min_credits);
                        actions.push(ControlAction::ResizeCredits { shard, credits });
                        self.last_credit_ns.insert(shard, now_ns);
                        self.last_credit_target.insert(shard, credits);
                    }
                }
            }
        }
        if let Some(ratio) = self.policy.rebalance_ratio {
            if let Some(action) = self.plan_rebalance(hub, ratio, now_ns) {
                self.last_rebalance_ns = Some(now_ns);
                actions.push(action);
            }
        }
        actions
    }

    /// Weighs shards by their backlog deficit when the imbalance exceeds
    /// `ratio`, and restores uniform weights once it has passed. Requires a
    /// snapshot from *every* shard (a partial weight vector would be
    /// rejected by the host) and observes the same cooldown as the scale
    /// actions so draining backlog is not re-homed every tick.
    fn plan_rebalance(
        &mut self,
        hub: &TelemetryHub,
        ratio: f64,
        now_ns: u64,
    ) -> Option<ControlAction> {
        let cooled = self
            .last_rebalance_ns
            .is_none_or(|last| now_ns.saturating_sub(last) >= self.policy.cooldown_ns);
        if !cooled {
            return None;
        }
        let num_shards = hub.num_shards();
        if num_shards < 2 {
            return None;
        }
        let mut backlogs = Vec::with_capacity(num_shards);
        for shard in 0..num_shards {
            backlogs.push(hub.latest(shard)?.backlog());
        }
        let max = *backlogs.iter().max().expect("non-empty") as f64;
        let min = *backlogs.iter().min().expect("non-empty") as f64;
        if max < ratio * (min + 1.0) {
            // Balanced again: a skew left behind by a past rebalance would
            // otherwise persist forever — reset to uniform, once.
            if self.steering_skewed {
                self.steering_skewed = false;
                return Some(ControlAction::SetSteeringWeights {
                    weights: vec![1; num_shards],
                });
            }
            return None;
        }
        // Weight each shard by its backlog deficit on top of a uniform
        // base (the mean backlog), which bounds the skew — a transiently
        // empty shard cannot grab essentially every bucket, and the swing
        // back cannot ping-pong the whole table.
        let base = backlogs.iter().sum::<usize>() as f64 / num_shards as f64 + 1.0;
        let weights: Vec<u32> = backlogs
            .iter()
            .map(|b| (max - *b as f64 + base).ceil() as u32)
            .collect();
        self.steering_skewed = true;
        Some(ControlAction::SetSteeringWeights { weights })
    }

    /// Derives the shard-count action the telemetry view `hub` calls for,
    /// given the host's live shard count and whether a retirement is
    /// already in progress. Public for replay-style testing;
    /// [`ElasticNfManager::drive`] calls it with live host state.
    pub fn plan_shards(
        &mut self,
        hub: &TelemetryHub,
        now_ns: u64,
        current_shards: usize,
        retiring: bool,
    ) -> Option<ControlAction> {
        let policy = self.shard_policy.as_ref()?;
        if retiring || self.pending_shard.is_some() {
            return None;
        }
        let cooled = self
            .last_shard_scale_ns
            .is_none_or(|last| now_ns.saturating_sub(last) >= policy.cooldown_ns);
        if !cooled {
            return None;
        }
        let snapshots = hub.latest_all();
        if snapshots.is_empty() {
            return None;
        }
        // A shard's pipeline fill: the worst of its ingress occupancy and
        // its credit occupancy (whichever saturates first is the
        // bottleneck signal).
        let fill = |s: &TelemetrySnapshot| s.ingress_fill().max(s.credit_fill());
        let mean_fill = snapshots.iter().map(|s| fill(s)).sum::<f64>() / snapshots.len() as f64;
        // EWMA-latency estimate: what a packet arriving now would wait for,
        // summed over the shard's NF queues.
        let latency_estimate = |s: &TelemetrySnapshot| {
            s.nfs
                .iter()
                .map(|nf| {
                    nf.service_time_ewma_ns
                        .saturating_mul(nf.input_depth as u64)
                })
                .sum::<u64>()
        };
        let worst_latency = snapshots
            .iter()
            .map(|s| latency_estimate(s))
            .max()
            .unwrap_or(0);
        let latency_breach = policy
            .latency_slo_ns
            .is_some_and(|slo| worst_latency >= slo);
        if (mean_fill >= policy.scale_out_fill || latency_breach)
            && current_shards < policy.max_shards
        {
            self.last_shard_scale_ns = Some(now_ns);
            return Some(ControlAction::SpawnShard);
        }
        let latency_quiet = policy
            .latency_slo_ns
            .is_none_or(|slo| worst_latency < slo / 2);
        if current_shards > policy.min_shards
            && snapshots.len() >= current_shards
            && snapshots.iter().all(|s| fill(s) <= policy.scale_in_fill)
            && latency_quiet
        {
            self.last_shard_scale_ns = Some(now_ns);
            return Some(ControlAction::RetireShard {
                shard: current_shards - 1,
            });
        }
        None
    }

    /// Provisions a new shard's replica set through the orchestrator,
    /// leaving it pending until the slowest replica's boot delay matures.
    fn launch_shard(&mut self, now_ns: u64) {
        let mut nfs: ShardNfSet = Vec::new();
        let mut ready_at_ns = now_ns;
        for (service, name, replicas) in &self.shard_template {
            for _ in 0..*replicas {
                // `enable_shard_scaling` validated the registry, so launch
                // cannot fail here.
                if let Some(ticket) = self.orchestrator.launch(usize::MAX, name, now_ns) {
                    ready_at_ns = ready_at_ns.max(ticket.ready_at_ns);
                    nfs.push((*service, ticket.nf));
                }
            }
        }
        if nfs.is_empty() {
            return;
        }
        self.pending_shard = Some(PendingShard { ready_at_ns, nfs });
    }

    /// Hands a boot-complete pending shard to the host. If the host cannot
    /// accept it yet (a retirement is still finishing), it stays pending
    /// for the next tick.
    fn install_matured_shard(&mut self, host: &ThreadedHost, now_ns: u64) {
        let Some(pending) = self.pending_shard.take() else {
            return;
        };
        if pending.ready_at_ns > now_ns {
            self.pending_shard = Some(pending);
            return;
        }
        match host.spawn_shard(pending.nfs) {
            Ok(_shard) => {
                self.shard_spawns += 1;
                self.last_shard_scale_ns = Some(now_ns);
            }
            Err(nfs) => {
                self.pending_shard = Some(PendingShard {
                    ready_at_ns: pending.ready_at_ns,
                    nfs,
                });
            }
        }
    }

    /// One control-loop tick against a live host, planning from `hub` —
    /// the host's `ObsHub` telemetry view (`obs.telemetry()`), observed
    /// just before: drop the state of shards that came or went, plan
    /// (replica, credit, steering *and* shard-count decisions), apply.
    /// Scale-ups and shard spawns are launched through the orchestrator and
    /// join the host once their boot delay matures (possibly on a later
    /// tick); scale-downs, credit resizes, rebalances and shard retirements
    /// apply immediately. Returns the actions emitted this tick.
    pub fn drive(&mut self, host: &ThreadedHost, hub: &TelemetryHub) -> Vec<ControlAction> {
        self.forget_changed_shards(hub);
        let now_ns = host.now_ns();
        let mut actions = self.plan(hub, now_ns);
        if let Some(action) = self.plan_shards(hub, now_ns, host.num_shards(), host.is_retiring()) {
            actions.push(action);
        }
        for action in &actions {
            match action {
                ControlAction::ScaleUp { shard, service } => {
                    let name = self.service_names[service].clone();
                    if let Some(ticket) = self.orchestrator.launch(*shard, &name, now_ns) {
                        self.scale_ups += 1;
                        self.pending.push(PendingLaunch {
                            shard: *shard,
                            service: *service,
                            ready_at_ns: ticket.ready_at_ns,
                            nf: ticket.nf,
                        });
                    }
                }
                ControlAction::ScaleDown { shard, service } => {
                    // The plan was drawn from the telemetry view, which can
                    // lag the host (a retirement this tick, or delayed
                    // snapshots): re-validate the index before applying.
                    if *shard < host.num_shards() && host.remove_nf_replica(*shard, *service) {
                        self.scale_downs += 1;
                    }
                }
                ControlAction::ResizeCredits { shard, credits } => {
                    if *shard < host.num_shards() {
                        let _ = host.resize_credits(*shard, *credits);
                    }
                }
                ControlAction::SetSteeringWeights { weights } => {
                    let _ = host.set_steering_weights(weights);
                }
                ControlAction::SetTraceSampling { every } => {
                    host.set_trace_sampling(*every);
                }
                ControlAction::SpawnShard => self.launch_shard(now_ns),
                ControlAction::RetireShard { .. } => {
                    if host.retire_shard() {
                        self.shard_retires += 1;
                    } else {
                        // The host refused (e.g. bucket moves still involve
                        // the shard): give the cooldown back so the
                        // retirement is re-planned next tick instead of
                        // slipping a full cooldown on a no-op.
                        self.last_shard_scale_ns = None;
                    }
                }
            }
        }
        self.install_matured(host, hub, now_ns);
        self.install_matured_shard(host, now_ns);
        actions
    }

    /// Drops the per-shard state of every shard whose lifecycle count in
    /// `hub` moved since the last tick: a retired shard's cooldowns,
    /// replica floors and pending launches go with its pipeline (its
    /// replicas died with it), so a respawned shard at the same index
    /// starts clean.
    fn forget_changed_shards(&mut self, hub: &TelemetryHub) {
        let counts = hub.lifecycle_counts();
        if counts == self.lifecycle_seen.as_slice() {
            return;
        }
        for (shard, &count) in counts.iter().enumerate() {
            if self.lifecycle_seen.get(shard).copied().unwrap_or(0) == count {
                continue;
            }
            self.last_scale_ns.retain(|(s, _), _| *s != shard);
            self.expected_replicas.retain(|(s, _), _| *s != shard);
            self.last_credit_ns.remove(&shard);
            self.last_credit_target.remove(&shard);
            self.pending.retain(|launch| launch.shard != shard);
        }
        self.lifecycle_seen = counts.to_vec();
    }

    /// Hands every boot-complete pending replica to the host. Replicas
    /// whose control ring is momentarily full are handed back by the host
    /// and stay pending for the next tick.
    fn install_matured(&mut self, host: &ThreadedHost, hub: &TelemetryHub, now_ns: u64) {
        let mut still_pending = Vec::new();
        for launch in self.pending.drain(..) {
            if launch.ready_at_ns > now_ns {
                still_pending.push(launch);
                continue;
            }
            let PendingLaunch {
                shard,
                service,
                ready_at_ns,
                nf,
            } = launch;
            if shard >= host.num_shards() {
                // The target shard retired while the replica was booting
                // (its `Retired` event may still be in flight); the
                // replica has nowhere to go — drop it.
                continue;
            }
            match host.add_nf_replica(shard, service, nf) {
                Ok(()) => {
                    // The replica left `pending` but will not show in
                    // telemetry until the worker has spawned it and the
                    // next snapshot lands. Restart the cooldown and raise
                    // the expected-replica floor so plan() cannot read that
                    // stale window as "still under-provisioned" and
                    // overshoot max_replicas.
                    self.last_scale_ns.insert((shard, service), now_ns);
                    let visible = hub
                        .latest(shard)
                        .map_or(0, |snapshot| snapshot.replicas(service));
                    let floor = self
                        .expected_replicas
                        .entry((shard, service))
                        .or_insert(visible);
                    *floor = (*floor).max(visible) + 1;
                }
                Err(nf) => still_pending.push(PendingLaunch {
                    shard,
                    service,
                    ready_at_ns,
                    nf,
                }),
            }
        }
        self.pending = still_pending;
    }
}

/// How many replicas of which services run on each shard — the placement
/// decision [`deploy_sharded`] provisions.
#[derive(Debug, Clone)]
pub struct ShardPlacement {
    /// One replica list per shard: `(service id, registry name, replicas)`.
    pub per_shard: Vec<Vec<(ServiceId, String, usize)>>,
}

impl ShardPlacement {
    /// The uniform placement: every shard runs `replicas` instances of
    /// every listed service.
    pub fn uniform(services: &[(ServiceId, &str)], num_shards: usize, replicas: usize) -> Self {
        let per_shard = (0..num_shards.max(1))
            .map(|_| {
                services
                    .iter()
                    .map(|(id, name)| (*id, (*name).to_string(), replicas))
                    .collect()
            })
            .collect();
        ShardPlacement { per_shard }
    }

    /// Number of shards the placement spans.
    pub fn num_shards(&self) -> usize {
        self.per_shard.len()
    }
}

/// Provisions a sharded host from a placement decision: every replica is
/// instantiated through the orchestrator's registry and handed to
/// `ThreadedHost::start_sharded` as that shard's NF set
/// (`config.num_shards` is overridden by the placement's shard count).
///
/// Returns an error naming the first service the registry cannot
/// instantiate; no host is started in that case.
pub fn deploy_sharded(
    orchestrator: &mut NfvOrchestrator,
    placement: &ShardPlacement,
    table: SharedFlowTable,
    mut config: ThreadedHostConfig,
) -> Result<ThreadedHost, String> {
    let mut per_shard_nfs: Vec<ShardNfSet> = Vec::new();
    for (shard, specs) in placement.per_shard.iter().enumerate() {
        let mut nfs: ShardNfSet = Vec::new();
        for (service, name, replicas) in specs {
            for _ in 0..*replicas {
                match orchestrator.launch(shard, name, 0) {
                    Some(ticket) => nfs.push((*service, ticket.nf)),
                    None => {
                        return Err(format!(
                            "no NF registered under {name:?} for service {service} on shard {shard}"
                        ))
                    }
                }
            }
        }
        per_shard_nfs.push(nfs);
    }
    config.num_shards = placement.num_shards();
    // Index by the shard the runtime asks for rather than by call order, so
    // the mapping cannot skew if `start_sharded` ever changes its calling
    // pattern.
    let mut prepared: Vec<Option<ShardNfSet>> = per_shard_nfs.into_iter().map(Some).collect();
    Ok(ThreadedHost::start_sharded(
        table,
        move |shard| {
            prepared[shard]
                .take()
                .expect("each shard's NF set is requested once")
        },
        config,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnfv_nf::nfs::NoOpNf;
    use sdnfv_nf::NfRegistry;
    use sdnfv_telemetry::NfTelemetry;

    fn svc(id: u32) -> ServiceId {
        ServiceId::new(id)
    }

    fn registry() -> NfRegistry {
        let mut registry = NfRegistry::new();
        registry.register("noop", NoOpNf::new);
        registry
    }

    fn manager(policy: ElasticPolicy) -> ElasticNfManager {
        let mut manager = ElasticNfManager::new(NfvOrchestrator::new(registry(), 0), policy);
        manager
            .register_service(svc(1), "noop")
            .expect("noop is in the registry");
        manager
    }

    fn snapshot(shard: usize, seq: u64, fills: &[(u32, usize, usize, bool)]) -> TelemetrySnapshot {
        TelemetrySnapshot {
            shard,
            seq,
            at_ns: seq * 1_000,
            ingress_depth: 0,
            ingress_capacity: 1024,
            egress_depth: 0,
            egress_capacity: 1024,
            credits_in_flight: 0,
            credit_capacity: 256,
            nfs: fills
                .iter()
                .enumerate()
                .map(|(slot, (service, depth, capacity, draining))| NfTelemetry {
                    service: svc(*service),
                    slot,
                    input_depth: *depth,
                    input_capacity: *capacity,
                    service_time_ewma_ns: 0,
                    processed: 0,
                    draining: *draining,
                })
                .collect(),
            nf_slots_allocated: fills.len(),
            received: 0,
            transmitted: 0,
            dropped: 0,
            controller_punts: 0,
            throttled: 0,
            applied_commands: 0,
            rehome_pen_depth: 0,
            rehome_pen_max_age_ns: 0,
            rules_evicted_idle: 0,
            rules_evicted_hard: 0,
            nf_state_scrubbed: 0,
            nf_state_handoffs: 0,
            nf_state_import_drops: 0,
            spans_dropped: 0,
        }
    }

    #[test]
    fn full_queue_triggers_one_scale_up_until_cooldown() {
        let mut hub = TelemetryHub::new();
        let mut m = manager(ElasticPolicy {
            cooldown_ns: 1_000,
            ..ElasticPolicy::default()
        });
        hub.absorb(vec![snapshot(0, 1, &[(1, 90, 100, false)])]);
        let actions = m.plan(&hub, 10);
        assert_eq!(
            actions,
            vec![ControlAction::ScaleUp {
                shard: 0,
                service: svc(1)
            }]
        );
        // Same pressure inside the cooldown: no duplicate action.
        hub.absorb(vec![snapshot(0, 2, &[(1, 95, 100, false)])]);
        assert!(m.plan(&hub, 500).is_empty());
        // After the cooldown the alarm may fire again.
        hub.absorb(vec![snapshot(0, 3, &[(1, 95, 100, false)])]);
        assert_eq!(m.plan(&hub, 2_000).len(), 1);
    }

    #[test]
    fn a_shard_that_came_or_went_starts_clean() {
        use sdnfv_telemetry::ShardLifecycleEvent;
        let mut hub = TelemetryHub::new();
        let mut m = manager(ElasticPolicy {
            cooldown_ns: 1_000,
            ..ElasticPolicy::default()
        });
        hub.absorb(vec![snapshot(1, 1, &[(1, 90, 100, false)])]);
        assert_eq!(m.plan(&hub, 10).len(), 1, "scale-up, cooldown starts");
        hub.absorb(vec![snapshot(1, 2, &[(1, 95, 100, false)])]);
        m.forget_changed_shards(&hub);
        assert!(m.plan(&hub, 20).is_empty(), "inside the cooldown");
        // Shard 1 retires and a new pipeline takes its slot: the old
        // incarnation's cooldown must not hold the new one back.
        hub.observe_lifecycle(&[
            ShardLifecycleEvent::Retired {
                shard: 1,
                at_ns: 30,
            },
            ShardLifecycleEvent::Spawned {
                shard: 1,
                at_ns: 40,
            },
        ]);
        hub.absorb(vec![snapshot(1, 1, &[(1, 95, 100, false)])]);
        m.forget_changed_shards(&hub);
        assert_eq!(m.plan(&hub, 50).len(), 1, "the slot starts clean");
    }

    #[test]
    fn unregistered_services_are_never_scaled() {
        let mut hub = TelemetryHub::new();
        let mut m = manager(ElasticPolicy::default());
        hub.absorb(vec![snapshot(0, 1, &[(9, 100, 100, false)])]);
        assert!(m.plan(&hub, 10).is_empty());
    }

    #[test]
    fn quiet_shard_scales_down_but_never_below_minimum() {
        let mut hub = TelemetryHub::new();
        let mut m = manager(ElasticPolicy {
            cooldown_ns: 0,
            ..ElasticPolicy::default()
        });
        // Two quiet replicas: one is retired.
        hub.absorb(vec![snapshot(
            0,
            1,
            &[(1, 0, 100, false), (1, 1, 100, false)],
        )]);
        assert_eq!(
            m.plan(&hub, 10),
            vec![ControlAction::ScaleDown {
                shard: 0,
                service: svc(1)
            }]
        );
        // One replica left: the minimum holds.
        hub.absorb(vec![snapshot(0, 2, &[(1, 0, 100, false)])]);
        assert!(m.plan(&hub, 20).is_empty());
    }

    #[test]
    fn draining_replicas_do_not_count_toward_scaling() {
        let mut hub = TelemetryHub::new();
        let mut m = manager(ElasticPolicy {
            cooldown_ns: 0,
            ..ElasticPolicy::default()
        });
        // One live replica + one draining: not eligible for another
        // scale-down even though two slots report.
        hub.absorb(vec![snapshot(
            0,
            1,
            &[(1, 0, 100, false), (1, 50, 100, true)],
        )]);
        assert!(m.plan(&hub, 10).is_empty());
    }

    #[test]
    fn saturated_replica_cap_is_respected() {
        let mut hub = TelemetryHub::new();
        let mut m = manager(ElasticPolicy {
            max_replicas: 2,
            cooldown_ns: 0,
            ..ElasticPolicy::default()
        });
        hub.absorb(vec![snapshot(
            0,
            1,
            &[(1, 90, 100, false), (1, 95, 100, false)],
        )]);
        assert!(m.plan(&hub, 10).is_empty(), "already at max replicas");
    }

    #[test]
    fn credit_management_doubles_and_halves_within_bounds() {
        let mut hub = TelemetryHub::new();
        let mut m = manager(ElasticPolicy {
            manage_credits: true,
            cooldown_ns: 0,
            min_credits: 64,
            max_credits: 1024,
            ..ElasticPolicy::default()
        });
        let mut high = snapshot(0, 1, &[]);
        high.credits_in_flight = 250;
        high.credit_capacity = 256;
        hub.absorb(vec![high]);
        assert_eq!(
            m.plan(&hub, 10),
            vec![ControlAction::ResizeCredits {
                shard: 0,
                credits: 512
            }]
        );
        let mut low = snapshot(0, 2, &[]);
        low.credits_in_flight = 0;
        low.credit_capacity = 512;
        hub.absorb(vec![low]);
        assert_eq!(
            m.plan(&hub, 20),
            vec![ControlAction::ResizeCredits {
                shard: 0,
                credits: 256
            }]
        );
    }

    #[test]
    fn clamped_credit_grow_is_not_re_emitted() {
        let mut hub = TelemetryHub::new();
        let mut m = manager(ElasticPolicy {
            manage_credits: true,
            cooldown_ns: 0,
            min_credits: 64,
            max_credits: 4096,
            ..ElasticPolicy::default()
        });
        let mut high = snapshot(0, 1, &[]);
        high.credits_in_flight = 250;
        high.credit_capacity = 256;
        hub.absorb(vec![high.clone()]);
        assert_eq!(
            m.plan(&hub, 10),
            vec![ControlAction::ResizeCredits {
                shard: 0,
                credits: 512
            }]
        );
        // The runtime clamped the grow: capacity is still 256. The plan
        // must not keep re-emitting an ineffective grow forever.
        high.seq = 2;
        hub.absorb(vec![high]);
        assert!(
            m.plan(&hub, 20).is_empty(),
            "clamped grow is not re-emitted"
        );
        // A shrink is still allowed once the pressure is gone.
        let mut low = snapshot(0, 3, &[]);
        low.credits_in_flight = 0;
        low.credit_capacity = 256;
        hub.absorb(vec![low]);
        assert_eq!(
            m.plan(&hub, 30),
            vec![ControlAction::ResizeCredits {
                shard: 0,
                credits: 128
            }]
        );
    }

    #[test]
    fn rebalance_needs_every_shard_and_observes_cooldown() {
        let mut hub = TelemetryHub::new();
        let mut m = manager(ElasticPolicy {
            rebalance_ratio: Some(4.0),
            cooldown_ns: 1_000,
            ..ElasticPolicy::default()
        });
        // Shards 0 and 2 report, shard 1 does not: a 2-entry weight vector
        // would be rejected by a 3-shard host, so nothing is emitted.
        let mut busy = snapshot(0, 1, &[]);
        busy.ingress_depth = 900;
        hub.absorb(vec![busy.clone(), snapshot(2, 1, &[])]);
        assert!(
            m.plan(&hub, 10).is_empty(),
            "incomplete shard view: no rebalance"
        );
        // All shards report: one rebalance fires, then the cooldown holds.
        hub.absorb(vec![snapshot(1, 1, &[])]);
        let actions = m.plan(&hub, 20);
        assert!(
            matches!(
                actions.as_slice(),
                [ControlAction::SetSteeringWeights { weights }] if weights.len() == 3
            ),
            "expected a 3-shard rebalance, got {actions:?}"
        );
        busy.seq = 2;
        hub.absorb(vec![busy]);
        assert!(
            m.plan(&hub, 500).is_empty(),
            "cooldown suppresses re-emission"
        );
        assert_eq!(m.plan(&hub, 2_000).len(), 1, "cooldown expires");
    }

    #[test]
    fn imbalance_triggers_rebalance_weights() {
        let mut hub = TelemetryHub::new();
        let mut m = manager(ElasticPolicy {
            rebalance_ratio: Some(4.0),
            ..ElasticPolicy::default()
        });
        let mut busy = snapshot(0, 1, &[(1, 0, 100, false)]);
        busy.ingress_depth = 900;
        let idle = snapshot(1, 1, &[(1, 0, 100, false)]);
        hub.absorb(vec![busy, idle]);
        let actions = m.plan(&hub, 10);
        let Some(ControlAction::SetSteeringWeights { weights }) = actions.last() else {
            panic!("expected a rebalance, got {actions:?}");
        };
        assert_eq!(weights.len(), 2);
        assert!(weights[1] > weights[0], "idle shard gets more new buckets");
        // The deficit-over-mean formula bounds the skew: the busy shard
        // still receives a meaningful share of new buckets.
        assert!(weights[1] < weights[0] * 4, "bounded skew, got {weights:?}");
    }

    #[test]
    fn rebalance_resets_to_uniform_when_balance_returns() {
        let mut hub = TelemetryHub::new();
        let mut m = manager(ElasticPolicy {
            rebalance_ratio: Some(4.0),
            cooldown_ns: 0,
            ..ElasticPolicy::default()
        });
        let mut busy = snapshot(0, 1, &[]);
        busy.ingress_depth = 900;
        hub.absorb(vec![busy, snapshot(1, 1, &[])]);
        assert!(
            matches!(
                m.plan(&hub, 10).as_slice(),
                [ControlAction::SetSteeringWeights { .. }]
            ),
            "imbalance skews the table"
        );
        // Balance returns: exactly one uniform reset, then silence.
        hub.absorb(vec![snapshot(0, 2, &[]), snapshot(1, 2, &[])]);
        assert_eq!(
            m.plan(&hub, 20),
            vec![ControlAction::SetSteeringWeights {
                weights: vec![1, 1]
            }]
        );
        hub.absorb(vec![snapshot(0, 3, &[]), snapshot(1, 3, &[])]);
        assert!(m.plan(&hub, 30).is_empty(), "reset is emitted once");
    }

    fn shard_manager(policy: ShardPolicy) -> ElasticNfManager {
        let mut manager = ElasticNfManager::new(
            NfvOrchestrator::new(registry(), 0),
            ElasticPolicy::default(),
        );
        manager
            .enable_shard_scaling(policy, vec![(svc(1), "noop".to_string(), 1)])
            .expect("noop is in the registry");
        manager
    }

    #[test]
    fn enable_shard_scaling_validates_the_template() {
        let mut manager = ElasticNfManager::new(
            NfvOrchestrator::new(registry(), 0),
            ElasticPolicy::default(),
        );
        assert!(manager
            .enable_shard_scaling(ShardPolicy::default(), vec![])
            .is_err());
        assert!(manager
            .enable_shard_scaling(
                ShardPolicy::default(),
                vec![(svc(1), "missing".to_string(), 1)]
            )
            .is_err());
        assert!(manager
            .enable_shard_scaling(
                ShardPolicy::default(),
                vec![(svc(1), "noop".to_string(), 2)]
            )
            .is_ok());
    }

    #[test]
    fn aggregate_fill_plans_spawn_until_cooldown_and_cap() {
        let mut hub = TelemetryHub::new();
        let mut m = shard_manager(ShardPolicy {
            scale_out_fill: 0.5,
            max_shards: 2,
            cooldown_ns: 1_000,
            ..ShardPolicy::default()
        });
        let mut busy = snapshot(0, 1, &[]);
        busy.ingress_depth = 900; // ingress fill ≈ 0.88
        hub.absorb(vec![busy.clone()]);
        assert_eq!(
            m.plan_shards(&hub, 10, 1, false),
            Some(ControlAction::SpawnShard)
        );
        // Cooldown holds; after it expires the cap holds.
        assert_eq!(m.plan_shards(&hub, 500, 1, false), None, "cooldown");
        assert_eq!(m.plan_shards(&hub, 5_000, 2, false), None, "at max_shards");
        // A pending retirement also suppresses planning.
        busy.seq = 2;
        hub.absorb(vec![busy]);
        assert_eq!(m.plan_shards(&hub, 10_000, 1, true), None, "retiring");
    }

    #[test]
    fn latency_slo_triggers_spawn_and_quiet_plans_retire() {
        let mut hub = TelemetryHub::new();
        let mut m = shard_manager(ShardPolicy {
            scale_out_fill: 0.99, // fill alone never triggers
            scale_in_fill: 0.05,
            latency_slo_ns: Some(1_000_000),
            min_shards: 1,
            max_shards: 4,
            cooldown_ns: 0,
        });
        // One replica with a deep queue and a slow EWMA: estimated wait
        // 100 µs/packet × 20 packets = 2 ms ≥ the 1 ms SLO.
        let mut slow = snapshot(0, 1, &[(1, 20, 100, false)]);
        slow.nfs[0].service_time_ewma_ns = 100_000;
        hub.absorb(vec![slow]);
        assert_eq!(
            m.plan_shards(&hub, 10, 1, false),
            Some(ControlAction::SpawnShard)
        );
        // Quiet everywhere (and latency far under half the SLO): the
        // highest shard is retired.
        hub.absorb(vec![
            snapshot(0, 2, &[(1, 0, 100, false)]),
            snapshot(1, 1, &[]),
        ]);
        assert_eq!(
            m.plan_shards(&hub, 20, 2, false),
            Some(ControlAction::RetireShard { shard: 1 })
        );
        // But never below min_shards.
        hub.absorb(vec![snapshot(0, 3, &[(1, 0, 100, false)])]);
        assert_eq!(m.plan_shards(&hub, 30, 1, false), None);
    }

    #[test]
    fn uniform_placement_shape() {
        let placement = ShardPlacement::uniform(&[(svc(1), "noop")], 3, 2);
        assert_eq!(placement.num_shards(), 3);
        for shard in &placement.per_shard {
            assert_eq!(shard.len(), 1);
            assert_eq!(shard[0].2, 2);
        }
    }

    #[test]
    fn deploy_rejects_unknown_services() {
        let mut orchestrator = NfvOrchestrator::new(registry(), 0);
        let placement = ShardPlacement::uniform(&[(svc(1), "missing")], 2, 1);
        let err = deploy_sharded(
            &mut orchestrator,
            &placement,
            SharedFlowTable::new(),
            ThreadedHostConfig::default(),
        )
        .unwrap_err();
        assert!(err.contains("missing"));
    }
}
