//! The five named workloads: what traffic each sees, which rules and NFs
//! the host runs, and which drive mode measures it. README.md states why
//! each exists; the one-line reasons here are copied into every result.

use std::net::Ipv4Addr;

use sdnfv_dataplane::{SimHandle, ThreadedHost, ThreadedHostConfig};
use sdnfv_flowtable::{
    Action, FlowMatch, FlowRule, IpPrefix, RulePort, ServiceId, SharedFlowTable,
};
use sdnfv_graph::{catalog, CompileOptions, GraphNode, ServiceGraphBuilder};
use sdnfv_nf::nfs::{FirewallNf, IdsNf, NoOpNf, ScrubberNf};
use sdnfv_nf::NetworkFunction;
use sdnfv_proto::{FlowKey, IpProtocol};

use crate::gen::{server_ip, TrafficPlan, EGRESS_PORT, INGRESS_PORT, SERVER_PORTS, SIGNATURE};

/// The NFs a workload's host runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chain {
    /// No NFs: one `Nic(0) → ToPort(1)` rule.
    Forward,
    /// Three `NoOpNf`s, visited one after another or (compiled with
    /// `enable_parallel`) all at once.
    NoOp3 { parallel: bool },
    /// Firewall → IDS → (flagged flows only) scrubber.
    Ids,
}

/// How a workload's end-to-end numbers are taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// Real threads and the real clock: the generator thread plus one
    /// pipeline thread per worker and NF.
    Threaded,
    /// The same engines stepped on the calling thread under a virtual
    /// clock (`ThreadedHost::start_sim_sharded`).
    Stepped,
}

impl Drive {
    pub fn name(self) -> &'static str {
        match self {
            Drive::Threaded => "threaded",
            Drive::Stepped => "stepped",
        }
    }
}

/// A named workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub drive: Drive,
    pub traffic: TrafficPlan,
    pub chain: Chain,
    /// Install the exact pins and wildcard shapes that make every lookup
    /// fall through to the flow table (`flows64k`).
    pub crowded_table: bool,
}

/// Exact rules pinned on top of the chain in a crowded table.
const CROWD_PINS: usize = 50_000;
/// Idle timeout of IDS pins under churn, in host-clock nanoseconds: a few
/// flow lifetimes, so pins of finished flows are swept while the run goes on.
const CHURN_PIN_IDLE_NS: u64 = 4_000_000;
/// Most rules a churn host's table may ever hold: its four graph rules plus
/// the pins of the flows that can be alive or awaiting a sweep.
pub const CHURN_TABLE_BOUND: usize = 1024;

pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "fwd64",
        why: "threaded bare forwarding, 0 NFs, 64 B, 64 flows: parse/steer/credit/ring cost is everything, NF layers idle",
        drive: Drive::Threaded,
        traffic: TrafficPlan::Fixed { flows: 64, frame_len: 64 },
        chain: Chain::Forward,
        crowded_table: false,
    },
    Spec {
        name: "chain3_64",
        why: "3 sequential NoOp NFs, 64 B, 64 flows (Table 2 / Fig 7 shape): NF ring hops, dispatch and verdict hand-back dominate; lookups hit the cache",
        drive: Drive::Stepped,
        traffic: TrafficPlan::Fixed { flows: 64, frame_len: 64 },
        chain: Chain::NoOp3 { parallel: false },
        crowded_table: false,
    },
    Spec {
        name: "par3_1024",
        why: "the same 3 NFs compiled parallel, 1024 B: SharedPacket fan-out and conflict resolution, the other dispatch path",
        drive: Drive::Stepped,
        traffic: TrafficPlan::Fixed { flows: 64, frame_len: 1024 },
        chain: Chain::NoOp3 { parallel: true },
        crowded_table: false,
    },
    Spec {
        name: "flows64k",
        why: "chain3_64 with 65536 flows (16x the lookup cache), 50000 exact pins and 7 wildcard shapes: every lookup falls through to the flow table",
        drive: Drive::Stepped,
        traffic: TrafficPlan::Fixed { flows: 65_536, frame_len: 64 },
        chain: Chain::NoOp3 { parallel: false },
        crowded_table: true,
    },
    Spec {
        name: "churn_ids",
        why: "firewall-IDS-scrubber, 512 B HTTP, every flow new and 16 packets long, 1 in 8 pinned to the scrubber by ChangeDefault then idle-evicted: table writes and the NF-message path",
        drive: Drive::Stepped,
        traffic: TrafficPlan::Churn { lanes: 64, flow_len: 16, malicious_one_in: 8, frame_len: 512 },
        chain: Chain::Ids,
        crowded_table: false,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|spec| spec.name == name)
}

impl Spec {
    /// Flows alive at once (sizes the checker's ordering table).
    pub fn concurrent_flows(&self) -> usize {
        match self.traffic {
            TrafficPlan::Fixed { flows, .. } => flows,
            TrafficPlan::Churn { lanes, .. } => lanes,
        }
    }

    pub fn frame_len(&self) -> usize {
        match self.traffic {
            TrafficPlan::Fixed { frame_len, .. } | TrafficPlan::Churn { frame_len, .. } => {
                frame_len
            }
        }
    }

    /// Threads a threaded run of this workload keeps busy: the generator,
    /// the shard worker, and one per NF.
    pub fn threads_when_threaded(&self) -> usize {
        2 + self.nf_count()
    }

    pub fn nf_count(&self) -> usize {
        match self.chain {
            Chain::Forward => 0,
            Chain::NoOp3 { .. } | Chain::Ids => 3,
        }
    }

    /// Short service labels, in chain order.
    pub fn service_labels(&self) -> &'static [&'static str] {
        match self.chain {
            Chain::Forward => &[],
            Chain::NoOp3 { .. } => &["nf0", "nf1", "nf2"],
            Chain::Ids => &["firewall", "ids", "scrubber"],
        }
    }
}

/// A workload's rule set and the service ids its NFs are deployed as.
pub struct Deployment {
    pub table: SharedFlowTable,
    pub services: Vec<ServiceId>,
}

/// Builds the flow table of `spec`. `flows` is the traffic's flow set
/// (used only by the crowded table, which pins most of them).
pub fn deploy(spec: &Spec, flows: &[FlowKey]) -> Deployment {
    let table = SharedFlowTable::new();
    let services = match spec.chain {
        Chain::Forward => {
            table.insert(FlowRule::new(
                FlowMatch::at_step(RulePort::Nic(INGRESS_PORT)),
                vec![Action::ToPort(EGRESS_PORT)],
            ));
            Vec::new()
        }
        Chain::NoOp3 { parallel } => {
            let (graph, ids) = catalog::chain(&[("nf0", true), ("nf1", true), ("nf2", true)]);
            let options = CompileOptions {
                enable_parallel: parallel,
                ..CompileOptions::default()
            };
            for rule in graph.compile(&options) {
                table.insert(rule);
            }
            ids
        }
        Chain::Ids => {
            // The firewall → IDS → scrubber spine of
            // `catalog::anomaly_detection`, without its sampler and DDoS
            // branch: every packet is inspected.
            let mut b = ServiceGraphBuilder::new("churn-ids");
            let firewall = b.add_service("firewall", true);
            let ids = b.add_service("ids", true);
            let scrubber = b.add_service("scrubber", true);
            b.add_default_edge(GraphNode::Source, firewall);
            b.add_default_edge(firewall, ids);
            b.add_default_edge(ids, GraphNode::Sink);
            b.add_edge(ids, scrubber);
            b.add_default_edge(scrubber, GraphNode::Sink);
            let graph = b.build().expect("the churn graph is well formed");
            for rule in graph.compile(&CompileOptions::default()) {
                table.insert(rule);
            }
            vec![firewall, ids, scrubber]
        }
    };
    if spec.crowded_table {
        crowd(&table, services[0], flows);
    }
    Deployment { table, services }
}

/// Fills the table so that no lookup is answered early. Every added rule
/// forwards to the chain's first NF — exactly what the compiled ingress
/// rule does — so outcomes do not change; only the work to find them does:
///
/// * `CROWD_PINS` exact rules at the ingress step (the exact index holds
///   50 k entries instead of none);
/// * six more wildcard mask shapes at a priority above the pins, so the
///   tuple-space search probes every shape for every packet at every step
///   (an exact hit only stops shapes that cannot outrank it).
fn crowd(table: &SharedFlowTable, first: ServiceId, flows: &[FlowKey]) {
    let ingress = RulePort::Nic(INGRESS_PORT);
    let to_chain = vec![Action::ToService(first)];
    table.with_write(|t| {
        for key in flows.iter().take(CROWD_PINS) {
            t.insert(FlowRule::new(
                FlowMatch::exact(ingress, key),
                to_chain.clone(),
            ));
        }
        let at = || FlowMatch::at_step(ingress);
        let src16 = |b: u8| IpPrefix::new(Ipv4Addr::new(10, b, 0, 0), 16);
        let mut shapes: Vec<FlowMatch> = Vec::new();
        // 1: source /16 — 32 of the 256 client networks.
        shapes.extend((0..32).map(|b| at().with_src_ip(src16(b * 8))));
        // 2: destination host — a quarter of the servers.
        shapes.extend((0..4).map(|s| at().with_dst_ip(IpPrefix::host(server_ip(s * 4)))));
        // 3: service port.
        shapes.push(at().with_dst_port(SERVER_PORTS[1]));
        // 4: source /8 + service port.
        shapes.push(
            at().with_src_ip(IpPrefix::new(Ipv4Addr::new(10, 0, 0, 0), 8))
                .with_dst_port(SERVER_PORTS[2]),
        );
        // 5: protocol + destination /24.
        shapes.push(
            at().with_protocol(IpProtocol::Udp)
                .with_dst_ip(IpPrefix::new(Ipv4Addr::new(172, 16, 1, 0), 24)),
        );
        // 6: source port — decoys below the generated range, never hit.
        shapes.extend((0..16).map(|p| at().with_src_port(100 + p)));
        for matcher in shapes {
            t.insert(FlowRule::new(matcher, to_chain.clone()).with_priority(1));
        }
    });
}

/// The NF instances of `spec`, keyed by the services of `deployment`.
pub fn nfs(spec: &Spec, services: &[ServiceId]) -> Vec<(ServiceId, Box<dyn NetworkFunction>)> {
    match spec.chain {
        Chain::Forward => Vec::new(),
        Chain::NoOp3 { .. } => services
            .iter()
            .map(|id| (*id, Box::new(NoOpNf::new()) as Box<dyn NetworkFunction>))
            .collect(),
        Chain::Ids => vec![
            (services[0], Box::new(FirewallNf::allow_by_default())),
            (services[1], Box::new(IdsNf::new(services[1], services[2]))),
            (
                services[2],
                Box::new(ScrubberNf::new().with_signature(SIGNATURE.to_vec())),
            ),
        ],
    }
}

/// The host configuration of `spec`: the shipping defaults, plus the pin
/// idle timeout that lets churned IDS pins be evicted.
pub fn host_config(spec: &Spec) -> ThreadedHostConfig {
    ThreadedHostConfig {
        pin_idle_timeout_ns: matches!(spec.chain, Chain::Ids).then_some(CHURN_PIN_IDLE_NS),
        ..ThreadedHostConfig::default()
    }
}

/// The stepped host's actors, in the order a round steps them.
pub struct Actors {
    pub sim: SimHandle,
    pub worker: u64,
    /// NF replica actor ids, in chain order.
    pub nfs: Vec<u64>,
}

/// A running host under one of the two drive modes.
pub struct Rig {
    pub host: ThreadedHost,
    /// `Some` under [`Drive::Stepped`].
    pub actors: Option<Actors>,
}

/// Builds `spec`'s table, installs its rules and starts its host.
pub fn start(spec: &Spec, drive: Drive, flows: &[FlowKey]) -> Rig {
    let Deployment { table, services } = deploy(spec, flows);
    let config = host_config(spec);
    match drive {
        Drive::Threaded => Rig {
            host: ThreadedHost::start(table, nfs(spec, &services), config),
            actors: None,
        },
        Drive::Stepped => {
            let (host, sim) =
                ThreadedHost::start_sim_sharded(table, |_shard| nfs(spec, &services), config);
            // The worker registers its NF replicas on its first step.
            let worker = sim.actors()[0].id;
            sim.step(worker);
            let nfs: Vec<u64> = sim
                .actors()
                .iter()
                .filter(|actor| actor.id != worker)
                .map(|actor| actor.id)
                .collect();
            assert_eq!(nfs.len(), spec.nf_count(), "one replica per service");
            Rig {
                host,
                actors: Some(Actors { sim, worker, nfs }),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Traffic;

    #[test]
    fn workload_names_are_unique_and_findable() {
        for spec in &WORKLOADS {
            assert_eq!(find(spec.name).map(|s| s.name), Some(spec.name));
            assert!(spec.why.len() <= 200, "{} why too long", spec.name);
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn crowded_table_changes_no_outcome() {
        let spec = find("flows64k").unwrap();
        let traffic = Traffic::new(
            TrafficPlan::Fixed {
                flows: 256,
                frame_len: 64,
            },
            3,
        );
        let plain = deploy(find("chain3_64").unwrap(), traffic.flow_keys());
        let crowded = deploy(spec, traffic.flow_keys());
        assert!(crowded.table.len() > plain.table.len() + 256);
        let step = RulePort::Nic(INGRESS_PORT);
        for key in traffic.flow_keys() {
            let a = plain.table.lookup(step, key).unwrap();
            let b = crowded.table.lookup(step, key).unwrap();
            assert_eq!(a.actions, b.actions);
            assert_eq!(a.parallel, b.parallel);
        }
    }

    #[test]
    fn only_the_zero_nf_workload_is_threaded() {
        for spec in &WORKLOADS {
            assert_eq!(
                spec.drive == Drive::Threaded,
                spec.nf_count() == 0,
                "{}",
                spec.name
            );
            assert_eq!(spec.service_labels().len(), spec.nf_count());
        }
    }
}
