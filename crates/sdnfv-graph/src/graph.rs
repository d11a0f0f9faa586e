//! Service graph construction, validation, analysis and compilation to
//! flow-table rules.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};
use std::fmt;

use sdnfv_flowtable::{Action, FlowMatch, FlowRule, RulePort, ServiceId};
use sdnfv_proto::packet::Port;

use crate::node::{GraphNode, ServiceNode};

/// Errors detected while building or validating a service graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge references a service that was never added.
    UnknownService(ServiceId),
    /// A service id was registered twice.
    DuplicateService(ServiceId),
    /// An edge points *into* the source or *out of* the sink.
    InvalidEndpoint(GraphNode),
    /// The same edge was added twice.
    DuplicateEdge(GraphNode, GraphNode),
    /// A node with outgoing edges has no default edge, or more than one.
    DefaultEdgeCount {
        /// The offending node.
        node: GraphNode,
        /// How many default edges it has.
        count: usize,
    },
    /// A service has no outgoing edges, so packets would be stranded there.
    DeadEnd(ServiceId),
    /// The graph contains a cycle through the given service.
    Cycle(ServiceId),
    /// A service is not reachable from the source.
    Unreachable(ServiceId),
    /// The source has no outgoing edges.
    EmptySource,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownService(id) => write!(f, "edge references unknown service {id}"),
            GraphError::DuplicateService(id) => write!(f, "service {id} registered twice"),
            GraphError::InvalidEndpoint(node) => {
                write!(f, "edge endpoint {node} is not allowed in that position")
            }
            GraphError::DuplicateEdge(from, to) => write!(f, "duplicate edge {from} -> {to}"),
            GraphError::DefaultEdgeCount { node, count } => {
                write!(
                    f,
                    "node {node} has {count} default edges (expected exactly 1)"
                )
            }
            GraphError::DeadEnd(id) => write!(f, "service {id} has no outgoing edges"),
            GraphError::Cycle(id) => write!(f, "cycle detected through service {id}"),
            GraphError::Unreachable(id) => {
                write!(f, "service {id} is not reachable from the source")
            }
            GraphError::EmptySource => write!(f, "the source has no outgoing edges"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A directed edge of the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Edge {
    to: GraphNode,
    default: bool,
}

/// Options controlling compilation of a graph into flow rules.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// NIC ports whose arriving traffic enters the graph at the source.
    pub ingress_ports: Vec<Port>,
    /// NIC port that packets reaching the sink are transmitted from.
    pub egress_port: Port,
    /// Replace eligible sequential read-only segments with parallel dispatch.
    pub enable_parallel: bool,
    /// Priority assigned to the generated (wildcard) rules.
    pub priority: u16,
    /// Services implemented on this host. `None` means all services are
    /// local. Edges to non-local services are compiled to `ToPort
    /// (external_port)` so the packet is forwarded toward the host that
    /// implements the next service.
    pub local_services: Option<HashSet<ServiceId>>,
    /// Port used to reach services hosted elsewhere.
    pub external_port: Port,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            ingress_ports: vec![0],
            egress_port: 1,
            enable_parallel: false,
            priority: 0,
            local_services: None,
            external_port: 1,
        }
    }
}

/// An immutable, validated service graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(into = "GraphRepr", from = "GraphRepr")]
pub struct ServiceGraph {
    name: String,
    services: BTreeMap<ServiceId, ServiceNode>,
    edges: BTreeMap<GraphNode, Vec<Edge>>,
}

/// Flat serde representation of a [`ServiceGraph`] (maps with non-string
/// keys do not serialize to JSON, so edges are flattened to a list).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct GraphRepr {
    name: String,
    services: Vec<ServiceNode>,
    edges: Vec<(GraphNode, GraphNode, bool)>,
}

impl From<ServiceGraph> for GraphRepr {
    fn from(graph: ServiceGraph) -> Self {
        GraphRepr {
            name: graph.name,
            services: graph.services.into_values().collect(),
            edges: graph
                .edges
                .into_iter()
                .flat_map(|(from, edges)| edges.into_iter().map(move |e| (from, e.to, e.default)))
                .collect(),
        }
    }
}

impl From<GraphRepr> for ServiceGraph {
    fn from(repr: GraphRepr) -> Self {
        let mut edges: BTreeMap<GraphNode, Vec<Edge>> = BTreeMap::new();
        for (from, to, default) in repr.edges {
            let list = edges.entry(from).or_default();
            let edge = Edge { to, default };
            // Preserve the default-first ordering used by the builder.
            if default {
                list.insert(0, edge);
            } else {
                list.push(edge);
            }
        }
        ServiceGraph {
            name: repr.name,
            services: repr.services.into_iter().map(|s| (s.id, s)).collect(),
            edges,
        }
    }
}

/// Builder for [`ServiceGraph`].
#[derive(Debug, Clone, Default)]
pub struct ServiceGraphBuilder {
    name: String,
    services: BTreeMap<ServiceId, ServiceNode>,
    edges: BTreeMap<GraphNode, Vec<Edge>>,
    next_id: u32,
    error: Option<GraphError>,
}

impl ServiceGraphBuilder {
    /// Starts a new graph with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ServiceGraphBuilder {
            name: name.into(),
            next_id: 1,
            ..ServiceGraphBuilder::default()
        }
    }

    /// Adds a service vertex with an automatically assigned id.
    pub fn add_service(&mut self, name: impl Into<String>, read_only: bool) -> ServiceId {
        let id = ServiceId::new(self.next_id);
        self.next_id += 1;
        self.add_service_with_id(id, name, read_only);
        id
    }

    /// Adds a service vertex with an explicit id.
    pub fn add_service_with_id(
        &mut self,
        id: ServiceId,
        name: impl Into<String>,
        read_only: bool,
    ) -> ServiceId {
        if self.services.contains_key(&id) {
            self.error.get_or_insert(GraphError::DuplicateService(id));
        }
        self.next_id = self.next_id.max(id.value() + 1);
        self.services
            .insert(id, ServiceNode::new(id, name, read_only));
        id
    }

    /// Adds a non-default edge.
    pub fn add_edge(&mut self, from: impl Into<GraphNode>, to: impl Into<GraphNode>) -> &mut Self {
        self.push_edge(from.into(), to.into(), false);
        self
    }

    /// Adds the default edge for `from`.
    pub fn add_default_edge(
        &mut self,
        from: impl Into<GraphNode>,
        to: impl Into<GraphNode>,
    ) -> &mut Self {
        self.push_edge(from.into(), to.into(), true);
        self
    }

    fn push_edge(&mut self, from: GraphNode, to: GraphNode, default: bool) {
        if from == GraphNode::Sink || to == GraphNode::Source {
            self.error
                .get_or_insert(GraphError::InvalidEndpoint(if from == GraphNode::Sink {
                    from
                } else {
                    to
                }));
            return;
        }
        let list = self.edges.entry(from).or_default();
        if list.iter().any(|e| e.to == to) {
            self.error
                .get_or_insert(GraphError::DuplicateEdge(from, to));
            return;
        }
        if default {
            // Default edges are kept at the front so compilation emits them
            // as the first (default) action.
            list.insert(0, Edge { to, default });
        } else {
            list.push(Edge { to, default });
        }
    }

    /// Validates the graph and returns it.
    pub fn build(self) -> Result<ServiceGraph, GraphError> {
        if let Some(err) = self.error {
            return Err(err);
        }
        let graph = ServiceGraph {
            name: self.name,
            services: self.services,
            edges: self.edges,
        };
        graph.validate()?;
        Ok(graph)
    }
}

impl ServiceGraph {
    /// Starts building a graph.
    pub fn builder(name: impl Into<String>) -> ServiceGraphBuilder {
        ServiceGraphBuilder::new(name)
    }

    /// The graph's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of service vertices.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// Returns `true` if the graph has no service vertices.
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
    }

    /// All service vertices in id order.
    pub fn services(&self) -> impl Iterator<Item = &ServiceNode> {
        self.services.values()
    }

    /// Looks up a service vertex by id.
    pub fn service(&self, id: ServiceId) -> Option<&ServiceNode> {
        self.services.get(&id)
    }

    /// Looks up a service vertex by name.
    pub fn service_by_name(&self, name: &str) -> Option<&ServiceNode> {
        self.services.values().find(|s| s.name == name)
    }

    /// Returns `true` if the service is declared read-only.
    pub fn is_read_only(&self, id: ServiceId) -> bool {
        self.services.get(&id).map(|s| s.read_only).unwrap_or(false)
    }

    /// Ordered successors of a node (default first).
    pub fn successors(&self, node: impl Into<GraphNode>) -> Vec<GraphNode> {
        self.edges
            .get(&node.into())
            .map(|edges| edges.iter().map(|e| e.to).collect())
            .unwrap_or_default()
    }

    /// The default successor of a node, if it has outgoing edges.
    pub fn default_successor(&self, node: impl Into<GraphNode>) -> Option<GraphNode> {
        self.edges
            .get(&node.into())
            .and_then(|edges| edges.iter().find(|e| e.default).map(|e| e.to))
    }

    /// Nodes with an edge *to* `node`.
    pub fn predecessors(&self, node: impl Into<GraphNode>) -> Vec<GraphNode> {
        let node = node.into();
        self.edges
            .iter()
            .filter(|(_, edges)| edges.iter().any(|e| e.to == node))
            .map(|(from, _)| *from)
            .collect()
    }

    /// The services traversed by following only default edges from the
    /// source — the "service chain" view of the graph.
    pub fn default_path(&self) -> Vec<ServiceId> {
        let mut path = Vec::new();
        let mut current = GraphNode::Source;
        let mut guard = 0;
        while let Some(next) = self.default_successor(current) {
            if let GraphNode::Service(id) = next {
                path.push(id);
            }
            if next == GraphNode::Sink {
                break;
            }
            current = next;
            guard += 1;
            if guard > self.services.len() + 1 {
                break; // cycle protection; validated graphs never hit this
            }
        }
        path
    }

    fn validate(&self) -> Result<(), GraphError> {
        // Every edge endpoint must be a known service (or source/sink).
        for (from, edges) in &self.edges {
            if let GraphNode::Service(id) = from {
                if !self.services.contains_key(id) {
                    return Err(GraphError::UnknownService(*id));
                }
            }
            for edge in edges {
                if let GraphNode::Service(id) = edge.to {
                    if !self.services.contains_key(&id) {
                        return Err(GraphError::UnknownService(id));
                    }
                }
            }
        }
        // The source must have edges, with exactly one default.
        let source_edges = self.edges.get(&GraphNode::Source);
        match source_edges {
            None => return Err(GraphError::EmptySource),
            Some(edges) if edges.is_empty() => return Err(GraphError::EmptySource),
            Some(edges) => {
                let defaults = edges.iter().filter(|e| e.default).count();
                if defaults != 1 {
                    return Err(GraphError::DefaultEdgeCount {
                        node: GraphNode::Source,
                        count: defaults,
                    });
                }
            }
        }
        // Every service needs outgoing edges with exactly one default.
        for id in self.services.keys() {
            let node = GraphNode::Service(*id);
            match self.edges.get(&node) {
                None => return Err(GraphError::DeadEnd(*id)),
                Some(edges) if edges.is_empty() => return Err(GraphError::DeadEnd(*id)),
                Some(edges) => {
                    let defaults = edges.iter().filter(|e| e.default).count();
                    if defaults != 1 {
                        return Err(GraphError::DefaultEdgeCount {
                            node,
                            count: defaults,
                        });
                    }
                }
            }
        }
        self.check_acyclic()?;
        self.check_reachability()?;
        Ok(())
    }

    fn check_acyclic(&self) -> Result<(), GraphError> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            Unvisited,
            InProgress,
            Done,
        }
        let mut marks: BTreeMap<GraphNode, Mark> = BTreeMap::new();
        fn visit(
            graph: &ServiceGraph,
            node: GraphNode,
            marks: &mut BTreeMap<GraphNode, Mark>,
        ) -> Result<(), GraphError> {
            match marks.get(&node).copied().unwrap_or(Mark::Unvisited) {
                Mark::Done => return Ok(()),
                Mark::InProgress => {
                    if let GraphNode::Service(id) = node {
                        return Err(GraphError::Cycle(id));
                    }
                    return Ok(());
                }
                Mark::Unvisited => {}
            }
            marks.insert(node, Mark::InProgress);
            if let Some(edges) = graph.edges.get(&node) {
                for edge in edges {
                    visit(graph, edge.to, marks)?;
                }
            }
            marks.insert(node, Mark::Done);
            Ok(())
        }
        visit(self, GraphNode::Source, &mut marks)?;
        // Also start from any service not reachable from the source so cycles
        // in disconnected components are reported as cycles, not reachability.
        for id in self.services.keys() {
            visit(self, GraphNode::Service(*id), &mut marks)?;
        }
        Ok(())
    }

    fn check_reachability(&self) -> Result<(), GraphError> {
        let mut reached: HashSet<GraphNode> = HashSet::new();
        let mut stack = vec![GraphNode::Source];
        while let Some(node) = stack.pop() {
            if !reached.insert(node) {
                continue;
            }
            if let Some(edges) = self.edges.get(&node) {
                for edge in edges {
                    stack.push(edge.to);
                }
            }
        }
        for id in self.services.keys() {
            if !reached.contains(&GraphNode::Service(*id)) {
                return Err(GraphError::Unreachable(*id));
            }
        }
        Ok(())
    }

    /// Detects maximal runs of consecutive read-only services that can
    /// safely process the same packet in parallel (paper §3.3).
    ///
    /// A run `[S1, …, Sk]` qualifies when every member is read-only, each of
    /// `S1..S(k-1)` has exactly one outgoing edge (to the next member), and
    /// each of `S2..Sk` has exactly one incoming edge (from the previous
    /// member). Only runs of length ≥ 2 are returned.
    pub fn parallel_segments(&self) -> Vec<Vec<ServiceId>> {
        let mut segments = Vec::new();
        let mut consumed: HashSet<ServiceId> = HashSet::new();
        for id in self.services.keys() {
            if consumed.contains(id) || !self.is_read_only(*id) {
                continue;
            }
            // Only start a segment at a service that is not itself the
            // continuation of an earlier eligible run.
            if self.extends_backward(*id) {
                continue;
            }
            let mut run = vec![*id];
            let mut current = *id;
            loop {
                let succs = self.successors(GraphNode::Service(current));
                if succs.len() != 1 {
                    break;
                }
                let next = match succs[0] {
                    GraphNode::Service(next) if self.is_read_only(next) => next,
                    _ => break,
                };
                if self.predecessors(GraphNode::Service(next)).len() != 1 {
                    break;
                }
                run.push(next);
                current = next;
            }
            if run.len() >= 2 {
                consumed.extend(run.iter().copied());
                segments.push(run);
            }
        }
        segments
    }

    /// Returns `true` if `id` would be the continuation (not the head) of a
    /// parallelizable run.
    fn extends_backward(&self, id: ServiceId) -> bool {
        let preds = self.predecessors(GraphNode::Service(id));
        if preds.len() != 1 {
            return false;
        }
        match preds[0] {
            GraphNode::Service(prev) => {
                self.is_read_only(prev) && self.successors(GraphNode::Service(prev)).len() == 1
            }
            _ => false,
        }
    }

    /// Compiles the graph into the extended flow rules installed into an NF
    /// Manager's table (paper §3.3 "NF Manager Flow Tables").
    pub fn compile(&self, options: &CompileOptions) -> Vec<FlowRule> {
        let is_local = |id: ServiceId| {
            options
                .local_services
                .as_ref()
                .map(|set| set.contains(&id))
                .unwrap_or(true)
        };
        let to_action = |node: GraphNode| match node {
            GraphNode::Service(id) if is_local(id) => Action::ToService(id),
            GraphNode::Service(_) => Action::ToPort(options.external_port),
            GraphNode::Sink => Action::ToPort(options.egress_port),
            GraphNode::Source => Action::Drop,
        };

        let segments = if options.enable_parallel {
            self.parallel_segments()
        } else {
            Vec::new()
        };
        let segment_for_head = |id: ServiceId| segments.iter().find(|seg| seg[0] == id);

        // Given a node's ordered successors, produce the action list and
        // parallel flag, substituting a parallel dispatch when the sole
        // successor heads an eligible, fully-local segment.
        let actions_for = |node: GraphNode| -> (Vec<Action>, bool) {
            let succs = self.successors(node);
            if succs.len() == 1 {
                if let GraphNode::Service(head) = succs[0] {
                    if let Some(segment) = segment_for_head(head) {
                        if segment.iter().all(|id| is_local(*id)) {
                            return (
                                segment.iter().map(|id| Action::ToService(*id)).collect(),
                                true,
                            );
                        }
                    }
                }
            }
            (succs.into_iter().map(to_action).collect(), false)
        };

        let mut rules = Vec::new();
        // Ingress rules: NIC port -> first service(s).
        let (source_actions, source_parallel) = actions_for(GraphNode::Source);
        for port in &options.ingress_ports {
            let matcher = FlowMatch::at_step(RulePort::Nic(*port));
            let rule = if source_parallel {
                FlowRule::parallel(matcher, source_actions.clone())
            } else {
                FlowRule::new(matcher, source_actions.clone())
            };
            rules.push(rule.with_priority(options.priority));
        }
        // Per-service rules for local services.
        for id in self.services.keys().filter(|id| is_local(**id)) {
            let (actions, parallel) = actions_for(GraphNode::Service(*id));
            let matcher = FlowMatch::at_step(RulePort::Service(*id));
            let rule = if parallel {
                FlowRule::parallel(matcher, actions)
            } else {
                FlowRule::new(matcher, actions)
            };
            rules.push(rule.with_priority(options.priority));
        }
        rules
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Source -> A -> B -> Sink with an A -> Sink escape edge.
    fn simple_graph() -> (ServiceGraph, ServiceId, ServiceId) {
        let mut b = ServiceGraph::builder("simple");
        let a = b.add_service("a", true);
        let bee = b.add_service("b", false);
        b.add_default_edge(GraphNode::Source, a);
        b.add_default_edge(a, bee);
        b.add_edge(a, GraphNode::Sink);
        b.add_default_edge(bee, GraphNode::Sink);
        (b.build().unwrap(), a, bee)
    }

    #[test]
    fn build_and_query() {
        let (g, a, bee) = simple_graph();
        assert_eq!(g.name(), "simple");
        assert_eq!(g.len(), 2);
        assert!(!g.is_empty());
        assert_eq!(g.service(a).unwrap().name, "a");
        assert_eq!(g.service_by_name("b").unwrap().id, bee);
        assert!(g.is_read_only(a));
        assert!(!g.is_read_only(bee));
        assert_eq!(
            g.default_successor(GraphNode::Source),
            Some(GraphNode::Service(a))
        );
        assert_eq!(
            g.successors(a),
            vec![GraphNode::Service(bee), GraphNode::Sink]
        );
        assert_eq!(g.predecessors(bee), vec![GraphNode::Service(a)]);
        assert_eq!(g.default_path(), vec![a, bee]);
    }

    #[test]
    fn validation_rejects_cycles() {
        let mut b = ServiceGraph::builder("cyclic");
        let x = b.add_service("x", false);
        let y = b.add_service("y", false);
        b.add_default_edge(GraphNode::Source, x);
        b.add_default_edge(x, y);
        b.add_default_edge(y, x);
        assert!(matches!(b.build(), Err(GraphError::Cycle(_))));
    }

    #[test]
    fn validation_rejects_dead_ends_and_missing_defaults() {
        let mut b = ServiceGraph::builder("dead-end");
        let x = b.add_service("x", false);
        b.add_default_edge(GraphNode::Source, x);
        assert_eq!(b.build(), Err(GraphError::DeadEnd(x)));

        let mut b = ServiceGraph::builder("no-default");
        let x = b.add_service("x", false);
        b.add_default_edge(GraphNode::Source, x);
        b.add_edge(x, GraphNode::Sink); // non-default only
        assert!(matches!(
            b.build(),
            Err(GraphError::DefaultEdgeCount { count: 0, .. })
        ));

        let mut b = ServiceGraph::builder("empty");
        let _ = b.add_service("x", false);
        assert!(matches!(b.build(), Err(GraphError::EmptySource)));
    }

    #[test]
    fn validation_rejects_unreachable_and_unknown() {
        let mut b = ServiceGraph::builder("unreachable");
        let x = b.add_service("x", false);
        let y = b.add_service("y", false);
        b.add_default_edge(GraphNode::Source, x);
        b.add_default_edge(x, GraphNode::Sink);
        b.add_default_edge(y, GraphNode::Sink);
        assert_eq!(b.build(), Err(GraphError::Unreachable(y)));

        let mut b = ServiceGraph::builder("unknown");
        let x = b.add_service("x", false);
        b.add_default_edge(GraphNode::Source, x);
        b.add_default_edge(x, ServiceId::new(99));
        assert_eq!(
            b.build(),
            Err(GraphError::UnknownService(ServiceId::new(99)))
        );
    }

    #[test]
    fn builder_rejects_structural_mistakes() {
        let mut b = ServiceGraph::builder("bad-endpoint");
        let x = b.add_service("x", false);
        b.add_default_edge(GraphNode::Sink, x);
        assert!(matches!(b.build(), Err(GraphError::InvalidEndpoint(_))));

        let mut b = ServiceGraph::builder("dup-edge");
        let x = b.add_service("x", false);
        b.add_default_edge(GraphNode::Source, x);
        b.add_edge(GraphNode::Source, x);
        assert!(matches!(b.build(), Err(GraphError::DuplicateEdge(_, _))));

        let mut b = ServiceGraph::builder("dup-service");
        b.add_service_with_id(ServiceId::new(1), "x", false);
        b.add_service_with_id(ServiceId::new(1), "y", false);
        assert!(matches!(b.build(), Err(GraphError::DuplicateService(_))));
    }

    #[test]
    fn parallel_segment_detection() {
        // Source -> A(ro) -> B(ro) -> C(ro, multi-out) -> Sink
        //                                     \-> D(rw) -> Sink
        let mut b = ServiceGraph::builder("parallel");
        let a = b.add_service("a", true);
        let bee = b.add_service("b", true);
        let c = b.add_service("c", true);
        let d = b.add_service("d", false);
        b.add_default_edge(GraphNode::Source, a);
        b.add_default_edge(a, bee);
        b.add_default_edge(bee, c);
        b.add_default_edge(c, GraphNode::Sink);
        b.add_edge(c, d);
        b.add_default_edge(d, GraphNode::Sink);
        let g = b.build().unwrap();
        let segments = g.parallel_segments();
        assert_eq!(segments, vec![vec![a, bee, c]]);
    }

    #[test]
    fn parallel_segments_require_read_only_and_single_edges() {
        let (g, _, _) = simple_graph();
        // "a" is read-only but has two out-edges; "b" is not read-only.
        assert!(g.parallel_segments().is_empty());
    }

    #[test]
    fn compile_sequential_rules() {
        let (g, a, bee) = simple_graph();
        let rules = g.compile(&CompileOptions {
            ingress_ports: vec![0],
            egress_port: 7,
            ..CompileOptions::default()
        });
        // 1 ingress rule + 2 service rules.
        assert_eq!(rules.len(), 3);
        let ingress = &rules[0];
        assert_eq!(ingress.matcher.step, Some(RulePort::Nic(0)));
        assert_eq!(ingress.default_action(), Some(Action::ToService(a)));
        let rule_a = rules
            .iter()
            .find(|r| r.matcher.step == Some(RulePort::Service(a)))
            .unwrap();
        assert_eq!(
            rule_a.actions,
            vec![Action::ToService(bee), Action::ToPort(7)]
        );
        assert!(!rule_a.parallel);
        let rule_b = rules
            .iter()
            .find(|r| r.matcher.step == Some(RulePort::Service(bee)))
            .unwrap();
        assert_eq!(rule_b.actions, vec![Action::ToPort(7)]);
    }

    #[test]
    fn compile_parallel_rules() {
        let mut b = ServiceGraph::builder("par");
        let a = b.add_service("a", true);
        let bee = b.add_service("b", true);
        b.add_default_edge(GraphNode::Source, a);
        b.add_default_edge(a, bee);
        b.add_default_edge(bee, GraphNode::Sink);
        let g = b.build().unwrap();
        let rules = g.compile(&CompileOptions {
            enable_parallel: true,
            ..CompileOptions::default()
        });
        let ingress = rules
            .iter()
            .find(|r| r.matcher.step == Some(RulePort::Nic(0)))
            .unwrap();
        assert!(ingress.parallel);
        assert_eq!(
            ingress.actions,
            vec![Action::ToService(a), Action::ToService(bee)]
        );
        // Without parallelism the same graph compiles sequentially.
        let rules = g.compile(&CompileOptions::default());
        let ingress = rules
            .iter()
            .find(|r| r.matcher.step == Some(RulePort::Nic(0)))
            .unwrap();
        assert!(!ingress.parallel);
        assert_eq!(ingress.actions, vec![Action::ToService(a)]);
    }

    #[test]
    fn compile_projects_remote_services_to_external_port() {
        let (g, a, bee) = simple_graph();
        let mut local = HashSet::new();
        local.insert(a);
        let rules = g.compile(&CompileOptions {
            local_services: Some(local),
            external_port: 9,
            egress_port: 1,
            ..CompileOptions::default()
        });
        // Ingress + rule for "a" only.
        assert_eq!(rules.len(), 2);
        let rule_a = rules
            .iter()
            .find(|r| r.matcher.step == Some(RulePort::Service(a)))
            .unwrap();
        // "b" is remote, so the default action forwards out the external port.
        assert_eq!(rule_a.default_action(), Some(Action::ToPort(9)));
        assert!(rules
            .iter()
            .all(|r| r.matcher.step != Some(RulePort::Service(bee))));
    }
}
