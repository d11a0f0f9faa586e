//! Seeded property tests: every solver's output satisfies the MILP
//! constraints, and is deterministic, on problem instances drawn from an
//! in-file SplitMix64 with fixed seeds — a failure names its case and
//! replays exactly.

use sdnfv_flowtable::ServiceId;
use sdnfv_placement::model::{FlowSpec, PlacementProblem, ServiceSpec};
use sdnfv_placement::topology::Topology;
use sdnfv_placement::{DivisionSolver, GreedySolver, OptimalSolver, PlacementSolver};

const CASES: u64 = 48;

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `low..high`.
    fn between(&mut self, low: u64, high: u64) -> u64 {
        low + self.next() % (high - low)
    }
}

/// Problem `case`: a Rocketfuel-like topology of 6–13 nodes with 1–3
/// cores each, one chain of 1–3 services at 1–5 flows per core, and 1–11
/// flows over it.
fn problem(case: u64) -> PlacementProblem {
    let mut rng = SplitMix64(case);
    let nodes = rng.between(6, 14) as usize;
    let cores = rng.between(1, 4) as u32;
    let chain_len = rng.between(1, 4) as u32;
    let flow_count = rng.between(1, 12) as usize;
    let per_core = rng.between(1, 6) as u32;
    let seed = rng.between(1, 1000);
    let links = nodes + nodes / 2 + 2;
    let topology = Topology::rocketfuel_like(nodes, links, cores, 10.0, seed);
    let services: Vec<ServiceSpec> = (1..=chain_len)
        .map(|j| ServiceSpec::new(ServiceId::new(j), format!("s{j}"), per_core))
        .collect();
    let chain: Vec<ServiceId> = services.iter().map(|s| s.id).collect();
    let flows = (0..flow_count)
        .map(|id| FlowSpec {
            id,
            ingress: (id * 3 + seed as usize) % nodes,
            egress: (id * 5 + 1 + seed as usize) % nodes,
            bandwidth: 1.0,
            max_delay: 500.0,
            chain: chain.clone(),
        })
        .collect();
    PlacementProblem {
        topology,
        services,
        flows,
    }
}

fn solvers() -> Vec<Box<dyn PlacementSolver>> {
    vec![
        Box::new(GreedySolver),
        Box::new(OptimalSolver { max_passes: 2 }),
        Box::new(DivisionSolver {
            group_size: 3,
            passes_per_group: 1,
            packing_bucket: 0.2,
        }),
    ]
}

#[test]
fn solver_outputs_always_satisfy_constraints() {
    for case in 0..CASES {
        let problem = problem(case);
        for solver in solvers() {
            let placement = solver.solve(&problem);
            let name = solver.name();
            assert_eq!(
                placement.assignments.len(),
                problem.flows.len(),
                "{name}, case {case}"
            );
            if let Err(errors) = placement.validate(&problem) {
                panic!("{name}, case {case}: constraint violations {errors:?}");
            }
            // Every placed flow's utilization report is internally consistent.
            let report = placement.utilization(&problem);
            assert!(
                report.max_utilization >= report.max_link_utilization - 1e-12,
                "{name}, case {case}"
            );
            assert!(
                report.max_utilization >= report.max_core_utilization - 1e-12,
                "{name}, case {case}"
            );
            assert_eq!(
                report.placed_flows,
                placement.placed_flows(),
                "{name}, case {case}"
            );
        }
    }
}

/// The solvers are deterministic functions of the problem: running a
/// solver twice yields the identical placement (so the figure harness is
/// reproducible).
#[test]
fn placements_are_deterministic() {
    for case in 0..CASES {
        let problem = problem(case);
        for solver in solvers() {
            let a = solver.solve(&problem);
            let b = solver.solve(&problem);
            assert_eq!(a, b, "{} is not deterministic, case {case}", solver.name());
        }
    }
}
