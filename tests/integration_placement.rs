//! Placement engine integration: the paper's Figure 5 configuration solved
//! by all three algorithms, validated against the MILP constraints, and the
//! qualitative ordering of the algorithms.

use sdnfv::placement::{
    DivisionSolver, GreedySolver, OptimalSolver, PlacementProblem, PlacementSolver,
};

#[test]
fn all_solvers_satisfy_constraints_on_the_paper_topology() {
    let problem = PlacementProblem::paper_figure5(25, 1.0, 16631);
    for solver in [
        Box::new(GreedySolver) as Box<dyn PlacementSolver>,
        Box::new(OptimalSolver::default()),
        Box::new(DivisionSolver::default()),
    ] {
        let placement = solver.solve(&problem);
        placement
            .validate(&problem)
            .unwrap_or_else(|e| panic!("{} violated constraints: {e:?}", solver.name()));
        let report = placement.utilization(&problem);
        // Core capacity is never exceeded, so per-core utilization is <= 1.
        assert!(report.max_core_utilization <= 1.0 + 1e-9);
        assert!(report.placed_flows > 0);
    }
}

#[test]
fn optimal_objective_beats_greedy_when_both_place_everything() {
    let problem = PlacementProblem::paper_figure5(15, 1.0, 16631);
    let greedy = GreedySolver.solve(&problem);
    let optimal = OptimalSolver::default().solve(&problem);
    if greedy.placed_flows() == problem.flows.len() && optimal.placed_flows() == problem.flows.len()
    {
        let gr = greedy.utilization(&problem);
        let or = optimal.utilization(&problem);
        assert!(
            or.max_utilization <= gr.max_utilization + 1e-9,
            "optimal U={} should not exceed greedy U={}",
            or.max_utilization,
            gr.max_utilization
        );
    }
}

#[test]
fn division_heuristic_is_never_worse_than_greedy_and_scales_with_capacity() {
    // The paper reports the division heuristic fits ~85% of the flows the
    // fully-optimal solution accommodates. Our division implementation never
    // revisits committed sub-problems, so at the tightest capacity it tracks
    // the greedy baseline rather than the optimal solver;
    // what must hold is that it is never worse than greedy and that it
    // overtakes greedy once capacity is scaled up (the right-hand side of
    // Figure 5).
    let count_supported = |solver: &dyn PlacementSolver, scale: f64| {
        let mut supported = 0;
        for flows in (5..=120).step_by(5) {
            let problem = PlacementProblem::paper_figure5(flows, scale, 16631);
            if solver.solve(&problem).placed_flows() == flows {
                supported = flows;
            } else {
                break;
            }
        }
        supported
    };
    let greedy_1x = count_supported(&GreedySolver, 1.0);
    let division_1x = count_supported(&DivisionSolver::default(), 1.0);
    assert!(
        division_1x >= greedy_1x,
        "division {division_1x} < greedy {greedy_1x} at 1x"
    );
    let greedy_2x = count_supported(&GreedySolver, 2.0);
    let division_2x = count_supported(&DivisionSolver::default(), 2.0);
    assert!(
        division_2x > greedy_2x,
        "division {division_2x} should beat greedy {greedy_2x} at 2x capacity"
    );
}

#[test]
fn extra_capacity_increases_supported_flows() {
    let solver = DivisionSolver::default();
    let base = PlacementProblem::paper_figure5(60, 1.0, 16631);
    let scaled = PlacementProblem::paper_figure5(60, 4.0, 16631);
    let placed_base = solver.solve(&base).placed_flows();
    let placed_scaled = solver.solve(&scaled).placed_flows();
    assert!(
        placed_scaled >= placed_base,
        "4x capacity should not place fewer flows ({placed_scaled} vs {placed_base})"
    );
    assert_eq!(
        placed_scaled, 60,
        "with 4x capacity all 60 flows should fit"
    );
}
