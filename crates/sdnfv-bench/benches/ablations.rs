//! Ablation bench for the division heuristic's sub-problem size. (The
//! flow-lookup cache and the replica-pick policy are no longer knobs: the
//! engine always caches, and always picks a flow's replica by its hash.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sdnfv_placement::{DivisionSolver, PlacementProblem, PlacementSolver};
use std::hint::black_box;

fn bench_division_group_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_division_size");
    group.sample_size(10);
    let problem = PlacementProblem::paper_figure5(20, 1.0, 16631);
    for group_size in [2usize, 5, 10] {
        let solver = DivisionSolver {
            group_size,
            ..DivisionSolver::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(group_size), &(), |b, _| {
            b.iter(|| black_box(solver.solve(&problem)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_division_group_size);
criterion_main!(benches);
