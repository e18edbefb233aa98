//! Micro-benchmarks of the incremental scheduling engine against the
//! retained naive baselines: delta-evaluated vs clone-and-resimulate
//! heuristic, reused-scratch vs allocating simulation, checkpointed trial
//! replay, and the bound-tightened exact solver.
//!
//! The committed perf trajectory (`BENCH_sched.json`) is produced by the
//! `nasaic-bench sched` over the same instances
//! (`nasaic_bench::sched_instances`).

use criterion::{criterion_group, criterion_main, Criterion};
use nasaic_bench::sched_instances::{realistic_problem, tiny_problem, w1_problem};
use nasaic_sched::problem::Assignment;
use nasaic_sched::schedule::simulate;
use nasaic_sched::{solve_exact, solve_heuristic, solve_heuristic_reference, Simulator};
use std::hint::black_box;

fn bench_sched(c: &mut Criterion) {
    let problem = w1_problem();
    let assignment = Assignment::uniform(&problem.costs, 0);
    let mut group = c.benchmark_group("sched");

    // The headline pair: one full `solve_heuristic` on a W1-sized
    // instance, naive vs incremental.
    group.bench_function("heuristic_w1_reference", |b| {
        b.iter(|| black_box(solve_heuristic_reference(black_box(&problem))))
    });
    group.bench_function("heuristic_w1_incremental", |b| {
        b.iter(|| black_box(solve_heuristic(black_box(&problem))))
    });

    // One full simulation: fresh allocations vs reused scratch.
    group.bench_function("simulate_w1_naive", |b| {
        b.iter(|| black_box(simulate(black_box(&problem), black_box(&assignment))))
    });
    group.bench_function("simulate_w1_scratch", |b| {
        let mut sim = Simulator::new(&problem);
        b.iter(|| black_box(sim.makespan(black_box(&assignment))))
    });

    // One delta-evaluated trial move (checkpoint restore + suffix
    // re-dispatch) — the unit of work the greedy move loop pays per
    // candidate.
    group.bench_function("trial_move_w1", |b| {
        let mut sim = Simulator::new(&problem);
        let mut trial = assignment.clone();
        assert!(sim.prepare(&assignment).is_finite());
        let (n, l) = (1, problem.costs.networks[1].layers.len() / 2);
        let current = trial.sub_for(n, l);
        trial.set(n, l, 1 - current);
        b.iter(|| black_box(sim.trial_makespan(&trial, n, l, f64::INFINITY)))
    });

    group.sample_size(10);
    group.bench_function("exact_tiny", |b| {
        let tiny = tiny_problem();
        b.iter(|| black_box(solve_exact(black_box(&tiny))))
    });
    group.bench_function("exact_realistic_18_layers", |b| {
        let realistic = realistic_problem();
        b.iter(|| black_box(solve_exact(black_box(&realistic))))
    });
    group.finish();
}

criterion_group!(benches, bench_sched);
criterion_main!(benches);
