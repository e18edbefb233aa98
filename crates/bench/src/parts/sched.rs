//! `sched`: the incremental HAP solver against its retained naive
//! reference, on three fixed HAP instances.
//!
//! Gate: the incremental solver is bit-identical to the reference on every
//! instance across constraints, and the heuristic never beats the exact
//! solver.
//!
//! Timing: mean ns per solve over a time budget (1.5 s per item, 150 ms
//! under `--quick`), appended to `BENCH_sched.json`
//! (`"bench": "micro_sched"`).

use nasaic_accel::{Accelerator, Dataflow, SubAccelerator};
use nasaic_bench::{gate, round, Options};
use nasaic_core::scenario::value::ConfigValue::{Float, Str};
use nasaic_cost::{CostModel, WorkloadCosts};
use nasaic_nn::backbone::Backbone;
use nasaic_sched::schedule::simulate;
use nasaic_sched::{
    solve_exact, solve_exact_unseeded, solve_heuristic, solve_heuristic_reference, Assignment,
    HapProblem, Simulator,
};
use std::time::{Duration, Instant};

/// Mean nanoseconds per iteration of `routine` over a time budget
/// (small warm-up, then timed batches).
fn measure<T>(budget: Duration, mut routine: impl FnMut() -> T) -> f64 {
    let warmup = budget / 8;
    let start = Instant::now();
    let mut warmup_iters: u64 = 0;
    while start.elapsed() < warmup {
        std::hint::black_box(routine());
        warmup_iters += 1;
    }
    let per_iter = start.elapsed().as_secs_f64() / warmup_iters.max(1) as f64;
    let batch = ((0.02 / per_iter.max(1e-9)) as u64).clamp(1, 1 << 16);
    let mut total = Duration::ZERO;
    let mut iterations: u64 = 0;
    while total < budget {
        let t = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(routine());
        }
        total += t.elapsed();
        iterations += batch;
    }
    total.as_secs_f64() * 1e9 / iterations as f64
}

/// W1-sized instance: ResNet-9 + U-Net (39 layers) on a two-dataflow
/// accelerator under a tight latency constraint — the shape of the HAP
/// solve inside every NASAIC episode.
fn w1_problem() -> HapProblem {
    let model = CostModel::paper_calibrated();
    let archs = vec![
        Backbone::ResNet9Cifar10.materialize_values(&[32, 128, 2, 256, 2, 256, 2]),
        Backbone::UNetNuclei.materialize_values(&[4, 16, 32, 64, 128, 256]),
    ];
    let acc = Accelerator::new(vec![
        SubAccelerator::new(Dataflow::Nvdla, 2048, 32),
        SubAccelerator::new(Dataflow::Shidiannao, 2048, 32),
    ]);
    HapProblem::new(WorkloadCosts::build(&model, &archs, &acc), 8.0e5)
}

/// Paper-sized single network (18 layers) — within the raised
/// `EXACT_LAYER_LIMIT`, used for optimality-gap measurements.
fn realistic_problem() -> HapProblem {
    let model = CostModel::paper_calibrated();
    let archs = vec![Backbone::ResNet9Cifar10.materialize_values(&[32, 128, 2, 256, 2, 256, 2])];
    let acc = Accelerator::new(vec![
        SubAccelerator::new(Dataflow::Nvdla, 2048, 32),
        SubAccelerator::new(Dataflow::Shidiannao, 2048, 32),
    ]);
    HapProblem::new(WorkloadCosts::build(&model, &archs, &acc), 2.0e6)
}

/// The smallest ResNet-9 (9 layers) on a small two-dataflow design —
/// the historical exact-solver benchmark instance.
fn tiny_problem() -> HapProblem {
    let model = CostModel::paper_calibrated();
    let archs = vec![Backbone::ResNet9Cifar10.materialize_values(&[8, 32, 0, 32, 0, 32, 0])];
    let acc = Accelerator::new(vec![
        SubAccelerator::new(Dataflow::Nvdla, 1024, 16),
        SubAccelerator::new(Dataflow::Shidiannao, 1024, 16),
    ]);
    HapProblem::new(WorkloadCosts::build(&model, &archs, &acc), 1.0e6)
}

/// The consistency suite; returns the failures (empty = pass).
fn consistency_failures() -> Vec<String> {
    let mut failures = Vec::new();
    let instances: Vec<(&str, HapProblem)> = vec![
        ("w1", w1_problem()),
        ("realistic", realistic_problem()),
        ("tiny", tiny_problem()),
    ];
    for (name, base) in &instances {
        for factor in [0.5, 1.0, 4.0, 1e4] {
            let problem = HapProblem::new(base.costs.clone(), base.latency_constraint * factor);
            let incremental = solve_heuristic(&problem);
            let reference = solve_heuristic_reference(&problem);
            if incremental != reference {
                failures.push(format!(
                    "{name} x{factor}: incremental solver diverged from reference"
                ));
            }
        }
    }
    for (name, problem) in &instances[1..] {
        // The unseeded branch and bound never sees the heuristic's
        // solution, so this optimality check is independent.
        if let Some(exact) = solve_exact_unseeded(problem) {
            let heuristic = solve_heuristic(problem);
            if exact.feasible && heuristic.feasible && heuristic.energy_nj + 1e-6 < exact.energy_nj
            {
                failures.push(format!("{name}: heuristic beat the exact solver"));
            }
            if exact.feasible && exact.latency_cycles > problem.latency_constraint {
                failures.push(format!("{name}: exact solution violates the constraint"));
            }
        }
    }
    failures
}

pub fn run(options: &Options) {
    println!("== consistency suite ==");
    gate(
        "incremental == reference, heuristic never beats exact",
        consistency_failures(),
    );
    if options.check {
        return;
    }

    let budget = Duration::from_millis(if options.quick { 150 } else { 1500 });
    println!("== measurements (budget {:?} per item) ==", budget);
    let w1 = w1_problem();
    let reference_ns = measure(budget, || solve_heuristic_reference(&w1));
    let incremental_ns = measure(budget, || solve_heuristic(&w1));
    let speedup = reference_ns / incremental_ns;

    let assignment = Assignment::uniform(&w1.costs, 0);
    let simulate_ns = measure(budget / 2, || simulate(&w1, &assignment));
    let mut sim = Simulator::new(&w1);
    let simulator_makespan_ns = measure(budget / 2, || sim.makespan(&assignment));

    let realistic = realistic_problem();
    let exact_realistic_ns = measure(budget, || solve_exact(&realistic));

    println!("heuristic w1: reference {reference_ns:.0} ns, incremental {incremental_ns:.0} ns, speedup {speedup:.2}x");
    println!(
        "simulate w1: naive {simulate_ns:.0} ns, reused scratch {simulator_makespan_ns:.0} ns"
    );
    println!("exact (18 layers, bounded B&B): {exact_realistic_ns:.0} ns");

    options.record(vec![
        ("instance", Str("w1-39-layers".to_string())),
        ("heuristic_reference_ns", Float(reference_ns.round())),
        ("heuristic_incremental_ns", Float(incremental_ns.round())),
        ("speedup", Float(round(speedup, 2))),
        ("simulate_ns", Float(simulate_ns.round())),
        (
            "simulator_makespan_ns",
            Float(simulator_makespan_ns.round()),
        ),
        ("exact_realistic_ns", Float(exact_realistic_ns.round())),
    ]);
}
