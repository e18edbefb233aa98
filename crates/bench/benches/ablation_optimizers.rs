//! Ablation study: alternative optimizers on the NASAIC reward, and the
//! effect of the optimizer selector's hardware-only exploration steps.
//!
//! The paper's Section IV notes that other optimizers (e.g. evolutionary
//! algorithms) can drive the same reward, and introduces the optimizer
//! selector (`phi` hardware-only steps per episode) to amortise the cost of
//! training.  This bench compares, under a matched evaluation budget:
//!
//! * the RL controller (NASAIC, `phi = 4`),
//! * the RL controller without hardware-only steps (`phi = 0`),
//! * the evolutionary-algorithm optimizer,
//! * joint Monte-Carlo random search,
//! * greedy hill climbing,
//!
//! and reports the best spec-compliant weighted accuracy each one reaches
//! on workload W3.

use criterion::{criterion_group, criterion_main, Criterion};
use nasaic_bench::seed_from_env;
use nasaic_core::baselines::{EvolutionarySearch, HillClimb, MonteCarloSearch};
use nasaic_core::prelude::*;
use std::hint::black_box;

fn report_line(name: &str, best: Option<f64>, evaluations: usize) {
    match best {
        Some(acc) => println!(
            "  {name:<28} best weighted accuracy {:>6.2}%  ({evaluations} evaluations)",
            acc * 100.0
        ),
        None => println!("  {name:<28} no spec-compliant solution ({evaluations} evaluations)"),
    }
}

fn regenerate_and_bench(c: &mut Criterion) {
    let seed = seed_from_env();
    let workload = Workload::w3();
    let specs = DesignSpecs::for_workload(WorkloadId::W3);
    let evaluator = Evaluator::new(&workload, specs, AccuracyOracle::default());
    // One shared engine across the whole ablation: engine caching is
    // observationally invisible, so each optimizer's outcome is identical
    // to an isolated run while revisited candidates are paid for once.
    let engine = EvalEngine::from(&evaluator);
    let hardware = HardwareSpace::paper_default(2);
    let ctx = SearchContext::new(
        &workload,
        specs,
        &hardware,
        &engine,
        seed,
        Budget::new(60, 4),
    );

    println!("\n=== Ablation: optimizers on the NASAIC reward (workload W3) ===");

    // NASAIC with the optimizer selector.
    let with_selector = Nasaic {
        episodes: 60,
        hardware_trials: 4,
        ..Nasaic::paper(seed)
    }
    .run(&ctx);
    report_line(
        "RL controller (phi = 4)",
        with_selector.best_weighted_accuracy(),
        with_selector.explored.len(),
    );

    // NASAIC without hardware-only steps (phi = 0).
    let without_selector = Nasaic {
        episodes: 60,
        hardware_trials: 0,
        ..Nasaic::paper(seed)
    }
    .run(&ctx);
    report_line(
        "RL controller (phi = 0)",
        without_selector.best_weighted_accuracy(),
        without_selector.explored.len(),
    );

    // Evolutionary algorithm.
    let evolutionary = EvolutionarySearch {
        population: 25,
        generations: 12,
        ..EvolutionarySearch::fast(seed)
    }
    .run(&ctx);
    report_line(
        "evolutionary algorithm",
        evolutionary.best_weighted_accuracy(),
        evolutionary.explored.len(),
    );

    // Joint Monte-Carlo random search with a matched budget.
    let budget = with_selector.explored.len().max(60);
    let random = MonteCarloSearch { runs: budget, seed }.run(&ctx);
    report_line(
        "random search",
        random.best_weighted_accuracy(),
        random.explored.len(),
    );

    // Greedy hill climbing.
    let climb = HillClimb::new(20).run(&ctx);
    report_line(
        "hill climbing",
        climb.best_weighted_accuracy(),
        climb.explored.len(),
    );

    // Criterion measurement: one evolutionary generation as the timed unit.
    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);
    group.bench_function("evolutionary_generation_w3", |b| {
        b.iter(|| {
            let config = EvolutionarySearch {
                population: 10,
                generations: 1,
                ..EvolutionarySearch::fast(seed)
            };
            let engine = EvalEngine::from(&evaluator);
            let ctx = SearchContext::new(&workload, specs, &hardware, &engine, seed, ctx.budget);
            black_box(config.run(&ctx).explored.len())
        })
    });
    group.finish();
}

criterion_group!(benches, regenerate_and_bench);
criterion_main!(benches);
