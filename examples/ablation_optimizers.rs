//! Ablation study: alternative optimizers on the NASAIC reward, and the
//! effect of the optimizer selector's hardware-only exploration steps.
//!
//! The paper's Section IV notes that other optimizers (e.g. evolutionary
//! algorithms) can drive the same reward, and introduces the optimizer
//! selector (`phi` hardware-only steps per episode) to amortise the cost of
//! training.  This example compares, under a matched evaluation budget:
//!
//! * the RL controller (NASAIC, `phi = 4`),
//! * the RL controller without hardware-only steps (`phi = 0`),
//! * the evolutionary-algorithm optimizer,
//! * joint Monte-Carlo random search,
//! * greedy hill climbing,
//!
//! and reports the best spec-compliant weighted accuracy each one reaches
//! on workload W3.
//!
//! ```text
//! cargo run --release --example ablation_optimizers
//! ```

use nasaic::core::baselines::{EvolutionarySearch, HillClimb, MonteCarloSearch};
use nasaic::core::prelude::*;

fn report_line(name: &str, best: Option<f64>, evaluations: usize) {
    match best {
        Some(acc) => println!(
            "  {name:<28} best weighted accuracy {:>6.2}%  ({evaluations} evaluations)",
            acc * 100.0
        ),
        None => println!("  {name:<28} no spec-compliant solution ({evaluations} evaluations)"),
    }
}

fn main() {
    let seed = 2020;
    let workload = Workload::w3();
    let specs = DesignSpecs::for_workload(WorkloadId::W3);
    // One shared engine across the whole ablation: engine caching is
    // observationally invisible, so each optimizer's outcome is identical
    // to an isolated run while revisited candidates are paid for once.
    let engine = EvalEngine::new(Evaluator::new(&workload, specs, AccuracyOracle::default()));
    let hardware = HardwareSpace::paper_default(2);
    let ctx = SearchContext::new(
        &workload,
        specs,
        &hardware,
        &engine,
        seed,
        Budget::new(60, 4),
    );

    println!("=== Ablation: optimizers on the NASAIC reward (workload W3) ===");

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

    let climb = HillClimb::new(20).run(&ctx);
    report_line(
        "hill climbing",
        climb.best_weighted_accuracy(),
        climb.explored.len(),
    );
}
