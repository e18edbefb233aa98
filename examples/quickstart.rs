//! Quickstart: co-explore neural architectures and a heterogeneous ASIC
//! accelerator for the paper's W1 workload (CIFAR-10 classification +
//! Nuclei segmentation) under the paper's design specs.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use nasaic::core::prelude::*;

fn main() {
    // 1. Pick a workload and its design specs (Section V-A of the paper),
    //    the hardware space (two sub-accelerators sharing the paper's
    //    resource budget) and an evaluation engine.
    let workload = Workload::w1();
    let specs = DesignSpecs::for_workload(WorkloadId::W1);
    let hardware = HardwareSpace::paper_default(2);
    let engine = EvalEngine::new(Evaluator::new(&workload, specs, AccuracyOracle::default()));
    println!("workload: {workload}");
    println!("specs:    {specs}");

    // 2. Configure the search.  `fast_demo` keeps the run to a few seconds;
    //    `Nasaic::paper(seed)` reproduces the paper's 500-episode run.
    let search = Nasaic::fast_demo(42);
    println!(
        "search:   {} episodes x (1 joint + {} hardware-only) steps, rho = {}",
        search.episodes, search.hardware_trials, search.rho
    );

    // 3. Run NASAIC over a context bundling the run inputs.
    let budget = Budget::new(search.episodes, search.hardware_trials);
    let ctx = SearchContext::new(&workload, specs, &hardware, &engine, search.seed, budget);
    let outcome = search.run(&ctx);
    println!("\n{outcome}\n");

    // 4. Inspect the best solution.
    match &outcome.best {
        Some(best) => {
            println!(
                "accelerator:  {}",
                best.candidate.accelerator.paper_notation()
            );
            for (arch, acc) in best
                .candidate
                .architectures
                .iter()
                .zip(&best.evaluation.accuracies)
            {
                println!(
                    "  network {} {} -> {:.2}%",
                    arch.name,
                    arch.hyperparameter_string(),
                    acc * 100.0
                );
            }
            println!("hardware:     {}", best.evaluation.metrics);
            println!(
                "all design specs satisfied: {}",
                best.evaluation.meets_specs()
            );
        }
        None => println!("no spec-compliant solution found — increase the episode budget"),
    }
}
