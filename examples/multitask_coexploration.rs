//! Multi-task co-exploration on AR-glasses style workloads.
//!
//! The paper motivates NASAIC with edge devices (AR glasses) that run
//! several AI tasks concurrently — e.g. image classification and
//! segmentation — on one heterogeneous ASIC.  This example runs the
//! co-exploration for all three paper workloads and prints a Fig. 6 style
//! summary per workload: how many spec-compliant solutions were explored,
//! the accuracy lower bound of the smallest networks, and the best solution.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example multitask_coexploration [episodes]
//! ```

use nasaic::core::experiments::fig6;
use nasaic::core::experiments::ExperimentScale;
use nasaic::core::prelude::*;

fn main() {
    let episodes_override: Option<usize> = std::env::args().nth(1).and_then(|v| v.parse().ok());
    let scale = ExperimentScale::Quick;

    for (workload_id, seed) in [
        (WorkloadId::W1, 101_u64),
        (WorkloadId::W2, 202),
        (WorkloadId::W3, 303),
    ] {
        let panel = if let Some(episodes) = episodes_override {
            // Custom episode budget: run the search directly.
            let workload = Workload::for_id(workload_id);
            let specs = DesignSpecs::for_workload(workload_id);
            let hardware = HardwareSpace::paper_default(2);
            let engine =
                EvalEngine::new(Evaluator::new(&workload, specs, AccuracyOracle::default()));
            let search = Nasaic {
                episodes,
                ..Nasaic::paper(seed)
            };
            let budget = Budget::new(episodes, search.hardware_trials);
            let ctx = SearchContext::new(&workload, specs, &hardware, &engine, seed, budget);
            let outcome = search.run(&ctx);
            println!("== {workload_id}: {outcome}");
            println!();
            continue;
        } else {
            fig6::run_panel(workload_id, scale, seed)
        };
        println!("{panel}");
        if let Some(best) = &panel.best {
            println!(
                "  -> best solution uses {} and reaches {:?}",
                best.label,
                best.accuracies
                    .iter()
                    .map(|a| format!("{:.2}%", a * 100.0))
                    .collect::<Vec<_>>()
            );
        }
        println!(
            "  -> every reported solution satisfies the specs: {}",
            panel.all_explored_meet_specs()
        );
        println!();
    }
}
