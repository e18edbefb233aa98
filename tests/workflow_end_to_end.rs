//! End-to-end workflow test: the full NASAIC pipeline through the public
//! facade crate, from workload definition to a spec-compliant co-designed
//! solution.

use nasaic::core::prelude::*;

/// A built-in paper scenario at `Nasaic::fast_demo`'s budget.
fn fast_demo(name: &str, seed: u64) -> Scenario {
    let mut scenario = registry::get(name).expect("built-in scenario");
    let demo = Nasaic::fast_demo(seed);
    scenario.seed = seed;
    scenario.search.episodes = demo.episodes;
    scenario.search.hardware_trials = demo.hardware_trials;
    scenario.search.bound_samples = demo.bound_samples;
    scenario
}

#[test]
fn w1_co_exploration_end_to_end() {
    let workload = Workload::w1();
    let specs = DesignSpecs::for_workload(WorkloadId::W1);
    let outcome = fast_demo("w1", 2024).run_outcome();

    // The search ran to completion and found compliant solutions.
    assert_eq!(outcome.episodes, Nasaic::fast_demo(2024).episodes);
    let best = outcome
        .best
        .as_ref()
        .expect("a spec-compliant solution exists");

    // The best solution is internally consistent.
    assert_eq!(best.candidate.architectures.len(), workload.num_tasks());
    assert!(best.candidate.accelerator.has_capacity());
    assert!(best.evaluation.meets_specs());
    assert!(best.evaluation.metrics.latency_cycles <= specs.latency_cycles);
    assert!(best.evaluation.metrics.energy_nj <= specs.energy_nj);
    assert!(best.evaluation.metrics.area_um2 <= specs.area_um2);

    // The accelerator respects the resource budget of the paper.
    assert!(best
        .candidate
        .accelerator
        .is_within(&ResourceBudget::paper()));

    // Re-evaluating the best candidate from scratch gives the same result
    // (the whole pipeline is deterministic given the candidate).
    let evaluator = Evaluator::new(&workload, specs, AccuracyOracle::default());
    let re_evaluated = evaluator.evaluate(&best.candidate);
    assert_eq!(re_evaluated.accuracies, best.evaluation.accuracies);
    assert!(re_evaluated.meets_specs());
}

#[test]
fn w2_co_exploration_improves_over_smallest_networks() {
    let workload = Workload::w2();
    let specs = DesignSpecs::for_workload(WorkloadId::W2);
    let evaluator = Evaluator::new(&workload, specs, AccuracyOracle::default());
    let smallest: Vec<_> = workload
        .tasks
        .iter()
        .map(|t| t.backbone.smallest_architecture())
        .collect();
    let lower_bound = evaluator.weighted_accuracy(&evaluator.accuracies(&smallest));

    // W2 is the hardest workload for spec compliance (random STL-10
    // architectures are huge), so give the quick run a larger episode
    // budget than the other workloads.
    let mut scenario = fast_demo("w2", 2020);
    scenario.search.episodes = 200;
    scenario.search.hardware_trials = 6;
    let outcome = scenario.run_outcome();
    let best = outcome.best.expect("W2 search finds a compliant solution");
    assert!(
        best.evaluation.weighted_accuracy > lower_bound,
        "search did not improve over the smallest networks: {} vs {}",
        best.evaluation.weighted_accuracy,
        lower_bound
    );
}

#[test]
fn every_reported_solution_satisfies_the_specs() {
    // The paper's first observation on Fig. 6: NASAIC guarantees that all
    // explored (reported) solutions meet the design specs.
    let outcome = fast_demo("w3", 99).run_outcome();
    let compliant: Vec<&ExploredSolution> = outcome.spec_compliant().collect();
    assert!(compliant.iter().all(|s| s.evaluation.meets_specs()));
    // And the best is the compliant solution of highest weighted accuracy
    // (the first one, on a tie).
    let best = outcome
        .best
        .as_ref()
        .expect("W3 search finds a compliant solution");
    let first_max = compliant.iter().fold(compliant[0], |max, &s| {
        if s.evaluation.weighted_accuracy > max.evaluation.weighted_accuracy {
            s
        } else {
            max
        }
    });
    assert_eq!(best, first_max);
}

#[test]
fn facade_reexports_are_usable_together() {
    // Smoke-test that the sub-crates compose through the facade: build a
    // candidate manually and run both evaluation paths.
    use nasaic::accel::{Accelerator, Dataflow, SubAccelerator};
    use nasaic::cost::CostModel;
    use nasaic::nn::backbone::Backbone;
    use nasaic::sched::{solve_heuristic, HapProblem};

    let arch = Backbone::ResNet9Cifar10.materialize_values(&[16, 64, 1, 128, 1, 128, 1]);
    let accelerator = Accelerator::new(vec![
        SubAccelerator::new(Dataflow::Nvdla, 1536, 32),
        SubAccelerator::new(Dataflow::Shidiannao, 1024, 16),
    ]);
    let model = CostModel::paper_calibrated();
    let costs =
        nasaic::cost::WorkloadCosts::build(&model, std::slice::from_ref(&arch), &accelerator);
    let solution = solve_heuristic(&HapProblem::new(costs, 1.0e6));
    assert!(solution.feasible);
    assert!(solution.energy_nj > 0.0);
    assert!(model.area_um2(&accelerator) > 0.0);
}
