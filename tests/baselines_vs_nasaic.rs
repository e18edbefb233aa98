//! Comparative behaviour of NASAIC and its baselines on the paper's
//! workloads (shape checks at quick scale).

use nasaic::core::baselines::nas_then_asic::least_violating;
use nasaic::core::baselines::{HillClimb, MonteCarloSearch, NasThenAsic};
use nasaic::core::prelude::*;

/// Run `driver` on paper workload `id` under its specs, over the paper's
/// hardware space and a fresh engine.
fn run_paper(driver: &dyn SearchAlgorithm, id: WorkloadId) -> SearchOutcome {
    let workload = Workload::for_id(id);
    let specs = DesignSpecs::for_workload(id);
    let hardware = HardwareSpace::paper_default(2);
    let engine = EvalEngine::new(Evaluator::new(&workload, specs, AccuracyOracle::default()));
    driver.run(&SearchContext::new(
        &workload,
        specs,
        &hardware,
        &engine,
        0,
        Budget::new(0, 0),
    ))
}

#[test]
fn nasaic_beats_the_smallest_network_baseline_on_w3() {
    let workload = Workload::w3();
    let specs = DesignSpecs::for_workload(WorkloadId::W3);
    let evaluator = Evaluator::new(&workload, specs, AccuracyOracle::default());
    let smallest: Vec<_> = workload
        .tasks
        .iter()
        .map(|t| t.backbone.smallest_architecture())
        .collect();
    let lower = evaluator.weighted_accuracy(&evaluator.accuracies(&smallest));

    let outcome = run_paper(&Nasaic::fast_demo(55), WorkloadId::W3);
    let best = outcome.best.expect("NASAIC finds a compliant W3 solution");
    assert!(best.evaluation.weighted_accuracy > lower + 0.02);
}

#[test]
fn nas_then_asic_never_produces_a_compliant_w2_solution() {
    // W2 pairs CIFAR-10 with STL-10; the accuracy-optimal STL-10 network is
    // enormous, so successive optimisation has no chance of fitting the
    // specs regardless of the hardware sweep.
    let specs = DesignSpecs::for_workload(WorkloadId::W2);
    let outcome = run_paper(&NasThenAsic::fast(5), WorkloadId::W2);
    assert!(outcome.best.is_none());
    let representative = least_violating(&outcome, &specs).expect("sweep ran");
    assert!(!representative.evaluation.meets_specs());
}

#[test]
fn guided_search_is_more_sample_efficient_than_random_search_on_w3() {
    let nasaic = run_paper(&Nasaic::fast_demo(77), WorkloadId::W3);
    let nasaic_evaluations = nasaic.explored.len().max(1);
    let random = MonteCarloSearch {
        runs: nasaic_evaluations,
        seed: 77,
    };
    let random = run_paper(&random, WorkloadId::W3);

    let nasaic_best = nasaic.best_weighted_accuracy();
    let random_best = random.best_weighted_accuracy();
    match (nasaic_best, random_best) {
        // With the same evaluation budget the guided search should not be
        // meaningfully worse than blind sampling (and usually is better).
        (Some(n), Some(r)) => assert!(n >= r - 0.02, "NASAIC {n} vs random {r}"),
        (Some(_), None) => {}
        (None, _) => panic!("NASAIC found no compliant solution on W3"),
    }
}

#[test]
fn hill_climbing_finds_a_compliant_solution_but_rl_matches_or_beats_it() {
    let climb = run_paper(&HillClimb::new(15), WorkloadId::W3);
    let nasaic = run_paper(&Nasaic::fast_demo(88), WorkloadId::W3);

    let climb_best = climb.best_weighted_accuracy();
    let nasaic_best = nasaic
        .best_weighted_accuracy()
        .expect("NASAIC compliant solution");
    if let Some(c) = climb_best {
        assert!(
            nasaic_best >= c - 0.03,
            "NASAIC ({nasaic_best}) fell well behind hill climbing ({c})"
        );
    }
}
