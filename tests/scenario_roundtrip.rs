//! Scenario-layer guarantees:
//!
//! 1. every built-in scenario round-trips losslessly through both config
//!    formats (TOML and JSON);
//! 2. the declarative `nasaic run --scenario w1` path is **bit-identical**
//!    to the same search over a hand-built context of the paper's
//!    constants (`Workload::w1()`, its specs, the paper's hardware space)
//!    for the same seed and budget;
//! 3. the beyond-paper scenarios actually run end to end.

use nasaic::core::prelude::*;
use nasaic::core::scenario::Scenario;

/// Shrink a scenario's budget to test scale (structure untouched).
fn tiny(mut scenario: Scenario, seed: u64) -> Scenario {
    scenario.search.episodes = 3;
    scenario.search.hardware_trials = 2;
    scenario.search.bound_samples = 4;
    scenario.seed = seed;
    scenario
}

/// The hardcoded path: `search` over a hand-built context of the paper's
/// constants for workload `id`, run through the trait.
fn hardcoded(id: WorkloadId, search: Nasaic) -> SearchOutcome {
    let workload = Workload::for_id(id);
    let specs = DesignSpecs::for_workload(id);
    let hardware = HardwareSpace::paper_default(2);
    let engine = EvalEngine::new(Evaluator::new(&workload, specs, AccuracyOracle::default()));
    let budget = Budget::new(search.episodes, search.hardware_trials);
    search.run(&SearchContext::new(
        &workload,
        specs,
        &hardware,
        &engine,
        search.seed,
        budget,
    ))
}

#[test]
fn every_builtin_round_trips_through_toml_and_json() {
    for name in registry::names() {
        let scenario = registry::get(name).unwrap();
        let from_toml = Scenario::from_toml_str(&scenario.to_toml_string())
            .unwrap_or_else(|e| panic!("{name} TOML: {e}"));
        assert_eq!(from_toml, scenario, "{name} TOML round trip");
        let from_json = Scenario::from_json_str(&scenario.to_json_string())
            .unwrap_or_else(|e| panic!("{name} JSON: {e}"));
        assert_eq!(from_json, scenario, "{name} JSON round trip");
    }
}

#[test]
fn scenario_w1_is_bit_identical_to_the_hardcoded_path() {
    let direct = hardcoded(WorkloadId::W1, Nasaic::fast_demo(7));

    // The declarative path: registry -> Scenario -> run.
    let mut scenario = registry::get("w1").unwrap();
    scenario.seed = 7;
    scenario.search.episodes = 40;
    scenario.search.hardware_trials = 4;
    scenario.search.bound_samples = 10;
    assert_eq!(
        Nasaic::from_search_spec(&scenario.search, scenario.seed),
        Nasaic::fast_demo(7)
    );
    let declarative = scenario.run_outcome();

    // Full structural equality: every explored candidate, every
    // evaluation, every reward — not just the headline number.
    assert_eq!(declarative, direct);

    // And once more through the TOML serializer, so the config-file path
    // (parse -> run) is covered end to end.
    let reparsed = Scenario::from_toml_str(&scenario.to_toml_string()).unwrap();
    assert_eq!(reparsed.run_outcome(), direct);
}

#[test]
fn scenario_w3_matches_hardcoded_path_at_test_scale() {
    let scenario = tiny(registry::get("w3").unwrap(), 13);
    let search = Nasaic {
        episodes: 3,
        hardware_trials: 2,
        bound_samples: 4,
        ..Nasaic::paper(13)
    };
    let direct = hardcoded(WorkloadId::W3, search);
    assert_eq!(scenario.run_outcome(), direct);
}

#[test]
fn beyond_paper_scenarios_run_end_to_end() {
    for name in [
        "quad-mix",
        "area-constrained",
        "edge-single",
        "dla-homogeneous",
    ] {
        let scenario = tiny(registry::get(name).unwrap(), 19);
        let outcome = scenario.run_outcome();
        assert_eq!(outcome.episodes, 3, "{name}");
        // Decoding must hold: every explored candidate carries one
        // architecture per task and respects the sub-accelerator count.
        for solution in &outcome.explored {
            assert_eq!(
                solution.candidate.architectures.len(),
                scenario.tasks.len(),
                "{name}"
            );
            assert_eq!(
                solution.candidate.accelerator.sub_accelerators().len(),
                scenario.hardware.sub_accelerators,
                "{name}"
            );
        }
    }
}

#[test]
fn homogeneous_scenario_replicates_the_sub_accelerator() {
    // NVDLA-only homogeneous hardware prunes heavily at tiny budgets, so
    // this check keeps the full phi = 10 hardware trials and a seed whose
    // episodes get past the pruner.
    let mut scenario = registry::get("dla-homogeneous").unwrap();
    scenario.search.episodes = 10;
    scenario.search.bound_samples = 4;
    scenario.seed = 5;
    let outcome = scenario.run_outcome();
    assert!(!outcome.explored.is_empty());
    for solution in &outcome.explored {
        let subs = solution.candidate.accelerator.sub_accelerators();
        assert_eq!(subs[0], subs[1], "homogeneous mode must replicate");
        assert_eq!(subs[0].dataflow, Dataflow::Nvdla);
    }
}

#[test]
fn seeded_scenario_runs_are_deterministic() {
    let a = tiny(registry::get("quad-mix").unwrap(), 29).run_outcome();
    let b = tiny(registry::get("quad-mix").unwrap(), 29).run_outcome();
    assert_eq!(a, b);
}
