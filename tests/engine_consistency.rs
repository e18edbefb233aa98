//! Engine-consistency suite: the cached, parallel [`EvalEngine`] must be an
//! *observationally invisible* optimisation — bit-identical `Evaluation`s
//! to direct `Evaluator` calls on every workload, cache hits on repeated
//! candidate streams, and unchanged search outcomes.

use nasaic::accel::HardwareSpace;
use nasaic::core::prelude::*;
use nasaic::core::scenario::value::ConfigValue;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The `state` of the last checkpoint `sink` recorded: the controller's
/// weights, RMSProp accumulators, baseline and update count, and the rng.
/// Outcome equality cannot see what pruned episodes and undecodable
/// samples fed the controller, since no record carries it; this does.
/// Compare states with `assert!`: a dump of one is ~200 KB.
fn last_state(sink: &RecordingCheckpointSink) -> ConfigValue {
    sink.checkpoints().pop().expect("the run checkpoints").state
}

fn random_candidates(workload: &Workload, count: usize, seed: u64) -> Vec<Candidate> {
    let hardware = HardwareSpace::paper_default(2);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let architectures = workload
                .tasks
                .iter()
                .map(|t| {
                    let space = t.backbone.search_space();
                    t.backbone
                        .materialize(&space.sample(&mut rng))
                        .expect("sampled indices are valid")
                })
                .collect();
            let accelerator = if i % 2 == 0 {
                hardware.sample(&mut rng)
            } else {
                hardware.sample_fully_allocated(&mut rng)
            };
            Candidate::from_parts(architectures, accelerator)
        })
        .collect()
}

#[test]
fn engine_is_bit_identical_to_direct_evaluation_on_all_workloads() {
    for (workload, id, seed) in [
        (Workload::w1(), WorkloadId::W1, 101),
        (Workload::w2(), WorkloadId::W2, 102),
        (Workload::w3(), WorkloadId::W3, 103),
    ] {
        let specs = DesignSpecs::for_workload(id);
        let evaluator = Evaluator::new(&workload, specs, AccuracyOracle::default());
        let engine = EvalEngine::new(evaluator.clone());
        let candidates = random_candidates(&workload, 20, seed);

        // Serial direct evaluation vs cold engine batch vs warm engine
        // batch: all three must agree to the bit (PartialEq on Evaluation
        // compares every f64 exactly).
        let direct: Vec<Evaluation> = candidates.iter().map(|c| evaluator.evaluate(c)).collect();
        let cold = engine.evaluate_batch(&candidates);
        let warm = engine.evaluate_batch(&candidates);
        assert_eq!(direct, cold, "{id}: cold engine diverged from evaluator");
        assert_eq!(direct, warm, "{id}: warm engine diverged from evaluator");

        // Hardware-only path agrees too.
        for candidate in &candidates {
            let (direct_metrics, direct_check) =
                evaluator.evaluate_hardware(&candidate.architectures, &candidate.accelerator);
            let (engine_metrics, engine_check) =
                engine.evaluate_hardware(&candidate.architectures, &candidate.accelerator);
            assert_eq!(direct_metrics, engine_metrics);
            assert_eq!(direct_check, engine_check);
        }

        // Accuracy path agrees element-wise.
        for candidate in &candidates {
            assert_eq!(
                evaluator.accuracies(&candidate.architectures),
                engine.accuracies(&candidate.architectures)
            );
        }
    }
}

#[test]
fn repeated_candidate_stream_hits_the_cache() {
    let workload = Workload::w3();
    let specs = DesignSpecs::for_workload(WorkloadId::W3);
    let engine = EvalEngine::new(Evaluator::new(&workload, specs, AccuracyOracle::default()));

    // An episode-like stream: 10 distinct candidates replayed 5 times.
    let distinct = random_candidates(&workload, 10, 202);
    for _ in 0..5 {
        engine.evaluate_batch(&distinct);
    }

    let stats = engine.stats();
    // 50 hardware queries, only 10 of them cold.
    assert_eq!(stats.hardware_misses, 10);
    assert_eq!(stats.hardware_hits, 40);
    // Per-task accuracy queries: 2 tasks x 10 candidates cold, the rest hot.
    assert_eq!(stats.accuracy_misses, 20);
    assert_eq!(stats.accuracy_hits, 80);
    // Overall hit rate of the replayed stream: 80%.
    assert!(
        stats.hit_rate() > 0.75,
        "hit rate {:.2} too low for a replayed stream",
        stats.hit_rate()
    );
}

#[test]
fn search_outcome_is_unchanged_by_engine_thread_count() {
    // The engine parallelises within an episode but the controller feedback
    // stays sequential, so the same seed must give the same outcome no
    // matter how the batch is scheduled: pin one run to a single worker and
    // one to many and compare everything.
    let workload = Workload::w3();
    let specs = DesignSpecs::for_workload(WorkloadId::W3);
    let hardware = HardwareSpace::paper_default(2);
    let search = Nasaic::fast_demo(5);
    let run = |config: EngineConfig| {
        let evaluator = Evaluator::new(&workload, specs, AccuracyOracle::default());
        let engine = EvalEngine::with_config(evaluator, config);
        let budget = Budget::new(search.episodes, search.hardware_trials);
        let ctx = SearchContext::new(&workload, specs, &hardware, &engine, search.seed, budget);
        let sink = RecordingCheckpointSink::every(search.episodes);
        let outcome = search.run_checkpointed(&ctx, None, &sink).unwrap();
        (outcome, last_state(&sink))
    };
    let (serial, serial_state) = run(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    let (parallel, parallel_state) = run(EngineConfig {
        threads: 8,
        ..EngineConfig::default()
    });
    assert_eq!(
        serial.best_weighted_accuracy(),
        parallel.best_weighted_accuracy()
    );
    assert_eq!(serial.explored.len(), parallel.explored.len());
    assert!(
        serial_state == parallel_state,
        "the controller state diverged"
    );
    // And against the auto-sized default.
    let (_, auto_state) = run(EngineConfig::default());
    assert!(auto_state == serial_state, "the controller state diverged");
}

#[test]
fn generated_scenarios_are_bit_identical_across_engine_thread_counts() {
    use nasaic::core::scenario::generate::GeneratorSpec;

    // Same GeneratorSpec seed => bit-identical scenario bytes.
    let spec = GeneratorSpec::sized(24, 2, 11);
    let first = spec.generate().unwrap();
    let second = spec.generate().unwrap();
    assert_eq!(first.scenario, second.scenario);
    assert_eq!(
        first.scenario.to_toml_string(),
        second.scenario.to_toml_string()
    );

    // ...and a bit-identical seeded search outcome no matter how the
    // engine schedules its evaluation batches (generated scenarios run
    // the auto scheduler policy, so this also covers the tiered solver).
    let mut scenario = first.scenario;
    scenario.search.episodes = 2;
    scenario.search.hardware_trials = 2;
    scenario.search.bound_samples = 4;
    let run = |threads: usize| {
        let evaluator = Evaluator::new(
            &scenario.workload(),
            scenario.specs,
            AccuracyOracle::default(),
        )
        .with_scheduler(scenario.search.scheduler);
        let engine = EvalEngine::with_config(
            evaluator,
            EngineConfig {
                threads,
                ..EngineConfig::default()
            },
        );
        let sink = RecordingCheckpointSink::every(1);
        let outcome = scenario.run_algorithm_checkpointed(
            scenario.search.algorithm,
            &engine,
            &NullObserver,
            None,
            &sink,
        );
        (outcome, last_state(&sink))
    };
    let (serial, serial_state) = run(1);
    let (parallel, parallel_state) = run(8);
    assert!(serial_state == parallel_state, "the driver state diverged");
    assert_eq!(
        serial.best_weighted_accuracy(),
        parallel.best_weighted_accuracy()
    );
    assert_eq!(serial.explored.len(), parallel.explored.len());
}

#[test]
fn baseline_outcome_is_unchanged_by_a_warm_shared_engine() {
    use nasaic::core::baselines::MonteCarloSearch;

    // Searches that share one engine (`nasaic compare`, the daemon, the
    // experiment harness) must see exactly what an isolated run sees: a
    // run answered from the caches equals the cold run.
    let workload = Workload::w3();
    let specs = DesignSpecs::for_workload(WorkloadId::W3);
    let hardware = HardwareSpace::paper_default(2);
    let mc = MonteCarloSearch { runs: 40, seed: 9 };
    let engine = EvalEngine::new(Evaluator::new(&workload, specs, AccuracyOracle::default()));
    let ctx = SearchContext::new(&workload, specs, &hardware, &engine, 9, Budget::new(40, 0));
    let cold = mc.run(&ctx);
    let misses = engine.stats().hardware_misses;
    let warm = mc.run(&ctx);
    assert_eq!(
        engine.stats().hardware_misses,
        misses,
        "the repeat run should be answered from the caches"
    );
    assert_eq!(cold, warm);
    assert_eq!(cold.explored.len(), 40);
}
