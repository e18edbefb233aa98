//! Property-test net over checkpoint/resume on *generated* scenarios: for
//! every algorithm, a checkpoint taken at any snapshot point, serialized
//! to JSON, parsed back and resumed to the full budget must land on a
//! bit-identical [`SearchOutcome`] — the builtin-scenario gates in
//! `checkpoint_resume.rs`, extended across the generator's space.

use nasaic::core::prelude::*;
use nasaic::core::scenario::generate::GeneratorSpec;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rand::{Rng, RngCore};

/// Strategy over small generated scenarios (always-generatable sized
/// specs, shrunk to test budgets).
struct ArbScenario;

impl Strategy for ArbScenario {
    type Value = Scenario;

    fn generate(&self, rng: &mut TestRng) -> Scenario {
        let total = rng.gen_range(9..30usize);
        let subs = rng.gen_range(1..4usize);
        let generated = GeneratorSpec::sized(total, subs, rng.next_u64())
            .generate()
            .expect("sized specs generate");
        let mut scenario = generated.scenario;
        scenario.search.episodes = rng.gen_range(1..3usize);
        scenario.search.hardware_trials = 2;
        scenario.search.bound_samples = 3;
        scenario.seed = rng.next_u64() >> 1; // config seeds are i64-bounded
        scenario
    }
}

fn arb_scenario() -> ArbScenario {
    ArbScenario
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Checkpoint -> JSON -> parse -> resume is outcome-preserving at
    /// *every* checkpoint index, for every algorithm.
    #[test]
    fn every_checkpoint_of_every_algorithm_resumes_bit_identically(
        scenario in arb_scenario()
    ) {
        let mut scenario = scenario;
        for algorithm in Algorithm::all() {
            scenario.search.algorithm = algorithm;
            let baseline = scenario.run_algorithm_with_engine(algorithm, &scenario.engine());

            let sink = RecordingCheckpointSink::every(1);
            let checkpointed = scenario.run_algorithm_checkpointed(
                algorithm,
                &scenario.engine(),
                &NullObserver,
                None,
                &sink,
            );
            prop_assert_eq!(
                &baseline,
                &checkpointed,
                "{}/{}: taking checkpoints changed the outcome",
                scenario.name,
                algorithm
            );

            for (index, checkpoint) in sink.checkpoints().iter().enumerate() {
                let parsed = SearchCheckpoint::parse_json(&checkpoint.to_json())
                    .expect("checkpoint JSON round trip");
                prop_assert_eq!(checkpoint, &parsed);
                let resumed = scenario.run_algorithm_checkpointed(
                    algorithm,
                    &scenario.engine(),
                    &NullObserver,
                    Some(&parsed),
                    &NullCheckpointSink,
                );
                prop_assert_eq!(
                    &baseline,
                    &resumed,
                    "{}/{}: resume from checkpoint {} (progress {}) diverged",
                    scenario.name,
                    algorithm,
                    index,
                    checkpoint.progress
                );
            }
        }
    }

    /// Merged shard partials reproduce the single-process outcome on
    /// generated scenarios, through the partials' JSON round trip.
    #[test]
    fn sharded_runs_merge_bit_identically(
        scenario in arb_scenario(),
        shards in 2usize..5,
    ) {
        let mut scenario = scenario;
        let workload = scenario.workload();
        for algorithm in Algorithm::all() {
            scenario.search.algorithm = algorithm;
            let baseline = scenario.run_algorithm_with_engine(algorithm, &scenario.engine());
            let plan = scenario.algorithm_shard_plan(algorithm, &scenario.engine(), shards);
            let partials: Vec<ShardPartial> = (0..shards)
                .map(|shard_index| {
                    let partial = scenario.run_algorithm_shard(
                        algorithm,
                        &scenario.engine(),
                        &NullObserver,
                        &plan,
                        shard_index,
                    );
                    ShardPartial::parse_json(&partial.to_json(), &workload)
                        .expect("shard partial JSON round trip")
                })
                .collect();
            let merged = scenario
                .merge_algorithm_shards(algorithm, &scenario.engine(), &plan, partials)
                .expect("shard partials of one run merge");
            prop_assert_eq!(
                &baseline,
                &merged,
                "{}/{}: {}-shard merge diverged",
                scenario.name,
                algorithm,
                shards
            );
        }
    }
}
