//! Property-test net over checkpoint/resume on *generated* scenarios: for
//! every algorithm, a checkpoint taken at any snapshot point, serialized
//! to JSON, parsed back and resumed to the full budget must land on a
//! bit-identical [`SearchOutcome`] — the builtin-scenario gates in
//! `checkpoint_resume.rs`, extended across the generator's space.
//!
//! A second net mutates mid-run checkpoints of every algorithm (a dropped
//! key, a value of another kind, a cut string, a reshaped matrix, a
//! longer or shorter array, another algorithm, seed or progress): every
//! resume must return a report or an error, never panic.

use nasaic::core::prelude::*;
use nasaic::core::scenario::generate::GeneratorSpec;
use nasaic::core::scenario::value::ConfigValue;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rand::{Rng, RngCore};
use std::sync::OnceLock;

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

/// Two mid-run checkpoints (a third and two thirds of the way) of every
/// algorithm on a shrunk w1, each checked to resume bit-identically.  For
/// the successive baselines they fall in different phases.
fn mid_run_checkpoints() -> &'static [(Scenario, SearchCheckpoint)] {
    static CHECKPOINTS: OnceLock<Vec<(Scenario, SearchCheckpoint)>> = OnceLock::new();
    CHECKPOINTS.get_or_init(|| {
        let mut scenario = registry::get("w1").expect("built-in");
        scenario.search.episodes = 3;
        scenario.search.hardware_trials = 2;
        scenario.search.bound_samples = 3;
        scenario.seed = 7;
        let mut picked = Vec::new();
        for algorithm in Algorithm::all() {
            scenario.search.algorithm = algorithm;
            let sink = RecordingCheckpointSink::every(1);
            let baseline = scenario.run_algorithm_checkpointed(
                algorithm,
                &scenario.engine(),
                &NullObserver,
                None,
                &sink,
            );
            let checkpoints = sink.checkpoints();
            for index in [checkpoints.len() / 3, checkpoints.len() * 2 / 3] {
                let checkpoint = SearchCheckpoint::parse_json(&checkpoints[index].to_json())
                    .expect("checkpoint JSON round trip");
                let resumed = scenario.run_algorithm_checkpointed(
                    algorithm,
                    &scenario.engine(),
                    &NullObserver,
                    Some(&checkpoint),
                    &NullCheckpointSink,
                );
                assert_eq!(
                    baseline, resumed,
                    "{algorithm}: the unmutated checkpoint at progress {} diverged",
                    checkpoint.progress
                );
                picked.push((scenario.clone(), checkpoint));
            }
        }
        picked
    })
}

/// A corruption of each state field a driver decodes on its own, beyond
/// the envelope, the RNG, the controller and the records.
#[test]
fn corrupt_driver_state_is_rejected_before_the_run() {
    type Corrupt = fn(&mut Vec<ConfigValue>);
    // (driver, a state field its checkpoint has, the array to corrupt,
    // the corruption, the reason's words)
    #[rustfmt::skip]
    let cases: [(Algorithm, &str, &[&str], Corrupt, &str); 8] = [
        (Algorithm::Evolutionary, "population", &["population"],
         |genomes| genomes[0] = ConfigValue::Array(Vec::new()), "does not fit"),
        (Algorithm::Evolutionary, "fitness", &["fitness"],
         |fitness| drop(fitness.pop()), "does not fit"),
        (Algorithm::HillClimb, "arch_indices", &["arch_indices"],
         |tasks| drop(tasks.pop()), "does not fit the search space"),
        (Algorithm::HillClimb, "hw_indices", &["hw_indices"],
         |indices| indices.push(ConfigValue::Integer(99)), "does not fit the search space"),
        (Algorithm::AsicThenHwNas, "accelerator", &["accelerator"],
         Vec::clear, "no sub-accelerators"),
        (Algorithm::AsicThenHwNas, "accelerator", &["accelerator"],
         |subs| subs.push(subs[0].clone()), "does not fit the hardware space"),
        (Algorithm::NasThenAsic, "best", &["best", "values"],
         Vec::clear, "checkpoint.state.best.values: "),
        (Algorithm::NasThenAsic, "outcome", &["done"],
         |done| done.push(done[0].clone()), "3 architectures for 2 tasks"),
    ];
    for (algorithm, has, keys, corrupt, reason) in cases {
        let (scenario, checkpoint) = mid_run_checkpoints()
            .iter()
            .find(|(scenario, checkpoint)| {
                scenario.search.algorithm == algorithm && checkpoint.state.get(has).is_some()
            })
            .expect("a mid-run checkpoint with that field");
        let mut value = checkpoint.to_value();
        let path: Vec<Step> = std::iter::once("state")
            .chain(keys.iter().copied())
            .map(|key| Step::Key(key.to_string()))
            .collect();
        let ConfigValue::Array(items) = node(&mut value, &path) else {
            panic!("{keys:?} is an array");
        };
        corrupt(items);
        let corrupted = SearchCheckpoint::from_value(&value).expect("the envelope parses");
        let error = scenario
            .run_report_checkpointed(
                algorithm,
                &scenario.engine(),
                &NullObserver,
                Some(&corrupted),
                &NullCheckpointSink,
            )
            .expect_err("a corrupt state must be rejected");
        assert!(
            error.to_string().contains(reason),
            "{algorithm} {keys:?}: {error}"
        );
    }
}

/// One step into a value tree: a table key or an array index.
#[derive(Debug, Clone)]
enum Step {
    Key(String),
    Index(usize),
}

/// The path of every node in `value`, the root's included, descending
/// into the first two items of each array only: the rest repeat their
/// shape (records, heads, key words), and would drown the state's nodes.
fn paths(value: &ConfigValue, prefix: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    out.push(prefix.clone());
    let children: Vec<(Step, &ConfigValue)> = match value {
        ConfigValue::Table(entries) => entries
            .iter()
            .map(|(key, child)| (Step::Key(key.clone()), child))
            .collect(),
        ConfigValue::Array(items) => items
            .iter()
            .take(2)
            .enumerate()
            .map(|(index, child)| (Step::Index(index), child))
            .collect(),
        _ => Vec::new(),
    };
    for (step, child) in children {
        prefix.push(step);
        paths(child, prefix, out);
        prefix.pop();
    }
}

fn node<'a>(value: &'a mut ConfigValue, path: &[Step]) -> &'a mut ConfigValue {
    path.iter().fold(value, |node, step| match (node, step) {
        (ConfigValue::Table(entries), Step::Key(key)) => {
            &mut entries
                .iter_mut()
                .find(|(k, _)| k == key)
                .expect("a path's key")
                .1
        }
        (ConfigValue::Array(items), Step::Index(index)) => &mut items[*index],
        _ => unreachable!("a path leads through tables and arrays"),
    })
}

/// Apply mutation `kind` to the `pick`-th node it applies to; `None` when
/// no node qualifies, else whether the resume must be rejected.
fn mutate(checkpoint: &mut ConfigValue, kind: usize, pick: u64) -> Option<bool> {
    let mut all = Vec::new();
    paths(checkpoint, &mut Vec::new(), &mut all);
    let at = |path: &Vec<Step>| {
        let mut copy = checkpoint.clone();
        node(&mut copy, path).clone()
    };
    let eligible: Vec<Vec<Step>> = all
        .into_iter()
        .filter(|path| match kind {
            0 => matches!(path.last(), Some(Step::Key(_))),
            1 => !path.is_empty(),
            2 => matches!(at(path), ConfigValue::Str(text) if !text.is_empty()),
            3 => at(path).get("rows").is_some(),
            4 => matches!(at(path), ConfigValue::Array(items) if !items.is_empty()),
            _ => path.len() == 1 && matches!(&path[0], Step::Key(key) if ["algorithm", "seed", "progress"].contains(&key.as_str())),
        })
        .collect();
    if eligible.is_empty() {
        return None;
    }
    let path = &eligible[(pick % eligible.len() as u64) as usize];
    // Which variant of the mutation: 0, 1 or 2.
    let variant = pick / eligible.len() as u64 % 3;
    let odd = variant == 1;
    if kind == 0 {
        let (parent, Step::Key(key)) = (&path[..path.len() - 1], &path[path.len() - 1]) else {
            unreachable!("a key path");
        };
        node(checkpoint, parent).remove(key);
        return Some(false);
    }
    let target = node(checkpoint, path);
    let mut must_fail = false;
    *target = match (kind, target.clone()) {
        (1, ConfigValue::Str(_)) => ConfigValue::Integer(7),
        (1, ConfigValue::Table(_)) => ConfigValue::Array(Vec::new()),
        (1, ConfigValue::Array(_)) => ConfigValue::table(),
        (1, ConfigValue::Bool(_)) => ConfigValue::Float(0.5),
        (1, _) => ConfigValue::Str("x".to_string()),
        (2, ConfigValue::Str(text)) => {
            ConfigValue::Str(text[..if odd { text.len() - 1 } else { text.len() / 2 }].to_string())
        }
        (3, mut matrix) => {
            let (rows, cols) = (matrix.get("rows").cloned(), matrix.get("cols").cloned());
            match (odd, rows, cols) {
                (true, Some(rows), Some(cols)) => {
                    matrix.insert("rows", cols);
                    matrix.insert("cols", rows);
                }
                (_, Some(ConfigValue::Integer(rows)), _) => {
                    matrix.insert("rows", ConfigValue::Integer(rows + 1))
                }
                _ => {}
            }
            matrix
        }
        (4, ConfigValue::Array(mut items)) => {
            match variant {
                0 => items.push(items[0].clone()),
                1 => drop(items.pop()),
                _ => items.clear(),
            }
            ConfigValue::Array(items)
        }
        (_, ConfigValue::Str(algorithm)) => {
            must_fail = true;
            let other = if algorithm == "nasaic" {
                "monte-carlo"
            } else {
                "nasaic"
            };
            ConfigValue::Str(other.to_string())
        }
        (_, ConfigValue::Integer(value)) if matches!(&path[0], Step::Key(key) if key == "seed") => {
            must_fail = true;
            ConfigValue::Integer(value ^ 1)
        }
        (_, ConfigValue::Integer(progress)) => ConfigValue::Integer(if odd {
            progress.saturating_mul(7)
        } else {
            progress - 1
        }),
        (_, other) => other,
    };
    Some(must_fail)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A mutated mid-run checkpoint of any algorithm resumes to a report
    /// or is rejected with an error; it never panics.  Another algorithm
    /// or seed is always rejected.
    #[test]
    fn mutated_checkpoints_resume_or_fail_but_never_panic(
        base in 0..12usize,
        kind in 0..6usize,
        pick in any::<u64>(),
    ) {
        let (scenario, checkpoint) = &mid_run_checkpoints()[base];
        let mut value = checkpoint.to_value();
        if let Some(must_fail) = mutate(&mut value, kind, pick) {
            let resumed = SearchCheckpoint::from_value(&value)
                .map_err(SearchError::from)
                .and_then(|mutated| {
                    scenario.run_report_checkpointed(
                        scenario.search.algorithm,
                        &scenario.engine(),
                        &NullObserver,
                        Some(&mutated),
                        &NullCheckpointSink,
                    )
                });
            prop_assert!(
                !must_fail || resumed.is_err(),
                "{}: mutation {kind} at pick {pick} resumed",
                scenario.search.algorithm
            );
        }
    }
}
