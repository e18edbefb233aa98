//! Cross-version pin on the controller's numerics: seeded search outcomes
//! and trained controller weights, recorded in a golden file.
//!
//! The other identity gates compare two paths of the *same* build
//! (telemetry on vs off, resumed vs uninterrupted, sharded vs
//! single-process), so a change that perturbed a driver's arithmetic in
//! every path at once would pass all of them.  This file pins absolute
//! results instead: for every builtin scenario and every algorithm, a
//! digest of the seeded event stream plus a readable
//! best/explored/compliant line, and the exact weight bits of a controller
//! after 200 sample/feedback rounds.  Any drift in sampling, the REINFORCE
//! update, the optimizer or a baseline's loop shows up here as a changed
//! line.
//!
//! Regenerate after an intentional numeric change with:
//!
//! ```text
//! NASAIC_UPDATE_GOLDEN=1 cargo test --test controller_outcomes
//! ```

use nasaic::core::prelude::*;
use nasaic::core::scenario::value;
use nasaic::rl::{Controller, ControllerConfig};
use nasaic::tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

const GOLDEN_PATH: &str = "tests/golden/controller_outcomes.txt";

/// Episodes per pinned search: long enough for the controller to train
/// through hundreds of updates, short enough for a debug-profile test.
const EPISODES: usize = 40;
const SEED: u64 = 2020;
const CONTROLLER_ROUNDS: usize = 200;

/// 64-bit FNV-1a, a fixed and dependency-free digest.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn matrix(&mut self, m: &Matrix) {
        for v in m.as_slice() {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

fn search_line(name: &str, algorithm: Algorithm) -> String {
    let mut scenario = registry::get(name).expect("built-in scenario");
    scenario.seed = SEED;
    scenario.search.episodes = EPISODES;
    scenario.search.algorithm = algorithm;
    let engine = scenario.engine_with_config(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    let recorder = RecordingObserver::new();
    let outcome = scenario.run_algorithm_observed(algorithm, &engine, &recorder);
    let events = recorder.events();
    let mut digest = Fnv::new();
    for event in &events {
        digest.bytes(value::to_json_compact(&event.to_value()).as_bytes());
        digest.bytes(b"\n");
    }
    let best = match &outcome.best {
        Some(best) => format!(
            "{:016x} ({:.6}) ep{} {}",
            best.evaluation.weighted_accuracy.to_bits(),
            best.evaluation.weighted_accuracy,
            best.episode,
            best.candidate.summary()
        ),
        None => "none".to_string(),
    };
    format!(
        "{name} {algorithm} events={} digest={:016x} explored={} compliant={} best={best}",
        events.len(),
        digest.0,
        outcome.explored.len(),
        outcome.spec_compliant().count(),
    )
}

fn controller_line() -> String {
    let scenario = registry::get("w1").expect("built-in scenario");
    let segments = scenario
        .workload()
        .controller_segments(&scenario.hardware_space());
    let mut controller = Controller::new(segments, ControllerConfig::default(), SEED);
    let mut rng = StdRng::seed_from_u64(SEED);
    for round in 0..CONTROLLER_ROUNDS {
        let sample = controller.sample(&mut rng);
        // A reward that depends on the sampled actions, so the updates
        // pull the policy somewhere rather than averaging out.
        let score: usize = sample.actions.iter().sum();
        let reward = ((score + round) % 11) as f64 / 10.0;
        controller.feedback(&sample, reward);
    }
    let state = controller.export_state();
    let policy = &state.policy;
    let mut weights = Fnv::new();
    for m in [&policy.w_x, &policy.w_h, &policy.b] {
        weights.matrix(m);
    }
    for (u, c) in &policy.heads {
        weights.matrix(u);
        weights.matrix(c);
    }
    let mut accumulators = Fnv::new();
    let caches = policy
        .opt_cell
        .iter()
        .chain(policy.opt_heads.iter().flat_map(|(u, c)| [u, c]));
    for cache in caches {
        accumulators.matrix(cache.as_ref().expect("every parameter was updated"));
    }
    format!(
        "controller w1 rounds={CONTROLLER_ROUNDS} weights={:016x} rmsprop={:016x} \
         baseline={:016x} greedy={:?}",
        weights.0,
        accumulators.0,
        state.trainer.baseline.expect("trained").to_bits(),
        controller.greedy().actions
    )
}

#[test]
fn seeded_outcomes_and_controller_weights_match_the_golden_pin() {
    let mut actual = Vec::new();
    for name in registry::names() {
        for algorithm in Algorithm::all() {
            actual.push(search_line(name, algorithm));
        }
    }
    actual.push(controller_line());
    let actual_text = actual.join("\n") + "\n";

    if std::env::var_os("NASAIC_UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &actual_text).expect("write golden file");
        return;
    }

    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden file exists");
    let golden_lines: Vec<&str> = golden.lines().collect();
    assert_eq!(
        golden_lines.len(),
        actual.len(),
        "golden file has {} lines, the run produced {}",
        golden_lines.len(),
        actual.len()
    );
    for (got, want) in actual.iter().zip(&golden_lines) {
        assert_eq!(
            got, want,
            "seeded outcome drifted from the golden pin — regenerate with \
             NASAIC_UPDATE_GOLDEN=1 only if the numeric change is intended"
        );
    }
}
