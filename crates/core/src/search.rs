//! The NASAIC search loop.
//!
//! Ties together the controller (component ①), the optimizer selector
//! (component ②) and the evaluator (component ③) exactly as in Fig. 4 of
//! the paper: the controller predicts architectures and hardware
//! allocations, the evaluator produces accuracy and hardware cost, and the
//! reward of Eq. 4 updates the controller.
//!
//! The optimizer selector is the shape of an episode.  It controls two
//! switches, `S_A` (architecture exploration) and `S_H` (hardware
//! exploration): each of the `beta` episodes takes one step with both
//! closed — a fresh set of architectures and a hardware design — then
//! `phi` steps with `S_A` open, which keep the episode's architectures
//! and explore only hardware designs.  Because hardware evaluation is much
//! cheaper than training, the selector also prunes early: when none of
//! the episode's `1 + phi` hardware designs can meet the specs, the
//! accuracy evaluation ("training") of its architectures is skipped.

use crate::algorithm::{SearchAlgorithm, SearchContext, SearchError, SearchEvent};
use crate::bounds::PenaltyBounds;
use crate::candidate::Candidate;
use crate::checkpoint::{self, CheckpointSink, SearchCheckpoint};
use crate::log::{ExploredSolution, SearchOutcome};
use crate::penalty::Penalty;
use crate::reward::Reward;
use crate::scenario::value::ConfigValue;
use crate::scenario::SearchSpec;
use crate::workload::Workload;
use nasaic_accel::{Accelerator, HardwareSpace};
use nasaic_nn::space::DecodeError;
use nasaic_rl::{Controller, ControllerConfig, ControllerSample, Segment};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// The NASAIC co-exploration search and its configuration.  It runs
/// through [`SearchAlgorithm`] over a [`SearchContext`]'s workload, specs,
/// hardware space and engine (see the crate-level quickstart).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Nasaic {
    /// Number of episodes `beta`.
    pub episodes: usize,
    /// Hardware-only exploration steps per episode `phi`.
    pub hardware_trials: usize,
    /// Penalty scaling `rho` of Eq. 4.
    pub rho: f64,
    /// When `true`, the controller predicts a single sub-accelerator
    /// configuration that is replicated across all sub-accelerators
    /// (the homogeneous study of Table II).
    pub homogeneous: bool,
    /// When `true` (default), hardware-only exploration steps keep the
    /// weighted accuracy of the episode's (fixed) architectures in their
    /// reward, so the joint and hardware-only rewards share one scale and
    /// the shared REINFORCE baseline stays meaningful.  Set to `false` for
    /// the literal paper behaviour (hardware-only steps ignore accuracy).
    pub accuracy_in_hardware_reward: bool,
    /// Random hardware samples used to estimate the penalty bounds.
    pub bound_samples: usize,
    /// RNG seed (controller initialisation and sampling).
    pub seed: u64,
}

impl Nasaic {
    /// The paper's configuration: `beta = 500` episodes, `phi = 10`
    /// hardware designs per episode, `rho = 10`.
    pub fn paper(seed: u64) -> Self {
        Self {
            episodes: 500,
            hardware_trials: 10,
            rho: 10.0,
            homogeneous: false,
            accuracy_in_hardware_reward: true,
            bound_samples: 50,
            seed,
        }
    }

    /// A configuration small enough for unit tests and doc examples
    /// (a couple of seconds), with the same structure as the paper run.
    pub fn fast_demo(seed: u64) -> Self {
        Self {
            episodes: 40,
            hardware_trials: 4,
            bound_samples: 10,
            ..Self::paper(seed)
        }
    }

    /// The search a scenario's [`SearchSpec`] declares, with `seed` (what
    /// [`Algorithm::instantiate`] returns for [`Algorithm::Nasaic`]).
    ///
    /// [`Algorithm::instantiate`]: crate::scenario::Algorithm::instantiate
    /// [`Algorithm::Nasaic`]: crate::scenario::Algorithm::Nasaic
    pub fn from_search_spec(spec: &SearchSpec, seed: u64) -> Self {
        Self {
            episodes: spec.episodes,
            hardware_trials: spec.hardware_trials,
            rho: spec.rho,
            homogeneous: spec.homogeneous,
            accuracy_in_hardware_reward: spec.accuracy_in_hardware_reward,
            bound_samples: spec.bound_samples,
            seed,
        }
    }

    fn controller_segments(
        &self,
        workload: &Workload,
        hardware: &HardwareSpace,
    ) -> Vec<nasaic_rl::Segment> {
        if self.homogeneous {
            // One architecture segment per task + a single hardware segment
            // that is replicated over all sub-accelerators at decode time.
            let single_sub = HardwareSpace::paper_default(1)
                .with_budget(*hardware.budget())
                .with_dataflows(hardware.allowed_dataflows().to_vec());
            workload.controller_segments(&single_sub)
        } else {
            workload.controller_segments(hardware)
        }
    }

    /// Decode a step's accelerator from its hardware choices, the tail of
    /// its flat sample.  In homogeneous mode the controller predicts a
    /// single sub-accelerator, whose choices are repeated once per
    /// sub-accelerator, so both modes decode through one path.
    fn decode_accelerator(
        &self,
        hardware: &HardwareSpace,
        choices: &[usize],
    ) -> Result<Accelerator, DecodeError> {
        if self.homogeneous {
            hardware.decode(&choices.repeat(hardware.num_sub_accelerators()))
        } else {
            hardware.decode(choices)
        }
    }
}

impl SearchAlgorithm for Nasaic {
    fn name(&self) -> &str {
        "nasaic"
    }

    /// Run the episode loop over the context's workload/specs/hardware
    /// through its engine.  The search hyperparameters (including budget
    /// and seed) come from this instance; the context's `seed`/`budget`
    /// fields are descriptive (see
    /// [`Algorithm::instantiate`](crate::scenario::Algorithm::instantiate)).
    ///
    /// Each episode's `1 + φ` candidates are evaluated concurrently through
    /// the [`EvalEngine`](crate::engine::EvalEngine) (hardware metrics in
    /// one parallel batch, accuracy memoised across the episode's shared
    /// architectures and across episodes); controller feedback stays
    /// strictly sequential, so a run is bit-deterministic for a seed
    /// regardless of thread count.  Observation is passive: the outcome is
    /// bit-identical with any observer.
    ///
    /// Checkpoints fire per completed episode with state `{rng,
    /// controller, outcome}`, which a resume decodes before any engine
    /// work; the penalty bounds are re-derived (a deterministic function
    /// of the configuration and the engine's pure evaluations), and the
    /// controller is rebuilt from its configuration before its weights,
    /// optimizer accumulators and trainer counters are restored.
    ///
    /// The search stays on the sequential shard fallback: the controller
    /// learns from every episode's reward before sampling the next one, so
    /// episodes cannot be strided across workers without changing the
    /// policy trajectory.
    fn run_checkpointed(
        &self,
        ctx: &SearchContext<'_>,
        resume: Option<&SearchCheckpoint>,
        sink: &dyn CheckpointSink,
    ) -> Result<SearchOutcome, SearchError> {
        let (workload, specs, hardware, engine) =
            (ctx.workload, &ctx.specs, ctx.hardware, ctx.engine);
        let observer = ctx.observer();
        let mut controller = Controller::new(
            self.controller_segments(workload, hardware),
            ControllerConfig::default(),
            self.seed,
        );
        let (mut rng, mut outcome, start_episode) = match resume {
            Some(cp) => {
                let progress = cp.progress_for("nasaic", self.seed, self.episodes)?;
                let rng = cp.rng()?;
                cp.restore_controller(&mut controller)?;
                (rng, cp.restore_outcome(workload)?, progress)
            }
            None => (
                StdRng::seed_from_u64(self.seed ^ 0x00c0_ffee),
                SearchOutcome::empty(),
                0,
            ),
        };
        let mut run = ctx.start(self.name(), self.seed, sink);
        let bounds = PenaltyBounds::estimate_with_engine(
            workload,
            hardware,
            engine,
            specs,
            self.bound_samples,
            self.seed,
        );
        // A sample holds every task's architecture choices, then the
        // hardware choices.
        let architecture_choices: usize = controller.segments()[..workload.num_tasks()]
            .iter()
            .map(Segment::len)
            .sum();

        for episode in start_episode..self.episodes {
            // Step 1: joint architecture + hardware prediction.
            let joint_sample = {
                let _span = crate::metrics::maybe_time(crate::metrics::controller_wall);
                controller.sample(&mut rng)
            };
            // Steps 2..=1 + phi: hardware-only predictions for the same
            // architectures (the architecture switch `S_A` open).
            let mut episode_samples: Vec<ControllerSample> = vec![joint_sample.clone()];
            for _ in 0..self.hardware_trials {
                let mut hw_sample = {
                    let _span = crate::metrics::maybe_time(crate::metrics::controller_wall);
                    controller.sample(&mut rng)
                };
                // Architecture switch open: reuse the joint step's
                // architecture decisions.
                hw_sample.actions[..architecture_choices]
                    .copy_from_slice(&joint_sample.actions[..architecture_choices]);
                episode_samples.push(hw_sample);
            }

            // Decode the episode: its architectures once, from the joint
            // sample, and each step's accelerator from its own hardware
            // choices.  An undecodable architecture leaves every step
            // without a candidate.
            let (architectures, candidates) = {
                let _span = crate::metrics::maybe_time(crate::metrics::candidate_decode_wall);
                let architectures =
                    Candidate::decode_architectures(workload, &joint_sample.actions)
                        .ok()
                        .map(|(architectures, _)| architectures);
                let candidates: Vec<Option<Candidate>> = episode_samples
                    .iter()
                    .map(|sample| {
                        let architectures = architectures.as_ref()?;
                        let hardware_choices = &sample.actions[architecture_choices..];
                        let accelerator =
                            self.decode_accelerator(hardware, hardware_choices).ok()?;
                        Some(Candidate::from_parts(architectures.clone(), accelerator))
                    })
                    .collect();
                (architectures, candidates)
            };
            // All of the episode's hardware designs are independent:
            // evaluate them as one parallel, cached batch.
            let hardware_evaluations = engine.evaluate_hardware_batch(&candidates);
            let any_meets_specs = hardware_evaluations
                .iter()
                .flatten()
                .any(|(_, check)| check.all());

            // Early pruning: skip the accuracy evaluation when no hardware
            // design of the episode can satisfy the specs.
            let accuracies = if any_meets_specs {
                architectures.as_ref().map(|archs| engine.accuracies(archs))
            } else {
                None
            };
            if accuracies.is_none() {
                outcome.pruned_episodes += 1;
            }
            let weighted = accuracies.as_ref().map(|a| engine.weighted_accuracy(a));

            let mut joint_reward = 0.0;
            for (step, (sample, candidate)) in episode_samples.iter().zip(candidates).enumerate() {
                let Some(candidate) = candidate else {
                    // Undecodable sample: strongly discourage it.
                    let _span = crate::metrics::maybe_time(crate::metrics::controller_wall);
                    controller.feedback(sample, -self.rho);
                    if step == 0 {
                        joint_reward = -self.rho;
                    }
                    continue;
                };
                let (metrics, _) = hardware_evaluations[step]
                    .expect("hardware evaluation exists for decodable candidates");
                let penalty = Penalty::compute(&metrics, specs, &bounds);
                let reward = match (step, &weighted) {
                    // Joint step with accuracy available: full Eq. 4 reward.
                    (0, Some(w)) => Reward::new(*w, &penalty, self.rho),
                    // Hardware-only steps: the paper ignores accuracy here;
                    // by default we keep the (fixed) architectures' accuracy
                    // in the reward so both step kinds share one scale.
                    (_, Some(w)) if self.accuracy_in_hardware_reward => {
                        Reward::new(*w, &penalty, self.rho)
                    }
                    (_, Some(_)) => Reward::hardware_only(&penalty, self.rho),
                    // Pruned episode: penalty-only signal for every step.
                    (_, None) => Reward::hardware_only(&penalty, self.rho),
                };
                {
                    let _span = crate::metrics::maybe_time(crate::metrics::controller_wall);
                    controller.feedback(sample, reward.value());
                }
                if step == 0 {
                    joint_reward = reward.value();
                }

                if let Some(accuracies) = &accuracies {
                    let evaluation = engine
                        .evaluator()
                        .assemble_evaluation(accuracies.clone(), metrics);
                    outcome.record_observed(
                        ExploredSolution {
                            episode,
                            candidate,
                            evaluation,
                            reward: reward.value(),
                        },
                        observer,
                    );
                }
            }
            outcome.episodes = episode + 1;
            observer.on_event(&SearchEvent::EpisodeEvaluated {
                episode,
                evaluations: episode_samples.len(),
                weighted_accuracy: weighted,
                any_compliant: any_meets_specs,
                reward: joint_reward,
                entropy: Some(joint_sample.mean_entropy),
                baseline: controller.baseline(),
            });
            run.checkpoint(episode + 1, &outcome.explored, || {
                let mut state = ConfigValue::table();
                state.insert("rng", checkpoint::rng_state_to_value(&rng.state()));
                state.insert(
                    "controller",
                    checkpoint::controller_state_to_value(&controller.export_state()),
                );
                state.insert("outcome", checkpoint::outcome_counters_to_value(&outcome));
                state
            })?;
        }
        Ok(run.finish(outcome))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::run_paper_workload;
    use crate::spec::WorkloadId;

    #[test]
    fn w1_search_finds_spec_compliant_solutions() {
        let outcome = run_paper_workload(&Nasaic::fast_demo(11), WorkloadId::W1);
        assert!(outcome.best.is_some(), "no compliant solution found");
        assert!(outcome.spec_compliant().next().is_some());
        assert_eq!(outcome.episodes, 40);
    }

    #[test]
    fn w3_search_finds_spec_compliant_solutions() {
        // W3's energy spec is the tightest of the three workloads, so give
        // this check a slightly larger episode budget than fast_demo.
        let search = Nasaic {
            episodes: 60,
            ..Nasaic::fast_demo(13)
        };
        let outcome = run_paper_workload(&search, WorkloadId::W3);
        assert!(outcome.best.is_some());
        let best = outcome.best.as_ref().unwrap();
        // Accuracy of compliant solutions must beat the smallest-network
        // lower bound of 78.93%.
        assert!(best.evaluation.weighted_accuracy > 0.7893);
    }

    #[test]
    fn best_solution_accuracy_is_above_lower_bound_and_below_nas_best() {
        let outcome = run_paper_workload(&Nasaic::fast_demo(17), WorkloadId::W1);
        let best = outcome.best.as_ref().expect("a compliant solution exists");
        // Lower bound: (78.93% + 0.642) / 2; NAS upper bound: (94.2% + 0.84) / 2.
        assert!(best.evaluation.weighted_accuracy > 0.715);
        assert!(best.evaluation.weighted_accuracy < 0.895);
    }

    #[test]
    fn search_is_deterministic_for_a_seed() {
        let a = run_paper_workload(&Nasaic::fast_demo(5), WorkloadId::W3);
        let b = run_paper_workload(&Nasaic::fast_demo(5), WorkloadId::W3);
        assert_eq!(a.best_weighted_accuracy(), b.best_weighted_accuracy());
        assert_eq!(a.explored.len(), b.explored.len());
    }

    #[test]
    fn homogeneous_mode_produces_identical_sub_accelerators() {
        let search = Nasaic {
            homogeneous: true,
            ..Nasaic::fast_demo(3)
        };
        let outcome = run_paper_workload(&search, WorkloadId::W3);
        for solution in &outcome.explored {
            let subs = solution.candidate.accelerator.sub_accelerators();
            assert_eq!(subs.len(), 2);
            assert_eq!(
                subs[0], subs[1],
                "homogeneous design must replicate the sub-accelerator"
            );
        }
    }

    #[test]
    fn every_design_of_an_episode_updates_the_controller() {
        use crate::algorithm::NullObserver;
        use crate::scenario::{registry, Algorithm};
        let mut scenario = registry::get("w3").unwrap();
        scenario.search.episodes = 40;
        scenario.search.hardware_trials = 4;
        let sink = checkpoint::RecordingCheckpointSink::every(40);
        let engine = scenario.engine();
        scenario.run_algorithm_checkpointed(Algorithm::Nasaic, &engine, &NullObserver, None, &sink);
        let last = sink.checkpoints().pop().expect("a last checkpoint");
        let state = last.state.get("controller").unwrap();
        // Every episode gives (1 + hardware_trials) feedbacks.
        let updates = checkpoint::controller_state_from_value(state)
            .unwrap()
            .trainer
            .updates;
        assert_eq!(updates, 40 * (1 + 4));
    }
}
