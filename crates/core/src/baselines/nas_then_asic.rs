//! The "NAS→ASIC" baseline: successive NAS and ASIC design optimisation.
//!
//! Phase 1 runs conventional, accuracy-only NAS (Zoph & Le style) per task:
//! an RL controller whose reward is the architecture's accuracy with no
//! hardware term.  Phase 2 keeps the identified architectures fixed and
//! brute-forces accelerator designs, keeping the design that comes closest
//! to the specs.  Table I of the paper shows that no accelerator design can
//! rescue the architectures NAS picks — they violate the specs on every
//! workload.

use super::sampling_loop;
use crate::algorithm::{SearchAlgorithm, SearchContext, SearchError, SearchEvent, SearchRun};
use crate::candidate::Candidate;
use crate::checkpoint::{
    self, CheckpointSink, NullCheckpointSink, SearchCheckpoint, ShardMode, ShardPartial, ShardPlan,
};
use crate::engine::EvalEngine;
use crate::log::{ExploredSolution, PhaseSummary, SearchOutcome};
use crate::scenario::value::{ConfigError, ConfigValue};
use crate::spec::DesignSpecs;
use crate::workload::{Task, Workload};
use nasaic_nn::layer::Architecture;
use nasaic_rl::{Controller, ControllerConfig, Segment};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Where the NAS phase starts: fresh, or decoded from a checkpoint.
struct NasStart {
    /// The RNG every task's search draws from.
    rng: StdRng,
    /// The finished tasks' architectures.
    done: Vec<Architecture>,
    /// The task and episode to continue at.
    task: usize,
    episode: usize,
    /// Mid-task: that task's controller and incumbent.
    controller: Option<Controller>,
    best: Option<(f64, Architecture)>,
}

/// Configuration of the NAS→ASIC baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NasThenAsic {
    /// Episodes of the accuracy-only NAS phase (per task).
    pub nas_episodes: usize,
    /// Number of random accelerator designs swept in the ASIC phase.
    pub hardware_samples: usize,
    /// RNG seed.
    pub seed: u64,
}

impl NasThenAsic {
    /// A configuration comparable to the paper's baseline effort.
    pub fn paper(seed: u64) -> Self {
        Self {
            nas_episodes: 200,
            hardware_samples: 500,
            seed,
        }
    }

    /// A configuration small enough for tests.
    pub fn fast(seed: u64) -> Self {
        Self {
            nas_episodes: 60,
            hardware_samples: 60,
            seed,
        }
    }

    /// Phase 1 alone, over the context's workload and engine: repeat
    /// visits to an architecture (common late in NAS convergence) hit the
    /// accuracy cache instead of re-querying the oracle.  Returns one
    /// architecture per task.
    ///
    /// # Panics
    ///
    /// As [`SearchAlgorithm::run`]: if the context's observer asks the run
    /// to stop.
    pub fn run_nas(&self, ctx: &SearchContext<'_>) -> Vec<Architecture> {
        let mut run = ctx.start(self.name(), self.seed, &NullCheckpointSink);
        self.run_nas_observed(ctx, &mut run, self.fresh_nas())
            .unwrap_or_else(|error| panic!("{error}"))
    }

    /// A NAS phase from its first episode.
    fn fresh_nas(&self) -> NasStart {
        NasStart {
            rng: StdRng::seed_from_u64(self.seed ^ 0xaaaa),
            done: Vec::new(),
            task: 0,
            episode: 0,
            controller: None,
            best: None,
        }
    }

    /// Task `task_index`'s fresh NAS controller.
    fn task_controller(&self, task_index: usize, task: &Task) -> Controller {
        let segments = vec![Segment::new(
            &task.name,
            task.backbone.search_space().cardinalities(),
        )];
        Controller::new(
            segments,
            ControllerConfig::default(),
            self.seed + task_index as u64,
        )
    }

    /// The NAS loop from `start`, shared by [`run_nas`](Self::run_nas)
    /// and the trait path.  Episode events are numbered
    /// `task_index * nas_episodes + episode` across the per-task searches.
    ///
    /// Checkpoints fire per NAS episode at `progress = task_index *
    /// nas_episodes + episode + 1` carrying the shared RNG, the finished
    /// tasks' architectures (`done`), and — mid-task — the live
    /// controller state and the incumbent; at a task boundary
    /// (`progress % nas_episodes == 0`) the controller and incumbent are
    /// dropped, and resume builds a fresh controller for the next task.
    fn run_nas_observed(
        &self,
        ctx: &SearchContext<'_>,
        run: &mut SearchRun<'_>,
        start: NasStart,
    ) -> Result<Vec<Architecture>, SearchError> {
        let (workload, engine, observer) = (ctx.workload, ctx.engine, ctx.observer());
        let NasStart {
            mut rng,
            done: mut architectures,
            task: start_task,
            episode: start_episode,
            mut controller,
            mut best,
        } = start;
        for (task_index, task) in workload.tasks.iter().enumerate().skip(start_task) {
            let mut controller = controller
                .take()
                .unwrap_or_else(|| self.task_controller(task_index, task));
            let mut best = best.take();
            let first_episode = if task_index == start_task {
                start_episode
            } else {
                0
            };
            for episode in first_episode..self.nas_episodes {
                let sample = controller.sample(&mut rng);
                let (accuracy, evaluated) = match task.backbone.materialize(&sample.actions) {
                    Ok(arch) => {
                        // Evaluate against the task whose backbone
                        // generated the architecture (a one-element
                        // `accuracies` slice would zip against task 0
                        // and score e.g. a U-Net with the CIFAR-10
                        // calibration curve).
                        let accuracy = engine.accuracy_for_task(task_index, &arch);
                        if best.as_ref().is_none_or(|(a, _)| accuracy > *a) {
                            best = Some((accuracy, arch));
                        }
                        (accuracy, 1)
                    }
                    Err(_) => (0.0, 0),
                };
                // Mono-objective reward: accuracy only (paper's NAS [1]);
                // undecodable samples feed a flat zero.
                controller.feedback(&sample, accuracy);
                observer.on_event(&SearchEvent::EpisodeEvaluated {
                    episode: task_index * self.nas_episodes + episode,
                    evaluations: evaluated,
                    weighted_accuracy: None,
                    any_compliant: false,
                    reward: accuracy,
                    entropy: Some(sample.mean_entropy),
                    baseline: controller.baseline(),
                });
                if episode + 1 < self.nas_episodes {
                    // The phase explores no (network, accelerator) records.
                    run.checkpoint(task_index * self.nas_episodes + episode + 1, &[], || {
                        nas_state(&rng, &architectures, Some(&controller), best.as_ref())
                    })?;
                }
            }
            architectures.push(best.expect("NAS explored at least one architecture").1);
            run.checkpoint((task_index + 1) * self.nas_episodes, &[], || {
                nas_state(&rng, &architectures, None, None)
            })?;
        }
        Ok(architectures)
    }

    /// Phase 2: brute-force hardware exploration for fixed architectures,
    /// through the shared [`sampling_loop`].  The fixed architectures make
    /// every sweep sample share one accuracy query, and the hardware
    /// designs evaluate as one parallel batch.  Returns the full
    /// exploration log.
    ///
    /// Checkpoints fire between samples at `progress = progress_offset +
    /// samples completed` (the caller passes the NAS budget as the offset
    /// so both phases share one progress axis) with state `{rng, done,
    /// outcome}`.  `resume` is the pre-decoded `(rng, outcome, samples
    /// completed)` triple — the caller owns the workload needed to rebuild
    /// the outcome's candidates.
    fn run_asic_sweep(
        &self,
        ctx: &SearchContext<'_>,
        run: &mut SearchRun<'_>,
        architectures: &[Architecture],
        resume: Option<(StdRng, SearchOutcome, usize)>,
        progress_offset: usize,
    ) -> Result<SearchOutcome, SearchError> {
        // Warm the accuracy cache once up front: every sweep sample shares
        // these fixed architectures, so the parallel batch below can never
        // race duplicate oracle queries for them.
        ctx.engine.accuracies(architectures);
        let start = resume.unwrap_or_else(|| {
            (
                StdRng::seed_from_u64(self.seed ^ 0xbbbb),
                SearchOutcome::empty(),
                0,
            )
        });
        sampling_loop(
            ctx,
            run,
            start,
            self.hardware_samples,
            progress_offset,
            |rng, episode| {
                let accelerator = if episode % 2 == 0 {
                    ctx.hardware.sample_fully_allocated(rng)
                } else {
                    ctx.hardware.sample(rng)
                };
                Candidate::from_parts(architectures.to_vec(), accelerator)
            },
            |rng, outcome| {
                let mut state = ConfigValue::table();
                state.insert("phase", ConfigValue::Str("sweep".to_string()));
                state.insert("rng", checkpoint::rng_state_to_value(&rng.state()));
                state.insert("done", checkpoint::architectures_to_value(architectures));
                state.insert("outcome", checkpoint::outcome_counters_to_value(outcome));
                state
            },
        )
    }

    /// Decode a NAS-phase checkpoint at `progress` (at most the NAS
    /// budget): the finished tasks' architectures and, mid-task, the
    /// current task's controller and incumbent.
    fn decode_nas(
        &self,
        cp: &SearchCheckpoint,
        workload: &Workload,
        progress: usize,
    ) -> Result<NasStart, ConfigError> {
        // `progress <= nas_episodes * num_tasks`, so `task <= num_tasks`.
        let task = progress / self.nas_episodes.max(1);
        let state = cp.state_fields()?;
        let done = state.decode("done", |done| {
            checkpoint::architectures_from_value(done, &workload.tasks[..task])
        })?;
        let mid_task = state.opt_table("controller")?.is_some();
        let (controller, best) = match workload.tasks.get(task) {
            Some(current) if mid_task => {
                let mut controller = self.task_controller(task, current);
                cp.restore_controller(&mut controller)?;
                let best = match state.opt_table("best")? {
                    Some(incumbent) => Some((
                        incumbent.decode("accuracy", checkpoint::float_from_value)?,
                        incumbent.decode("values", |values| {
                            checkpoint::architecture_from_value(values, current)
                        })?,
                    )),
                    None => None,
                };
                (Some(controller), best)
            }
            _ => (None, None),
        };
        Ok(NasStart {
            rng: cp.rng()?,
            done,
            task,
            episode: progress % self.nas_episodes.max(1),
            controller,
            best,
        })
    }

    /// The NAS phase summary — a pure function of the chosen architectures
    /// and the engine, so both the plain run and the shard merge compute
    /// the same one.
    fn nas_summary(
        &self,
        engine: &EvalEngine,
        nas_budget: usize,
        architectures: &[Architecture],
    ) -> PhaseSummary {
        PhaseSummary {
            name: "nas".to_string(),
            episodes: nas_budget,
            explored: 0,
            spec_compliant: 0,
            best_weighted_accuracy: Some(
                engine.weighted_accuracy(&engine.accuracies(architectures)),
            ),
            detail: format!(
                "architectures: {}",
                architectures
                    .iter()
                    .map(Architecture::hyperparameter_string)
                    .collect::<Vec<_>>()
                    .join(" & ")
            ),
        }
    }

    /// The sweep phase summary — a pure function of the (full) sweep
    /// outcome, shared by the plain run and
    /// [`SearchAlgorithm::merge_shards`].  Its representative is the most
    /// accurate compliant design, else the [`least_violating`] one.
    fn sweep_summary(&self, outcome: &SearchOutcome, specs: &DesignSpecs) -> PhaseSummary {
        let representative = outcome
            .best
            .clone()
            .or_else(|| least_violating(outcome, specs));
        PhaseSummary {
            name: "asic-sweep".to_string(),
            episodes: self.hardware_samples,
            explored: outcome.explored.len(),
            spec_compliant: outcome.spec_compliant().count(),
            best_weighted_accuracy: outcome.best_weighted_accuracy(),
            detail: match &representative {
                Some(solution) => format!(
                    "representative ({} violation(s)): {}",
                    solution.evaluation.spec_check.violations(),
                    solution.candidate.summary()
                ),
                None => "no design explored".to_string(),
            },
        }
    }
}

impl SearchAlgorithm for NasThenAsic {
    fn name(&self) -> &str {
        "nas-then-asic"
    }

    /// Run both phases over the context's workload/specs/hardware.  The
    /// outcome is the ASIC sweep's exploration log; the NAS result and the
    /// representative design (what the paper reports in Table I) survive
    /// in [`SearchOutcome::phases`] (and as `PhaseFinished` events).
    ///
    /// One progress axis spans both phases: `1..=nas_budget` are NAS
    /// episodes, `nas_budget+1..=nas_budget+hardware_samples` are sweep
    /// samples (the checkpoint's `phase` field disambiguates).  A run
    /// resumed mid-sweep skips the NAS loop entirely — the architectures
    /// are rebuilt from the checkpoint and the NAS phase summary is
    /// recomputed from them (a pure function of the engine's caches).
    fn run_checkpointed(
        &self,
        ctx: &SearchContext<'_>,
        resume: Option<&SearchCheckpoint>,
        sink: &dyn CheckpointSink,
    ) -> Result<SearchOutcome, SearchError> {
        let (workload, specs, engine) = (ctx.workload, ctx.specs, ctx.engine);
        let observer = ctx.observer();
        let mut run = ctx.start(self.name(), self.seed, sink);
        let nas_budget = self.nas_episodes * workload.num_tasks();
        // A resume is decoded before any work: the NAS phase's start, or
        // the sweep's architectures and `(rng, outcome, samples)`.
        let (mut nas_start, mut sweep_start) = (self.fresh_nas(), None);
        if let Some(cp) = resume {
            let progress =
                cp.progress_for(self.name(), self.seed, nas_budget + self.hardware_samples)?;
            if progress <= nas_budget {
                nas_start = self.decode_nas(cp, workload, progress)?;
            } else {
                let architectures = cp.state_fields()?.decode("done", |done| {
                    checkpoint::architectures_from_value(done, &workload.tasks)
                })?;
                let outcome = cp.restore_outcome(workload)?;
                sweep_start = Some((architectures, (cp.rng()?, outcome, progress - nas_budget)));
            }
        }
        let resumed_sweep = sweep_start.is_some();
        let (architectures, sweep_state) = match sweep_start {
            Some((architectures, state)) => (architectures, Some(state)),
            None => {
                observer.on_event(&SearchEvent::PhaseStarted {
                    phase: "nas".to_string(),
                    budget: nas_budget,
                });
                let architectures = self.run_nas_observed(ctx, &mut run, nas_start)?;
                (architectures, None)
            }
        };
        // The chosen architectures' accuracies are cached from the NAS
        // loop, so summarising them here is free.
        let nas_summary = self.nas_summary(engine, nas_budget, &architectures);
        if !resumed_sweep {
            observer.on_event(&SearchEvent::PhaseFinished {
                phase: "nas".to_string(),
                summary: nas_summary.clone(),
            });
            observer.on_event(&SearchEvent::PhaseStarted {
                phase: "asic-sweep".to_string(),
                budget: self.hardware_samples,
            });
        }
        let mut outcome =
            self.run_asic_sweep(ctx, &mut run, &architectures, sweep_state, nas_budget)?;
        let sweep_summary = self.sweep_summary(&outcome, &specs);
        observer.on_event(&SearchEvent::PhaseFinished {
            phase: "asic-sweep".to_string(),
            summary: sweep_summary.clone(),
        });
        outcome.phases = vec![nas_summary, sweep_summary];
        Ok(run.finish(outcome))
    }

    /// The sweep's samples are independent: stride them across the
    /// shards.  The NAS phase is *redundant* — every shard re-runs it
    /// (it is deterministic and cheap next to the sweep), so each worker
    /// holds the architectures without any cross-shard handoff, and shard
    /// 0's outcome carries the NAS summary into the merge.
    fn shard_plan(&self, _ctx: &SearchContext<'_>, shards: usize) -> ShardPlan {
        ShardPlan::strided(self.name(), shards, self.hardware_samples)
    }

    /// Replay-merge the sweep strides, then replace shard 0's sweep
    /// summary, which covers its own stride only, with one rebuilt from the
    /// merged outcome; the NAS summary is the same on every shard.
    fn merge_shards(
        &self,
        ctx: &SearchContext<'_>,
        plan: &ShardPlan,
        partials: Vec<ShardPartial>,
    ) -> Result<SearchOutcome, ConfigError> {
        let mut outcome = checkpoint::merge_replay(plan, ctx.seed, ctx.budget, partials)?;
        if plan.mode == ShardMode::Strided {
            let sweep_summary = self.sweep_summary(&outcome, &ctx.specs);
            outcome
                .phases
                .retain(|phase| phase.name != sweep_summary.name);
            outcome.phases.push(sweep_summary);
        }
        Ok(outcome)
    }
}

/// A NAS-phase checkpoint state (see
/// [`NasThenAsic::run_nas_observed`] for the progress and state
/// conventions).
fn nas_state(
    rng: &StdRng,
    architectures: &[Architecture],
    controller: Option<&Controller>,
    best: Option<&(f64, Architecture)>,
) -> ConfigValue {
    let mut state = ConfigValue::table();
    state.insert("phase", ConfigValue::Str("nas".to_string()));
    state.insert("rng", checkpoint::rng_state_to_value(&rng.state()));
    state.insert("done", checkpoint::architectures_to_value(architectures));
    if let Some(controller) = controller {
        state.insert(
            "controller",
            checkpoint::controller_state_to_value(&controller.export_state()),
        );
    }
    if let Some((accuracy, arch)) = best {
        let mut incumbent = ConfigValue::table();
        incumbent.insert("accuracy", checkpoint::float_to_value(*accuracy));
        incumbent.insert("values", checkpoint::architecture_to_value(arch));
        state.insert("best", incumbent);
    }
    state
}

/// The explored solution with the fewest violated specs, ties broken by the
/// smallest total relative excess over the specs.
pub fn least_violating(outcome: &SearchOutcome, specs: &DesignSpecs) -> Option<ExploredSolution> {
    outcome
        .explored
        .iter()
        .min_by(|a, b| {
            let key = |s: &ExploredSolution| {
                let v = s.evaluation.spec_check.violations() as f64;
                let m = &s.evaluation.metrics;
                let excess = (m.latency_cycles / specs.latency_cycles - 1.0).max(0.0)
                    + (m.energy_nj / specs.energy_nj - 1.0).max(0.0)
                    + (m.area_um2 / specs.area_um2 - 1.0).max(0.0);
                v * 10.0 + if excess.is_finite() { excess } else { 1e6 }
            };
            key(a).total_cmp(&key(b))
        })
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{run_paper_workload, Budget};
    use crate::evaluator::{AccuracyOracle, Evaluator};
    use crate::spec::WorkloadId;
    use nasaic_accel::HardwareSpace;

    #[test]
    fn nas_phase_finds_high_accuracy_architectures() {
        let workload = Workload::w3();
        let specs = DesignSpecs::for_workload(WorkloadId::W3);
        let evaluator = Evaluator::new(&workload, specs, AccuracyOracle::default());
        let engine = EvalEngine::from(&evaluator);
        let hardware = HardwareSpace::paper_default(2);
        let ctx = SearchContext::new(&workload, specs, &hardware, &engine, 1, Budget::new(0, 0));
        let architectures = NasThenAsic::fast(1).run_nas(&ctx);
        assert_eq!(architectures.len(), 2);
        let accuracies = evaluator.accuracies(&architectures);
        // Accuracy-only NAS should land well above the mid-point of the
        // accuracy range (78.9% .. 94.6%).
        for acc in accuracies {
            assert!(acc > 0.90, "NAS accuracy too low: {acc}");
        }
    }

    #[test]
    fn asic_sweep_cannot_rescue_accuracy_optimal_architectures_on_w1() {
        // The paper's core claim for Table I: for the architectures that
        // NAS identifies, no explored accelerator design meets the specs.
        let specs = DesignSpecs::for_workload(WorkloadId::W1);
        let outcome = run_paper_workload(&NasThenAsic::fast(2), WorkloadId::W1);
        assert!(
            outcome.best.is_none(),
            "NAS->ASIC unexpectedly met the specs"
        );
        let representative = least_violating(&outcome, &specs).expect("sweep explored designs");
        assert!(!representative.evaluation.meets_specs());
        assert!(representative.evaluation.spec_check.violations() >= 1);
        // Both phases survive in the outcome instead of being dropped.
        assert_eq!(outcome.phases.len(), 2);
        assert_eq!(outcome.phases[0].name, "nas");
        assert_eq!(outcome.phases[1].name, "asic-sweep");
        assert!(outcome.phases[1].detail.contains("representative"));
    }

    #[test]
    fn least_violating_prefers_fewer_violations() {
        let specs = DesignSpecs::for_workload(WorkloadId::W1);
        let outcome = run_paper_workload(&NasThenAsic::fast(3), WorkloadId::W1);
        let best = least_violating(&outcome, &specs).unwrap();
        let min_violations = outcome
            .explored
            .iter()
            .map(|s| s.evaluation.spec_check.violations())
            .min()
            .unwrap();
        assert_eq!(best.evaluation.spec_check.violations(), min_violations);
    }
}
