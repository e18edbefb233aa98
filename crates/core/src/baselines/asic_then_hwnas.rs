//! The "ASIC→HW-NAS" baseline: hardware first, then hardware-aware NAS.
//!
//! Phase 1 runs a Monte-Carlo search over accelerator designs and keeps the
//! design *closest to the specs* (the paper uses 10,000 runs).  Phase 2
//! fixes that accelerator and runs hardware-aware NAS (MnasNet-style reward:
//! accuracy minus the spec penalty) over the architectures only.  The paper
//! shows this is feasible but leaves accuracy on the table compared to true
//! co-exploration.

use crate::algorithm::{SearchAlgorithm, SearchContext, SearchError, SearchEvent, SearchRun};
use crate::bounds::PenaltyBounds;
use crate::candidate::Candidate;
use crate::checkpoint::{self, CheckpointSink, SearchCheckpoint};
use crate::log::{ExploredSolution, PhaseSummary, SearchOutcome};
use crate::scenario::value::{ConfigError, ConfigValue};
use crate::workload::Workload;
use nasaic_accel::{Accelerator, HardwareSpace};
use nasaic_nn::layer::Architecture;
use nasaic_rl::{Controller, ControllerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Pre-decoded phase-1 resume state: the Monte-Carlo RNG, the incumbent
/// `(distance, accelerator)` if any, and the samples completed.
type McResume = (StdRng, Option<(f64, Accelerator)>, usize);

/// Where phase 2 starts: its RNG, controller and outcome, and the episodes
/// completed.
type NasStart = (StdRng, Controller, SearchOutcome, usize);

/// Configuration of the ASIC→HW-NAS baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AsicThenHwNas {
    /// Monte-Carlo runs of the hardware phase.
    pub monte_carlo_runs: usize,
    /// Episodes of the hardware-aware NAS phase.
    pub nas_episodes: usize,
    /// Penalty scaling used in the NAS phase reward.
    pub rho: f64,
    /// RNG seed.
    pub seed: u64,
}

impl AsicThenHwNas {
    /// The paper's scale (10,000 Monte-Carlo runs).
    pub fn paper(seed: u64) -> Self {
        Self {
            monte_carlo_runs: 10_000,
            nas_episodes: 300,
            rho: 10.0,
            seed,
        }
    }

    /// A configuration small enough for tests.
    pub fn fast(seed: u64) -> Self {
        Self {
            monte_carlo_runs: 300,
            nas_episodes: 60,
            rho: 10.0,
            seed,
        }
    }

    /// Phase 1: Monte-Carlo hardware search for the design closest to the
    /// specs.  Distance is measured with mid-sized reference architectures
    /// (hardware cannot be judged without *some* network), as the relative
    /// deviation of each metric from its spec; designs exceeding a spec are
    /// penalised three-fold so "closest" designs are preferentially inside
    /// the spec region.  The sampled designs are evaluated as one parallel
    /// batch against the fixed reference architectures, and the distance
    /// scan stays sequential in sample order.  Each sampled design is one
    /// `EpisodeEvaluated` event (accuracy-free: `weighted_accuracy` is
    /// `None`), so the trace covers the phase's engine work.
    ///
    /// Checkpoints fire between samples at `progress` = samples completed
    /// with state `{rng, best}`; the loop draws and evaluates in chunks
    /// delimited by the sink's next snapshot point, so the one-batch
    /// evaluation survives when no sink wants checkpoints.  `resume` is
    /// the pre-decoded `(rng, incumbent, samples completed)` triple.
    fn run_monte_carlo_hardware(
        &self,
        ctx: &SearchContext<'_>,
        run: &mut SearchRun<'_>,
        resume: Option<McResume>,
    ) -> Result<Accelerator, SearchError> {
        let (workload, specs, hardware, engine) =
            (ctx.workload, &ctx.specs, ctx.hardware, ctx.engine);
        let observer = ctx.observer();
        let reference: Vec<Architecture> = workload
            .tasks
            .iter()
            .map(|task| {
                let space = task.backbone.search_space();
                // Mid-point of every choice as the reference network.
                let mid: Vec<usize> = space.cardinalities().iter().map(|&c| c / 2).collect();
                task.backbone
                    .materialize(&mid)
                    .expect("mid-point candidate is always valid")
            })
            .collect();
        let runs = self.monte_carlo_runs.max(1);
        let (mut rng, mut best, mut done) =
            resume.unwrap_or_else(|| (StdRng::seed_from_u64(self.seed ^ 0xcccc), None, 0));
        while done < runs {
            let chunk_end = (done + 1..runs).find(|&r| run.wants(r)).unwrap_or(runs);
            let accelerators: Vec<Accelerator> = (done..chunk_end)
                .map(|r| {
                    if r % 2 == 0 {
                        hardware.sample(&mut rng)
                    } else {
                        hardware.sample_fully_allocated(&mut rng)
                    }
                })
                .collect();
            let metrics = crate::engine::parallel_map(
                &accelerators,
                engine.config().threads,
                |accelerator| engine.hardware_metrics(&reference, accelerator),
            );
            for (r, (accelerator, metrics)) in
                (done..chunk_end).zip(accelerators.into_iter().zip(metrics))
            {
                let feasible = metrics.is_feasible();
                observer.on_event(&SearchEvent::EpisodeEvaluated {
                    episode: r,
                    evaluations: 1,
                    weighted_accuracy: None,
                    any_compliant: feasible && specs.check(&metrics).all(),
                    reward: 0.0,
                    entropy: None,
                    baseline: None,
                });
                if !feasible {
                    continue;
                }
                let distance = spec_distance(metrics.latency_cycles, specs.latency_cycles)
                    + spec_distance(metrics.energy_nj, specs.energy_nj)
                    + spec_distance(metrics.area_um2, specs.area_um2);
                if best.as_ref().is_none_or(|(d, _)| distance < *d) {
                    best = Some((distance, accelerator));
                }
            }
            done = chunk_end;
            // The phase explores no (network, accelerator) records.
            run.checkpoint(done, &[], || {
                let mut state = ConfigValue::table();
                state.insert("phase", ConfigValue::Str("mc".to_string()));
                state.insert("rng", checkpoint::rng_state_to_value(&rng.state()));
                if let Some((distance, accelerator)) = &best {
                    let mut incumbent = ConfigValue::table();
                    incumbent.insert("distance", checkpoint::float_to_value(*distance));
                    incumbent.insert("accelerator", checkpoint::accelerator_to_value(accelerator));
                    state.insert("best", incumbent);
                }
                state
            })?;
        }
        Ok(best
            .map(|(_, acc)| acc)
            .unwrap_or_else(|| hardware.sample_fully_allocated(&mut rng)))
    }

    /// Phase 2: hardware-aware NAS on a fixed accelerator design.
    /// Revisited architectures hit both caches (the accelerator is fixed,
    /// so the hardware key only varies with the architectures).
    ///
    /// Checkpoints fire per episode at `progress = progress_offset +
    /// episodes completed` (the caller passes the Monte-Carlo run count as
    /// the offset so both phases share one progress axis) with
    /// state `{rng, controller, outcome, accelerator}`.  `start` is the
    /// fresh or pre-decoded `(rng, controller, outcome, episodes
    /// completed)` tuple.
    fn run_hardware_aware_nas(
        &self,
        ctx: &SearchContext<'_>,
        run: &mut SearchRun<'_>,
        accelerator: &Accelerator,
        (mut rng, mut controller, mut outcome, start_episode): NasStart,
        progress_offset: usize,
    ) -> Result<SearchOutcome, SearchError> {
        let (workload, engine, observer) = (ctx.workload, ctx.engine, ctx.observer());
        let scorer = engine.scorer(PenaltyBounds::from_specs(&ctx.specs, 3.0), self.rho);
        for episode in start_episode..self.nas_episodes {
            let sample = controller.sample(&mut rng);
            let architectures = Candidate::decode_architectures(workload, &sample.actions);
            let (evaluations, weighted_accuracy, any_compliant, reward) = match architectures {
                Ok((architectures, _)) => {
                    let candidate = Candidate::from_parts(architectures, accelerator.clone());
                    let (evaluation, reward) = scorer.score(&candidate);
                    controller.feedback(&sample, reward);
                    let summary = (
                        1,
                        Some(evaluation.weighted_accuracy),
                        evaluation.meets_specs(),
                        reward,
                    );
                    outcome.record_observed(
                        ExploredSolution {
                            episode,
                            candidate,
                            evaluation,
                            reward,
                        },
                        observer,
                    );
                    summary
                }
                Err(_) => {
                    controller.feedback(&sample, -self.rho);
                    (0, None, false, -self.rho)
                }
            };
            observer.on_event(&SearchEvent::EpisodeEvaluated {
                episode,
                evaluations,
                weighted_accuracy,
                any_compliant,
                reward,
                entropy: Some(sample.mean_entropy),
                baseline: controller.baseline(),
            });
            run.checkpoint(progress_offset + episode + 1, &outcome.explored, || {
                let mut state = ConfigValue::table();
                state.insert("phase", ConfigValue::Str("nas".to_string()));
                state.insert("rng", checkpoint::rng_state_to_value(&rng.state()));
                state.insert(
                    "controller",
                    checkpoint::controller_state_to_value(&controller.export_state()),
                );
                state.insert("outcome", checkpoint::outcome_counters_to_value(&outcome));
                state.insert("accelerator", checkpoint::accelerator_to_value(accelerator));
                state
            })?;
        }
        outcome.episodes = self.nas_episodes;
        Ok(outcome)
    }

    /// Phase 2's fresh controller: the co-exploration controller's
    /// architecture segments, one per task, without its hardware segments.
    fn nas_controller(&self, workload: &Workload, hardware: &HardwareSpace) -> Controller {
        let mut segments = workload.controller_segments(hardware);
        segments.truncate(workload.num_tasks());
        Controller::new(segments, ControllerConfig::default(), self.seed ^ 0xdddd)
    }
}

impl SearchAlgorithm for AsicThenHwNas {
    fn name(&self) -> &str {
        "asic-then-hwnas"
    }

    /// Run both phases over the context's workload/specs/hardware.  The
    /// outcome is the hardware-aware NAS exploration log; the chosen
    /// accelerator survives in [`SearchOutcome::phases`] (the
    /// `asic-monte-carlo` phase's detail, and as `PhaseFinished` events).
    ///
    /// One progress axis spans both phases: `1..=max(monte_carlo_runs, 1)`
    /// are hardware samples, the rest are NAS episodes (the checkpoint's
    /// `phase` field disambiguates).  A run resumed mid-NAS skips the
    /// Monte-Carlo loop entirely — the chosen accelerator is rebuilt from
    /// the checkpoint.
    ///
    /// The baseline stays on the sequential shard fallback: the NAS phase
    /// is serial (the controller learns from every episode), and the
    /// Monte-Carlo phase's output is a single accelerator whose selection
    /// scan is cheap next to the batched hardware evaluations it follows.
    fn run_checkpointed(
        &self,
        ctx: &SearchContext<'_>,
        resume: Option<&SearchCheckpoint>,
        sink: &dyn CheckpointSink,
    ) -> Result<SearchOutcome, SearchError> {
        let (workload, hardware) = (ctx.workload, ctx.hardware);
        let observer = ctx.observer();
        let mut run = ctx.start(self.name(), self.seed, sink);
        let runs = self.monte_carlo_runs.max(1);
        // A resume is decoded before any work: phase 1's `(rng, incumbent,
        // samples)`, or phase 2's accelerator and start.
        let (mc_resume, nas_resume) = match resume {
            None => (None, None),
            Some(cp) => {
                let progress = cp.progress_for(self.name(), self.seed, runs + self.nas_episodes)?;
                let state = cp.state_fields()?;
                let fitting = |value| fitting_accelerator(value, hardware);
                if progress <= runs {
                    let best = match state.opt_table("best")? {
                        Some(incumbent) => Some((
                            incumbent.decode("distance", checkpoint::float_from_value)?,
                            incumbent.decode("accelerator", fitting)?,
                        )),
                        None => None,
                    };
                    (Some((cp.rng()?, best, progress)), None)
                } else {
                    let accelerator = state.decode("accelerator", fitting)?;
                    let mut controller = self.nas_controller(workload, hardware);
                    cp.restore_controller(&mut controller)?;
                    let outcome = cp.restore_outcome(workload)?;
                    (
                        None,
                        Some((
                            accelerator,
                            (cp.rng()?, controller, outcome, progress - runs),
                        )),
                    )
                }
            }
        };
        let resumed_nas = nas_resume.is_some();
        let (accelerator, nas_start) = match nas_resume {
            Some((accelerator, start)) => (accelerator, start),
            None => {
                observer.on_event(&SearchEvent::PhaseStarted {
                    phase: "asic-monte-carlo".to_string(),
                    budget: self.monte_carlo_runs,
                });
                let accelerator = self.run_monte_carlo_hardware(ctx, &mut run, mc_resume)?;
                let start = (
                    StdRng::seed_from_u64(self.seed ^ 0xeeee),
                    self.nas_controller(workload, hardware),
                    SearchOutcome::empty(),
                    0,
                );
                (accelerator, start)
            }
        };
        let hardware_summary = PhaseSummary {
            name: "asic-monte-carlo".to_string(),
            episodes: self.monte_carlo_runs,
            explored: 0,
            spec_compliant: 0,
            best_weighted_accuracy: None,
            detail: format!("selected accelerator: {accelerator}"),
        };
        if !resumed_nas {
            observer.on_event(&SearchEvent::PhaseFinished {
                phase: "asic-monte-carlo".to_string(),
                summary: hardware_summary.clone(),
            });
            observer.on_event(&SearchEvent::PhaseStarted {
                phase: "hw-nas".to_string(),
                budget: self.nas_episodes,
            });
        }
        let mut outcome =
            self.run_hardware_aware_nas(ctx, &mut run, &accelerator, nas_start, runs)?;
        let nas_summary = PhaseSummary {
            name: "hw-nas".to_string(),
            episodes: self.nas_episodes,
            explored: outcome.explored.len(),
            spec_compliant: outcome.spec_compliant().count(),
            best_weighted_accuracy: outcome.best_weighted_accuracy(),
            detail: format!("hardware-aware NAS on the fixed design {accelerator}"),
        };
        observer.on_event(&SearchEvent::PhaseFinished {
            phase: "hw-nas".to_string(),
            summary: nas_summary.clone(),
        });
        outcome.phases = vec![hardware_summary, nas_summary];
        Ok(run.finish(outcome))
    }
}

/// Decode a checkpointed accelerator ([`checkpoint::accelerator_from_value`])
/// that must fit `hardware`: one sub-accelerator per slot, within the
/// resource budget.
fn fitting_accelerator(
    value: &ConfigValue,
    hardware: &HardwareSpace,
) -> Result<Accelerator, ConfigError> {
    let accelerator = checkpoint::accelerator_from_value(value)?;
    if accelerator.sub_accelerators().len() != hardware.num_sub_accelerators()
        || !hardware.budget().admits(&accelerator)
    {
        return Err(ConfigError::schema(format!(
            "accelerator {accelerator} does not fit the hardware space"
        )));
    }
    Ok(accelerator)
}

fn spec_distance(value: f64, spec: f64) -> f64 {
    let ratio = value / spec;
    if ratio <= 1.0 {
        1.0 - ratio
    } else {
        // Any overshoot dominates the distance so "closest to the specs"
        // always prefers designs inside the spec region when one exists.
        100.0 + (ratio - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{run_paper_workload, Budget};
    use crate::checkpoint::NullCheckpointSink;
    use crate::engine::EvalEngine;
    use crate::evaluator::{AccuracyOracle, Evaluator};
    use crate::spec::{DesignSpecs, WorkloadId};

    #[test]
    fn monte_carlo_hardware_is_close_to_specs() {
        let workload = Workload::w1();
        let specs = DesignSpecs::for_workload(WorkloadId::W1);
        let evaluator = Evaluator::new(&workload, specs, AccuracyOracle::default());
        let engine = EvalEngine::from(&evaluator);
        let hardware = HardwareSpace::paper_default(2);
        let ctx = SearchContext::new(&workload, specs, &hardware, &engine, 5, Budget::new(0, 0));
        let driver = AsicThenHwNas::fast(5);
        let mut run = ctx.start(driver.name(), 5, &NullCheckpointSink);
        let accelerator = driver
            .run_monte_carlo_hardware(&ctx, &mut run, None)
            .unwrap();
        // The chosen design must at least fit the area spec (area does not
        // depend on the reference architectures).
        let area = evaluator.cost_model().area_um2(&accelerator);
        assert!(area <= specs.area_um2, "area {area} exceeds the spec");
        assert!(accelerator.has_capacity());
    }

    #[test]
    fn hardware_aware_nas_finds_compliant_architectures_on_w1() {
        let outcome = run_paper_workload(&AsicThenHwNas::fast(7), WorkloadId::W1);
        let best = outcome
            .best
            .expect("hardware-aware NAS found a compliant solution");
        assert!(best.evaluation.meets_specs());
        assert!(best.candidate.accelerator.has_capacity());
        // Accuracy must exceed the smallest-network lower bound.
        assert!(best.evaluation.weighted_accuracy > 0.715);
        // The chosen accelerator survives in the phase summaries.
        assert_eq!(outcome.phases.len(), 2);
        assert_eq!(outcome.phases[0].name, "asic-monte-carlo");
        assert!(outcome.phases[0].detail.contains("selected accelerator"));
        assert_eq!(outcome.phases[1].name, "hw-nas");
    }

    #[test]
    fn spec_distance_penalises_overshoot() {
        assert!(spec_distance(1.2e5, 1e5) > spec_distance(0.8e5, 1e5));
        assert_eq!(spec_distance(1e5, 1e5), 0.0);
    }
}
