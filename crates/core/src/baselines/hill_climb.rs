//! Greedy hill-climbing over the joint (architecture, hardware) space.
//!
//! Not part of the paper's evaluation — included as an ablation of the RL
//! controller: a purely local searcher that starts from the smallest
//! architectures on a balanced accelerator and greedily accepts single-step
//! moves that improve the Eq. 4 reward.

use crate::algorithm::{SearchAlgorithm, SearchContext, SearchError, SearchEvent};
use crate::bounds::PenaltyBounds;
use crate::candidate::Candidate;
use crate::checkpoint::{self, CheckpointSink, SearchCheckpoint};
use crate::log::{ExploredSolution, SearchOutcome};
use crate::scenario::value::{ConfigError, ConfigValue};
use serde::{Deserialize, Serialize};

/// A candidate move of the local search: the architecture indices per task,
/// the hardware indices and the decoded candidate.
type Move = (Vec<Vec<usize>>, Vec<usize>, Candidate);

/// Configuration of the hill-climbing baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HillClimb {
    /// Maximum number of accepted moves.
    pub max_steps: usize,
    /// Penalty scaling of the reward.
    pub rho: f64,
}

impl HillClimb {
    /// Default configuration.
    pub fn new(max_steps: usize) -> Self {
        Self {
            max_steps,
            rho: 10.0,
        }
    }
}

/// The climb's checkpoint state at a position.
fn climb_state(
    arch_indices: &[Vec<usize>],
    hw_indices: &[usize],
    outcome: &SearchOutcome,
) -> ConfigValue {
    let mut state = ConfigValue::table();
    state.insert(
        "arch_indices",
        ConfigValue::Array(
            arch_indices
                .iter()
                .map(|indices| checkpoint::usizes_to_value(indices))
                .collect(),
        ),
    );
    state.insert("hw_indices", checkpoint::usizes_to_value(hw_indices));
    state.insert("outcome", checkpoint::outcome_counters_to_value(outcome));
    state
}

impl SearchAlgorithm for HillClimb {
    fn name(&self) -> &str {
        "hill-climb"
    }

    /// Run over the context's workload, specs and hardware space.  The
    /// step limit and `rho` come from this instance
    /// ([`Algorithm::instantiate`](crate::scenario::Algorithm::instantiate)
    /// maps the budget's `episodes` onto `max_steps`).
    ///
    /// Each step's whole neighbourhood is scored as one parallel batch,
    /// and re-visited neighbours (common as the climb slows down) come
    /// from the caches.  The climb has no RNG, so the checkpoint state is
    /// minimal: `{arch_indices, hw_indices, outcome}` at `progress` =
    /// accepted steps, and the envelope's seed is fixed at 0.  The current evaluation and reward are re-derived
    /// by re-scoring the current position on resume (the scorer is pure).
    ///
    /// The climb stays on the sequential shard fallback: each step moves
    /// from the previously accepted neighbour, so there is nothing
    /// independent to stride across workers.
    fn run_checkpointed(
        &self,
        ctx: &SearchContext<'_>,
        resume: Option<&SearchCheckpoint>,
        sink: &dyn CheckpointSink,
    ) -> Result<SearchOutcome, SearchError> {
        let (workload, specs, hardware, engine) =
            (ctx.workload, ctx.specs, ctx.hardware, ctx.engine);
        let observer = ctx.observer();
        let mut run = ctx.start(self.name(), 0, sink);
        let scorer = engine.scorer(PenaltyBounds::from_specs(&specs, 3.0), self.rho);

        let hw_space_search = hardware.search_space();
        // `None` for a position outside the space (only a checkpoint can
        // hold one: the start and every neighbour lie inside it).
        let build = |arch_indices: &[Vec<usize>], hw_indices: &[usize]| -> Option<Candidate> {
            if arch_indices.len() != workload.num_tasks() {
                return None;
            }
            let architectures = workload
                .tasks
                .iter()
                .zip(arch_indices)
                .map(|(task, indices)| task.backbone.materialize(indices).ok())
                .collect::<Option<Vec<_>>>()?;
            let accelerator = hardware.decode(hw_indices).ok()?;
            Some(Candidate::from_parts(architectures, accelerator))
        };

        let (mut arch_indices, mut hw_indices, mut outcome, start_step) = match resume {
            Some(cp) => {
                let progress = cp.progress_for(self.name(), 0, self.max_steps)?;
                let state = cp.state_fields()?;
                let arch_indices = state.each("arch_indices", checkpoint::usizes_from_value)?;
                let hw_indices = state.decode("hw_indices", checkpoint::usizes_from_value)?;
                let outcome = cp.restore_outcome(workload)?;
                (arch_indices, hw_indices, outcome, progress + 1)
            }
            None => {
                // Starting point: smallest architectures, balanced
                // mid-size design.
                let arch_indices: Vec<Vec<usize>> = workload
                    .tasks
                    .iter()
                    .map(|t| t.backbone.search_space().smallest())
                    .collect();
                let hw_indices: Vec<usize> = hw_space_search
                    .cardinalities()
                    .iter()
                    .map(|&c| c / 2)
                    .collect();
                (arch_indices, hw_indices, SearchOutcome::empty(), 1)
            }
        };
        let mut current = build(&arch_indices, &hw_indices).ok_or_else(|| {
            ConfigError::schema("checkpoint: the climb's position does not fit the search space")
        })?;

        let (mut current_eval, mut current_reward) = scorer.score(&current);
        if resume.is_none() {
            let start_compliant = current_eval.meets_specs();
            let start_weighted = current_eval.weighted_accuracy;
            outcome.record_observed(
                ExploredSolution {
                    episode: 0,
                    candidate: current.clone(),
                    evaluation: current_eval.clone(),
                    reward: current_reward,
                },
                observer,
            );
            observer.on_event(&SearchEvent::EpisodeEvaluated {
                episode: 0,
                evaluations: 1,
                weighted_accuracy: Some(start_weighted),
                any_compliant: start_compliant,
                reward: current_reward,
                entropy: None,
                baseline: None,
            });
            run.checkpoint(0, &outcome.explored, || {
                climb_state(&arch_indices, &hw_indices, &outcome)
            })?;
        }

        for step in start_step..=self.max_steps {
            // Enumerate the whole neighbourhood (architecture moves per
            // task, then hardware moves — the scan order is the tie-break,
            // so it must stay fixed), then score it as one batch.
            let mut moves: Vec<Move> = Vec::new();
            for (task_index, task) in workload.tasks.iter().enumerate() {
                let space = task.backbone.search_space();
                for neighbour in space.neighbours(&arch_indices[task_index]) {
                    let mut trial_arch = arch_indices.clone();
                    trial_arch[task_index] = neighbour;
                    if let Some(candidate) = build(&trial_arch, &hw_indices) {
                        moves.push((trial_arch, hw_indices.clone(), candidate));
                    }
                }
            }
            for neighbour in hw_space_search.neighbours(&hw_indices) {
                if let Some(candidate) = build(&arch_indices, &neighbour) {
                    moves.push((arch_indices.clone(), neighbour, candidate));
                }
            }
            let candidates: Vec<Candidate> = moves
                .iter()
                .map(|(_, _, candidate)| candidate.clone())
                .collect();
            let scored = scorer.score_batch(&candidates);

            let mut best_move: Option<(Move, f64)> = None;
            let mut any_compliant = false;
            for (move_, (evaluation, reward)) in moves.into_iter().zip(scored) {
                any_compliant |= evaluation.meets_specs();
                if best_move.as_ref().is_none_or(|(_, r)| reward > *r) {
                    best_move = Some((move_, reward));
                }
            }
            let Some(((next_arch, next_hw, candidate), reward)) = best_move else {
                break;
            };
            if reward <= current_reward {
                break; // local optimum; its rejected scan shows up only in the cache stats
            }
            arch_indices = next_arch;
            hw_indices = next_hw;
            current = candidate;
            let (evaluation, r) = scorer.score(&current);
            current_eval = evaluation;
            current_reward = r;
            outcome.record_observed(
                ExploredSolution {
                    episode: step,
                    candidate: current.clone(),
                    evaluation: current_eval.clone(),
                    reward: current_reward,
                },
                observer,
            );
            outcome.episodes = step;
            // One event per *accepted* step.  Like every driver with an
            // initial-state evaluation, the starting point is episode 0 and
            // accepted steps are 1..=episodes, so the trace carries
            // `SearchFinished.episodes + 1` episode events (rejected
            // neighbourhood scans show up only in the cache stats).
            observer.on_event(&SearchEvent::EpisodeEvaluated {
                episode: step,
                evaluations: candidates.len(),
                weighted_accuracy: Some(current_eval.weighted_accuracy),
                any_compliant,
                reward,
                entropy: None,
                baseline: None,
            });
            run.checkpoint(step, &outcome.explored, || {
                climb_state(&arch_indices, &hw_indices, &outcome)
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
    fn hill_climbing_improves_over_its_starting_point() {
        let outcome = run_paper_workload(&HillClimb::new(12), WorkloadId::W3);
        assert!(outcome.explored.len() >= 2, "no move was accepted");
        let first = outcome.explored.first().unwrap().reward;
        let last = outcome.explored.last().unwrap().reward;
        assert!(last > first, "reward did not improve: {first} -> {last}");
    }

    #[test]
    fn rewards_are_monotonically_non_decreasing() {
        let outcome = run_paper_workload(&HillClimb::new(8), WorkloadId::W1);
        for pair in outcome.explored.windows(2) {
            assert!(pair[1].reward >= pair[0].reward);
        }
    }
}
