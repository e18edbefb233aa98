//! Joint Monte-Carlo search over architectures and hardware designs.
//!
//! Fig. 1 of the paper uses 10,000 Monte-Carlo runs of the joint space to
//! locate the "optimal" solution (the star) that successive optimisation
//! misses.  This baseline reproduces that experiment and doubles as a
//! sanity check for NASAIC: with enough samples, random search finds
//! spec-compliant solutions, but needs far more evaluations than the
//! guided search to reach the same accuracy.
//!
//! # Checkpointing and sharding
//!
//! Samples are independent, so this is the fully externalizable driver:
//!
//! * **Checkpoints** are taken between samples.  The state is just the
//!   RNG position and the outcome so far; the loop draws and evaluates in
//!   chunks delimited by the sink's next snapshot point (one chunk — the
//!   whole run — when no sink wants checkpoints), so batching survives.
//! * **Shards** run the same loop over a context that owns one stride of
//!   the samples: each shard redraws the *entire* sample stream (keeping
//!   the one RNG stream identical to the single-process run) but evaluates
//!   only the samples it owns; the merge replays all shards' records in
//!   draw order, reconstructing the exact single-process outcome.

use super::sampling_loop;
use crate::algorithm::{SearchAlgorithm, SearchContext, SearchError};
use crate::candidate::Candidate;
use crate::checkpoint::{self, CheckpointSink, SearchCheckpoint, ShardPlan};
use crate::log::SearchOutcome;
use crate::scenario::value::ConfigValue;
use crate::workload::Workload;
use nasaic_accel::HardwareSpace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Configuration of the joint Monte-Carlo baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloSearch {
    /// Number of random (architecture, hardware) samples.
    pub runs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl MonteCarloSearch {
    /// The paper's scale: 10,000 runs.
    pub fn paper(seed: u64) -> Self {
        Self { runs: 10_000, seed }
    }

    /// A configuration small enough for tests.
    pub fn fast(seed: u64) -> Self {
        Self { runs: 200, seed }
    }

    /// Draw the `episode`-th sample of the run's one RNG stream.
    fn draw(
        &self,
        workload: &Workload,
        hardware: &HardwareSpace,
        rng: &mut StdRng,
        episode: usize,
    ) -> Candidate {
        let architectures: Vec<_> = workload
            .tasks
            .iter()
            .map(|task| {
                let space = task.backbone.search_space();
                let indices = space.sample(rng);
                task.backbone
                    .materialize(&indices)
                    .expect("sampled indices are always valid")
            })
            .collect();
        // Alternate between arbitrary allocations and fully allocated
        // designs so the sweep covers both the interior and the boundary
        // of the hardware space.
        let accelerator = if episode.is_multiple_of(2) {
            hardware.sample(rng)
        } else {
            hardware.sample_fully_allocated(rng)
        };
        Candidate::from_parts(architectures, accelerator)
    }
}

impl SearchAlgorithm for MonteCarloSearch {
    fn name(&self) -> &str {
        "monte-carlo"
    }

    /// Run over the context's workload and hardware space.  The sample
    /// count and seed come from this instance
    /// ([`Algorithm::instantiate`](crate::scenario::Algorithm::instantiate)
    /// maps the budget's
    /// [`total_evaluations`](crate::algorithm::Budget::total_evaluations)
    /// onto `runs`).
    ///
    /// Candidates are drawn sequentially (one RNG stream), evaluated as
    /// parallel cached batches, and recorded in draw order, so the outcome
    /// is identical to a serial loop.  Checkpoint state: `{rng, outcome}`
    /// at `progress` = samples completed.
    fn run_checkpointed(
        &self,
        ctx: &SearchContext<'_>,
        resume: Option<&SearchCheckpoint>,
        sink: &dyn CheckpointSink,
    ) -> Result<SearchOutcome, SearchError> {
        let (workload, hardware) = (ctx.workload, ctx.hardware);
        let mut run = ctx.start(self.name(), self.seed, sink);
        let start = match resume {
            Some(cp) => {
                let progress = cp.progress_for(self.name(), self.seed, self.runs)?;
                (cp.rng()?, cp.restore_outcome(workload)?, progress)
            }
            None => (
                StdRng::seed_from_u64(self.seed ^ 0x1111_2222),
                SearchOutcome::empty(),
                0,
            ),
        };
        let outcome = sampling_loop(
            ctx,
            &mut run,
            start,
            self.runs,
            0,
            |rng, episode| self.draw(workload, hardware, rng, episode),
            |rng, outcome| {
                let mut state = ConfigValue::table();
                state.insert("rng", checkpoint::rng_state_to_value(&rng.state()));
                state.insert("outcome", checkpoint::outcome_counters_to_value(outcome));
                state
            },
        )?;
        Ok(run.finish(outcome))
    }

    /// Every sample is independent: stride them across the shards.
    fn shard_plan(&self, _ctx: &SearchContext<'_>, shards: usize) -> ShardPlan {
        ShardPlan::strided(self.name(), shards, self.runs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::run_paper_workload;
    use crate::spec::WorkloadId;

    #[test]
    fn monte_carlo_explores_the_requested_number_of_samples() {
        let outcome = run_paper_workload(&MonteCarloSearch::fast(1), WorkloadId::W3);
        assert_eq!(outcome.explored.len(), 200);
        assert_eq!(outcome.episodes, 200);
    }

    #[test]
    fn monte_carlo_finds_compliant_solutions_on_w1() {
        let outcome = run_paper_workload(&MonteCarloSearch::fast(3), WorkloadId::W1);
        assert!(
            outcome.best.is_some(),
            "random search found no compliant design"
        );
        let best = outcome.best.unwrap();
        assert!(best.evaluation.meets_specs());
        assert!(best.evaluation.weighted_accuracy > 0.715);
    }
}
