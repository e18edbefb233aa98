//! Baseline approaches the paper compares NASAIC against.
//!
//! * [`nas_then_asic`] — successive optimisation: accuracy-only NAS first,
//!   then a brute-force sweep of accelerator designs ("NAS→ASIC" in
//!   Table I);
//! * [`asic_then_hwnas`] — a Monte-Carlo hardware search for the design
//!   closest to the specs, followed by hardware-aware NAS on that fixed
//!   design ("ASIC→HW-NAS" in Table I);
//! * [`monte_carlo`] — joint random search over architectures and hardware
//!   (the 10,000-run baseline that produces the "optimal" star of Fig. 1);
//! * [`hill_climb`] — a greedy local-search baseline over the joint space
//!   (not in the paper; used for ablations of the RL controller);
//! * [`evolutionary`] — the evolutionary-algorithm alternative optimizer the
//!   paper mentions can replace the RL controller on the same reward.

pub mod asic_then_hwnas;
pub mod evolutionary;
pub mod hill_climb;
pub mod monte_carlo;
pub mod nas_then_asic;

pub use asic_then_hwnas::AsicThenHwNas;
pub use evolutionary::EvolutionarySearch;
pub use hill_climb::HillClimb;
pub use monte_carlo::MonteCarloSearch;
pub use nas_then_asic::NasThenAsic;

use crate::algorithm::{SearchContext, SearchError, SearchEvent, SearchRun};
use crate::candidate::Candidate;
use crate::log::{ExploredSolution, SearchOutcome};
use crate::scenario::value::ConfigValue;
use rand::rngs::StdRng;

/// The independent-sampling loop shared by Monte-Carlo search and the
/// NAS→ASIC sweep.  It continues a run from `(rng, outcome, from)` — the
/// RNG, the outcome so far and the samples already drawn — to `samples`
/// samples: each candidate comes from `draw(rng, index)` on the one RNG
/// stream, candidates are evaluated as cached batches, and records are
/// kept in draw order with the sample index as `episode`.
///
/// Every sample is drawn, so every shard walks the whole RNG stream, but
/// only the samples the context [`owns`](SearchContext::owns) are
/// evaluated and recorded.  The loop evaluates in chunks delimited by the
/// run's next wanted snapshot point at `progress_offset + samples done`
/// (one chunk, the whole run, when no sink wants checkpoints), and takes a
/// snapshot with `state(rng, outcome)` after each chunk.
pub(crate) fn sampling_loop(
    ctx: &SearchContext<'_>,
    run: &mut SearchRun<'_>,
    (mut rng, mut outcome, from): (StdRng, SearchOutcome, usize),
    samples: usize,
    progress_offset: usize,
    mut draw: impl FnMut(&mut StdRng, usize) -> Candidate,
    state: impl Fn(&StdRng, &SearchOutcome) -> ConfigValue,
) -> Result<SearchOutcome, SearchError> {
    let observer = ctx.observer();
    let mut sample = from;
    while sample < samples {
        let chunk_end = (sample + 1..samples)
            .find(|&s| run.wants(progress_offset + s))
            .unwrap_or(samples);
        let mut owned = Vec::new();
        let mut candidates = Vec::new();
        for episode in sample..chunk_end {
            let candidate = draw(&mut rng, episode);
            if ctx.owns(episode) {
                owned.push(episode);
                candidates.push(candidate);
            }
        }
        let evaluations = ctx.engine.evaluate_batch(&candidates);
        for ((episode, candidate), evaluation) in owned.into_iter().zip(candidates).zip(evaluations)
        {
            let weighted_accuracy = evaluation.weighted_accuracy;
            let any_compliant = evaluation.meets_specs();
            outcome.record_observed(
                ExploredSolution {
                    episode,
                    candidate,
                    evaluation,
                    reward: 0.0,
                },
                observer,
            );
            observer.on_event(&SearchEvent::EpisodeEvaluated {
                episode,
                evaluations: 1,
                weighted_accuracy: Some(weighted_accuracy),
                any_compliant,
                reward: 0.0,
                entropy: None,
                baseline: None,
            });
        }
        sample = chunk_end;
        outcome.episodes = sample;
        run.checkpoint(progress_offset + sample, &outcome.explored, || {
            state(&rng, &outcome)
        })?;
    }
    outcome.episodes = samples;
    Ok(outcome)
}
