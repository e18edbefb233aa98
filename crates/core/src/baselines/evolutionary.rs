//! Evolutionary co-search over the joint (architecture, hardware) space.
//!
//! Section IV of the paper notes that, given the formulated reward, "other
//! optimization approaches, such as evolution algorithms, can also be
//! applied" in place of the reinforcement-learning controller.  This module
//! provides that alternative optimizer: a steady-state genetic algorithm
//! whose genome is the controller's flat choice vector (the per-task
//! architecture choice indices, then the per-sub-accelerator hardware
//! choice indices), and whose fitness is exactly the Eq. 4 reward.

use crate::algorithm::{SearchAlgorithm, SearchContext, SearchError, SearchEvent};
use crate::bounds::PenaltyBounds;
use crate::candidate::Candidate;
use crate::checkpoint::{self, CheckpointSink, SearchCheckpoint};
use crate::log::{ExploredSolution, SearchOutcome};
use crate::scenario::value::{ConfigError, ConfigValue};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the evolutionary co-search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvolutionarySearch {
    /// Population size.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// Penalty scaling of the fitness (Eq. 4's `rho`).
    pub rho: f64,
    /// RNG seed.
    pub seed: u64,
}

impl EvolutionarySearch {
    /// A configuration with roughly the same evaluation budget as the
    /// paper's RL run (500 episodes x 11 designs).
    pub fn paper(seed: u64) -> Self {
        Self {
            population: 50,
            generations: 100,
            tournament: 3,
            mutation_rate: 0.15,
            rho: 10.0,
            seed,
        }
    }

    /// A configuration small enough for tests.
    pub fn fast(seed: u64) -> Self {
        Self {
            population: 24,
            generations: 12,
            tournament: 3,
            mutation_rate: 0.2,
            rho: 10.0,
            seed,
        }
    }
}

/// The search's checkpoint state after a scored generation.
fn generation_state(
    rng: &StdRng,
    population: &[Vec<usize>],
    fitness: &[f64],
    outcome: &SearchOutcome,
) -> ConfigValue {
    let mut state = ConfigValue::table();
    state.insert("rng", checkpoint::rng_state_to_value(&rng.state()));
    state.insert(
        "population",
        ConfigValue::Array(
            population
                .iter()
                .map(|genome| checkpoint::usizes_to_value(genome))
                .collect(),
        ),
    );
    state.insert("fitness", checkpoint::floats_to_value(fitness));
    state.insert("outcome", checkpoint::outcome_counters_to_value(outcome));
    state
}

impl SearchAlgorithm for EvolutionarySearch {
    fn name(&self) -> &str {
        "evolutionary"
    }

    /// Run over the context's workload, specs and hardware space.  The
    /// genetic hyperparameters (population, tournament, mutation rate) and
    /// the generation count come from this instance
    /// ([`Algorithm::instantiate`](crate::scenario::Algorithm::instantiate)
    /// maps them from the scenario's `SearchSpec`).
    ///
    /// Every generation's population is scored as one parallel batch,
    /// with elitism's surviving individuals re-scored from the caches for
    /// free.  Checkpoints fire after each scored generation: `progress`
    /// counts completed generations (the initial population is progress
    /// 0), and the state carries `{rng, population, fitness, outcome}` —
    /// enough to re-enter the loop at `progress` with the RNG stream, the
    /// live population and the full exploration record bit-identical to
    /// the uninterrupted run.
    ///
    /// The search stays on the sequential shard fallback: every generation
    /// is bred from the previous one's fitness, so generations cannot be
    /// strided across workers without changing the evolutionary trajectory.
    fn run_checkpointed(
        &self,
        ctx: &SearchContext<'_>,
        resume: Option<&SearchCheckpoint>,
        sink: &dyn CheckpointSink,
    ) -> Result<SearchOutcome, SearchError> {
        let (workload, specs, hardware, engine) =
            (ctx.workload, ctx.specs, ctx.hardware, ctx.engine);
        let observer = ctx.observer();
        let mut run = ctx.start(self.name(), self.seed, sink);
        let scorer = engine.scorer(PenaltyBounds::from_specs(&specs, 3.0), self.rho);

        // A genome is one flat choice vector, laid out as the controller's
        // segments: each task's architecture choices, then the hardware
        // choices.
        let cardinalities: Vec<usize> = workload
            .controller_segments(hardware)
            .into_iter()
            .flat_map(|segment| segment.cardinalities)
            .collect();
        let genome_length = cardinalities.len();

        let (mut rng, mut population, mut fitness, mut outcome, start_generation) = match resume {
            Some(cp) => {
                let progress = cp.progress_for(self.name(), self.seed, self.generations)?;
                let state = cp.state_fields()?;
                let population = state.each("population", checkpoint::usizes_from_value)?;
                let fitness = state.decode("fitness", checkpoint::floats_from_value)?;
                let fits = |genome: &Vec<usize>| {
                    genome.len() == genome_length
                        && genome
                            .iter()
                            .zip(&cardinalities)
                            .all(|(gene, card)| gene < card)
                };
                if population.len() != self.population.max(2)
                    || fitness.len() != population.len()
                    || !population.iter().all(fits)
                {
                    return Err(ConfigError::schema(format!(
                        "checkpoint: a population of {} genomes with {} fitness values does not \
                         fit {} genomes of {genome_length} genes",
                        population.len(),
                        fitness.len(),
                        self.population.max(2)
                    ))
                    .into());
                }
                (
                    cp.rng()?,
                    population,
                    fitness,
                    cp.restore_outcome(workload)?,
                    progress,
                )
            }
            None => (
                StdRng::seed_from_u64(self.seed ^ 0x5eed_5eed),
                Vec::new(),
                Vec::new(),
                SearchOutcome::empty(),
                0,
            ),
        };
        let mut evaluations = outcome.explored.len();
        // Score one whole generation: decode every genome, evaluate the
        // decodable ones as a parallel batch, and record them in genome
        // order (identical bookkeeping to the old one-at-a-time loop).
        let mut generation_fitness =
            |population: &[Vec<usize>], outcome: &mut SearchOutcome| -> Vec<f64> {
                let decoded: Vec<Option<Candidate>> = population
                    .iter()
                    .map(|genome| Candidate::decode(workload, hardware, genome).ok())
                    .collect();
                let candidates: Vec<Candidate> = decoded.iter().flatten().cloned().collect();
                let mut scored = scorer.score_batch(&candidates).into_iter();
                decoded
                    .into_iter()
                    .map(|candidate| {
                        let Some(candidate) = candidate else {
                            return -self.rho * 10.0;
                        };
                        let (evaluation, reward) =
                            scored.next().expect("one score per decoded candidate");
                        outcome.record_observed(
                            ExploredSolution {
                                episode: evaluations,
                                candidate,
                                evaluation,
                                reward,
                            },
                            observer,
                        );
                        evaluations += 1;
                        reward
                    })
                    .collect()
            };

        // One `EpisodeEvaluated` event per scored generation (the initial
        // population is generation 0).
        let generation_event = |generation: usize,
                                population: usize,
                                fitness: &[f64],
                                explored_before: usize,
                                outcome: &SearchOutcome| {
            observer.on_event(&SearchEvent::EpisodeEvaluated {
                episode: generation,
                evaluations: population,
                weighted_accuracy: None,
                any_compliant: outcome.explored[explored_before..]
                    .iter()
                    .any(|solution| solution.evaluation.meets_specs()),
                reward: fitness[argmax(fitness)],
                entropy: None,
                baseline: None,
            });
        };

        if resume.is_none() {
            // Initial population.
            population = (0..self.population.max(2))
                .map(|_| cardinalities.iter().map(|&c| rng.gen_range(0..c)).collect())
                .collect();
            fitness = generation_fitness(&population, &mut outcome);
            generation_event(0, population.len(), &fitness, 0, &outcome);
            run.checkpoint(0, &outcome.explored, || {
                generation_state(&rng, &population, &fitness, &outcome)
            })?;
        }

        for generation in start_generation..self.generations {
            let mut next_population = Vec::with_capacity(population.len());
            // Elitism: carry the best individual over unchanged.
            let best_index = argmax(&fitness);
            next_population.push(population[best_index].clone());
            while next_population.len() < population.len() {
                let parent_a = tournament_select(&population, &fitness, self.tournament, &mut rng);
                let parent_b = tournament_select(&population, &fitness, self.tournament, &mut rng);
                let mut child: Vec<usize> = parent_a
                    .iter()
                    .zip(parent_b)
                    .map(|(&a, &b)| if rng.gen_bool(0.5) { a } else { b })
                    .collect();
                for (gene, &card) in child.iter_mut().zip(&cardinalities) {
                    if rng.gen_bool(self.mutation_rate) {
                        *gene = rng.gen_range(0..card);
                    }
                }
                next_population.push(child);
            }
            population = next_population;
            let explored_before = outcome.explored.len();
            fitness = generation_fitness(&population, &mut outcome);
            generation_event(
                generation + 1,
                population.len(),
                &fitness,
                explored_before,
                &outcome,
            );
            run.checkpoint(generation + 1, &outcome.explored, || {
                generation_state(&rng, &population, &fitness, &outcome)
            })?;
        }

        outcome.episodes = self.generations;
        Ok(run.finish(outcome))
    }
}

fn argmax(values: &[f64]) -> usize {
    values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

fn tournament_select<'a, R: Rng>(
    population: &'a [Vec<usize>],
    fitness: &[f64],
    tournament: usize,
    rng: &mut R,
) -> &'a Vec<usize> {
    let mut best = rng.gen_range(0..population.len());
    for _ in 1..tournament.max(1) {
        let challenger = rng.gen_range(0..population.len());
        if fitness[challenger] > fitness[best] {
            best = challenger;
        }
    }
    &population[best]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::run_paper_workload;
    use crate::spec::WorkloadId;

    #[test]
    fn evolutionary_search_finds_compliant_w3_solutions() {
        let outcome = run_paper_workload(&EvolutionarySearch::fast(3), WorkloadId::W3);
        assert!(outcome.best.is_some(), "no compliant solution found");
        assert!(outcome.best_weighted_accuracy().unwrap() > 0.80);
        assert!(outcome.spec_compliant().next().is_some());
    }

    #[test]
    fn later_generations_do_not_regress_the_best_reward() {
        let outcome = run_paper_workload(&EvolutionarySearch::fast(7), WorkloadId::W3);
        // Best-so-far reward over evaluation order must be non-decreasing by
        // construction (elitism); check the recorded rewards are consistent.
        let mut best = f64::NEG_INFINITY;
        let mut best_curve = Vec::new();
        for s in &outcome.explored {
            best = best.max(s.reward);
            best_curve.push(best);
        }
        let first_quarter = best_curve[best_curve.len() / 4];
        let last = *best_curve.last().unwrap();
        assert!(last >= first_quarter);
    }

    #[test]
    fn deterministic_for_a_seed() {
        let config = EvolutionarySearch {
            population: 8,
            generations: 3,
            ..EvolutionarySearch::fast(11)
        };
        let a = run_paper_workload(&config, WorkloadId::W1);
        let b = run_paper_workload(&config, WorkloadId::W1);
        assert_eq!(a.best_weighted_accuracy(), b.best_weighted_accuracy());
        assert_eq!(a.explored.len(), b.explored.len());
    }
}
