//! Exploration logging: every evaluated solution, the best solution
//! found, and per-phase summaries of the successive baselines.

use crate::algorithm::{SearchEvent, SearchObserver};
use crate::candidate::Candidate;
use crate::evaluator::Evaluation;
use crate::scenario::value::ConfigValue;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One evaluated (candidate, evaluation, reward) triple.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExploredSolution {
    /// Episode at which the solution was evaluated.
    pub episode: usize,
    /// The candidate (architectures + accelerator).
    pub candidate: Candidate,
    /// Its evaluation (accuracies + hardware metrics + spec check).
    pub evaluation: Evaluation,
    /// The reward fed back to the controller.
    pub reward: f64,
}

impl fmt::Display for ExploredSolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ep{:04} {} -> {} (R {:.4})",
            self.episode,
            self.candidate.summary(),
            self.evaluation,
            self.reward
        )
    }
}

/// The summary of one named phase of a multi-phase search (the successive
/// baselines run two: NAS then an ASIC sweep, or a hardware search then
/// hardware-aware NAS).  Phase summaries keep the intermediate results the
/// old tuple-returning APIs used to discard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseSummary {
    /// Phase name (`nas`, `asic-sweep`, `asic-monte-carlo`, `hw-nas`).
    pub name: String,
    /// Episodes (or samples) the phase spent.
    pub episodes: usize,
    /// Fully evaluated solutions the phase recorded into the outcome.
    pub explored: usize,
    /// Spec-compliant solutions among them.
    pub spec_compliant: usize,
    /// The best weighted accuracy the phase saw, if the accuracy path ran.
    pub best_weighted_accuracy: Option<f64>,
    /// Free-form phase result: the NAS-chosen architectures, the selected
    /// accelerator, or the sweep's least-violating representative.
    pub detail: String,
}

impl PhaseSummary {
    /// The summary as a [`ConfigValue`] table (used by the report JSON and
    /// the trace observer).
    pub fn to_value(&self) -> ConfigValue {
        let mut root = ConfigValue::table();
        root.insert("name", ConfigValue::Str(self.name.clone()));
        root.insert("episodes", ConfigValue::Integer(self.episodes as i64));
        root.insert("explored", ConfigValue::Integer(self.explored as i64));
        root.insert(
            "spec_compliant",
            ConfigValue::Integer(self.spec_compliant as i64),
        );
        if let Some(acc) = self.best_weighted_accuracy {
            root.insert("best_weighted_accuracy", ConfigValue::Float(acc));
        }
        root.insert("detail", ConfigValue::Str(self.detail.clone()));
        root
    }
}

/// The outcome of one NASAIC (or baseline) search run.  `best` is the one
/// fact derived from `explored` that is stored: every improvement reads it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchOutcome {
    /// The best spec-compliant solution by weighted accuracy, if any.
    pub best: Option<ExploredSolution>,
    /// Every fully evaluated solution (capped by the search configuration).
    pub explored: Vec<ExploredSolution>,
    /// Number of episodes executed.
    pub episodes: usize,
    /// Number of episodes whose accuracy evaluation was skipped by early
    /// pruning (no feasible hardware design found).
    pub pruned_episodes: usize,
    /// Per-phase summaries, in execution order (empty for single-phase
    /// algorithms).
    pub phases: Vec<PhaseSummary>,
}

impl SearchOutcome {
    /// Create an empty outcome (used incrementally by searches).
    pub fn empty() -> Self {
        Self {
            best: None,
            explored: Vec::new(),
            episodes: 0,
            pruned_episodes: 0,
            phases: Vec::new(),
        }
    }

    /// Record one evaluated solution, updating the incumbent best.
    /// Returns `true` when the solution became the new best
    /// spec-compliant solution (the only case that copies it).
    pub fn record(&mut self, solution: ExploredSolution) -> bool {
        let improved = solution.evaluation.meets_specs()
            && self.best.as_ref().is_none_or(|best| {
                solution.evaluation.weighted_accuracy > best.evaluation.weighted_accuracy
            });
        if improved {
            self.best = Some(solution.clone());
        }
        self.explored.push(solution);
        improved
    }

    /// Every spec-compliant explored solution, in exploration order (the
    /// green diamonds of Fig. 6).
    pub fn spec_compliant(&self) -> impl Iterator<Item = &ExploredSolution> {
        self.explored
            .iter()
            .filter(|solution| solution.evaluation.meets_specs())
    }

    /// [`record`](Self::record) with observation: emits a
    /// [`SearchEvent::NewIncumbent`] when the solution improves on the
    /// best spec-compliant solution so far.  Observation is passive — the
    /// recorded outcome is identical to plain `record`.
    pub fn record_observed(&mut self, solution: ExploredSolution, observer: &dyn SearchObserver) {
        if self.record(solution) {
            let best = self.best.as_ref().expect("record reported a new incumbent");
            observer.on_event(&SearchEvent::NewIncumbent {
                episode: best.episode,
                weighted_accuracy: best.evaluation.weighted_accuracy,
                latency_cycles: best.evaluation.metrics.latency_cycles,
                energy_nj: best.evaluation.metrics.energy_nj,
                area_um2: best.evaluation.metrics.area_um2,
                candidate: best.candidate.summary(),
            });
        }
    }

    /// The best weighted accuracy among spec-compliant solutions, if any.
    pub fn best_weighted_accuracy(&self) -> Option<f64> {
        self.best.as_ref().map(|s| s.evaluation.weighted_accuracy)
    }

    /// Fraction of explored solutions that satisfy all specs.
    pub fn compliance_rate(&self) -> f64 {
        if self.explored.is_empty() {
            return 0.0;
        }
        self.spec_compliant().count() as f64 / self.explored.len() as f64
    }
}

impl Default for SearchOutcome {
    fn default() -> Self {
        Self::empty()
    }
}

impl fmt::Display for SearchOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "search outcome: {} episodes, {} explored, {} spec-compliant ({} pruned)",
            self.episodes,
            self.explored.len(),
            self.spec_compliant().count(),
            self.pruned_episodes
        )?;
        match &self.best {
            Some(best) => write!(f, "best: {best}"),
            None => write!(f, "best: none found"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{AccuracyOracle, Evaluator};
    use crate::spec::{DesignSpecs, WorkloadId};
    use crate::workload::Workload;
    use nasaic_accel::{Accelerator, Dataflow, SubAccelerator};

    fn make_solution(episode: usize, big: bool) -> ExploredSolution {
        let workload = Workload::w1();
        let specs = DesignSpecs::for_workload(WorkloadId::W1);
        let evaluator = Evaluator::new(&workload, specs, AccuracyOracle::default());
        let architectures: Vec<_> = workload
            .tasks
            .iter()
            .map(|t| {
                if big {
                    t.backbone.largest_architecture()
                } else {
                    t.backbone.smallest_architecture()
                }
            })
            .collect();
        let accelerator = Accelerator::new(vec![
            SubAccelerator::new(Dataflow::Nvdla, 1760, 40),
            SubAccelerator::new(Dataflow::Shidiannao, 1152, 24),
        ]);
        let candidate = Candidate::from_parts(architectures, accelerator);
        let evaluation = evaluator.evaluate(&candidate);
        ExploredSolution {
            episode,
            candidate,
            evaluation,
            reward: 0.0,
        }
    }

    #[test]
    fn record_tracks_compliant_and_best() {
        let mut outcome = SearchOutcome::empty();
        let compliant = make_solution(0, false);
        let violating = make_solution(1, true);
        assert!(compliant.evaluation.meets_specs());
        assert!(!violating.evaluation.meets_specs());
        outcome.record(compliant.clone());
        outcome.record(violating);
        assert_eq!(outcome.explored.len(), 2);
        assert_eq!(outcome.spec_compliant().count(), 1);
        assert_eq!(outcome.best.as_ref().unwrap().episode, 0);
        assert!(outcome.best_weighted_accuracy().unwrap() > 0.5);
        assert!((outcome.compliance_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn better_compliant_solution_replaces_best() {
        let mut outcome = SearchOutcome::empty();
        let mut first = make_solution(0, false);
        first.evaluation.weighted_accuracy = 0.80;
        let mut second = make_solution(1, false);
        second.evaluation.weighted_accuracy = 0.90;
        let mut worse = make_solution(2, false);
        worse.evaluation.weighted_accuracy = 0.70;
        outcome.record(first);
        outcome.record(second);
        outcome.record(worse);
        assert_eq!(outcome.best.as_ref().unwrap().episode, 1);
        assert_eq!(outcome.spec_compliant().count(), 3);
    }

    #[test]
    fn empty_outcome_has_no_best() {
        let outcome = SearchOutcome::empty();
        assert!(outcome.best.is_none());
        assert_eq!(outcome.compliance_rate(), 0.0);
        assert!(outcome.to_string().contains("none found"));
    }

    #[test]
    fn display_mentions_counts() {
        let mut outcome = SearchOutcome::empty();
        outcome.record(make_solution(0, false));
        outcome.episodes = 1;
        let text = outcome.to_string();
        assert!(text.contains("1 explored"));
        assert!(text.contains("best:"));
    }
}
