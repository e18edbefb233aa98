//! Result summaries the CLI emits: one [`RunReport`] per (scenario,
//! algorithm) run, serializable as JSON, CSV or human-readable text.

use super::value::{self, ConfigValue};
use super::{Algorithm, Scenario};
use crate::algorithm::{NullObserver, SearchError, SearchObserver};
use crate::checkpoint::{CheckpointSink, NullCheckpointSink, SearchCheckpoint};
use crate::engine::{CacheStats, EvalEngine};
use crate::log::{PhaseSummary, SearchOutcome};
use std::fmt;
use std::time::Instant;

/// The spec-compliant best solution of a run, flattened for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct BestSolution {
    /// Episode (or sample index) the solution was found at.
    pub episode: usize,
    /// Combined accuracy of Eq. 2.
    pub weighted_accuracy: f64,
    /// Per-task accuracies, in task order.
    pub accuracies: Vec<f64>,
    /// Achieved latency in cycles.
    pub latency_cycles: f64,
    /// Achieved energy in nJ.
    pub energy_nj: f64,
    /// Achieved area in µm².
    pub area_um2: f64,
    /// The candidate in the paper's notation
    /// (hyperparameters | per-sub-accelerator allocations).
    pub candidate: String,
}

/// The summary of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Scenario name.
    pub scenario: String,
    /// Algorithm that produced the outcome.
    pub algorithm: Algorithm,
    /// Seed of the run.
    pub seed: u64,
    /// Episodes (or generations/samples) executed.
    pub episodes: usize,
    /// Fully evaluated solutions.
    pub explored: usize,
    /// Spec-compliant solutions among them.
    pub spec_compliant: usize,
    /// Episodes skipped by early pruning (NASAIC only; 0 for baselines).
    pub pruned_episodes: usize,
    /// `spec_compliant / explored` (0 when nothing was explored).
    pub compliance_rate: f64,
    /// The best spec-compliant solution, if any.
    pub best: Option<BestSolution>,
    /// Per-phase summaries of multi-phase algorithms (the successive
    /// baselines' intermediate results; empty otherwise).
    pub phases: Vec<PhaseSummary>,
    /// Fraction of evaluator queries served from the engine caches.
    pub cache_hit_rate: f64,
    /// Fraction of accuracy queries served from the accuracy cache.
    pub accuracy_hit_rate: f64,
    /// Fraction of hardware queries served from the hardware cache.
    pub hardware_hit_rate: f64,
    /// Accuracy-cache entries resident at the end of the run.
    pub accuracy_entries: u64,
    /// Hardware-cache entries resident at the end of the run.
    pub hardware_entries: u64,
    /// Accuracy-cache entries evicted during the run (0 on an unbounded
    /// cache).
    pub accuracy_evictions: u64,
    /// Hardware-cache entries evicted during the run (0 on an unbounded
    /// cache).
    pub hardware_evictions: u64,
    /// Configured accuracy-cache capacity (0 = unbounded).
    pub accuracy_capacity: u64,
    /// Configured hardware-cache capacity (0 = unbounded).
    pub hardware_capacity: u64,
    /// Wall-clock duration of the run in milliseconds.
    pub wall_ms: u64,
    /// The scenario's scheduler policy (`heuristic`, `auto`, `beam`,
    /// `exact`).
    pub sched_policy: String,
    /// The solver tier that covers this scenario's hardware evaluations
    /// (decided on the largest instance the task vector can produce).
    pub sched_tier: String,
    /// Why that tier was selected — names the crossed layer limit, so an
    /// instance past `EXACT_LAYER_LIMIT` is diagnosed instead of silently
    /// downgraded.
    pub sched_tier_reason: String,
}

impl RunReport {
    /// Summarise a search outcome.  `cache` must be the cache counters of
    /// *this run only* — on a shared engine, the delta of
    /// [`EvalEngine::stats`](crate::engine::EvalEngine::stats) snapshots
    /// taken around the run (see
    /// [`CacheStats::since`](crate::engine::CacheStats::since)), so
    /// per-algorithm rates in a `compare` stay comparable.
    pub fn new(
        scenario: &Scenario,
        algorithm: Algorithm,
        outcome: &SearchOutcome,
        cache: CacheStats,
        wall_ms: u64,
    ) -> Self {
        let best = outcome.best.as_ref().map(|solution| BestSolution {
            episode: solution.episode,
            weighted_accuracy: solution.evaluation.weighted_accuracy,
            accuracies: solution.evaluation.accuracies.clone(),
            latency_cycles: solution.evaluation.metrics.latency_cycles,
            energy_nj: solution.evaluation.metrics.energy_nj,
            area_um2: solution.evaluation.metrics.area_um2,
            candidate: solution.candidate.summary(),
        });
        let decision = scenario.scheduler_decision();
        Self {
            scenario: scenario.name.clone(),
            algorithm,
            seed: scenario.seed,
            episodes: outcome.episodes,
            explored: outcome.explored.len(),
            spec_compliant: outcome.spec_compliant().count(),
            pruned_episodes: outcome.pruned_episodes,
            compliance_rate: outcome.compliance_rate(),
            best,
            phases: outcome.phases.clone(),
            cache_hit_rate: cache.hit_rate(),
            accuracy_hit_rate: cache.accuracy_hit_rate(),
            hardware_hit_rate: cache.hardware_hit_rate(),
            accuracy_entries: cache.accuracy_entries,
            hardware_entries: cache.hardware_entries,
            accuracy_evictions: cache.accuracy_evictions,
            hardware_evictions: cache.hardware_evictions,
            accuracy_capacity: cache.accuracy_capacity,
            hardware_capacity: cache.hardware_capacity,
            wall_ms,
            sched_policy: scenario.search.scheduler.name().to_string(),
            sched_tier: decision.tier.name().to_string(),
            sched_tier_reason: decision.reason,
        }
    }

    /// The report as a [`ConfigValue`] table (backing the JSON form).
    pub fn to_value(&self) -> ConfigValue {
        let mut root = ConfigValue::table();
        root.insert("scenario", ConfigValue::Str(self.scenario.clone()));
        root.insert(
            "algorithm",
            ConfigValue::Str(self.algorithm.name().to_string()),
        );
        root.insert("seed", ConfigValue::Integer(self.seed as i64));
        root.insert("episodes", ConfigValue::Integer(self.episodes as i64));
        root.insert("explored", ConfigValue::Integer(self.explored as i64));
        root.insert(
            "spec_compliant",
            ConfigValue::Integer(self.spec_compliant as i64),
        );
        root.insert(
            "pruned_episodes",
            ConfigValue::Integer(self.pruned_episodes as i64),
        );
        root.insert("compliance_rate", ConfigValue::Float(self.compliance_rate));
        root.insert("cache_hit_rate", ConfigValue::Float(self.cache_hit_rate));
        root.insert(
            "accuracy_hit_rate",
            ConfigValue::Float(self.accuracy_hit_rate),
        );
        root.insert(
            "hardware_hit_rate",
            ConfigValue::Float(self.hardware_hit_rate),
        );
        root.insert(
            "accuracy_entries",
            ConfigValue::Integer(self.accuracy_entries as i64),
        );
        root.insert(
            "hardware_entries",
            ConfigValue::Integer(self.hardware_entries as i64),
        );
        root.insert(
            "accuracy_evictions",
            ConfigValue::Integer(self.accuracy_evictions as i64),
        );
        root.insert(
            "hardware_evictions",
            ConfigValue::Integer(self.hardware_evictions as i64),
        );
        root.insert(
            "accuracy_capacity",
            ConfigValue::Integer(self.accuracy_capacity as i64),
        );
        root.insert(
            "hardware_capacity",
            ConfigValue::Integer(self.hardware_capacity as i64),
        );
        root.insert("wall_ms", ConfigValue::Integer(self.wall_ms as i64));
        root.insert("sched_policy", ConfigValue::Str(self.sched_policy.clone()));
        root.insert("sched_tier", ConfigValue::Str(self.sched_tier.clone()));
        root.insert(
            "sched_tier_reason",
            ConfigValue::Str(self.sched_tier_reason.clone()),
        );
        if !self.phases.is_empty() {
            root.insert(
                "phases",
                ConfigValue::Array(self.phases.iter().map(PhaseSummary::to_value).collect()),
            );
        }
        match &self.best {
            None => {}
            Some(best) => {
                let mut b = ConfigValue::table();
                b.insert("episode", ConfigValue::Integer(best.episode as i64));
                b.insert(
                    "weighted_accuracy",
                    ConfigValue::Float(best.weighted_accuracy),
                );
                b.insert(
                    "accuracies",
                    ConfigValue::Array(
                        best.accuracies
                            .iter()
                            .map(|a| ConfigValue::Float(*a))
                            .collect(),
                    ),
                );
                b.insert("latency_cycles", ConfigValue::Float(best.latency_cycles));
                b.insert("energy_nj", ConfigValue::Float(best.energy_nj));
                b.insert("area_um2", ConfigValue::Float(best.area_um2));
                b.insert("candidate", ConfigValue::Str(best.candidate.clone()));
                root.insert("best", b);
            }
        }
        root
    }

    /// The report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        value::to_json(&self.to_value())
    }

    /// Header row matching [`RunReport::to_csv_row`].
    pub const CSV_HEADER: &'static str = "scenario,algorithm,seed,episodes,explored,\
        spec_compliant,pruned_episodes,compliance_rate,best_weighted_accuracy,\
        best_latency_cycles,best_energy_nj,best_area_um2,cache_hit_rate,\
        accuracy_hit_rate,hardware_hit_rate,accuracy_entries,hardware_entries,\
        accuracy_evictions,hardware_evictions,accuracy_capacity,hardware_capacity,\
        wall_ms,sched_policy,sched_tier,sched_tier_reason";

    /// The report as one CSV row (best-solution columns are empty when no
    /// spec-compliant solution was found).  The free-form scenario name is
    /// quoted when it would break the column grid.
    pub fn to_csv_row(&self) -> String {
        let (acc, lat, energy, area) = match &self.best {
            Some(b) => (
                format!("{:.6}", b.weighted_accuracy),
                format!("{:.1}", b.latency_cycles),
                format!("{:.1}", b.energy_nj),
                format!("{:.1}", b.area_um2),
            ),
            None => Default::default(),
        };
        format!(
            "{},{},{},{},{},{},{},{:.4},{},{},{},{},{:.4},{:.4},{:.4},{},{},{},{},{},{},{},{},{},{}",
            csv_field(&self.scenario),
            self.algorithm.name(),
            self.seed,
            self.episodes,
            self.explored,
            self.spec_compliant,
            self.pruned_episodes,
            self.compliance_rate,
            acc,
            lat,
            energy,
            area,
            self.cache_hit_rate,
            self.accuracy_hit_rate,
            self.hardware_hit_rate,
            self.accuracy_entries,
            self.hardware_entries,
            self.accuracy_evictions,
            self.hardware_evictions,
            self.accuracy_capacity,
            self.hardware_capacity,
            self.wall_ms,
            csv_field(&self.sched_policy),
            csv_field(&self.sched_tier),
            csv_field(&self.sched_tier_reason)
        )
    }
}

/// RFC-4180 quoting for a free-form CSV field: wrapped in double quotes
/// (with `"` doubled) when it contains a separator, quote or newline.
fn csv_field(text: &str) -> String {
    if text.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", text.replace('"', "\"\""))
    } else {
        text.to_string()
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} [{}] seed {}: {} episodes, {} explored, {} spec-compliant \
             ({} pruned), cache hit rate {:.1}% \
             (accuracy {:.1}%, hardware {:.1}%, {} evicted), {} ms",
            self.scenario,
            self.algorithm,
            self.seed,
            self.episodes,
            self.explored,
            self.spec_compliant,
            self.pruned_episodes,
            self.cache_hit_rate * 100.0,
            self.accuracy_hit_rate * 100.0,
            self.hardware_hit_rate * 100.0,
            self.accuracy_evictions + self.hardware_evictions,
            self.wall_ms
        )?;
        if self.accuracy_capacity > 0 || self.hardware_capacity > 0 {
            writeln!(
                f,
                "cache bounds: accuracy {} / {}, hardware {} / {} \
                 (evicted {} + {})",
                self.accuracy_entries,
                self.accuracy_capacity,
                self.hardware_entries,
                self.hardware_capacity,
                self.accuracy_evictions,
                self.hardware_evictions
            )?;
        }
        writeln!(
            f,
            "scheduler: {} tier under policy {} — {}",
            self.sched_tier, self.sched_policy, self.sched_tier_reason
        )?;
        for phase in &self.phases {
            let best = match phase.best_weighted_accuracy {
                Some(acc) => format!(", best {acc:.4}"),
                None => String::new(),
            };
            writeln!(
                f,
                "  phase {}: {} episode(s), {} explored, {} compliant{} — {}",
                phase.name,
                phase.episodes,
                phase.explored,
                phase.spec_compliant,
                best,
                phase.detail
            )?;
        }
        match &self.best {
            Some(best) => write!(
                f,
                "best @ ep{}: weighted accuracy {:.4}, latency {:.3e} cycles, \
                 energy {:.3e} nJ, area {:.3e} um^2\n  {}",
                best.episode,
                best.weighted_accuracy,
                best.latency_cycles,
                best.energy_nj,
                best.area_um2,
                best.candidate
            ),
            None => write!(f, "best: no spec-compliant solution found"),
        }
    }
}

impl Scenario {
    /// Run the scenario's declared algorithm and summarise the result
    /// (wall-clock timed; this is what `nasaic run` emits).
    pub fn run_report(&self) -> RunReport {
        let engine = self.engine();
        self.run_report_with_engine(self.search.algorithm, &engine)
    }

    /// Run one algorithm through a shared engine and summarise the result
    /// (the `nasaic compare` path).  The reported cache hit rate covers
    /// this run only, even when the engine already served earlier runs.
    pub fn run_report_with_engine(&self, algorithm: Algorithm, engine: &EvalEngine) -> RunReport {
        self.run_report_observed(algorithm, engine, &NullObserver)
    }

    /// [`run_report_with_engine`](Self::run_report_with_engine) with a
    /// [`SearchObserver`] streaming the run's events (the CLI's
    /// `nasaic run --trace` path).  Observation is passive: the report is
    /// identical (modulo wall time) to the unobserved run.
    ///
    /// # Panics
    ///
    /// If `observer` asks the run to stop;
    /// [`run_report_checkpointed`](Self::run_report_checkpointed) returns
    /// that as [`SearchError::Cancelled`].
    pub fn run_report_observed(
        &self,
        algorithm: Algorithm,
        engine: &EvalEngine,
        observer: &dyn SearchObserver,
    ) -> RunReport {
        self.run_report_checkpointed(algorithm, engine, observer, None, &NullCheckpointSink)
            .unwrap_or_else(|error| panic!("{error}"))
    }

    /// [`run_report_observed`](Self::run_report_observed) with checkpoint
    /// plumbing (the CLI's `--checkpoint`/`--resume` path and the
    /// daemon's jobs): `resume` continues from a saved checkpoint, `sink`
    /// receives new ones.
    ///
    /// # Errors
    ///
    /// Returns the driver's error decoding `resume`, before anything ran,
    /// or [`SearchError::Cancelled`] when `observer` asked the run to stop
    /// ([`SearchAlgorithm::run_checkpointed`](crate::algorithm::SearchAlgorithm::run_checkpointed)).
    pub fn run_report_checkpointed(
        &self,
        algorithm: Algorithm,
        engine: &EvalEngine,
        observer: &dyn SearchObserver,
        resume: Option<&SearchCheckpoint>,
        sink: &dyn CheckpointSink,
    ) -> Result<RunReport, SearchError> {
        let stats_before = engine.stats();
        let start = Instant::now();
        let outcome = self.with_driver(algorithm, engine, observer, |driver, ctx| {
            driver.run_checkpointed(ctx, resume, sink)
        })?;
        let wall_ms = start.elapsed().as_millis() as u64;
        Ok(RunReport::new(
            self,
            algorithm,
            &outcome,
            engine.stats().since(&stats_before),
            wall_ms,
        ))
    }

    /// Summarise an already-computed outcome (the `nasaic merge` path,
    /// where the merge itself does no evaluation worth timing).
    pub fn report_for_outcome(&self, algorithm: Algorithm, outcome: &SearchOutcome) -> RunReport {
        RunReport::new(self, algorithm, outcome, CacheStats::default(), 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::registry;

    fn tiny(name: &str, algorithm: Algorithm) -> Scenario {
        let mut scenario = registry::get(name).expect("built-in");
        scenario.search.algorithm = algorithm;
        scenario.search.episodes = 6;
        scenario.search.hardware_trials = 3;
        scenario.search.bound_samples = 5;
        scenario.seed = 11;
        scenario
    }

    #[test]
    fn run_report_summarises_a_tiny_nasaic_run() {
        let report = tiny("w3", Algorithm::Nasaic).run_report();
        assert_eq!(report.scenario, "w3");
        assert_eq!(report.algorithm, Algorithm::Nasaic);
        assert_eq!(report.episodes, 6);
        assert!(report.cache_hit_rate > 0.0);
        // JSON parses back and carries the same counts.
        let parsed = value::parse_json(&report.to_json()).unwrap();
        assert_eq!(parsed.get("episodes").unwrap().as_integer(), Some(6));
        assert_eq!(parsed.get("algorithm").unwrap().as_str(), Some("nasaic"));
        // CSV row and header have the same number of columns.
        assert_eq!(
            report.to_csv_row().split(',').count(),
            RunReport::CSV_HEADER.split(',').count()
        );
    }

    #[test]
    fn baseline_reports_flow_through_the_same_path() {
        let report = tiny("w3", Algorithm::MonteCarlo).run_report();
        assert_eq!(report.algorithm, Algorithm::MonteCarlo);
        // Monte-Carlo spends the full evaluation budget as samples.
        assert_eq!(report.episodes, 6 * (1 + 3));
        assert_eq!(report.explored, 24);
    }

    #[test]
    fn display_mentions_outcome_counts() {
        let report = tiny("w3", Algorithm::Nasaic).run_report();
        let text = report.to_string();
        assert!(text.contains("w3 [nasaic]"), "{text}");
        assert!(text.contains("episodes"), "{text}");
    }
}
