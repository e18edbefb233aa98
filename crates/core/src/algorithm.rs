//! The unified search-algorithm API: one trait for NASAIC and every
//! baseline, one context carrying the run inputs, and a streaming
//! observer for search telemetry.
//!
//! This is the only way to run a search: a driver struct plus
//! [`SearchAlgorithm::run_checkpointed`] (or [`SearchAlgorithm::run`]) over
//! a [`SearchContext`].
//!
//! * [`SearchAlgorithm`] is the object-safe trait every driver implements:
//!   `run_checkpointed(&self, ctx, resume, sink) -> Result<SearchOutcome,
//!   SearchError>`, with `run(&self, ctx)` as the plain no-resume case,
//!   plus shard-plan / run-shard / merge-shards hooks for deterministic
//!   multi-process execution (see [`crate::checkpoint`]).
//! * [`SearchContext`] bundles what the old signatures passed piecemeal —
//!   workload, design specs, hardware space, shared [`EvalEngine`], seed,
//!   a [`Budget`], and an optional [`SearchObserver`].
//! * [`SearchRun`] is one run's handle, made by [`SearchContext::start`]:
//!   a driver takes its snapshots through [`SearchRun::checkpoint`], where
//!   a stop the observer asks for becomes [`SearchError::Cancelled`], and
//!   ends its event stream through [`SearchRun::finish`].
//! * [`Algorithm::instantiate`] is the one factory mapping an
//!   [`Algorithm`] name plus a [`SearchSpec`] budget onto a configured
//!   `Box<dyn SearchAlgorithm>`; the scenario runner, the `compare`
//!   experiment and the CLI all dispatch through it.
//! * [`SearchObserver`] receives [`SearchEvent`]s from every driver's
//!   episode loop: per-episode evaluation summaries, incumbent
//!   improvements, phase boundaries of the successive baselines, and a
//!   final summary with cache statistics.  [`NullObserver`] ignores
//!   everything (the default), [`RecordingObserver`] captures the stream
//!   for tests, [`TraceObserver`] writes JSON lines (the CLI's
//!   `nasaic run --trace`), [`ProgressObserver`] prints stderr progress
//!   lines, and [`MulticastObserver`] fans one stream out to several
//!   observers.
//!
//! Observation is passive: with any observer (including none), a seeded
//! run's [`SearchOutcome`] is the same (asserted by
//! `tests/algorithm_dispatch.rs`); the outcomes themselves are pinned by
//! `tests/controller_outcomes.rs`.
//!
//! # Running an algorithm through the trait
//!
//! ```
//! use nasaic_core::prelude::*;
//!
//! let mut scenario = registry::get("w3").unwrap();
//! scenario.search.episodes = 3;
//! scenario.search.hardware_trials = 2;
//! scenario.search.bound_samples = 3;
//! let workload = scenario.workload();
//! let hardware = scenario.hardware_space();
//! let engine = scenario.engine();
//!
//! let driver = Algorithm::MonteCarlo.instantiate(&scenario.search, scenario.seed);
//! let recorder = RecordingObserver::new();
//! let ctx = SearchContext::new(
//!     &workload,
//!     scenario.specs,
//!     &hardware,
//!     &engine,
//!     scenario.seed,
//!     scenario.search.budget(),
//! )
//! .with_observer(&recorder);
//! let outcome = driver.run(&ctx);
//! assert_eq!(outcome.explored.len(), scenario.search.budget().total_evaluations());
//! // The stream ends with a `SearchFinished` summary.
//! assert!(matches!(
//!     recorder.events().last(),
//!     Some(SearchEvent::SearchFinished { .. })
//! ));
//! ```

use crate::checkpoint::{
    merge_replay, solution_to_value, CheckpointSink, NullCheckpointSink, SearchCheckpoint,
    ShardMode, ShardPartial, ShardPlan,
};
use crate::engine::{CacheStats, EvalEngine};
use crate::log::{ExploredSolution, PhaseSummary, SearchOutcome};
use crate::scenario::value::{ConfigError, ConfigValue};
use crate::scenario::{Algorithm, SearchSpec};
use crate::spec::DesignSpecs;
use crate::workload::Workload;
use nasaic_accel::HardwareSpace;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;

/// The evaluation budget of a search, in the paper's canonical unit:
/// `episodes` (`beta`) joint steps, each followed by `hardware_trials`
/// (`phi`) hardware-only steps.
///
/// This struct owns the budget arithmetic that used to live in a doc
/// comment on `Scenario::run_algorithm_with_engine`: every algorithm maps
/// the same `(episodes, hardware_trials)` pair onto its own knobs so the
/// comparison spends comparable evaluation counts (the full per-algorithm
/// table lives in `docs/scenarios.md`).  [`Algorithm::instantiate`]
/// applies the mapping; custom [`SearchAlgorithm`]s can read the budget
/// from their [`SearchContext`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Episodes `beta`: joint (architecture + hardware) steps.
    pub episodes: usize,
    /// Hardware-only steps per episode `phi`.
    pub hardware_trials: usize,
}

impl Budget {
    /// A budget of `episodes` joint steps with `hardware_trials`
    /// hardware-only steps each.
    pub fn new(episodes: usize, hardware_trials: usize) -> Self {
        Self {
            episodes,
            hardware_trials,
        }
    }

    /// Total candidate evaluations the budget pays for:
    /// `episodes * (1 + hardware_trials)`.
    pub fn total_evaluations(&self) -> usize {
        self.episodes * (1 + self.hardware_trials)
    }

    /// The hardware-only share of the budget,
    /// `episodes * hardware_trials` (at least 1): what the successive
    /// baselines spend on accelerator sampling.
    pub fn hardware_budget(&self) -> usize {
        (self.episodes * self.hardware_trials).max(1)
    }
}

/// Everything a [`SearchAlgorithm`] needs to run: the problem (workload,
/// specs, hardware space), the shared evaluation engine, the seed and
/// budget, and an optional observer.
///
/// The built-in drivers returned by [`Algorithm::instantiate`] are fully
/// configured by the factory (the spec's budget and the seed are baked
/// into the driver), so for them the context's `seed` and `budget` are
/// descriptive — they feed observer events and let custom algorithms
/// derive their own budget mapping.
#[derive(Clone, Copy)]
pub struct SearchContext<'a> {
    /// The workload (task vector) being co-explored.
    pub workload: &'a Workload,
    /// The design specs (latency / energy / area upper bounds).
    pub specs: DesignSpecs,
    /// The hardware design space.
    pub hardware: &'a HardwareSpace,
    /// The shared evaluation engine (caches + batch parallelism).  Must
    /// wrap an evaluator for the same workload and specs.
    pub engine: &'a EvalEngine,
    /// RNG seed of the run.
    pub seed: u64,
    /// The declared evaluation budget.
    pub budget: Budget,
    observer: Option<&'a dyn SearchObserver>,
    shard: Option<(&'a ShardPlan, usize)>,
}

impl<'a> SearchContext<'a> {
    /// Bundle the run inputs into a context (no observer; add one with
    /// [`with_observer`](Self::with_observer)).
    pub fn new(
        workload: &'a Workload,
        specs: DesignSpecs,
        hardware: &'a HardwareSpace,
        engine: &'a EvalEngine,
        seed: u64,
        budget: Budget,
    ) -> Self {
        Self {
            workload,
            specs,
            hardware,
            engine,
            seed,
            budget,
            observer: None,
            shard: None,
        }
    }

    /// Attach an observer that receives the run's [`SearchEvent`] stream.
    pub fn with_observer(mut self, observer: &'a dyn SearchObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// The attached observer, or the no-op [`NullObserver`].
    pub fn observer(&self) -> &'a dyn SearchObserver {
        self.observer.unwrap_or(&NullObserver)
    }

    /// Start a run of `algorithm` at `seed` that offers its checkpoints to
    /// `sink`.  A driver calls this once, before any engine work, since
    /// the run's cache statistics are counted from here.
    pub fn start<'r>(
        &self,
        algorithm: &'r str,
        seed: u64,
        sink: &'r dyn CheckpointSink,
    ) -> SearchRun<'r>
    where
        'a: 'r,
    {
        SearchRun {
            engine: self.engine,
            observer: self.observer(),
            sink,
            algorithm,
            seed,
            records: 0,
            stats_start: self.engine.stats(),
        }
    }

    /// Restrict the context to shard `shard_index` of a strided `plan`:
    /// [`owns`](Self::owns) then holds only for that shard's units.
    pub(crate) fn with_shard(mut self, plan: &'a ShardPlan, shard_index: usize) -> Self {
        self.shard = Some((plan, shard_index));
        self
    }

    /// Does this run evaluate partitionable unit `unit`?  Always true,
    /// except in a strided shard, which owns only the units its plan
    /// [`assigns`](ShardPlan::assigns) to it.
    pub fn owns(&self, unit: usize) -> bool {
        self.shard
            .is_none_or(|(plan, shard_index)| plan.assigns(unit, shard_index))
    }
}

impl std::fmt::Debug for SearchContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchContext")
            .field("workload", &self.workload.name)
            .field("specs", &self.specs)
            .field("seed", &self.seed)
            .field("budget", &self.budget)
            .field("observed", &self.observer.is_some())
            .field("shard", &self.shard.map(|(_, shard_index)| shard_index))
            .finish()
    }
}

/// One run of a search: the only way a driver takes snapshots, learns that
/// it must stop, and ends its event stream.
///
/// [`SearchContext::start`] makes it.  The driver calls
/// [`checkpoint`](Self::checkpoint) at every snapshot point, sizes its
/// evaluation chunks with [`wants`](Self::wants), and passes its outcome
/// through [`finish`](Self::finish) at the end.
pub struct SearchRun<'r> {
    engine: &'r EvalEngine,
    observer: &'r dyn SearchObserver,
    sink: &'r dyn CheckpointSink,
    algorithm: &'r str,
    seed: u64,
    /// Explored records earlier checkpoints already handed to the sink.
    /// It starts at 0 even for a resumed run, so every run's first
    /// checkpoint is complete and a sink never depends on what an earlier
    /// run handed it.
    records: usize,
    stats_start: CacheStats,
}

impl SearchRun<'_> {
    /// Does the sink want a checkpoint after `progress` units?  The
    /// sampling loops end each evaluation chunk at the next such unit.
    pub fn wants(&self, progress: usize) -> bool {
        self.sink.wants(progress)
    }

    /// The run's snapshot point after `progress` units, with `explored`
    /// the outcome's records so far.
    ///
    /// Only if the sink wants this progress does it build the state tree,
    /// encode the records added since the previous checkpoint, hand both
    /// to the sink and announce the save on the observer stream.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::Cancelled`], before any of that, when the
    /// observer asks the run to stop ([`SearchObserver::should_stop`]).
    ///
    /// # Panics
    ///
    /// Panics if `explored` is shorter than the records already offered.
    pub fn checkpoint(
        &mut self,
        progress: usize,
        explored: &[ExploredSolution],
        state: impl FnOnce() -> ConfigValue,
    ) -> Result<(), SearchError> {
        if self.observer.should_stop() {
            return Err(SearchError::Cancelled);
        }
        if self.sink.wants(progress) {
            // The span covers building the state tree and the new records
            // and handing them to the sink (for a file sink: journal
            // append plus head encode and write).
            let _span = crate::metrics::maybe_time(crate::metrics::checkpoint_encode_wall);
            let checkpoint = SearchCheckpoint {
                records_from: self.records,
                records: explored[self.records..]
                    .iter()
                    .map(solution_to_value)
                    .collect(),
                ..SearchCheckpoint::new(self.algorithm, self.seed, progress, state())
            };
            self.records = explored.len();
            self.sink.on_checkpoint(&checkpoint);
            self.observer
                .on_event(&SearchEvent::CheckpointSaved { progress });
        }
        Ok(())
    }

    /// End the run: emit the final [`SearchEvent::SearchFinished`] summary
    /// with the engine's cache counters since [`SearchContext::start`],
    /// and hand the outcome back.  Trace consumers (and the CI
    /// `nasaic-bench validate-trace` gate) rely on `search_finished` being
    /// the stream's final event.
    pub fn finish(self, outcome: SearchOutcome) -> SearchOutcome {
        self.observer.on_event(&SearchEvent::SearchFinished {
            episodes: outcome.episodes,
            explored: outcome.explored.len(),
            spec_compliant: outcome.spec_compliant().count(),
            pruned_episodes: outcome.pruned_episodes,
            cache: self.engine.stats().since(&self.stats_start),
        });
        outcome
    }
}

/// Why a search returned without an outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchError {
    /// The resume checkpoint is of another algorithm or seed, past the
    /// run's budget, or holds a state or record that does not decode or
    /// fit the run.  Nothing has run then.
    Checkpoint(ConfigError),
    /// The observer asked the run to stop, and it did at its next snapshot
    /// point, without a `search_finished` event.
    Cancelled,
}

impl From<ConfigError> for SearchError {
    fn from(error: ConfigError) -> Self {
        SearchError::Checkpoint(error)
    }
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::Checkpoint(error) => error.fmt(f),
            SearchError::Cancelled => f.write_str("the search was cancelled"),
        }
    }
}

impl std::error::Error for SearchError {}

/// A co-exploration search algorithm: NASAIC, one of the five baselines,
/// or a user-defined driver.
///
/// The trait is object-safe; [`Algorithm::instantiate`] returns
/// `Box<dyn SearchAlgorithm>` and the scenario/CLI layers dispatch
/// through it.  Implementations must be deterministic for a context seed
/// and must route every candidate evaluation through the context's
/// [`EvalEngine`] so shared-cache runs stay bit-identical to isolated
/// ones.  See `docs/architecture.md` for a worked "add your own
/// algorithm" example.
///
/// # Checkpoint / resume
///
/// The one required entry point is
/// [`run_checkpointed`](Self::run_checkpointed): a run that can start
/// from a [`SearchCheckpoint`] and offers new checkpoints to a
/// [`CheckpointSink`] through its [`SearchRun`] as it progresses.
/// [`run`](Self::run) is the plain case (no resume, no sink).  The
/// contract, gated by the resume-identity
/// tests in `tests/checkpoint_resume.rs` and the resume proptest, is
/// *bit-identity*: resuming any checkpoint and running to the full budget
/// must produce exactly the outcome of the uninterrupted run.  A driver
/// decodes its whole resume state through the [`SearchCheckpoint`]
/// accessors before it does any work, and returns the first decode error
/// instead of panicking: a checkpoint of another algorithm, seed or
/// layout, or past the run's budget, is rejected before the engine or the
/// sink sees anything.
///
/// # Sharding
///
/// [`shard_plan`](Self::shard_plan) partitions a run across `N`
/// deterministic workers, [`run_shard`](Self::run_shard) executes one
/// worker's share, and [`merge_shards`](Self::merge_shards) folds the
/// partials back into the single-process outcome — again bit-identically.
/// The default plan is the *sequential fallback* (shard 0 runs
/// everything) used by the inherently serial drivers, where every unit of
/// work depends on the previous one's feedback: NASAIC and hardware-aware
/// NAS (the controller updates after every episode), hill climbing (each
/// step moves from the accepted neighbour) and the evolutionary search
/// (each generation breeds from the previous population).  Drivers whose
/// trials are independent (Monte-Carlo sampling, the successive
/// baselines' sweep phase) return strided plans instead; the provided
/// `run_shard` then runs the driver's own search over a context that
/// [`owns`](SearchContext::owns) only the shard's stride.  The contract for
/// such a driver: evaluate and record only the units `ctx.owns`, and set
/// each record's `episode` to its unit index, which is what the merge
/// replays the shards' records by.
pub trait SearchAlgorithm {
    /// The algorithm's stable machine-readable name (matches
    /// [`Algorithm::name`] for the built-ins).
    fn name(&self) -> &str;

    /// Run the search, optionally resuming from a checkpoint, offering
    /// new checkpoints to `sink` at the driver's snapshot points.  With
    /// `resume == None` and a [`NullCheckpointSink`] this is exactly the
    /// plain run.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::Checkpoint`] with the first error decoding
    /// `resume` (nothing has run then), and [`SearchError::Cancelled`]
    /// when the context's observer asked the run to stop.
    fn run_checkpointed(
        &self,
        ctx: &SearchContext<'_>,
        resume: Option<&SearchCheckpoint>,
        sink: &dyn CheckpointSink,
    ) -> Result<SearchOutcome, SearchError>;

    /// Run the search over the context's workload/specs/hardware through
    /// its engine, reporting progress to the context's observer.
    ///
    /// # Panics
    ///
    /// Panics if the context's observer asks the run to stop;
    /// [`run_checkpointed`](Self::run_checkpointed) returns that as
    /// [`SearchError::Cancelled`].
    fn run(&self, ctx: &SearchContext<'_>) -> SearchOutcome {
        self.run_checkpointed(ctx, None, &NullCheckpointSink)
            .unwrap_or_else(|error| panic!("{error}"))
    }

    /// How this driver splits one run across `shards` workers.  The
    /// default is the sequential fallback: shard 0 runs the whole search.
    fn shard_plan(&self, _ctx: &SearchContext<'_>, shards: usize) -> ShardPlan {
        ShardPlan::sequential(self.name(), shards)
    }

    /// Execute one shard of `plan`.  Under a sequential plan shard 0 runs
    /// the whole search and every other shard returns an empty outcome;
    /// under a strided plan every shard runs the search over a context
    /// that owns only its stride.
    ///
    /// # Panics
    ///
    /// Panics if `shard_index` is out of range for the plan.
    fn run_shard(
        &self,
        ctx: &SearchContext<'_>,
        plan: &ShardPlan,
        shard_index: usize,
    ) -> ShardPartial {
        assert!(
            shard_index < plan.shards,
            "shard index {shard_index} out of range for {} shards",
            plan.shards
        );
        let outcome = match plan.mode {
            ShardMode::Sequential if shard_index > 0 => SearchOutcome::empty(),
            ShardMode::Sequential => self.run(ctx),
            ShardMode::Strided => self.run(&ctx.with_shard(plan, shard_index)),
        };
        ShardPartial::new(plan, ctx.seed, ctx.budget, shard_index, outcome)
    }

    /// Merge every shard's partial back into the single-process outcome.
    /// The default replays the shards' records in unit order (strided
    /// plans) or returns shard 0's outcome (sequential plans); see
    /// [`merge_replay`].
    ///
    /// # Errors
    ///
    /// Returns an error when the partials do not form one consistent set
    /// for this run (see [`merge_replay`]).
    fn merge_shards(
        &self,
        ctx: &SearchContext<'_>,
        plan: &ShardPlan,
        partials: Vec<ShardPartial>,
    ) -> Result<SearchOutcome, ConfigError> {
        merge_replay(plan, ctx.seed, ctx.budget, partials)
    }
}

impl Algorithm {
    /// Instantiate the configured driver for this algorithm: the one
    /// factory behind `Scenario::run_algorithm_with_engine`, the
    /// `compare` experiment and the CLI.
    ///
    /// The spec's `(episodes, hardware_trials)` budget is mapped onto each
    /// driver's own knobs here (see [`Budget`] and the table in
    /// `docs/scenarios.md`), and `seed` is baked into the driver, so the
    /// returned box only needs a [`SearchContext`] to run.
    pub fn instantiate(&self, spec: &SearchSpec, seed: u64) -> Box<dyn SearchAlgorithm> {
        use crate::baselines::{
            AsicThenHwNas, EvolutionarySearch, HillClimb, MonteCarloSearch, NasThenAsic,
        };
        let budget = spec.budget();
        match self {
            Algorithm::Nasaic => Box::new(crate::search::Nasaic::from_search_spec(spec, seed)),
            Algorithm::MonteCarlo => Box::new(MonteCarloSearch {
                runs: budget.total_evaluations(),
                seed,
            }),
            Algorithm::HillClimb => Box::new(HillClimb {
                max_steps: spec.episodes,
                rho: spec.rho,
            }),
            Algorithm::Evolutionary => {
                // The driver never runs fewer than 2 individuals, so clamp
                // before dividing or a (programmatic) population of 1 would
                // silently double the spent budget.
                let population = spec.population.max(2);
                Box::new(EvolutionarySearch {
                    population,
                    generations: (budget.total_evaluations() / population).max(1),
                    tournament: spec.tournament,
                    mutation_rate: spec.mutation_rate,
                    rho: spec.rho,
                    seed,
                })
            }
            Algorithm::NasThenAsic => Box::new(NasThenAsic {
                nas_episodes: spec.episodes,
                hardware_samples: budget.hardware_budget(),
                seed,
            }),
            Algorithm::AsicThenHwNas => Box::new(AsicThenHwNas {
                monte_carlo_runs: budget.hardware_budget(),
                nas_episodes: spec.episodes,
                rho: spec.rho,
                seed,
            }),
        }
    }
}

/// Run `driver` on a paper workload under its specs, over the paper's
/// two-sub-accelerator space and a fresh engine: the drivers' unit-test
/// harness.  The context's seed and budget are descriptive for the
/// built-in drivers, so they are left at zero.
#[cfg(test)]
pub(crate) fn run_paper_workload(
    driver: &dyn SearchAlgorithm,
    id: crate::spec::WorkloadId,
) -> SearchOutcome {
    use crate::evaluator::{AccuracyOracle, Evaluator};
    let workload = Workload::for_id(id);
    let specs = DesignSpecs::for_workload(id);
    let hardware = HardwareSpace::paper_default(2);
    let engine = EvalEngine::new(Evaluator::new(&workload, specs, AccuracyOracle::default()));
    driver.run(&SearchContext::new(
        &workload,
        specs,
        &hardware,
        &engine,
        0,
        Budget::new(0, 0),
    ))
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// One telemetry event of a search run, streamed to the
/// [`SearchObserver`] as the drivers execute.
///
/// Event streams are deterministic for a seed (given a fresh engine): the
/// `RecordingObserver` determinism test in `tests/algorithm_dispatch.rs`
/// asserts byte-equality of repeated runs.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchEvent {
    /// A named phase of a multi-phase driver began (the successive
    /// baselines emit `nas`/`asic-sweep` and `asic-monte-carlo`/`hw-nas`).
    PhaseStarted {
        /// Phase name.
        phase: String,
        /// Episodes (or samples) the phase plans to spend.
        budget: usize,
    },
    /// A named phase finished; the summary is also appended to
    /// [`SearchOutcome::phases`].
    PhaseFinished {
        /// Phase name.
        phase: String,
        /// What the phase explored and what it decided.
        summary: PhaseSummary,
    },
    /// One episode (joint step + its hardware trials, one random sample,
    /// one local-search step, one generation, …) was evaluated.
    ///
    /// Episode indexing is per driver: NASAIC and the sampling drivers
    /// emit exactly `SearchFinished::episodes` events indexed
    /// `0..episodes`; drivers that evaluate an initial state before their
    /// loop (hill climbing's starting point, the evolutionary search's
    /// initial population) emit it as episode `0` and their steps /
    /// generations as `1..=episodes`, i.e. `episodes + 1` events; the
    /// successive baselines restart numbering per phase.
    EpisodeEvaluated {
        /// Episode index within the driver (or current phase).
        episode: usize,
        /// Candidates evaluated in this episode.
        evaluations: usize,
        /// The episode's weighted accuracy (Eq. 2), when the accuracy
        /// path ran (`None` for pruned episodes and accuracy-free
        /// phases).
        weighted_accuracy: Option<f64>,
        /// Whether any of the episode's designs met all specs.
        any_compliant: bool,
        /// The reward of the episode's primary step (Eq. 4 for the
        /// reward-driven drivers, raw accuracy for accuracy-only NAS,
        /// `0.0` for unrewarded sweeps).
        reward: f64,
        /// Mean policy entropy of the episode's controller sample
        /// (RL-driven episodes only).
        entropy: Option<f64>,
        /// The controller's REINFORCE baseline after this episode's
        /// feedback (RL-driven episodes only).
        baseline: Option<f64>,
    },
    /// A new best spec-compliant solution was found.
    NewIncumbent {
        /// Episode the incumbent was found at.
        episode: usize,
        /// Its weighted accuracy.
        weighted_accuracy: f64,
        /// Achieved latency in cycles.
        latency_cycles: f64,
        /// Achieved energy in nJ.
        energy_nj: f64,
        /// Achieved area in µm².
        area_um2: f64,
        /// The candidate in the paper's notation.
        candidate: String,
    },
    /// A checkpoint of the search state was handed to the run's
    /// [`CheckpointSink`] (only emitted when a sink wants checkpoints;
    /// plain runs never see this event).
    CheckpointSaved {
        /// Progress units completed when the snapshot was taken (the
        /// driver's own unit: samples, episodes, steps, generations).
        progress: usize,
    },
    /// The search finished (always the final event of a run).
    SearchFinished {
        /// Episodes executed.
        episodes: usize,
        /// Fully evaluated solutions.
        explored: usize,
        /// Spec-compliant solutions among them.
        spec_compliant: usize,
        /// Episodes skipped by early pruning.
        pruned_episodes: usize,
        /// Engine cache counters accumulated by this run (the delta on a
        /// shared engine).
        cache: CacheStats,
    },
}

impl SearchEvent {
    /// The event's stable machine-readable tag (the `event` field of the
    /// JSON-lines trace).
    pub fn kind(&self) -> &'static str {
        match self {
            SearchEvent::PhaseStarted { .. } => "phase_started",
            SearchEvent::PhaseFinished { .. } => "phase_finished",
            SearchEvent::EpisodeEvaluated { .. } => "episode_evaluated",
            SearchEvent::NewIncumbent { .. } => "new_incumbent",
            SearchEvent::CheckpointSaved { .. } => "checkpoint_saved",
            SearchEvent::SearchFinished { .. } => "search_finished",
        }
    }

    /// The event as a [`ConfigValue`] table (the JSON-lines trace format;
    /// `None` fields are omitted).
    pub fn to_value(&self) -> ConfigValue {
        let mut root = ConfigValue::table();
        root.insert("event", ConfigValue::Str(self.kind().to_string()));
        match self {
            SearchEvent::PhaseStarted { phase, budget } => {
                root.insert("phase", ConfigValue::Str(phase.clone()));
                root.insert("budget", ConfigValue::Integer(*budget as i64));
            }
            SearchEvent::PhaseFinished { phase, summary } => {
                root.insert("phase", ConfigValue::Str(phase.clone()));
                root.insert("summary", summary.to_value());
            }
            SearchEvent::EpisodeEvaluated {
                episode,
                evaluations,
                weighted_accuracy,
                any_compliant,
                reward,
                entropy,
                baseline,
            } => {
                root.insert("episode", ConfigValue::Integer(*episode as i64));
                root.insert("evaluations", ConfigValue::Integer(*evaluations as i64));
                if let Some(acc) = weighted_accuracy {
                    root.insert("weighted_accuracy", ConfigValue::Float(*acc));
                }
                root.insert("any_compliant", ConfigValue::Bool(*any_compliant));
                root.insert("reward", ConfigValue::Float(*reward));
                if let Some(entropy) = entropy {
                    root.insert("entropy", ConfigValue::Float(*entropy));
                }
                if let Some(baseline) = baseline {
                    root.insert("baseline", ConfigValue::Float(*baseline));
                }
            }
            SearchEvent::NewIncumbent {
                episode,
                weighted_accuracy,
                latency_cycles,
                energy_nj,
                area_um2,
                candidate,
            } => {
                root.insert("episode", ConfigValue::Integer(*episode as i64));
                root.insert("weighted_accuracy", ConfigValue::Float(*weighted_accuracy));
                root.insert("latency_cycles", ConfigValue::Float(*latency_cycles));
                root.insert("energy_nj", ConfigValue::Float(*energy_nj));
                root.insert("area_um2", ConfigValue::Float(*area_um2));
                root.insert("candidate", ConfigValue::Str(candidate.clone()));
            }
            SearchEvent::CheckpointSaved { progress } => {
                root.insert("progress", ConfigValue::Integer(*progress as i64));
            }
            SearchEvent::SearchFinished {
                episodes,
                explored,
                spec_compliant,
                pruned_episodes,
                cache,
            } => {
                root.insert("episodes", ConfigValue::Integer(*episodes as i64));
                root.insert("explored", ConfigValue::Integer(*explored as i64));
                root.insert(
                    "spec_compliant",
                    ConfigValue::Integer(*spec_compliant as i64),
                );
                root.insert(
                    "pruned_episodes",
                    ConfigValue::Integer(*pruned_episodes as i64),
                );
                root.insert(
                    "accuracy_hits",
                    ConfigValue::Integer(cache.accuracy_hits as i64),
                );
                root.insert(
                    "accuracy_misses",
                    ConfigValue::Integer(cache.accuracy_misses as i64),
                );
                root.insert(
                    "hardware_hits",
                    ConfigValue::Integer(cache.hardware_hits as i64),
                );
                root.insert(
                    "hardware_misses",
                    ConfigValue::Integer(cache.hardware_misses as i64),
                );
                root.insert(
                    "accuracy_entries",
                    ConfigValue::Integer(cache.accuracy_entries as i64),
                );
                root.insert(
                    "hardware_entries",
                    ConfigValue::Integer(cache.hardware_entries as i64),
                );
                root.insert(
                    "accuracy_evictions",
                    ConfigValue::Integer(cache.accuracy_evictions as i64),
                );
                root.insert(
                    "hardware_evictions",
                    ConfigValue::Integer(cache.hardware_evictions as i64),
                );
                root.insert(
                    "accuracy_capacity",
                    ConfigValue::Integer(cache.accuracy_capacity as i64),
                );
                root.insert(
                    "hardware_capacity",
                    ConfigValue::Integer(cache.hardware_capacity as i64),
                );
                root.insert(
                    "accuracy_hit_rate",
                    ConfigValue::Float(cache.accuracy_hit_rate()),
                );
                root.insert(
                    "hardware_hit_rate",
                    ConfigValue::Float(cache.hardware_hit_rate()),
                );
                root.insert("cache_hit_rate", ConfigValue::Float(cache.hit_rate()));
            }
        }
        root
    }
}

// ---------------------------------------------------------------------------
// Observers
// ---------------------------------------------------------------------------

/// A streaming consumer of search telemetry.
///
/// Drivers call `on_event` strictly sequentially (candidate *evaluation*
/// is batched in parallel, but bookkeeping — and therefore observation —
/// happens in deterministic draw order), so implementations only need
/// interior mutability, not lock-free concurrency.  An observer may only
/// ask the run to stop ([`should_stop`](Self::should_stop)); otherwise
/// the seeded outcome is identical with or without one.
pub trait SearchObserver {
    /// Receive one event.  Implementations should be cheap; they run on
    /// the search's hot path.
    fn on_event(&self, event: &SearchEvent);

    /// Should the run stop?  The driver asks at each snapshot point
    /// ([`SearchRun::checkpoint`]) and, on `true`, returns
    /// [`SearchError::Cancelled`] without finishing.
    fn should_stop(&self) -> bool {
        false
    }
}

/// The no-op observer (the default when a context has none).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl SearchObserver for NullObserver {
    fn on_event(&self, _event: &SearchEvent) {}
}

/// An observer that records every event in order — the test harness for
/// event-stream determinism and budget accounting.
#[derive(Debug, Default)]
pub struct RecordingObserver {
    events: Mutex<Vec<SearchEvent>>,
}

impl RecordingObserver {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of the recorded stream, in emission order.
    pub fn events(&self) -> Vec<SearchEvent> {
        self.events.lock().expect("recording observer lock").clone()
    }

    /// Number of recorded events with the given [`SearchEvent::kind`].
    pub fn count(&self, kind: &str) -> usize {
        self.events
            .lock()
            .expect("recording observer lock")
            .iter()
            .filter(|e| e.kind() == kind)
            .count()
    }
}

impl SearchObserver for RecordingObserver {
    fn on_event(&self, event: &SearchEvent) {
        self.events
            .lock()
            .expect("recording observer lock")
            .push(event.clone());
    }
}

/// Version of the JSON-lines trace schema written by [`TraceObserver`].
///
/// History:
/// - **1** — one [`SearchEvent::to_value`] table per line.
/// - **2** — every line additionally carries `elapsed_ms`: whole
///   milliseconds on the observer's monotonic clock since it was
///   constructed.  The field is injected at the write layer —
///   `to_value()` itself stays deterministic, which is what the trace
///   determinism tests compare after stripping `elapsed_ms`.
pub const TRACE_SCHEMA_VERSION: u32 = 2;

/// An observer that writes each event as one line of JSON (JSON lines):
/// the CLI's `nasaic run --trace <file>` sink.
///
/// Each line is the event's [`SearchEvent::to_value`] table plus an
/// `elapsed_ms` timestamp (see [`TRACE_SCHEMA_VERSION`]).  Each line is
/// flushed as it is written, so a run that dies mid-search (crash,
/// OOM-kill, ^C) leaves a parseable prefix of complete lines rather than
/// a truncated buffer.  Write errors after construction are swallowed
/// (the trace is telemetry, not the result); call
/// [`finish`](Self::finish) to surface the first I/O error, if any.
#[derive(Debug)]
pub struct TraceObserver<W: Write> {
    sink: Mutex<W>,
    started: std::time::Instant,
}

impl<W: Write> TraceObserver<W> {
    /// Trace into any writer (tests use `Vec<u8>`).
    pub fn new(sink: W) -> Self {
        Self {
            sink: Mutex::new(sink),
            started: std::time::Instant::now(),
        }
    }

    /// Flush and return the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns the flush error, if any.
    pub fn finish(self) -> std::io::Result<W> {
        let mut sink = self.sink.into_inner().expect("trace observer lock");
        sink.flush()?;
        Ok(sink)
    }
}

impl TraceObserver<std::io::BufWriter<std::fs::File>> {
    /// Trace into a file (truncating an existing one), buffered.
    ///
    /// # Errors
    ///
    /// Returns the error of creating the file.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(Self::new(std::io::BufWriter::new(std::fs::File::create(
            path,
        )?)))
    }
}

impl<W: Write> SearchObserver for TraceObserver<W> {
    fn on_event(&self, event: &SearchEvent) {
        let mut value = event.to_value();
        value.insert(
            "elapsed_ms",
            ConfigValue::Integer(self.started.elapsed().as_millis() as i64),
        );
        let line = crate::scenario::value::to_json_compact(&value);
        let mut sink = self.sink.lock().expect("trace observer lock");
        let _ = writeln!(sink, "{line}");
        // Flush per event: a run killed mid-search must leave a parseable
        // JSON-lines prefix behind, not a truncated buffer (the same
        // crash-safety contract checkpoints rely on).
        let _ = sink.flush();
    }
}

/// An observer that prints human-readable progress lines to stderr (new
/// incumbents, phase boundaries, and the final summary).
#[derive(Debug, Clone)]
pub struct ProgressObserver {
    label: String,
}

impl ProgressObserver {
    /// A progress printer prefixing every line with `label`.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
        }
    }
}

impl SearchObserver for ProgressObserver {
    fn on_event(&self, event: &SearchEvent) {
        match event {
            SearchEvent::PhaseStarted { phase, budget } => {
                eprintln!("[{}] phase {phase} started (budget {budget})", self.label);
            }
            SearchEvent::PhaseFinished { phase, summary } => {
                eprintln!(
                    "[{}] phase {phase} finished: {} explored, {} compliant",
                    self.label, summary.explored, summary.spec_compliant
                );
            }
            SearchEvent::NewIncumbent {
                episode,
                weighted_accuracy,
                latency_cycles,
                energy_nj,
                area_um2,
                ..
            } => {
                eprintln!(
                    "[{}] ep{episode}: new best {weighted_accuracy:.4} \
                     (lat {latency_cycles:.3e}, energy {energy_nj:.3e}, area {area_um2:.3e})",
                    self.label
                );
            }
            SearchEvent::SearchFinished {
                episodes,
                explored,
                spec_compliant,
                pruned_episodes,
                cache,
            } => {
                eprintln!(
                    "[{}] finished: {episodes} episodes, {explored} explored, \
                     {spec_compliant} compliant ({pruned_episodes} pruned), \
                     cache hit rate {:.1}% \
                     (accuracy {:.1}% over {} entries, hardware {:.1}% over {} entries, \
                     {} evicted)",
                    self.label,
                    cache.hit_rate() * 100.0,
                    cache.accuracy_hit_rate() * 100.0,
                    cache.accuracy_entries,
                    cache.hardware_hit_rate() * 100.0,
                    cache.hardware_entries,
                    cache.evictions(),
                );
            }
            SearchEvent::EpisodeEvaluated { .. } | SearchEvent::CheckpointSaved { .. } => {}
        }
    }
}

/// An observer that forwards every event to several observers in order
/// (the CLI composes trace + progress through it).
#[derive(Default)]
pub struct MulticastObserver<'a> {
    targets: Vec<&'a dyn SearchObserver>,
}

impl<'a> MulticastObserver<'a> {
    /// An empty multicast (events go nowhere until targets are added).
    pub fn new() -> Self {
        Self {
            targets: Vec::new(),
        }
    }

    /// Add a target; events are forwarded in insertion order.
    pub fn push(&mut self, target: &'a dyn SearchObserver) {
        self.targets.push(target);
    }
}

impl SearchObserver for MulticastObserver<'_> {
    fn on_event(&self, event: &SearchEvent) {
        for target in &self.targets {
            target.on_event(event);
        }
    }

    /// True as soon as any target asks to stop.
    fn should_stop(&self) -> bool {
        self.targets.iter().any(|target| target.should_stop())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::value;

    #[test]
    fn budget_owns_the_evaluation_arithmetic() {
        let budget = Budget::new(500, 10);
        assert_eq!(budget.total_evaluations(), 5500);
        assert_eq!(budget.hardware_budget(), 5000);
        // The hardware share never degenerates to zero.
        assert_eq!(Budget::new(3, 0).hardware_budget(), 1);
        assert_eq!(Budget::new(3, 0).total_evaluations(), 3);
    }

    #[test]
    fn search_spec_budget_matches_legacy_total() {
        let spec = SearchSpec::paper();
        assert_eq!(spec.budget().total_evaluations(), spec.total_evaluations());
    }

    #[test]
    fn instantiate_names_match_the_algorithm() {
        let spec = SearchSpec::paper();
        for algorithm in Algorithm::all() {
            let driver = algorithm.instantiate(&spec, 1);
            assert_eq!(driver.name(), algorithm.name());
        }
    }

    fn sample_events() -> Vec<SearchEvent> {
        vec![
            SearchEvent::PhaseStarted {
                phase: "nas".to_string(),
                budget: 10,
            },
            SearchEvent::EpisodeEvaluated {
                episode: 0,
                evaluations: 5,
                weighted_accuracy: Some(0.85),
                any_compliant: true,
                reward: 0.7,
                entropy: Some(1.2),
                baseline: None,
            },
            SearchEvent::NewIncumbent {
                episode: 0,
                weighted_accuracy: 0.85,
                latency_cycles: 1e5,
                energy_nj: 2e8,
                area_um2: 3e9,
                candidate: "x | y".to_string(),
            },
            SearchEvent::SearchFinished {
                episodes: 1,
                explored: 5,
                spec_compliant: 1,
                pruned_episodes: 0,
                cache: CacheStats {
                    accuracy_hits: 4,
                    accuracy_misses: 1,
                    hardware_hits: 0,
                    hardware_misses: 5,
                    accuracy_entries: 1,
                    hardware_entries: 5,
                    accuracy_evictions: 0,
                    hardware_evictions: 2,
                    accuracy_capacity: 0,
                    hardware_capacity: 7,
                },
            },
        ]
    }

    #[test]
    fn events_serialize_as_parseable_single_line_json() {
        for event in sample_events() {
            let line = value::to_json_compact(&event.to_value());
            assert!(!line.contains('\n'), "{line}");
            let parsed = value::parse_json(&line).unwrap();
            assert_eq!(parsed.get("event").unwrap().as_str(), Some(event.kind()));
        }
        // Optional fields are omitted, not null.
        let pruned = SearchEvent::EpisodeEvaluated {
            episode: 3,
            evaluations: 4,
            weighted_accuracy: None,
            any_compliant: false,
            reward: -1.0,
            entropy: None,
            baseline: None,
        };
        let line = value::to_json_compact(&pruned.to_value());
        assert!(!line.contains("weighted_accuracy"), "{line}");
    }

    #[test]
    fn trace_observer_writes_one_json_line_per_event() {
        let trace = TraceObserver::new(Vec::new());
        let events = sample_events();
        for event in &events {
            trace.on_event(event);
        }
        let bytes = trace.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), events.len());
        for (line, event) in lines.iter().zip(&events) {
            let parsed = value::parse_json(line).unwrap();
            assert_eq!(parsed.get("event").unwrap().as_str(), Some(event.kind()));
            // Schema v2: every line carries a monotonic timestamp.
            assert!(parsed.get("elapsed_ms").unwrap().as_integer().unwrap() >= 0);
        }
    }

    #[test]
    fn recording_and_multicast_observers_see_the_same_stream() {
        let a = RecordingObserver::new();
        let b = RecordingObserver::new();
        let mut fanout = MulticastObserver::new();
        fanout.push(&a);
        fanout.push(&b);
        for event in sample_events() {
            fanout.on_event(&event);
        }
        assert_eq!(a.events(), b.events());
        assert_eq!(a.events(), sample_events());
        assert_eq!(a.count("episode_evaluated"), 1);
        assert_eq!(a.count("search_finished"), 1);
    }
}
