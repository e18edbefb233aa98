//! Declarative scenarios: run any dataset × backbone × accelerator
//! combination from a config instead of a code change.
//!
//! A [`Scenario`] bundles everything one co-exploration run needs — the
//! task vector (backbone + weight per task), the design specs, the
//! hardware space, the search algorithm and its budget, and the seed —
//! into a value that round-trips through TOML and JSON.  The
//! [`registry`] resolves well-known names (`w1`..`w3` plus mixes beyond
//! the paper's tables) to built-in scenarios, and the `nasaic` CLI binary
//! is a thin front-end over this module.
//!
//! ```
//! use nasaic_core::scenario::Scenario;
//!
//! let toml = r#"
//! name = "mini"
//! seed = 7
//!
//! [[tasks]]
//! name = "classification-cifar10"
//! backbone = "resnet9-cifar10"
//! weight = 1.0
//!
//! [specs]
//! latency_cycles = 4e5
//! energy_nj = 1e9
//! area_um2 = 4e9
//!
//! [search]
//! episodes = 40
//! "#;
//! let scenario = Scenario::from_toml_str(toml).unwrap();
//! assert_eq!(scenario.tasks.len(), 1);
//! assert_eq!(scenario.search.episodes, 40);
//! // Unset fields take the paper defaults, and the value round-trips.
//! assert_eq!(scenario.hardware.sub_accelerators, 2);
//! let reparsed = Scenario::from_toml_str(&scenario.to_toml_string()).unwrap();
//! assert_eq!(reparsed, scenario);
//! ```

pub mod generate;
pub mod registry;
pub mod report;
pub mod value;

use crate::algorithm::{NullObserver, SearchAlgorithm, SearchContext, SearchObserver};
use crate::checkpoint::{
    CheckpointSink, NullCheckpointSink, SearchCheckpoint, ShardPartial, ShardPlan,
};
use crate::engine::EvalEngine;
use crate::evaluator::{AccuracyOracle, Evaluator};
use crate::log::SearchOutcome;
use crate::spec::DesignSpecs;
use crate::workload::Workload;
use nasaic_accel::{Dataflow, HardwareSpace, ResourceBudget};
use nasaic_nn::backbone::Backbone;
use nasaic_sched::{select_tier, SchedulerPolicy, TierDecision};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;
use std::str::FromStr;

pub use value::{ConfigError, ConfigValue};

/// One task declaration of a scenario: which backbone to search, under
/// which name, with which weight in the combined accuracy (Eq. 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Task name (free-form; used in logs and controller segment names).
    pub name: String,
    /// Backbone searched for this task.
    pub backbone: Backbone,
    /// Weight `alpha_i` of the task in the combined accuracy, in `(0, 1]`.
    pub weight: f64,
}

impl TaskSpec {
    /// Create a task spec.
    ///
    /// # Panics
    ///
    /// Panics if the weight is not in `(0, 1]` (parsed scenarios report a
    /// [`ConfigError`] instead).
    pub fn new(name: &str, backbone: Backbone, weight: f64) -> Self {
        assert!(
            weight > 0.0 && weight <= 1.0,
            "task weight must be in (0, 1]"
        );
        Self {
            name: name.to_string(),
            backbone,
            weight,
        }
    }
}

/// The hardware design space a scenario searches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HardwareSpec {
    /// Number of sub-accelerators on the die.
    pub sub_accelerators: usize,
    /// Total PE budget `NP` shared by the sub-accelerators.
    pub max_pes: usize,
    /// Total NoC bandwidth budget `BW` in GB/s.
    pub max_bandwidth_gbps: usize,
    /// The dataflow templates the controller may assign, in choice order
    /// (the order matters for seeded reproducibility).
    pub dataflows: Vec<Dataflow>,
}

impl HardwareSpec {
    /// The paper's hardware space: `k` sub-accelerators, the full
    /// 4096-PE / 64-GB/s budget, all three dataflow templates.
    pub fn paper(sub_accelerators: usize) -> Self {
        Self {
            sub_accelerators,
            max_pes: 4096,
            max_bandwidth_gbps: 64,
            dataflows: Dataflow::all().to_vec(),
        }
    }

    /// Build the [`HardwareSpace`] this spec describes.
    ///
    /// # Panics
    ///
    /// Panics if the spec is structurally invalid (zero sub-accelerators,
    /// empty dataflow list, zero budget); parsed scenarios are validated
    /// before this point.
    pub fn space(&self) -> HardwareSpace {
        HardwareSpace::new(
            ResourceBudget::new(self.max_pes, self.max_bandwidth_gbps),
            self.sub_accelerators,
            self.dataflows.clone(),
        )
    }
}

/// The search algorithm a scenario runs: the NASAIC RL controller or one
/// of the five baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// The paper's RL co-exploration loop (default).
    Nasaic,
    /// Joint Monte-Carlo random search.
    MonteCarlo,
    /// Greedy hill climbing over the joint space.
    HillClimb,
    /// Evolutionary co-search on the NASAIC reward.
    Evolutionary,
    /// Successive optimisation: accuracy-only NAS, then an ASIC sweep.
    NasThenAsic,
    /// Successive optimisation: hardware search, then hardware-aware NAS.
    AsicThenHwNas,
}

impl Algorithm {
    /// All algorithms, in a stable order (NASAIC first).
    pub fn all() -> [Algorithm; 6] {
        [
            Algorithm::Nasaic,
            Algorithm::MonteCarlo,
            Algorithm::HillClimb,
            Algorithm::Evolutionary,
            Algorithm::NasThenAsic,
            Algorithm::AsicThenHwNas,
        ]
    }

    /// The stable machine-readable name, round-tripped by [`FromStr`].
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Nasaic => "nasaic",
            Algorithm::MonteCarlo => "monte-carlo",
            Algorithm::HillClimb => "hill-climb",
            Algorithm::Evolutionary => "evolutionary",
            Algorithm::NasThenAsic => "nas-then-asic",
            Algorithm::AsicThenHwNas => "asic-then-hwnas",
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Algorithm {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let canonical: String = s
            .trim()
            .to_ascii_lowercase()
            .chars()
            .map(|c| if c == '_' { '-' } else { c })
            .collect();
        Algorithm::all()
            .into_iter()
            .find(|a| a.name() == canonical)
            .ok_or_else(|| {
                ConfigError::schema(format!(
                    "unknown algorithm `{s}` (expected one of: {})",
                    Algorithm::all().map(|a| a.name()).join(", ")
                ))
            })
    }
}

/// The search algorithm and its budget.
///
/// The `episodes` / `hardware_trials` pair is the canonical budget unit
/// (the paper's `beta` and `phi`); [`Algorithm::instantiate`] maps it onto
/// every algorithm's own knobs through [`Budget`] so the whole zoo spends
/// a comparable number of evaluations — see the budget table in
/// `docs/scenarios.md`.
///
/// [`Budget`]: crate::algorithm::Budget
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchSpec {
    /// Which algorithm to run.
    pub algorithm: Algorithm,
    /// Episodes `beta` (NASAIC) or the per-phase budget of a baseline.
    pub episodes: usize,
    /// Hardware-only steps per episode `phi`.
    pub hardware_trials: usize,
    /// Random hardware samples used to estimate the penalty bounds.
    pub bound_samples: usize,
    /// Penalty scaling `rho` of Eq. 4.
    pub rho: f64,
    /// Replicate one predicted sub-accelerator across the die
    /// (the homogeneous study of Table II).
    pub homogeneous: bool,
    /// Keep the episode's weighted accuracy in hardware-only rewards so
    /// both step kinds share one scale (`false` = literal paper).
    pub accuracy_in_hardware_reward: bool,
    /// Population size of the evolutionary co-search.
    pub population: usize,
    /// Tournament size of the evolutionary parent selection.
    pub tournament: usize,
    /// Per-gene mutation probability of the evolutionary co-search,
    /// in `[0, 1]`.
    pub mutation_rate: f64,
    /// Which HAP solver evaluates hardware candidates: `heuristic` (the
    /// paper's solver, the default), `auto` (tier by instance size),
    /// `beam` or `exact`.
    pub scheduler: SchedulerPolicy,
}

impl SearchSpec {
    /// The paper's search setup: NASAIC with `beta = 500`, `phi = 10`,
    /// `rho = 10` (plus the repo's evolutionary defaults: population 24,
    /// tournament 3, mutation 0.2).
    pub fn paper() -> Self {
        Self {
            algorithm: Algorithm::Nasaic,
            episodes: 500,
            hardware_trials: 10,
            bound_samples: 50,
            rho: 10.0,
            homogeneous: false,
            accuracy_in_hardware_reward: true,
            population: 24,
            tournament: 3,
            mutation_rate: 0.2,
            scheduler: SchedulerPolicy::Heuristic,
        }
    }

    /// The spec's `(episodes, hardware_trials)` pair as a
    /// [`Budget`](crate::algorithm::Budget) — the struct that owns the
    /// per-algorithm evaluation-count mapping.
    pub fn budget(&self) -> crate::algorithm::Budget {
        crate::algorithm::Budget::new(self.episodes, self.hardware_trials)
    }

    /// Total candidate evaluations this budget pays for
    /// (`episodes * (1 + hardware_trials)`).
    pub fn total_evaluations(&self) -> usize {
        self.budget().total_evaluations()
    }
}

/// A fully-specified co-exploration scenario.
///
/// See the module docs for the TOML shape and `docs/scenarios.md` for the
/// field-by-field schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name (registry key; `w1`..`w3` canonicalise to the paper
    /// workloads).
    pub name: String,
    /// Human-readable description shown by `nasaic list-scenarios`.
    pub description: String,
    /// RNG seed for the whole run.
    pub seed: u64,
    /// The task vector (at least one task).
    pub tasks: Vec<TaskSpec>,
    /// Design specs: upper bounds on latency, energy and area.
    pub specs: DesignSpecs,
    /// The hardware space.
    pub hardware: HardwareSpec,
    /// The search algorithm and budget.
    pub search: SearchSpec,
}

impl Scenario {
    // -- construction -----------------------------------------------------

    /// Parse a scenario from its TOML form.
    ///
    /// # Errors
    ///
    /// Returns a line-numbered [`ConfigError`] for syntax errors and a
    /// schema-level one for unknown keys, missing fields or out-of-range
    /// values.
    pub fn from_toml_str(input: &str) -> Result<Self, ConfigError> {
        Self::from_value(&value::parse_toml(input)?)
    }

    /// Parse a scenario from its JSON form.
    ///
    /// # Errors
    ///
    /// As [`Scenario::from_toml_str`].
    pub fn from_json_str(input: &str) -> Result<Self, ConfigError> {
        Self::from_value(&value::parse_json(input)?)
    }

    /// Parse a scenario from either format, sniffing JSON by a leading
    /// `{`.
    ///
    /// # Errors
    ///
    /// As [`Scenario::from_toml_str`].
    pub fn from_config_str(input: &str) -> Result<Self, ConfigError> {
        if input.trim_start().starts_with('{') {
            Self::from_json_str(input)
        } else {
            Self::from_toml_str(input)
        }
    }

    /// Load a scenario from a `.toml` or `.json` file (any other extension
    /// is format-sniffed like [`Scenario::from_config_str`]).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for unreadable files and for parse/schema
    /// errors.
    pub fn load(path: &Path) -> Result<Self, ConfigError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ConfigError::schema(format!("cannot read {}: {e}", path.display())))?;
        match path.extension().and_then(|e| e.to_str()) {
            Some("json") => Self::from_json_str(&text),
            Some("toml") => Self::from_toml_str(&text),
            _ => Self::from_config_str(&text),
        }
    }

    // -- schema mapping ---------------------------------------------------

    /// Build a scenario from a parsed [`ConfigValue`] table, validating
    /// the schema strictly (unknown keys are errors).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first schema violation.
    pub fn from_value(value: &ConfigValue) -> Result<Self, ConfigError> {
        let root = value.strict_fields("scenario")?;
        let name = root.str("name")?.to_string();
        let description = root.opt_str("description")?.unwrap_or_default().to_string();
        let seed = root.opt_uint("seed")?.unwrap_or(2020);

        let tasks = root.each_table("tasks", |task| {
            let name = task.opt_str("name")?;
            let backbone_name = task.str("backbone")?;
            let backbone = Backbone::from_name(backbone_name).ok_or_else(|| {
                task.invalid(
                    "backbone",
                    format_args!(
                        "names an unknown backbone `{backbone_name}` (expected one of: {})",
                        Backbone::all().map(|b| b.name()).join(", ")
                    ),
                )
            })?;
            let weight = task.number("weight")?;
            if !(weight > 0.0 && weight <= 1.0) {
                return Err(task.invalid("weight", format_args!("must be in (0, 1], got {weight}")));
            }
            task.finish()?;
            Ok(TaskSpec {
                name: name.unwrap_or(backbone.name()).to_string(),
                backbone,
                weight,
            })
        })?;
        if tasks.is_empty() {
            return Err(ConfigError::schema("scenario needs at least one task"));
        }

        let specs_table = root.table("specs")?;
        let bound = |key| {
            let bound = specs_table.number(key)?;
            if bound > 0.0 {
                Ok(bound)
            } else {
                Err(specs_table.invalid(key, format_args!("must be positive, got {bound}")))
            }
        };
        let specs = DesignSpecs::new(
            bound("latency_cycles")?,
            bound("energy_nj")?,
            bound("area_um2")?,
        );
        specs_table.finish()?;

        let hardware = match root.opt_table("hardware")? {
            None => HardwareSpec::paper(2),
            Some(hw) => {
                let sub_accelerators = hw.opt_uint("sub_accelerators")?.unwrap_or(2);
                if sub_accelerators == 0 {
                    return Err(hw.invalid("sub_accelerators", "must be at least 1"));
                }
                let max_pes = hw.opt_uint("max_pes")?.unwrap_or(4096);
                let max_bandwidth_gbps = hw.opt_uint("max_bandwidth_gbps")?.unwrap_or(64);
                for (key, budget) in [
                    ("max_pes", max_pes),
                    ("max_bandwidth_gbps", max_bandwidth_gbps),
                ] {
                    if budget == 0 {
                        return Err(hw.invalid(key, "must be positive"));
                    }
                }
                let dataflows = match hw.opt_array("dataflows")? {
                    None => Dataflow::all().to_vec(),
                    Some([]) => {
                        return Err(hw.invalid("dataflows", "must name at least one template"))
                    }
                    Some(items) => items
                        .iter()
                        .map(|item| {
                            let text = item.as_str().ok_or_else(|| {
                                hw.invalid("dataflows", "must be an array of strings")
                            })?;
                            Dataflow::from_str(text)
                                .map_err(|e| hw.invalid("dataflows", format_args!("names an {e}")))
                        })
                        .collect::<Result<_, _>>()?,
                };
                hw.finish()?;
                HardwareSpec {
                    sub_accelerators,
                    max_pes,
                    max_bandwidth_gbps,
                    dataflows,
                }
            }
        };

        let search = match root.opt_table("search")? {
            None => SearchSpec::paper(),
            Some(search) => {
                let defaults = SearchSpec::paper();
                let spec = SearchSpec {
                    algorithm: match search.opt_str("algorithm")? {
                        None => defaults.algorithm,
                        Some(name) => Algorithm::from_str(name).map_err(|e| {
                            search.invalid("algorithm", format_args!("names an {}", e.message))
                        })?,
                    },
                    episodes: search.opt_uint("episodes")?.unwrap_or(defaults.episodes),
                    hardware_trials: search
                        .opt_uint("hardware_trials")?
                        .unwrap_or(defaults.hardware_trials),
                    bound_samples: search
                        .opt_uint("bound_samples")?
                        .unwrap_or(defaults.bound_samples),
                    rho: search.opt_number("rho")?.unwrap_or(defaults.rho),
                    homogeneous: search
                        .opt_bool("homogeneous")?
                        .unwrap_or(defaults.homogeneous),
                    accuracy_in_hardware_reward: search
                        .opt_bool("accuracy_in_hardware_reward")?
                        .unwrap_or(defaults.accuracy_in_hardware_reward),
                    population: search
                        .opt_uint("population")?
                        .unwrap_or(defaults.population),
                    tournament: search
                        .opt_uint("tournament")?
                        .unwrap_or(defaults.tournament),
                    mutation_rate: search
                        .opt_number("mutation_rate")?
                        .unwrap_or(defaults.mutation_rate),
                    scheduler: match search.opt_str("scheduler")? {
                        None => defaults.scheduler,
                        Some(name) => name.parse::<SchedulerPolicy>().map_err(|e| {
                            search.invalid("scheduler", format_args!("names an {e}"))
                        })?,
                    },
                };
                if spec.episodes == 0 {
                    return Err(search.invalid("episodes", "must be at least 1"));
                }
                // The evolutionary driver needs two parents; a population of
                // 1 would also break the declared-budget arithmetic.
                if spec.population < 2 {
                    return Err(search.invalid("population", "must be at least 2"));
                }
                if spec.tournament == 0 {
                    return Err(search.invalid("tournament", "must be at least 1"));
                }
                if !(0.0..=1.0).contains(&spec.mutation_rate) {
                    return Err(search.invalid(
                        "mutation_rate",
                        format_args!("must be in [0, 1], got {}", spec.mutation_rate),
                    ));
                }
                search.finish()?;
                spec
            }
        };
        root.finish()?;

        Ok(Self {
            name,
            description,
            seed,
            tasks,
            specs,
            hardware,
            search,
        })
    }

    /// Serialize the scenario as a [`ConfigValue`] table (the inverse of
    /// [`Scenario::from_value`]; every field is emitted explicitly).
    pub fn to_value(&self) -> ConfigValue {
        let mut root = ConfigValue::table();
        root.insert("name", ConfigValue::Str(self.name.clone()));
        root.insert("description", ConfigValue::Str(self.description.clone()));
        root.insert("seed", ConfigValue::Integer(self.seed as i64));

        let tasks = self
            .tasks
            .iter()
            .map(|task| {
                let mut t = ConfigValue::table();
                t.insert("name", ConfigValue::Str(task.name.clone()));
                t.insert(
                    "backbone",
                    ConfigValue::Str(task.backbone.name().to_string()),
                );
                t.insert("weight", ConfigValue::Float(task.weight));
                t
            })
            .collect();
        root.insert("tasks", ConfigValue::Array(tasks));

        let mut specs = ConfigValue::table();
        specs.insert(
            "latency_cycles",
            ConfigValue::Float(self.specs.latency_cycles),
        );
        specs.insert("energy_nj", ConfigValue::Float(self.specs.energy_nj));
        specs.insert("area_um2", ConfigValue::Float(self.specs.area_um2));
        root.insert("specs", specs);

        let mut hardware = ConfigValue::table();
        hardware.insert(
            "sub_accelerators",
            ConfigValue::Integer(self.hardware.sub_accelerators as i64),
        );
        hardware.insert(
            "max_pes",
            ConfigValue::Integer(self.hardware.max_pes as i64),
        );
        hardware.insert(
            "max_bandwidth_gbps",
            ConfigValue::Integer(self.hardware.max_bandwidth_gbps as i64),
        );
        hardware.insert(
            "dataflows",
            ConfigValue::Array(
                self.hardware
                    .dataflows
                    .iter()
                    .map(|d| ConfigValue::Str(d.abbreviation().to_string()))
                    .collect(),
            ),
        );
        root.insert("hardware", hardware);

        let mut search = ConfigValue::table();
        search.insert(
            "algorithm",
            ConfigValue::Str(self.search.algorithm.name().to_string()),
        );
        search.insert(
            "episodes",
            ConfigValue::Integer(self.search.episodes as i64),
        );
        search.insert(
            "hardware_trials",
            ConfigValue::Integer(self.search.hardware_trials as i64),
        );
        search.insert(
            "bound_samples",
            ConfigValue::Integer(self.search.bound_samples as i64),
        );
        search.insert("rho", ConfigValue::Float(self.search.rho));
        search.insert("homogeneous", ConfigValue::Bool(self.search.homogeneous));
        search.insert(
            "accuracy_in_hardware_reward",
            ConfigValue::Bool(self.search.accuracy_in_hardware_reward),
        );
        search.insert(
            "population",
            ConfigValue::Integer(self.search.population as i64),
        );
        search.insert(
            "tournament",
            ConfigValue::Integer(self.search.tournament as i64),
        );
        search.insert(
            "mutation_rate",
            ConfigValue::Float(self.search.mutation_rate),
        );
        search.insert(
            "scheduler",
            ConfigValue::Str(self.search.scheduler.name().to_string()),
        );
        root.insert("search", search);
        root
    }

    /// The scenario as a TOML document.
    pub fn to_toml_string(&self) -> String {
        value::to_toml(&self.to_value())
    }

    /// The scenario as pretty-printed JSON.
    pub fn to_json_string(&self) -> String {
        value::to_json(&self.to_value())
    }

    // -- derived run inputs ----------------------------------------------

    /// The workload this scenario declares
    /// (alias of [`Workload::from_scenario`]).
    pub fn workload(&self) -> Workload {
        Workload::from_scenario(self)
    }

    /// The hardware space this scenario searches.
    pub fn hardware_space(&self) -> HardwareSpace {
        self.hardware.space()
    }

    /// A fresh [`EvalEngine`] for this scenario (evaluator over the
    /// declared workload, specs, the default oracle and the scenario's
    /// scheduler policy).
    pub fn engine(&self) -> EvalEngine {
        self.engine_with_config(crate::engine::EngineConfig::default())
    }

    /// [`engine`](Self::engine) with explicit tuning knobs (thread ceiling,
    /// cache bounds) — the daemon path, where a long-lived engine needs
    /// bounded caches and a per-job thread budget.
    pub fn engine_with_config(&self, config: crate::engine::EngineConfig) -> EvalEngine {
        EvalEngine::with_config(
            Evaluator::new(&self.workload(), self.specs, AccuracyOracle::default())
                .with_scheduler(self.search.scheduler),
            config,
        )
    }

    /// Total layer count of the scenario's workload when every task picks
    /// its smallest (resp. largest) architecture — the bounds of the HAP
    /// instances the search will solve.
    pub fn layer_bounds(&self) -> (usize, usize) {
        let mut min_layers = 0;
        let mut max_layers = 0;
        for task in &self.tasks {
            min_layers += task.backbone.smallest_architecture().num_layers();
            max_layers += task.backbone.largest_architecture().num_layers();
        }
        (min_layers, max_layers)
    }

    /// Which scheduler tier this scenario's hardware evaluations run, and
    /// why.  Size-dependent policies (`auto`, the `exact` fallback) are
    /// decided per candidate inside the evaluator; the decision reported
    /// here is taken on the **largest** instance the task vector can
    /// produce, so the reported tier covers every candidate of the search
    /// (smaller candidates may individually get a stronger tier).
    pub fn scheduler_decision(&self) -> TierDecision {
        use nasaic_sched::{SchedulerTier, DEFAULT_BEAM_WIDTH, EXACT_LAYER_LIMIT};
        let (min_layers, max_layers) = self.layer_bounds();
        match self.search.scheduler {
            SchedulerPolicy::Heuristic => TierDecision {
                tier: SchedulerTier::Heuristic,
                width: None,
                total_layers: max_layers,
                reason: "policy heuristic pins the paper's ratio heuristic".to_string(),
            },
            SchedulerPolicy::Beam => TierDecision {
                tier: SchedulerTier::Beam,
                width: Some(DEFAULT_BEAM_WIDTH),
                total_layers: max_layers,
                reason: format!("policy beam pins beam search at width {DEFAULT_BEAM_WIDTH}"),
            },
            SchedulerPolicy::Auto => {
                let mut decision = select_tier(max_layers);
                decision.reason = format!(
                    "policy auto over instances of {min_layers}..{max_layers} layers: {}",
                    decision.reason
                );
                decision
            }
            SchedulerPolicy::Exact => {
                if max_layers <= EXACT_LAYER_LIMIT {
                    TierDecision {
                        tier: SchedulerTier::Exact,
                        width: None,
                        total_layers: max_layers,
                        reason: format!(
                            "policy exact: at most {max_layers} layers within \
                             EXACT_LAYER_LIMIT {EXACT_LAYER_LIMIT}"
                        ),
                    }
                } else {
                    let mut decision = select_tier(max_layers);
                    decision.reason = format!(
                        "policy exact overruled: instances up to {max_layers} layers exceed \
                         EXACT_LAYER_LIMIT {EXACT_LAYER_LIMIT}; falls back to {}",
                        decision.tier
                    );
                    decision
                }
            }
        }
    }

    // -- execution --------------------------------------------------------

    /// Run the scenario's declared algorithm and return the raw search
    /// outcome (see [`report::RunReport`] for the summarised form the CLI
    /// emits).
    pub fn run_outcome(&self) -> SearchOutcome {
        self.run_algorithm_with_engine(self.search.algorithm, &self.engine())
    }

    /// Run a specific algorithm on this scenario through a shared engine
    /// (the `compare` path runs every algorithm over one warm cache).
    ///
    /// Dispatch goes through the [`Algorithm::instantiate`] factory and
    /// the [`SearchAlgorithm`] trait;
    /// the per-algorithm budget mapping lives on
    /// [`Budget`](crate::algorithm::Budget) (full table in
    /// `docs/scenarios.md`).
    ///
    /// # Panics
    ///
    /// As [`Scenario::run_algorithm_observed`].
    pub fn run_algorithm_with_engine(
        &self,
        algorithm: Algorithm,
        engine: &EvalEngine,
    ) -> SearchOutcome {
        self.run_algorithm_observed(algorithm, engine, &NullObserver)
    }

    /// [`run_algorithm_with_engine`](Self::run_algorithm_with_engine) with
    /// a [`SearchObserver`] receiving the run's event stream (per-episode
    /// telemetry, incumbents, phase boundaries, the final cache summary).
    /// Observation is passive: the outcome is bit-identical to the
    /// unobserved run.
    ///
    /// # Panics
    ///
    /// Panics when `engine` was built for different design specs, a
    /// different workload, or another scheduler policy.  An engine's
    /// hardware metrics solve the HAP under *its own* latency spec and
    /// scheduler, and its accuracy cache is keyed by task position, so
    /// reusing an engine across scenarios that disagree on any of these
    /// would silently evaluate this scenario against the other scenario's
    /// constraints.  Engines may only be shared across runs of the *same*
    /// scenario (which is exactly what the `compare` path does) — build
    /// one with [`Scenario::engine`].
    pub fn run_algorithm_observed(
        &self,
        algorithm: Algorithm,
        engine: &EvalEngine,
        observer: &dyn SearchObserver,
    ) -> SearchOutcome {
        self.run_algorithm_checkpointed(algorithm, engine, observer, None, &NullCheckpointSink)
    }

    /// [`run_algorithm_observed`](Self::run_algorithm_observed) with
    /// checkpoint plumbing: `resume` continues a run from a saved
    /// [`SearchCheckpoint`] and `sink` receives new checkpoints as the run
    /// progresses.  A resumed run continued to the full budget is
    /// bit-identical to the uninterrupted run.
    ///
    /// # Panics
    ///
    /// As [`Scenario::run_algorithm_observed`], plus with the
    /// [`SearchError`](crate::algorithm::SearchError) when the driver
    /// rejects `resume` or `observer` asks the run to stop
    /// ([`SearchAlgorithm::run_checkpointed`]);
    /// [`run_report_checkpointed`](Self::run_report_checkpointed) returns
    /// that error instead.
    pub fn run_algorithm_checkpointed(
        &self,
        algorithm: Algorithm,
        engine: &EvalEngine,
        observer: &dyn SearchObserver,
        resume: Option<&SearchCheckpoint>,
        sink: &dyn CheckpointSink,
    ) -> SearchOutcome {
        self.with_driver(algorithm, engine, observer, |driver, ctx| {
            driver.run_checkpointed(ctx, resume, sink)
        })
        .unwrap_or_else(|error| panic!("{error}"))
    }

    /// The algorithm's shard plan for splitting this scenario's run over
    /// `shards` workers (see
    /// [`SearchAlgorithm::shard_plan`]).
    pub fn algorithm_shard_plan(
        &self,
        algorithm: Algorithm,
        engine: &EvalEngine,
        shards: usize,
    ) -> ShardPlan {
        self.with_driver(algorithm, engine, &NullObserver, |driver, ctx| {
            driver.shard_plan(ctx, shards)
        })
    }

    /// Run one shard of this scenario's search under `plan`; the returned
    /// [`ShardPartial`] merges with the other shards' partials through
    /// [`merge_algorithm_shards`](Self::merge_algorithm_shards) into the
    /// exact single-process outcome.
    ///
    /// # Panics
    ///
    /// As [`Scenario::run_algorithm_observed`], plus when
    /// `shard_index >= plan.shards`.
    pub fn run_algorithm_shard(
        &self,
        algorithm: Algorithm,
        engine: &EvalEngine,
        observer: &dyn SearchObserver,
        plan: &ShardPlan,
        shard_index: usize,
    ) -> ShardPartial {
        self.with_driver(algorithm, engine, observer, |driver, ctx| {
            driver.run_shard(ctx, plan, shard_index)
        })
    }

    /// Merge the partials of every shard of `plan` into the single-process
    /// [`SearchOutcome`].
    ///
    /// # Errors
    ///
    /// Returns an error when partials are missing or duplicated, or come
    /// from another plan, seed or budget (see
    /// [`merge_replay`](crate::checkpoint::merge_replay)).
    ///
    /// # Panics
    ///
    /// As [`Scenario::run_algorithm_observed`].
    pub fn merge_algorithm_shards(
        &self,
        algorithm: Algorithm,
        engine: &EvalEngine,
        plan: &ShardPlan,
        partials: Vec<ShardPartial>,
    ) -> Result<SearchOutcome, ConfigError> {
        self.with_driver(algorithm, engine, &NullObserver, |driver, ctx| {
            driver.merge_shards(ctx, plan, partials)
        })
    }

    /// The setup every run entry point shares: check `engine` against this
    /// scenario, then hand `f` the configured driver for `algorithm` and a
    /// context over this scenario's problem, seed and budget, observed by
    /// `observer`.
    fn with_driver<R>(
        &self,
        algorithm: Algorithm,
        engine: &EvalEngine,
        observer: &dyn SearchObserver,
        f: impl FnOnce(&dyn SearchAlgorithm, &SearchContext<'_>) -> R,
    ) -> R {
        self.check_engine(engine);
        let workload = self.workload();
        let hardware = self.hardware_space();
        let driver = algorithm.instantiate(&self.search, self.seed);
        let ctx = SearchContext::new(
            &workload,
            self.specs,
            &hardware,
            engine,
            self.seed,
            self.search.budget(),
        )
        .with_observer(observer);
        f(driver.as_ref(), &ctx)
    }

    /// The engine/scenario compatibility gate shared by every run entry
    /// point (see [`run_algorithm_observed`](Self::run_algorithm_observed)
    /// for why each dimension is checked).
    fn check_engine(&self, engine: &EvalEngine) {
        let workload = self.workload();
        assert!(
            engine.evaluator().specs() == &self.specs,
            "engine/scenario mismatch: the engine was built for specs {:?} but scenario `{}` \
             declares {:?}; hardware mappings are solved under the engine's latency spec, so a \
             shared engine must come from this scenario's `Scenario::engine()`",
            engine.evaluator().specs(),
            self.name,
            self.specs,
        );
        assert!(
            engine.evaluator().workload() == &workload,
            "engine/scenario mismatch: the engine was built for workload `{}` but scenario `{}` \
             declares workload `{}`; accuracy caches are keyed by task position, so a shared \
             engine must come from this scenario's `Scenario::engine()`",
            engine.evaluator().workload().name,
            self.name,
            workload.name,
        );
        assert!(
            engine.evaluator().scheduler() == self.search.scheduler,
            "engine/scenario mismatch: the engine's evaluator solves hardware mappings with the \
             `{}` scheduler but scenario `{}` declares `{}`; the hardware cache does not key on \
             the scheduler policy, so a shared engine must come from this scenario's \
             `Scenario::engine()`",
            engine.evaluator().scheduler(),
            self.name,
            self.search.scheduler,
        );
    }

    /// A one-line summary for listings.
    pub fn summary(&self) -> String {
        let tasks: Vec<&str> = self.tasks.iter().map(|t| t.backbone.name()).collect();
        format!(
            "{}: {} task(s) [{}], {} on {} sub-accel, {} episodes, seed {}",
            self.name,
            self.tasks.len(),
            tasks.join(", "),
            self.search.algorithm,
            self.hardware.sub_accelerators,
            self.search.episodes,
            self.seed
        )
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal_toml() -> &'static str {
        r#"
name = "mini"

[[tasks]]
backbone = "resnet9-cifar10"
weight = 1.0

[specs]
latency_cycles = 4e5
energy_nj = 1e9
area_um2 = 4e9
"#
    }

    #[test]
    fn minimal_scenario_fills_paper_defaults() {
        let scenario = Scenario::from_toml_str(minimal_toml()).unwrap();
        assert_eq!(scenario.seed, 2020);
        assert_eq!(scenario.search, SearchSpec::paper());
        assert_eq!(scenario.hardware, HardwareSpec::paper(2));
        // An omitted task name defaults to the backbone name.
        assert_eq!(scenario.tasks[0].name, "resnet9-cifar10");
    }

    #[test]
    fn toml_and_json_round_trip() {
        let scenario = Scenario::from_toml_str(minimal_toml()).unwrap();
        assert_eq!(
            Scenario::from_toml_str(&scenario.to_toml_string()).unwrap(),
            scenario
        );
        assert_eq!(
            Scenario::from_json_str(&scenario.to_json_string()).unwrap(),
            scenario
        );
        // Auto-detection picks JSON by the leading brace.
        assert_eq!(
            Scenario::from_config_str(&scenario.to_json_string()).unwrap(),
            scenario
        );
    }

    #[test]
    fn unknown_keys_and_bad_values_are_schema_errors() {
        let err =
            Scenario::from_toml_str(&format!("{}\ntypo_key = 1\n", minimal_toml())).unwrap_err();
        assert!(err.message.contains("unknown key"), "{err}");

        let bad_backbone = minimal_toml().replace("resnet9-cifar10", "vgg16");
        let err = Scenario::from_toml_str(&bad_backbone).unwrap_err();
        assert!(err.message.contains("unknown backbone"), "{err}");

        let bad_weight = minimal_toml().replace("weight = 1.0", "weight = 1.5");
        let err = Scenario::from_toml_str(&bad_weight).unwrap_err();
        assert!(err.message.contains("weight"), "{err}");

        // A misspelt required key fails as missing, naming the misspelling.
        let misspelt = minimal_toml().replace("weight = 1.0", "weigth = 1.0");
        let err = Scenario::from_toml_str(&misspelt).unwrap_err();
        assert!(err.message.contains("holds: backbone, weigth"), "{err}");

        let err = Scenario::from_toml_str("name = \"empty\"\n").unwrap_err();
        assert!(err.message.contains("tasks"), "{err}");

        // A negative integer is reported by value, not as "got integer".
        let err = Scenario::from_toml_str(&format!("seed = -5\n{}", minimal_toml())).unwrap_err();
        assert!(err.message.contains("got -5"), "{err}");

        // The evolutionary driver needs two parents, and population = 1
        // would break the declared-budget arithmetic.
        let err =
            Scenario::from_toml_str(&format!("{}\n[search]\npopulation = 1\n", minimal_toml()))
                .unwrap_err();
        assert!(err.message.contains("population"), "{err}");

        let err = Scenario::from_toml_str(&format!(
            "{}\n[search]\nmutation_rate = 1.5\n",
            minimal_toml()
        ))
        .unwrap_err();
        assert!(err.message.contains("mutation_rate"), "{err}");
    }

    #[test]
    fn algorithm_names_round_trip() {
        for algorithm in Algorithm::all() {
            assert_eq!(Algorithm::from_str(algorithm.name()).unwrap(), algorithm);
        }
        assert_eq!(
            Algorithm::from_str("NAS_THEN_ASIC").unwrap(),
            Algorithm::NasThenAsic
        );
        assert!(Algorithm::from_str("simulated-annealing").is_err());
    }

    #[test]
    fn dataflow_subset_parses_in_order() {
        let toml = format!(
            "{}\n[hardware]\ndataflows = [\"dla\", \"shi\"]\n",
            minimal_toml()
        );
        let scenario = Scenario::from_toml_str(&toml).unwrap();
        assert_eq!(
            scenario.hardware.dataflows,
            vec![Dataflow::Nvdla, Dataflow::Shidiannao]
        );
    }

    #[test]
    #[should_panic(expected = "engine/scenario mismatch")]
    fn engine_with_different_latency_spec_is_rejected() {
        let mut scenario = Scenario::from_toml_str(minimal_toml()).unwrap();
        scenario.search.episodes = 1;
        scenario.search.hardware_trials = 1;
        scenario.search.bound_samples = 2;
        let foreign = {
            let mut other = scenario.clone();
            other.specs.latency_cycles *= 2.0;
            other.engine()
        };
        // A shared engine must carry this scenario's specs: its hardware
        // cache solves the HAP under the *engine's* latency constraint.
        scenario.run_algorithm_with_engine(Algorithm::MonteCarlo, &foreign);
    }

    #[test]
    #[should_panic(expected = "engine/scenario mismatch")]
    fn engine_with_different_workload_is_rejected() {
        let mut scenario = Scenario::from_toml_str(minimal_toml()).unwrap();
        scenario.search.episodes = 1;
        scenario.search.hardware_trials = 1;
        scenario.search.bound_samples = 2;
        let foreign = {
            let mut other = scenario.clone();
            other.tasks.push(other.tasks[0].clone());
            other.engine()
        };
        scenario.run_algorithm_with_engine(Algorithm::MonteCarlo, &foreign);
    }
}
