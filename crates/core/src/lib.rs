//! NASAIC — the neural-architecture / ASIC-accelerator co-exploration
//! framework of Yang et al. (DAC 2020), reproduced in Rust.
//!
//! This crate is the paper's primary contribution: it wires the substrate
//! crates (architecture search spaces, accelerator templates, cost model,
//! mapper/scheduler, accuracy oracle, RL controller) into the NASAIC search
//! loop and provides the baselines and experiment harness that regenerate
//! every figure and table of the paper's evaluation.
//!
//! # Architecture of the framework (paper Fig. 4)
//!
//! 1. **Controller** ([`nasaic_rl::Controller`]) — a recurrent policy with
//!    one segment per DNN and one per sub-accelerator, predicting
//!    architecture hyperparameters and hardware allocations.
//! 2. **Optimizer selector** (the episode loop of [`search::Nasaic`]) —
//!    interleaves one joint (architecture + hardware) step with `phi`
//!    hardware-only steps and early-prunes architectures for which no
//!    feasible hardware design was found, skipping the expensive accuracy
//!    evaluation.
//! 3. **Evaluator** ([`evaluator`]) — the accuracy path (training /
//!    surrogate) and the hardware path (cost model + HAP mapping and
//!    scheduling), combined into the reward of Eq. 4.
//!
//! Every layer that evaluates candidates — the search loop, the
//! [`baselines`], and the [`experiments`] harness — does so through the
//! shared [`engine::EvalEngine`]: memoised accuracy and hardware-metrics
//! caches plus order-preserving batch parallelism, bit-identical to
//! direct [`evaluator::Evaluator`] calls.  NASAIC and all five baselines
//! run behind the one object-safe [`algorithm::SearchAlgorithm`] trait
//! (instantiated via [`scenario::Algorithm::instantiate`]), streaming
//! per-episode telemetry to an optional [`algorithm::SearchObserver`].
//!
//! # Quickstart
//!
//! Every search runs one way: a driver ([`search::Nasaic`] or a
//! [`baselines`] struct) plus [`algorithm::SearchAlgorithm::run`] over a
//! [`algorithm::SearchContext`] holding the workload, specs, hardware
//! space and engine.  A [`scenario::Scenario`] builds all of that from a
//! config:
//!
//! ```
//! use nasaic_core::prelude::*;
//!
//! let mut scenario = registry::get("w1").unwrap();
//! scenario.seed = 7;
//! scenario.search.episodes = 40;
//! scenario.search.hardware_trials = 4;
//! scenario.search.bound_samples = 10;
//! let outcome = scenario.run_outcome();
//! // Every solution NASAIC reports satisfies the design specs.
//! for solution in outcome.spec_compliant() {
//!     assert!(solution.evaluation.meets_specs());
//! }
//! ```
//!
//! The same search over a hand-built context:
//!
//! ```
//! use nasaic_core::prelude::*;
//!
//! let workload = Workload::w1();
//! let specs = DesignSpecs::for_workload(WorkloadId::W1);
//! let hardware = HardwareSpace::paper_default(2);
//! let engine = EvalEngine::new(Evaluator::new(&workload, specs, AccuracyOracle::default()));
//! let search = Nasaic::fast_demo(7);
//! let budget = Budget::new(search.episodes, search.hardware_trials);
//! let ctx = SearchContext::new(&workload, specs, &hardware, &engine, search.seed, budget);
//! let outcome = search.run(&ctx);
//! assert!(outcome.best.is_some());
//! ```

#![deny(missing_docs)]

pub mod algorithm;
pub mod baselines;
pub mod bounds;
pub mod candidate;
pub mod checkpoint;
pub mod engine;
pub mod evaluator;
pub mod experiments;
pub mod log;
pub mod metrics;
pub mod penalty;
pub mod reward;
pub mod scenario;
pub mod search;
pub mod spec;
pub mod studies;
pub mod workload;

/// Convenience re-exports for downstream users and examples.
pub mod prelude {
    pub use crate::algorithm::{
        Budget, MulticastObserver, NullObserver, ProgressObserver, RecordingObserver,
        SearchAlgorithm, SearchContext, SearchError, SearchEvent, SearchObserver, SearchRun,
        TraceObserver, TRACE_SCHEMA_VERSION,
    };
    pub use crate::bounds::PenaltyBounds;
    pub use crate::candidate::Candidate;
    pub use crate::checkpoint::{
        merge_replay, CheckpointSink, FileCheckpointSink, NullCheckpointSink,
        RecordingCheckpointSink, SearchCheckpoint, ShardMode, ShardPartial, ShardPlan,
    };
    pub use crate::engine::{CacheStats, EngineConfig, EvalEngine};
    pub use crate::evaluator::{AccuracyOracle, Evaluation, Evaluator};
    pub use crate::log::{ExploredSolution, PhaseSummary, SearchOutcome};
    pub use crate::metrics::{MetricsObserver, ProfileBreakdown};
    pub use crate::penalty::Penalty;
    pub use crate::reward::Reward;
    pub use crate::scenario::report::RunReport;
    pub use crate::scenario::{registry, Algorithm, Scenario};
    pub use crate::search::Nasaic;
    pub use crate::spec::{DesignSpecs, WorkloadId};
    pub use crate::workload::{Task, Workload};
    pub use nasaic_accel::{Accelerator, Dataflow, HardwareSpace, ResourceBudget, SubAccelerator};
    pub use nasaic_accuracy::{AccuracyCombiner, SurrogateModel};
    pub use nasaic_cost::{CostModel, HardwareMetrics};
    pub use nasaic_nn::backbone::Backbone;
}

pub use prelude::*;
