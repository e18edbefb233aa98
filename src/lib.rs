//! # NASAIC — Neural Architecture / ASIC Accelerator Co-Exploration
//!
//! This is the facade crate of the NASAIC reproduction (Yang et al.,
//! "Co-Exploration of Neural Architectures and Heterogeneous ASIC
//! Accelerator Designs Targeting Multiple Tasks", DAC 2020).  It re-exports
//! every subsystem crate under a stable set of module names so downstream
//! users can depend on a single crate:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`tensor`] | `nasaic-tensor` | dense matrices, activations, optimizers |
//! | [`nn`] | `nasaic-nn` | architecture IR, ResNet-9 / U-Net backbones, search spaces |
//! | [`accel`] | `nasaic-accel` | dataflow templates, sub-accelerators, hardware design space |
//! | [`cost`] | `nasaic-cost` | MAESTRO-style analytical latency/energy/area model |
//! | [`accuracy`] | `nasaic-accuracy` | calibrated accuracy surrogates and proxy training |
//! | [`sched`] | `nasaic-sched` | layer-to-sub-accelerator mapping and HAP scheduling |
//! | [`rl`] | `nasaic-rl` | LSTM policy network and REINFORCE machinery |
//! | [`core`] | `nasaic-core` | the NASAIC framework, scenario registry, baselines and experiment harness |
//! | [`serve`] | `nasaic-serve` | the `nasaic serve` daemon: shared warm engines, job queue, wire protocol |
//! | [`cli`] | (this crate) | the `nasaic` binary's argument parsing and subcommands |
//!
//! # Quickstart
//!
//! Every search runs one way: a driver (`Nasaic` or a baseline) run over
//! a `SearchContext` holding the workload, specs, hardware space and
//! evaluation engine.
//!
//! ```
//! use nasaic::core::prelude::*;
//!
//! // Workload W3 from the paper: two CIFAR-10 classification tasks, on
//! // the paper's two-sub-accelerator hardware space.
//! let workload = Workload::w3();
//! let specs = DesignSpecs::for_workload(WorkloadId::W3);
//! let hardware = HardwareSpace::paper_default(2);
//! let engine = EvalEngine::new(Evaluator::new(&workload, specs, AccuracyOracle::default()));
//! let search = Nasaic::fast_demo(7);
//! let budget = Budget::new(search.episodes, search.hardware_trials);
//! let ctx = SearchContext::new(&workload, specs, &hardware, &engine, search.seed, budget);
//! let outcome = search.run(&ctx);
//! assert!(outcome.best.is_some());
//! # let best = outcome.best.unwrap();
//! # assert!(best.evaluation.meets_specs());
//! ```
//!
//! The same run, declaratively through the scenario layer (what the
//! `nasaic` CLI binary does — see `docs/scenarios.md`), which builds the
//! context from a config:
//!
//! ```
//! use nasaic::core::scenario::registry;
//!
//! let mut scenario = registry::get("w3").expect("built-in scenario");
//! scenario.seed = 7;
//! scenario.search.episodes = 40;
//! scenario.search.hardware_trials = 4;
//! scenario.search.bound_samples = 10;
//! let report = scenario.run_report();
//! assert!(report.best.is_some());
//! ```

#![deny(missing_docs)]

pub mod cli;

pub use nasaic_accel as accel;
pub use nasaic_accuracy as accuracy;
pub use nasaic_core as core;
pub use nasaic_cost as cost;
pub use nasaic_nn as nn;
pub use nasaic_rl as rl;
pub use nasaic_sched as sched;
pub use nasaic_serve as serve;
pub use nasaic_tensor as tensor;
