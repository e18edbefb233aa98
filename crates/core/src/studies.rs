//! Accelerator-configuration studies for Table II: from single and
//! homogeneous to heterogeneous accelerators on the CIFAR-10 workload W3.
//!
//! The paper compares four configurations:
//!
//! * **NAS** — accuracy-only NAS, accelerator gets the maximum hardware
//!   resources (`<dla, 4096, 64>`).  Violates the specs.
//! * **Single Acc.** — one sub-accelerator; the network executes twice
//!   sequentially, so the latency and energy constraints of the search are
//!   halved.
//! * **Homo. Acc.** — two identical sub-accelerators each running the same
//!   network simultaneously, so the per-accelerator energy and area
//!   constraints are halved.
//! * **Hetero. Acc. (NASAIC)** — the full co-exploration with two
//!   heterogeneous sub-accelerators and two independently searched
//!   networks.

use crate::algorithm::{Budget, SearchAlgorithm, SearchContext};
use crate::engine::{parallel_map, pool::divided_threads, EngineConfig, EvalEngine};
use crate::evaluator::{AccuracyOracle, Evaluator};
use crate::log::SearchOutcome;
use crate::search::Nasaic;
use crate::spec::{DesignSpecs, WorkloadId};
use crate::workload::{Task, Workload};
use nasaic_accel::{Accelerator, Dataflow, HardwareSpace, ResourceBudget, SubAccelerator};
use nasaic_nn::backbone::Backbone;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The accelerator configurations compared in Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AcceleratorStudy {
    /// Accuracy-only NAS with maximum hardware resources.
    NasUnconstrained,
    /// One sub-accelerator, network executed twice sequentially.
    SingleAccelerator,
    /// Two identical sub-accelerators running the same network.
    Homogeneous,
    /// NASAIC's heterogeneous two-sub-accelerator design.
    Heterogeneous,
}

impl fmt::Display for AcceleratorStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AcceleratorStudy::NasUnconstrained => f.write_str("NAS"),
            AcceleratorStudy::SingleAccelerator => f.write_str("Single Acc."),
            AcceleratorStudy::Homogeneous => f.write_str("Homo. Acc."),
            AcceleratorStudy::Heterogeneous => f.write_str("Hetero. Acc. (NASAIC)"),
        }
    }
}

/// One row of Table II.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyRow {
    /// Which configuration the row describes.
    pub study: AcceleratorStudy,
    /// Hardware description in the paper's notation.
    pub hardware: String,
    /// Architecture hyperparameter vectors (one per network instance).
    pub architectures: Vec<String>,
    /// Accuracy of each network instance.
    pub accuracies: Vec<f64>,
    /// `true` when the W3 design specs are satisfied.
    pub satisfied: bool,
}

impl StudyRow {
    /// Best accuracy across the row's networks.
    pub fn best_accuracy(&self) -> f64 {
        self.accuracies.iter().cloned().fold(0.0, f64::max)
    }
}

impl fmt::Display for StudyRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let accs: Vec<String> = self
            .accuracies
            .iter()
            .map(|a| format!("{:.2}%", a * 100.0))
            .collect();
        write!(
            f,
            "{:<22} | {:<40} | {} | {} | {}",
            self.study.to_string(),
            self.hardware,
            self.architectures.join(" / "),
            accs.join(" / "),
            if self.satisfied {
                "meets specs"
            } else {
                "violates specs"
            }
        )
    }
}

/// Scale of a study run (how many search episodes are spent).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StudyConfig {
    /// Episodes of each NASAIC search.
    pub episodes: usize,
    /// Hardware-only steps per episode.
    pub hardware_trials: usize,
    /// RNG seed.
    pub seed: u64,
    /// Engine worker ceiling for the study's search (`0` = all cores; the
    /// parallel [`run_all_studies`] fan-out sets each study's share).
    pub engine_threads: usize,
}

impl StudyConfig {
    /// Quick configuration for tests and examples.
    pub fn fast(seed: u64) -> Self {
        Self {
            episodes: 60,
            hardware_trials: 4,
            seed,
            engine_threads: 0,
        }
    }

    /// Benchmark-scale configuration.
    pub fn benchmark(seed: u64) -> Self {
        Self {
            episodes: 120,
            hardware_trials: 6,
            seed,
            engine_threads: 0,
        }
    }

    /// Run this study's NASAIC search over `hardware` through a fresh
    /// engine for `workload` under `specs`.
    fn run_nasaic(
        &self,
        workload: &Workload,
        specs: DesignSpecs,
        hardware: &HardwareSpace,
    ) -> SearchOutcome {
        let engine = EvalEngine::with_config(
            Evaluator::new(workload, specs, AccuracyOracle::default()),
            self.engine_config(),
        );
        let search = Nasaic {
            episodes: self.episodes,
            hardware_trials: self.hardware_trials,
            ..Nasaic::paper(self.seed)
        };
        let budget = Budget::new(self.episodes, self.hardware_trials);
        search.run(&SearchContext::new(
            workload, specs, hardware, &engine, self.seed, budget,
        ))
    }

    fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            threads: self.engine_threads,
            ..EngineConfig::default()
        }
    }
}

/// The single-task CIFAR-10 workload used by the single / homogeneous
/// studies (one network searched, deployed once or twice).
fn single_cifar_workload() -> Workload {
    Workload::new(vec![Task::new(
        "classification-cifar10",
        Backbone::ResNet9Cifar10,
        1.0,
    )])
}

/// Run one Table II study and produce its row.
pub fn run_study(study: AcceleratorStudy, config: &StudyConfig) -> StudyRow {
    let specs = DesignSpecs::for_workload(WorkloadId::W3);
    // Decorrelate the per-study seeds so one unlucky controller
    // initialisation cannot affect several rows at once.
    let mut config = *config;
    config.seed = config.seed.wrapping_mul(31).wrapping_add(match study {
        AcceleratorStudy::NasUnconstrained => 11,
        AcceleratorStudy::SingleAccelerator => 22,
        AcceleratorStudy::Homogeneous => 33,
        AcceleratorStudy::Heterogeneous => 44,
    });
    let config = &config;
    match study {
        AcceleratorStudy::NasUnconstrained => run_nas_unconstrained(specs, config),
        AcceleratorStudy::SingleAccelerator => run_single(specs, config),
        AcceleratorStudy::Homogeneous => run_homogeneous(specs, config),
        AcceleratorStudy::Heterogeneous => run_heterogeneous(specs, config),
    }
}

/// Run all four studies in Table II order.
///
/// The studies are independent searches (their seeds are decorrelated by
/// [`run_study`]), so they fan out in parallel and assemble in paper
/// order, identical to a serial run.
pub fn run_all_studies(config: &StudyConfig) -> Vec<StudyRow> {
    let studies = [
        AcceleratorStudy::NasUnconstrained,
        AcceleratorStudy::SingleAccelerator,
        AcceleratorStudy::Homogeneous,
        AcceleratorStudy::Heterogeneous,
    ];
    // Split the machine between the four studies' engines unless the
    // caller pinned an explicit ceiling.
    let mut config = *config;
    if config.engine_threads == 0 {
        config.engine_threads = divided_threads(studies.len());
    }
    parallel_map(&studies, studies.len(), |&study| run_study(study, &config))
}

fn run_nas_unconstrained(specs: DesignSpecs, config: &StudyConfig) -> StudyRow {
    // Accuracy-only NAS on CIFAR-10, maximum hardware resources.
    let workload = single_cifar_workload();
    let engine = EvalEngine::with_config(
        Evaluator::new(&workload, specs, AccuracyOracle::default()),
        config.engine_config(),
    );
    let baseline = crate::baselines::NasThenAsic {
        nas_episodes: (config.episodes * 2).max(60),
        hardware_samples: 1,
        seed: config.seed,
    };
    let hardware = HardwareSpace::paper_default(1);
    let budget = Budget::new(baseline.nas_episodes, 0);
    let ctx = SearchContext::new(&workload, specs, &hardware, &engine, config.seed, budget);
    let architectures = baseline.run_nas(&ctx);
    let accelerator = Accelerator::single(SubAccelerator::new(Dataflow::Nvdla, 4096, 64));
    // The single network serves both W3 tasks; evaluate it twice (two
    // instances executing concurrently on the one accelerator).
    let w3_workload = Workload::w3();
    let w3_evaluator = Evaluator::new(&w3_workload, specs, AccuracyOracle::default());
    let both = vec![architectures[0].clone(), architectures[0].clone()];
    let metrics = w3_evaluator.hardware_metrics(&both, &accelerator);
    let accuracy = engine.accuracies(&architectures)[0];
    StudyRow {
        study: AcceleratorStudy::NasUnconstrained,
        hardware: accelerator.paper_notation(),
        architectures: vec![architectures[0].hyperparameter_string()],
        accuracies: vec![accuracy],
        satisfied: specs.admits(&metrics),
    }
}

fn run_single(specs: DesignSpecs, config: &StudyConfig) -> StudyRow {
    // One network, one sub-accelerator, latency and energy constraints
    // halved (the network runs twice sequentially).
    let workload = single_cifar_workload();
    let search_specs = specs.scaled(0.5, 0.5, 1.0);
    let outcome = config.run_nasaic(&workload, search_specs, &HardwareSpace::paper_default(1));
    match outcome.best {
        Some(best) => StudyRow {
            study: AcceleratorStudy::SingleAccelerator,
            hardware: best.candidate.accelerator.paper_notation(),
            architectures: vec![best.candidate.architectures[0].hyperparameter_string()],
            accuracies: vec![best.evaluation.accuracies[0]],
            satisfied: true,
        },
        None => StudyRow {
            study: AcceleratorStudy::SingleAccelerator,
            hardware: "none".to_string(),
            architectures: vec![],
            accuracies: vec![],
            satisfied: false,
        },
    }
}

fn run_homogeneous(specs: DesignSpecs, config: &StudyConfig) -> StudyRow {
    // One network searched; two identical sub-accelerators each run one
    // copy, so each copy sees half the energy and area budget.
    let workload = single_cifar_workload();
    let search_specs = specs.scaled(1.0, 0.5, 0.5);
    let half_budget = ResourceBudget::paper().scaled(0.5);
    let hardware = HardwareSpace::new(half_budget, 1, Dataflow::all().to_vec());
    let outcome = config.run_nasaic(&workload, search_specs, &hardware);
    match outcome.best {
        Some(best) => {
            let sub = best.candidate.accelerator.sub_accelerators()[0];
            StudyRow {
                study: AcceleratorStudy::Homogeneous,
                hardware: format!("2x {}", sub.paper_notation()),
                architectures: vec![format!(
                    "2x {}",
                    best.candidate.architectures[0].hyperparameter_string()
                )],
                accuracies: vec![best.evaluation.accuracies[0]],
                satisfied: true,
            }
        }
        None => StudyRow {
            study: AcceleratorStudy::Homogeneous,
            hardware: "none".to_string(),
            architectures: vec![],
            accuracies: vec![],
            satisfied: false,
        },
    }
}

fn run_heterogeneous(specs: DesignSpecs, config: &StudyConfig) -> StudyRow {
    let outcome = config.run_nasaic(&Workload::w3(), specs, &HardwareSpace::paper_default(2));
    match outcome.best {
        Some(best) => StudyRow {
            study: AcceleratorStudy::Heterogeneous,
            hardware: best.candidate.accelerator.paper_notation(),
            architectures: best
                .candidate
                .architectures
                .iter()
                .map(|a| a.hyperparameter_string())
                .collect(),
            accuracies: best.evaluation.accuracies.clone(),
            satisfied: true,
        },
        None => StudyRow {
            study: AcceleratorStudy::Heterogeneous,
            hardware: "none".to_string(),
            architectures: vec![],
            accuracies: vec![],
            satisfied: false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nas_unconstrained_violates_specs_with_high_accuracy() {
        let row = run_study(AcceleratorStudy::NasUnconstrained, &StudyConfig::fast(1));
        assert!(
            !row.satisfied,
            "unconstrained NAS should violate the W3 specs"
        );
        assert!(
            row.best_accuracy() > 0.93,
            "accuracy {}",
            row.best_accuracy()
        );
    }

    #[test]
    fn single_accelerator_study_meets_specs() {
        let row = run_study(AcceleratorStudy::SingleAccelerator, &StudyConfig::fast(2));
        assert!(row.satisfied);
        assert!(row.best_accuracy() > 0.80);
        assert!(row.hardware.contains('<'));
    }

    #[test]
    fn heterogeneous_study_produces_two_networks() {
        let row = run_study(AcceleratorStudy::Heterogeneous, &StudyConfig::fast(3));
        assert!(row.satisfied);
        assert_eq!(row.architectures.len(), 2);
        assert_eq!(row.accuracies.len(), 2);
    }

    #[test]
    fn study_row_display_contains_verdict() {
        let row = run_study(AcceleratorStudy::NasUnconstrained, &StudyConfig::fast(4));
        assert!(row.to_string().contains("violates specs"));
        assert_eq!(AcceleratorStudy::Homogeneous.to_string(), "Homo. Acc.");
    }
}
