//! Fig. 1 — the motivation experiment.
//!
//! The paper's opening figure shows, for a single CIFAR-10 classification
//! task with a ResNet-9 search space, that:
//!
//! * every solution obtained by *successive* NAS→ASIC optimisation violates
//!   the design specs (circles);
//! * NAS made aware of one fixed ASIC design is feasible but loses accuracy
//!   (triangle);
//! * picking the explored solution closest to the specs is also sub-optimal
//!   (square);
//! * the joint optimum found by 10,000 Monte-Carlo runs uses a *different*
//!   ASIC design and gets higher accuracy (star).
//!
//! Because the figure shows a single network, the experiment uses a
//! single-task CIFAR-10 workload with the W3 specs scaled for one network
//! instance (latency and energy halved), documented in DESIGN.md.

use crate::algorithm::{Budget, SearchAlgorithm, SearchContext};
use crate::baselines::{AsicThenHwNas, MonteCarloSearch, NasThenAsic};
use crate::engine::EvalEngine;
use crate::evaluator::{AccuracyOracle, Evaluator};
use crate::experiments::{ExperimentScale, ScatterPoint};
use crate::spec::{DesignSpecs, WorkloadId};
use crate::workload::{Task, Workload};
use nasaic_accel::HardwareSpace;
use nasaic_nn::backbone::Backbone;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The data behind Fig. 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig1Result {
    /// The design specs (the black diamond).
    pub specs: DesignSpecs,
    /// Successive NAS→ASIC solutions (the circles).
    pub nas_then_asic: Vec<ScatterPoint>,
    /// The hardware-aware NAS solution on a fixed ASIC design (the
    /// triangle).
    pub hw_aware_nas: Option<ScatterPoint>,
    /// The explored solution closest to the specs (the square).
    pub closest_to_specs: Option<ScatterPoint>,
    /// The best solution of the Monte-Carlo joint search (the star).
    pub monte_carlo_optimal: Option<ScatterPoint>,
}

impl Fig1Result {
    /// Accuracy of the NAS architecture (shared by every NAS→ASIC point).
    pub fn nas_accuracy(&self) -> Option<f64> {
        self.nas_then_asic
            .first()
            .and_then(|p| p.accuracies.first().copied())
    }

    /// `true` when every NAS→ASIC point violates at least one spec.
    pub fn all_nas_points_violate_specs(&self) -> bool {
        self.nas_then_asic.iter().all(|p| {
            p.latency_cycles > self.specs.latency_cycles
                || p.energy_nj > self.specs.energy_nj
                || p.area_um2 > self.specs.area_um2
        })
    }
}

impl fmt::Display for Fig1Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 1 — design space exploration ({})", self.specs)?;
        writeln!(
            f,
            "  NAS->ASIC: {} solutions, accuracy {:.2}%, all violate specs: {}",
            self.nas_then_asic.len(),
            self.nas_accuracy().unwrap_or(0.0) * 100.0,
            self.all_nas_points_violate_specs()
        )?;
        if let Some(p) = &self.hw_aware_nas {
            writeln!(f, "  HW-aware NAS: {p}")?;
        }
        if let Some(p) = &self.closest_to_specs {
            writeln!(f, "  closest-to-spec heuristic: {p}")?;
        }
        if let Some(p) = &self.monte_carlo_optimal {
            writeln!(f, "  Monte-Carlo optimum: {p}")?;
        }
        Ok(())
    }
}

/// The single-task workload and spec set used by the Fig. 1 experiment.
pub fn fig1_setting() -> (Workload, DesignSpecs) {
    let workload = Workload::new(vec![Task::new(
        "classification-cifar10",
        Backbone::ResNet9Cifar10,
        1.0,
    )]);
    // One network instance: half of W3's latency/energy budget.
    let specs = DesignSpecs::for_workload(WorkloadId::W3).scaled(0.5, 0.5, 1.0);
    (workload, specs)
}

/// Run the Fig. 1 experiment at a given scale.
///
/// All four series run through one [`SearchContext`] and its shared
/// [`EvalEngine`] — the
/// Monte-Carlo sweep and the baselines revisit overlapping regions of the
/// single-task design space, so the caches carry across series.
pub fn run(scale: ExperimentScale, seed: u64) -> Fig1Result {
    let (workload, specs) = fig1_setting();
    let engine = EvalEngine::new(Evaluator::new(&workload, specs, AccuracyOracle::default()));
    let hardware = HardwareSpace::paper_default(2);
    let budget = Budget::new(scale.episodes(), scale.hardware_trials());
    let ctx = SearchContext::new(&workload, specs, &hardware, &engine, seed, budget);

    // Circles: successive NAS then brute-force ASIC sweep.
    let sweep = NasThenAsic {
        nas_episodes: scale.episodes(),
        hardware_samples: scale.hardware_samples(),
        seed,
    }
    .run(&ctx);
    let nas_then_asic: Vec<ScatterPoint> = sweep
        .explored
        .iter()
        .map(|s| ScatterPoint {
            latency_cycles: s.evaluation.metrics.latency_cycles,
            energy_nj: s.evaluation.metrics.energy_nj,
            area_um2: s.evaluation.metrics.area_um2,
            accuracies: s.evaluation.accuracies.clone(),
            label: s.candidate.accelerator.paper_notation(),
        })
        .collect();

    // Triangle: hardware-aware NAS on the Monte-Carlo-selected design.
    let hwnas_outcome = AsicThenHwNas {
        monte_carlo_runs: scale.monte_carlo_runs() / 2,
        nas_episodes: scale.episodes(),
        rho: 10.0,
        seed: seed ^ 0x17,
    }
    .run(&ctx);
    let hw_aware_nas = hwnas_outcome.best.as_ref().map(|s| ScatterPoint {
        latency_cycles: s.evaluation.metrics.latency_cycles,
        energy_nj: s.evaluation.metrics.energy_nj,
        area_um2: s.evaluation.metrics.area_um2,
        accuracies: s.evaluation.accuracies.clone(),
        label: "HW-aware NAS".to_string(),
    });

    // Star + square: joint Monte-Carlo search.
    let mc_outcome = MonteCarloSearch {
        runs: scale.monte_carlo_runs(),
        seed: seed ^ 0x2a,
    }
    .run(&ctx);
    let monte_carlo_optimal = mc_outcome.best.as_ref().map(|s| ScatterPoint {
        latency_cycles: s.evaluation.metrics.latency_cycles,
        energy_nj: s.evaluation.metrics.energy_nj,
        area_um2: s.evaluation.metrics.area_um2,
        accuracies: s.evaluation.accuracies.clone(),
        label: "MC optimum".to_string(),
    });
    // The "heuristic" square: among compliant MC solutions, the one closest
    // to the specs (largest normalised resource usage).
    let closest_to_specs = mc_outcome
        .spec_compliant()
        .max_by(|a, b| {
            let closeness = |s: &&crate::log::ExploredSolution| {
                let m = &s.evaluation.metrics;
                m.latency_cycles / specs.latency_cycles
                    + m.energy_nj / specs.energy_nj
                    + m.area_um2 / specs.area_um2
            };
            closeness(a).total_cmp(&closeness(b))
        })
        .map(|s| ScatterPoint {
            latency_cycles: s.evaluation.metrics.latency_cycles,
            energy_nj: s.evaluation.metrics.energy_nj,
            area_um2: s.evaluation.metrics.area_um2,
            accuracies: s.evaluation.accuracies.clone(),
            label: "closest to specs".to_string(),
        });

    Fig1Result {
        specs,
        nas_then_asic,
        hw_aware_nas,
        closest_to_specs,
        monte_carlo_optimal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_reproduces_the_papers_qualitative_shape() {
        let result = run(ExperimentScale::Quick, 21);
        // 1. Successive optimisation: every point violates the specs.
        assert!(!result.nas_then_asic.is_empty());
        assert!(result.all_nas_points_violate_specs());
        // 2. The NAS accuracy is the highest accuracy in the figure.
        let nas_acc = result.nas_accuracy().unwrap();
        assert!(nas_acc > 0.93);
        // 3. The Monte-Carlo optimum is feasible and loses some accuracy
        //    relative to unconstrained NAS.
        let star = result
            .monte_carlo_optimal
            .as_ref()
            .expect("MC found a compliant design");
        let star_acc = star.accuracies[0];
        assert!(star_acc < nas_acc);
        assert!(star_acc > 0.80);
        // 4. The closest-to-spec heuristic is no better than the optimum.
        if let Some(square) = &result.closest_to_specs {
            assert!(square.accuracies[0] <= star_acc + 1e-9);
        }
        // 5. Hardware-aware NAS on a fixed design is feasible but not above
        //    the joint optimum by more than the surrogate noise.
        if let Some(triangle) = &result.hw_aware_nas {
            assert!(triangle.accuracies[0] <= star_acc + 0.02);
        }
    }

    #[test]
    fn fig1_display_lists_every_series() {
        let result = run(ExperimentScale::Quick, 22);
        let text = result.to_string();
        assert!(text.contains("NAS->ASIC"));
        assert!(text.contains("Monte-Carlo"));
    }
}
