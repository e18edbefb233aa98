//! Fig. 6 — NASAIC exploration results on the three workloads.
//!
//! For each workload (W1, W2, W3) the figure shows the design specs, every
//! spec-compliant solution explored by NASAIC (green diamonds), the
//! accuracy lower bound obtained by pairing the smallest architectures with
//! random accelerator designs (blue crosses), and the best solution found
//! (red star).

use crate::algorithm::{Budget, SearchAlgorithm, SearchContext};
use crate::engine::{parallel_map, pool::divided_threads, EngineConfig, EvalEngine};
use crate::evaluator::{AccuracyOracle, Evaluator};
use crate::experiments::{ExperimentScale, ScatterPoint};
use crate::search::Nasaic;
use crate::spec::{DesignSpecs, WorkloadId};
use crate::workload::Workload;
use nasaic_accel::HardwareSpace;
use nasaic_nn::layer::Architecture;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The exploration data of one panel (one workload) of Fig. 6.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Panel {
    /// Which workload the panel shows.
    pub workload: WorkloadId,
    /// The design specs of the workload.
    pub specs: DesignSpecs,
    /// Spec-compliant solutions explored by NASAIC.
    pub explored: Vec<ScatterPoint>,
    /// The best solution (highest weighted accuracy).
    pub best: Option<ScatterPoint>,
    /// Lower-bound points: smallest architectures on random hardware.
    pub lower_bounds: Vec<ScatterPoint>,
    /// Accuracy of the smallest architectures (the figure's blue numbers).
    pub lower_bound_accuracies: Vec<f64>,
    /// Number of episodes NASAIC ran for this panel.
    pub episodes: usize,
}

impl Fig6Panel {
    /// `true` when every explored (green) solution satisfies the specs.
    pub fn all_explored_meet_specs(&self) -> bool {
        self.explored.iter().all(|p| {
            p.latency_cycles <= self.specs.latency_cycles
                && p.energy_nj <= self.specs.energy_nj
                && p.area_um2 <= self.specs.area_um2
        })
    }

    /// Best weighted accuracy of the panel.
    pub fn best_weighted_accuracy(&self) -> Option<f64> {
        self.best
            .as_ref()
            .map(|p| p.accuracies.iter().sum::<f64>() / p.accuracies.len() as f64)
    }
}

impl fmt::Display for Fig6Panel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 6 panel {} — {} ({} episodes)",
            self.workload, self.specs, self.episodes
        )?;
        writeln!(
            f,
            "  {} compliant solutions explored, {} lower-bound points",
            self.explored.len(),
            self.lower_bounds.len()
        )?;
        writeln!(
            f,
            "  lower-bound accuracy: {:?}",
            self.lower_bound_accuracies
                .iter()
                .map(|a| format!("{:.2}%", a * 100.0))
                .collect::<Vec<_>>()
        )?;
        match &self.best {
            Some(best) => writeln!(f, "  best solution: {best}"),
            None => writeln!(f, "  best solution: none"),
        }
    }
}

/// The full figure: one panel per workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Result {
    /// Panels in paper order (W1, W2, W3).
    pub panels: Vec<Fig6Panel>,
}

impl fmt::Display for Fig6Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for panel in &self.panels {
            write!(f, "{panel}")?;
        }
        Ok(())
    }
}

/// Run one panel of Fig. 6.
pub fn run_panel(workload_id: WorkloadId, scale: ExperimentScale, seed: u64) -> Fig6Panel {
    run_panel_with_threads(workload_id, scale, seed, 0)
}

/// [`run_panel`] with an explicit engine worker ceiling (`0` = all cores);
/// the parallel figure fan-out passes each panel its share of the machine.
pub fn run_panel_with_threads(
    workload_id: WorkloadId,
    scale: ExperimentScale,
    seed: u64,
    engine_threads: usize,
) -> Fig6Panel {
    let workload = Workload::for_id(workload_id);
    let specs = DesignSpecs::for_workload(workload_id);
    let hardware = HardwareSpace::paper_default(2);
    let engine = EvalEngine::with_config(
        Evaluator::new(&workload, specs, AccuracyOracle::default()),
        EngineConfig {
            threads: engine_threads,
            ..EngineConfig::default()
        },
    );
    let budget = Budget::new(scale.episodes(), scale.hardware_trials());
    let outcome = Nasaic {
        episodes: scale.episodes(),
        hardware_trials: scale.hardware_trials(),
        ..Nasaic::paper(seed)
    }
    .run(&SearchContext::new(
        &workload, specs, &hardware, &engine, seed, budget,
    ));

    let explored: Vec<ScatterPoint> = outcome
        .spec_compliant()
        .map(|s| ScatterPoint {
            latency_cycles: s.evaluation.metrics.latency_cycles,
            energy_nj: s.evaluation.metrics.energy_nj,
            area_um2: s.evaluation.metrics.area_um2,
            accuracies: s.evaluation.accuracies.clone(),
            label: s.candidate.accelerator.paper_notation(),
        })
        .collect();
    let best = outcome.best.as_ref().map(|s| ScatterPoint {
        latency_cycles: s.evaluation.metrics.latency_cycles,
        energy_nj: s.evaluation.metrics.energy_nj,
        area_um2: s.evaluation.metrics.area_um2,
        accuracies: s.evaluation.accuracies.clone(),
        label: format!("best {}", s.candidate.accelerator.paper_notation()),
    });

    // Lower bounds: smallest architectures on random accelerator designs,
    // drawn sequentially and metric-evaluated as one parallel batch through
    // the search's own engine, so any designs the search already visited
    // come straight from its caches.
    let smallest: Vec<Architecture> = workload
        .tasks
        .iter()
        .map(|t| t.backbone.smallest_architecture())
        .collect();
    let lower_bound_accuracies = engine.accuracies(&smallest);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1b);
    let accelerators: Vec<_> = (0..scale.hardware_samples() / 2)
        .map(|i| {
            if i % 2 == 0 {
                hardware.sample(&mut rng)
            } else {
                hardware.sample_fully_allocated(&mut rng)
            }
        })
        .collect();
    let lower_bounds: Vec<ScatterPoint> =
        parallel_map(&accelerators, engine.config().threads, |accelerator| {
            let metrics = engine.hardware_metrics(&smallest, accelerator);
            ScatterPoint {
                latency_cycles: metrics.latency_cycles,
                energy_nj: metrics.energy_nj,
                area_um2: metrics.area_um2,
                accuracies: lower_bound_accuracies.clone(),
                label: accelerator.paper_notation(),
            }
        });

    Fig6Panel {
        workload: workload_id,
        specs,
        explored,
        best,
        lower_bounds,
        lower_bound_accuracies,
        episodes: outcome.episodes,
    }
}

/// Run the full figure (all three workloads).
///
/// The three panels are independent searches: they fan out in parallel and
/// assemble in paper order (W1, W2, W3), identical to a serial run.
pub fn run(scale: ExperimentScale, seed: u64) -> Fig6Result {
    let panels = [
        (WorkloadId::W1, seed),
        (WorkloadId::W2, seed + 1),
        (WorkloadId::W3, seed + 2),
    ];
    // Each panel's engine gets an equal share of the machine so the nest
    // (panel fan-out x per-episode batches) does not oversubscribe it.
    let engine_threads = divided_threads(panels.len());
    Fig6Result {
        panels: parallel_map(&panels, panels.len(), |&(workload_id, panel_seed)| {
            run_panel_with_threads(workload_id, scale, panel_seed, engine_threads)
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn w1_panel_matches_paper_shape() {
        let panel = run_panel(WorkloadId::W1, ExperimentScale::Quick, 31);
        // Every explored solution NASAIC reports satisfies the specs.
        assert!(panel.all_explored_meet_specs());
        assert!(
            !panel.explored.is_empty(),
            "no compliant solutions explored"
        );
        // The best solution clearly beats the smallest-network lower bound.
        let best = panel
            .best_weighted_accuracy()
            .expect("a best solution exists");
        let lower_bound = &panel.lower_bound_accuracies;
        let lower_bound_weighted = lower_bound.iter().sum::<f64>() / lower_bound.len() as f64;
        assert!(best > lower_bound_weighted + 0.02);
        // The paper's lower bounds: 78.93% CIFAR-10 and 0.642 IOU.
        assert!((panel.lower_bound_accuracies[0] - 0.7893).abs() < 0.015);
        assert!((panel.lower_bound_accuracies[1] - 0.642).abs() < 0.02);
    }

    #[test]
    fn w3_panel_improves_on_lower_bound() {
        let panel = run_panel(WorkloadId::W3, ExperimentScale::Quick, 33);
        assert!(panel.all_explored_meet_specs());
        if let Some(best) = panel.best_weighted_accuracy() {
            assert!(best > 0.80, "best weighted accuracy {best}");
        }
    }

    #[test]
    fn panel_display_reports_counts() {
        let panel = run_panel(WorkloadId::W3, ExperimentScale::Quick, 35);
        let text = panel.to_string();
        assert!(text.contains("panel W3"));
        assert!(text.contains("compliant solutions"));
    }
}
