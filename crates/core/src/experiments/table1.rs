//! Table I — NAS→ASIC vs ASIC→HW-NAS vs NASAIC on the multi-dataset
//! workloads W1 and W2.

use crate::algorithm::{Budget, SearchAlgorithm, SearchContext};
use crate::baselines::{nas_then_asic::least_violating, AsicThenHwNas, NasThenAsic};
use crate::engine::{parallel_map, pool::divided_threads, EngineConfig, EvalEngine};
use crate::evaluator::{AccuracyOracle, Evaluator};
use crate::experiments::ExperimentScale;
use crate::log::{ExploredSolution, SearchOutcome};
use crate::search::Nasaic;
use crate::spec::{DesignSpecs, WorkloadId};
use crate::workload::Workload;
use nasaic_accel::HardwareSpace;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The approach a Table I row describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Approach {
    /// Successive NAS then brute-force ASIC exploration.
    NasThenAsic,
    /// Monte-Carlo ASIC selection then hardware-aware NAS.
    AsicThenHwNas,
    /// The proposed co-exploration.
    Nasaic,
}

impl fmt::Display for Approach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Approach::NasThenAsic => f.write_str("NAS->ASIC"),
            Approach::AsicThenHwNas => f.write_str("ASIC->HW-NAS"),
            Approach::Nasaic => f.write_str("NASAIC"),
        }
    }
}

/// One row of Table I: one approach on one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Row {
    /// Workload (W1 or W2).
    pub workload: WorkloadId,
    /// Approach.
    pub approach: Approach,
    /// Hardware design in the paper's notation.
    pub hardware: String,
    /// Dataset names, in task order.
    pub datasets: Vec<String>,
    /// Accuracy per dataset.
    pub accuracies: Vec<f64>,
    /// Latency in cycles.
    pub latency_cycles: f64,
    /// Energy in nJ.
    pub energy_nj: f64,
    /// Area in µm².
    pub area_um2: f64,
    /// `true` when all design specs are satisfied.
    pub satisfied: bool,
}

impl Table1Row {
    /// Average accuracy over the row's datasets.
    pub fn average_accuracy(&self) -> f64 {
        self.accuracies.iter().sum::<f64>() / self.accuracies.len().max(1) as f64
    }
}

impl fmt::Display for Table1Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let accs: Vec<String> = self
            .datasets
            .iter()
            .zip(&self.accuracies)
            .map(|(d, a)| format!("{d} {:.2}%", a * 100.0))
            .collect();
        write!(
            f,
            "{} {:<13} | {:<42} | {} | L {:.3e} | E {:.3e} | A {:.3e} | {}",
            self.workload,
            self.approach.to_string(),
            self.hardware,
            accs.join(", "),
            self.latency_cycles,
            self.energy_nj,
            self.area_um2,
            if self.satisfied {
                "meets specs"
            } else {
                "violates specs"
            }
        )
    }
}

/// The full Table I: rows for both workloads and all three approaches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Result {
    /// Rows in paper order (W1 then W2, each NAS→ASIC / ASIC→HW-NAS /
    /// NASAIC).
    pub rows: Vec<Table1Row>,
}

impl Table1Result {
    /// Look up a row.
    pub fn row(&self, workload: WorkloadId, approach: Approach) -> Option<&Table1Row> {
        self.rows
            .iter()
            .find(|r| r.workload == workload && r.approach == approach)
    }
}

impl fmt::Display for Table1Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table I — comparison on multi-dataset workloads")?;
        for row in &self.rows {
            writeln!(f, "  {row}")?;
        }
        Ok(())
    }
}

fn dataset_names(workload: &Workload) -> Vec<String> {
    workload
        .tasks
        .iter()
        .map(|t| t.backbone.dataset().to_string())
        .collect()
}

fn row_from_solution(
    workload_id: WorkloadId,
    approach: Approach,
    datasets: &[String],
    solution: &ExploredSolution,
) -> Table1Row {
    Table1Row {
        workload: workload_id,
        approach,
        hardware: solution.candidate.accelerator.paper_notation(),
        datasets: datasets.to_vec(),
        accuracies: solution.evaluation.accuracies.clone(),
        latency_cycles: solution.evaluation.metrics.latency_cycles,
        energy_nj: solution.evaluation.metrics.energy_nj,
        area_um2: solution.evaluation.metrics.area_um2,
        satisfied: solution.evaluation.meets_specs(),
    }
}

/// Run Table I for one workload.
///
/// The three approaches run through one [`SearchContext`] and so share
/// one [`EvalEngine`]: e.g. the hardware sweeps of NAS→ASIC and
/// ASIC→HW-NAS reuse each other's cached cost tables where their samples
/// overlap.
pub fn run_workload(workload_id: WorkloadId, scale: ExperimentScale, seed: u64) -> Vec<Table1Row> {
    run_workload_with_threads(workload_id, scale, seed, 0)
}

/// [`run_workload`] with an explicit engine worker ceiling (`0` = all
/// cores); the parallel table fan-out passes each workload its share of
/// the machine.
pub fn run_workload_with_threads(
    workload_id: WorkloadId,
    scale: ExperimentScale,
    seed: u64,
    engine_threads: usize,
) -> Vec<Table1Row> {
    let workload = Workload::for_id(workload_id);
    let specs = DesignSpecs::for_workload(workload_id);
    let engine = EvalEngine::with_config(
        Evaluator::new(&workload, specs, AccuracyOracle::default()),
        EngineConfig {
            threads: engine_threads,
            ..EngineConfig::default()
        },
    );
    let hardware = HardwareSpace::paper_default(2);
    let budget = Budget::new(scale.episodes(), scale.hardware_trials());
    let ctx = SearchContext::new(&workload, specs, &hardware, &engine, seed, budget);
    let nas_then_asic = NasThenAsic {
        nas_episodes: scale.episodes(),
        hardware_samples: scale.hardware_samples(),
        seed,
    }
    .run(&ctx);
    let asic_then_hwnas = AsicThenHwNas {
        monte_carlo_runs: scale.monte_carlo_runs() / 2,
        nas_episodes: scale.episodes(),
        rho: 10.0,
        seed: seed ^ 0x51,
    }
    .run(&ctx);
    let nasaic = Nasaic {
        episodes: scale.episodes(),
        hardware_trials: scale.hardware_trials(),
        ..Nasaic::paper(seed ^ 0x99)
    }
    .run(&ctx);

    // The successive baselines report their best compliant design, else
    // the least-violating one (what the paper reports when no design meets
    // the specs); NASAIC's row needs a compliant design.
    let representative = |outcome: &SearchOutcome| {
        outcome
            .best
            .clone()
            .or_else(|| least_violating(outcome, &specs))
    };
    let datasets = dataset_names(&workload);
    [
        (Approach::NasThenAsic, representative(&nas_then_asic)),
        (Approach::AsicThenHwNas, representative(&asic_then_hwnas)),
        (Approach::Nasaic, nasaic.best),
    ]
    .into_iter()
    .filter_map(|(approach, solution)| {
        solution.map(|s| row_from_solution(workload_id, approach, &datasets, &s))
    })
    .collect()
}

/// Run the full Table I (W1 and W2).
///
/// The two workloads are independent searches; they fan out in parallel
/// and assemble in paper order, so the table is identical to a serial run.
pub fn run(scale: ExperimentScale, seed: u64) -> Table1Result {
    let panels = [(WorkloadId::W1, seed), (WorkloadId::W2, seed + 100)];
    // Split the machine between the two workloads' engines (see fig6).
    let engine_threads = divided_threads(panels.len());
    let rows = parallel_map(&panels, panels.len(), |&(workload_id, panel_seed)| {
        run_workload_with_threads(workload_id, scale, panel_seed, engine_threads)
    });
    Table1Result {
        rows: rows.into_iter().flatten().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_w1_matches_paper_shape() {
        let rows = run_workload(WorkloadId::W1, ExperimentScale::Quick, 41);
        let result = Table1Result { rows };
        let nas = result
            .row(WorkloadId::W1, Approach::NasThenAsic)
            .expect("NAS row");
        let nasaic = result
            .row(WorkloadId::W1, Approach::Nasaic)
            .expect("NASAIC row");
        // NAS->ASIC violates the specs, NASAIC satisfies them.
        assert!(!nas.satisfied);
        assert!(nasaic.satisfied);
        // NASAIC's accuracy loss vs unconstrained NAS stays small (the paper
        // reports 0.76% on W1; allow a few percent for the quick scale).
        assert!(nas.average_accuracy() - nasaic.average_accuracy() < 0.06);
        // NASAIC reduces latency, energy and area relative to NAS->ASIC's
        // (infeasible) design.
        assert!(nasaic.energy_nj < nas.energy_nj);
        assert!(nasaic.area_um2 < nas.area_um2);
        if let Some(hwnas) = result.row(WorkloadId::W1, Approach::AsicThenHwNas) {
            assert!(hwnas.satisfied);
            // Co-exploration is at least as accurate as HW-aware NAS (a
            // small tolerance absorbs quick-scale search noise).
            assert!(nasaic.average_accuracy() >= hwnas.average_accuracy() - 0.025);
        }
    }

    #[test]
    fn table1_display_prints_all_rows() {
        let rows = run_workload(WorkloadId::W1, ExperimentScale::Quick, 43);
        let result = Table1Result { rows };
        let text = result.to_string();
        assert!(text.contains("NAS->ASIC"));
        assert!(text.contains("NASAIC"));
        assert!(text.contains("CIFAR-10"));
    }
}
