//! Experiment harness regenerating every figure and table of the paper's
//! evaluation (Section V).
//!
//! | module | paper artefact |
//! |---|---|
//! | [`fig1`] | Fig. 1 — motivation scatter: successive NAS→ASIC vs HW-aware NAS vs closest-to-spec heuristic vs Monte-Carlo optimum |
//! | [`fig6`] | Fig. 6 — NASAIC exploration clouds, best solutions and lower bounds for W1/W2/W3 |
//! | [`table1`] | Table I — NAS→ASIC vs ASIC→HW-NAS vs NASAIC on the multi-dataset workloads W1 and W2 |
//! | [`table2`] | Table II — single vs homogeneous vs heterogeneous accelerators on W3 |
//! | [`headline`] | the headline claims derived from Table I (latency/energy/area reductions, accuracy deltas) |
//! | [`compare`] | Table I generalised to any scenario and algorithm subset |
//!
//! Each experiment accepts an [`ExperimentScale`] so the same code path can
//! run as a quick smoke test, a benchmark-sized regeneration, or a
//! paper-scale run.

pub mod compare;
pub mod fig1;
pub mod fig6;
pub mod headline;
pub mod table1;
pub mod table2;

use serde::{Deserialize, Serialize};
use std::fmt;

/// How much search effort an experiment regeneration spends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExperimentScale {
    /// Seconds: for unit/integration tests.
    Quick,
    /// More effort than `Quick`, less than `Paper`: `cargo run --release
    /// --example reproduce_all benchmark`.
    Benchmark,
    /// Paper-scale effort (500 episodes, 10,000 Monte-Carlo runs).
    Paper,
}

impl ExperimentScale {
    /// NASAIC episodes at this scale.
    pub fn episodes(&self) -> usize {
        match self {
            ExperimentScale::Quick => 60,
            ExperimentScale::Benchmark => 200,
            ExperimentScale::Paper => 500,
        }
    }

    /// Hardware-only steps per episode at this scale.
    pub fn hardware_trials(&self) -> usize {
        match self {
            ExperimentScale::Quick => 4,
            ExperimentScale::Benchmark => 6,
            ExperimentScale::Paper => 10,
        }
    }

    /// Monte-Carlo runs at this scale.
    pub fn monte_carlo_runs(&self) -> usize {
        match self {
            ExperimentScale::Quick => 300,
            ExperimentScale::Benchmark => 1500,
            ExperimentScale::Paper => 10_000,
        }
    }

    /// Hardware sweep samples at this scale.
    pub fn hardware_samples(&self) -> usize {
        match self {
            ExperimentScale::Quick => 60,
            ExperimentScale::Benchmark => 250,
            ExperimentScale::Paper => 1000,
        }
    }
}

impl fmt::Display for ExperimentScale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentScale::Quick => f.write_str("quick"),
            ExperimentScale::Benchmark => f.write_str("benchmark"),
            ExperimentScale::Paper => f.write_str("paper"),
        }
    }
}

/// One point of a latency/energy/area scatter plot, optionally annotated
/// with the accuracies of the networks behind it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScatterPoint {
    /// Latency in cycles.
    pub latency_cycles: f64,
    /// Energy in nJ.
    pub energy_nj: f64,
    /// Area in µm².
    pub area_um2: f64,
    /// Per-task accuracy of the networks of this solution.
    pub accuracies: Vec<f64>,
    /// Free-form label (series name, hardware notation, ...).
    pub label: String,
}

impl fmt::Display for ScatterPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: L={:.3e} E={:.3e} A={:.3e} acc={:?}",
            self.label,
            self.latency_cycles,
            self.energy_nj,
            self.area_um2,
            self.accuracies
                .iter()
                .map(|a| (a * 1e4).round() / 1e2)
                .collect::<Vec<_>>()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_increase_effort_monotonically() {
        assert!(ExperimentScale::Quick.episodes() < ExperimentScale::Benchmark.episodes());
        assert!(ExperimentScale::Benchmark.episodes() < ExperimentScale::Paper.episodes());
        assert!(
            ExperimentScale::Quick.monte_carlo_runs() < ExperimentScale::Paper.monte_carlo_runs()
        );
        assert_eq!(ExperimentScale::Paper.episodes(), 500);
        assert_eq!(ExperimentScale::Paper.monte_carlo_runs(), 10_000);
        assert_eq!(ExperimentScale::Paper.hardware_trials(), 10);
    }

    #[test]
    fn scatter_point_display() {
        let p = ScatterPoint {
            latency_cycles: 7.77e5,
            energy_nj: 1.43e9,
            area_um2: 2.03e9,
            accuracies: vec![0.9285, 0.8374],
            label: "NASAIC".to_string(),
        };
        let text = p.to_string();
        assert!(text.contains("NASAIC") && text.contains("L="));
    }

    #[test]
    fn scale_display_names() {
        assert_eq!(ExperimentScale::Quick.to_string(), "quick");
        assert_eq!(ExperimentScale::Paper.to_string(), "paper");
    }
}
