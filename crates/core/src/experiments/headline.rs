//! The headline claims of the paper, derived from Table I.
//!
//! The abstract summarises the evaluation as: compared with successive NAS
//! and ASIC design optimisation (which violates the specs), NASAIC meets
//! every spec with 17.77 %, 2.49× and 2.32× reductions on latency, energy
//! and area and 0.76 % accuracy loss (W1); compared with hardware-aware NAS
//! on a fixed ASIC design, NASAIC achieves 3.65 % higher accuracy (W2,
//! STL-10).  This module recomputes those derived quantities from a
//! [`Table1Result`] so integration tests and `reproduce_all` can check
//! the *shape* (who wins, in which direction) rather than the absolute
//! numbers.

use crate::experiments::table1::{Approach, Table1Result};
use crate::spec::WorkloadId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Derived headline quantities for one workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HeadlineClaims {
    /// Workload the claims are derived from.
    pub workload: WorkloadId,
    /// `true` when every NASAIC metric satisfies its spec while NAS→ASIC
    /// violates at least one.
    pub nasaic_feasible_nas_not: bool,
    /// Latency reduction of NASAIC vs NAS→ASIC as a fraction
    /// (paper: 17.77 % on W1).
    pub latency_reduction: f64,
    /// Energy reduction factor of NASAIC vs NAS→ASIC (paper: 2.49× on W1).
    pub energy_reduction_factor: f64,
    /// Area reduction factor of NASAIC vs NAS→ASIC (paper: 2.32× on W1).
    pub area_reduction_factor: f64,
    /// Average accuracy loss of NASAIC vs unconstrained NAS
    /// (paper: 0.76 % on W1, 1.17 % on W2).
    pub accuracy_loss_vs_nas: f64,
    /// Accuracy gain of NASAIC vs ASIC→HW-NAS, averaged over datasets
    /// (paper: up to 3.65 % on W2's STL-10).
    pub accuracy_gain_vs_hw_nas: f64,
}

impl HeadlineClaims {
    /// Derive the claims for one workload from a Table I result.
    ///
    /// Returns `None` when the table is missing the NAS→ASIC or NASAIC row
    /// for the workload.
    pub fn derive(table: &Table1Result, workload: WorkloadId) -> Option<Self> {
        let nas = table.row(workload, Approach::NasThenAsic)?;
        let nasaic = table.row(workload, Approach::Nasaic)?;
        let hw_nas = table.row(workload, Approach::AsicThenHwNas);
        Some(Self {
            workload,
            nasaic_feasible_nas_not: nasaic.satisfied && !nas.satisfied,
            latency_reduction: 1.0 - nasaic.latency_cycles / nas.latency_cycles,
            energy_reduction_factor: nas.energy_nj / nasaic.energy_nj,
            area_reduction_factor: nas.area_um2 / nasaic.area_um2,
            accuracy_loss_vs_nas: nas.average_accuracy() - nasaic.average_accuracy(),
            accuracy_gain_vs_hw_nas: hw_nas
                .map(|h| nasaic.average_accuracy() - h.average_accuracy())
                .unwrap_or(0.0),
        })
    }

    /// The qualitative shape the paper reports: NASAIC is feasible where
    /// NAS→ASIC is not, saves energy and area, and loses only a small
    /// amount of accuracy relative to unconstrained NAS.
    pub fn matches_paper_shape(&self) -> bool {
        self.nasaic_feasible_nas_not
            && self.energy_reduction_factor > 1.0
            && self.area_reduction_factor > 1.0
            && self.accuracy_loss_vs_nas < 0.06
            && self.accuracy_gain_vs_hw_nas > -0.02
    }
}

impl fmt::Display for HeadlineClaims {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Headline claims for {}:", self.workload)?;
        writeln!(
            f,
            "  NASAIC feasible while NAS->ASIC violates specs: {}",
            self.nasaic_feasible_nas_not
        )?;
        writeln!(
            f,
            "  latency reduction {:.2}%, energy reduction {:.2}x, area reduction {:.2}x",
            self.latency_reduction * 100.0,
            self.energy_reduction_factor,
            self.area_reduction_factor
        )?;
        writeln!(
            f,
            "  accuracy loss vs NAS {:.2}%, accuracy gain vs ASIC->HW-NAS {:.2}%",
            self.accuracy_loss_vs_nas * 100.0,
            self.accuracy_gain_vs_hw_nas * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::table1::{Table1Result, Table1Row};

    fn paper_table() -> Table1Result {
        // The W1 numbers exactly as printed in Table I of the paper.
        Table1Result {
            rows: vec![
                Table1Row {
                    workload: WorkloadId::W1,
                    approach: Approach::NasThenAsic,
                    hardware: "<dla, 2112, 48> + <shi, 1984, 16>".to_string(),
                    datasets: vec!["CIFAR-10".to_string(), "Nuclei".to_string()],
                    accuracies: vec![0.9417, 0.8394],
                    latency_cycles: 9.45e5,
                    energy_nj: 3.56e9,
                    area_um2: 4.71e9,
                    satisfied: false,
                },
                Table1Row {
                    workload: WorkloadId::W1,
                    approach: Approach::AsicThenHwNas,
                    hardware: "<dla, 1088, 24> + <shi, 2368, 40>".to_string(),
                    datasets: vec!["CIFAR-10".to_string(), "Nuclei".to_string()],
                    accuracies: vec![0.9198, 0.8372],
                    latency_cycles: 5.8e5,
                    energy_nj: 1.94e9,
                    area_um2: 3.82e9,
                    satisfied: true,
                },
                Table1Row {
                    workload: WorkloadId::W1,
                    approach: Approach::Nasaic,
                    hardware: "<dla, 576, 56> + <shi, 1792, 8>".to_string(),
                    datasets: vec!["CIFAR-10".to_string(), "Nuclei".to_string()],
                    accuracies: vec![0.9285, 0.8374],
                    latency_cycles: 7.77e5,
                    energy_nj: 1.43e9,
                    area_um2: 2.03e9,
                    satisfied: true,
                },
            ],
        }
    }

    #[test]
    fn derivation_reproduces_the_papers_w1_numbers() {
        let claims = HeadlineClaims::derive(&paper_table(), WorkloadId::W1).unwrap();
        assert!(claims.nasaic_feasible_nas_not);
        // 1 - 7.77/9.45 = 17.77%
        assert!((claims.latency_reduction - 0.1777).abs() < 0.002);
        // 3.56 / 1.43 = 2.49x
        assert!((claims.energy_reduction_factor - 2.49).abs() < 0.01);
        // 4.71 / 2.03 = 2.32x
        assert!((claims.area_reduction_factor - 2.32).abs() < 0.01);
        // ((94.17 - 92.85) + (83.94 - 83.74)) / 2 = 0.76%
        assert!((claims.accuracy_loss_vs_nas - 0.0076).abs() < 0.0005);
        assert!(claims.matches_paper_shape());
    }

    #[test]
    fn missing_rows_yield_none() {
        let table = Table1Result { rows: vec![] };
        assert!(HeadlineClaims::derive(&table, WorkloadId::W1).is_none());
    }

    #[test]
    fn display_mentions_reductions() {
        let claims = HeadlineClaims::derive(&paper_table(), WorkloadId::W1).unwrap();
        let text = claims.to_string();
        assert!(text.contains("energy reduction"));
        assert!(text.contains("accuracy loss"));
    }
}
