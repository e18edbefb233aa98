//! The heterogeneous accelerator: a set of sub-accelerators connected
//! through NICs to a global interconnect and a shared global buffer.

use crate::subaccel::SubAccelerator;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A (possibly heterogeneous) ASIC accelerator `AIC = <aic_1, ..., aic_k>`.
///
/// The classification used by the paper's Table II:
///
/// * one active sub-accelerator → *single* accelerator;
/// * several active sub-accelerators with identical configuration →
///   *homogeneous*;
/// * several active sub-accelerators with differing dataflows or resources
///   → *heterogeneous*.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Accelerator {
    subs: Vec<SubAccelerator>,
}

impl Accelerator {
    /// Create an accelerator from its sub-accelerators.
    ///
    /// # Panics
    ///
    /// Panics if `subs` is empty.
    pub fn new(subs: Vec<SubAccelerator>) -> Self {
        assert!(
            !subs.is_empty(),
            "accelerator needs at least one sub-accelerator"
        );
        Self { subs }
    }

    /// A single-sub-accelerator design.
    pub fn single(sub: SubAccelerator) -> Self {
        Self::new(vec![sub])
    }

    /// A homogeneous design: `count` copies of the same sub-accelerator.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn homogeneous(sub: SubAccelerator, count: usize) -> Self {
        assert!(count > 0, "homogeneous accelerator needs at least one copy");
        Self::new(vec![sub; count])
    }

    /// All sub-accelerators (including inactive ones).
    pub fn sub_accelerators(&self) -> &[SubAccelerator] {
        &self.subs
    }

    /// Only the active sub-accelerators.
    pub fn active_subs(&self) -> Vec<&SubAccelerator> {
        self.subs.iter().filter(|s| s.is_active()).collect()
    }

    /// Number of active sub-accelerators.
    pub fn num_active(&self) -> usize {
        self.subs.iter().filter(|s| s.is_active()).count()
    }

    /// Total PEs over all sub-accelerators.
    pub fn total_pes(&self) -> usize {
        self.subs.iter().map(|s| s.num_pes).sum()
    }

    /// Total NoC bandwidth over all sub-accelerators (GB/s).
    pub fn total_bandwidth_gbps(&self) -> usize {
        self.subs.iter().map(|s| s.bandwidth_gbps).sum()
    }

    /// `true` when at least one sub-accelerator can execute work.
    pub fn has_capacity(&self) -> bool {
        self.num_active() > 0
    }

    /// `true` when the active sub-accelerators use more than one distinct
    /// configuration (dataflow or resources).
    pub fn is_heterogeneous(&self) -> bool {
        let active = self.active_subs();
        if active.len() < 2 {
            return false;
        }
        let first = active[0];
        active.iter().any(|s| *s != first)
    }

    /// `true` when the accelerator fits inside a resource budget
    /// (convenience mirror of [`crate::ResourceBudget::admits`]).
    pub fn is_within(&self, budget: &crate::ResourceBudget) -> bool {
        budget.admits(self)
    }

    /// The paper's notation: one `<df, pe, bw>` triple per active
    /// sub-accelerator, separated by ` + `.
    pub fn paper_notation(&self) -> String {
        let parts: Vec<String> = self
            .active_subs()
            .iter()
            .map(|s| s.paper_notation())
            .collect();
        if parts.is_empty() {
            "<empty>".to_string()
        } else {
            parts.join(" + ")
        }
    }
}

impl fmt::Display for Accelerator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.paper_notation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::Dataflow;

    fn dla(pes: usize, bw: usize) -> SubAccelerator {
        SubAccelerator::new(Dataflow::Nvdla, pes, bw)
    }

    fn shi(pes: usize, bw: usize) -> SubAccelerator {
        SubAccelerator::new(Dataflow::Shidiannao, pes, bw)
    }

    #[test]
    fn totals_sum_over_subs() {
        let acc = Accelerator::new(vec![dla(2112, 48), shi(1984, 16)]);
        assert_eq!(acc.total_pes(), 4096);
        assert_eq!(acc.total_bandwidth_gbps(), 64);
        assert_eq!(acc.num_active(), 2);
    }

    #[test]
    fn heterogeneity_classification() {
        let hetero = Accelerator::new(vec![dla(1760, 56), shi(1152, 8)]);
        assert!(hetero.is_heterogeneous());
        assert_eq!(hetero.num_active(), 2);

        let homo = Accelerator::homogeneous(dla(1408, 32), 2);
        assert_eq!(homo.num_active(), 2);
        assert!(!homo.is_heterogeneous());

        let single = Accelerator::single(dla(3104, 24));
        assert_eq!(single.num_active(), 1);
        assert!(!single.is_heterogeneous());
    }

    #[test]
    fn same_dataflow_different_resources_is_heterogeneous() {
        let acc = Accelerator::new(vec![dla(2048, 32), dla(1024, 16)]);
        assert!(acc.is_heterogeneous());
        assert!(acc
            .active_subs()
            .iter()
            .all(|s| s.dataflow == Dataflow::Nvdla));
    }

    #[test]
    fn inactive_subs_do_not_count() {
        let acc = Accelerator::new(vec![
            dla(2048, 32),
            SubAccelerator::inactive(Dataflow::Shidiannao),
        ]);
        assert_eq!(acc.num_active(), 1);
        assert!(acc.has_capacity());
        assert_eq!(acc.active_subs().len(), 1);
    }

    #[test]
    fn all_inactive_means_no_capacity() {
        let acc = Accelerator::new(vec![
            SubAccelerator::inactive(Dataflow::Nvdla),
            SubAccelerator::inactive(Dataflow::Shidiannao),
        ]);
        assert!(!acc.has_capacity());
        assert_eq!(acc.paper_notation(), "<empty>");
    }

    #[test]
    fn paper_notation_joins_subs() {
        let acc = Accelerator::new(vec![dla(576, 56), shi(1792, 8)]);
        assert_eq!(acc.paper_notation(), "<dla, 576, 56> + <shi, 1792, 8>");
        assert_eq!(acc.to_string(), acc.paper_notation());
    }

    #[test]
    #[should_panic]
    fn empty_accelerator_rejected() {
        Accelerator::new(vec![]);
    }
}
