//! A single sub-accelerator: one dataflow template instantiated with
//! hardware resources.

use crate::dataflow::Dataflow;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One sub-accelerator `aic_i = <df_i, pe_i, bw_i>` of the paper.
///
/// A sub-accelerator with zero PEs is *inactive*: the design degenerates to
/// fewer sub-accelerators (the paper uses this to express single-accelerator
/// designs inside the same framework).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SubAccelerator {
    /// Dataflow template of this sub-accelerator.
    pub dataflow: Dataflow,
    /// Number of processing elements allocated.
    pub num_pes: usize,
    /// NoC bandwidth allocated, in GB/s.
    pub bandwidth_gbps: usize,
}

impl SubAccelerator {
    /// Create a sub-accelerator.
    pub fn new(dataflow: Dataflow, num_pes: usize, bandwidth_gbps: usize) -> Self {
        Self {
            dataflow,
            num_pes,
            bandwidth_gbps,
        }
    }

    /// An inactive sub-accelerator (zero PEs, zero bandwidth).
    pub fn inactive(dataflow: Dataflow) -> Self {
        Self::new(dataflow, 0, 0)
    }

    /// `true` when the sub-accelerator can execute work (has PEs and
    /// bandwidth).
    pub fn is_active(&self) -> bool {
        self.num_pes > 0 && self.bandwidth_gbps > 0
    }

    /// The paper's angle-bracket notation, e.g. `<dla, 576, 56>`.
    pub fn paper_notation(&self) -> String {
        format!(
            "<{}, {}, {}>",
            self.dataflow.abbreviation(),
            self.num_pes,
            self.bandwidth_gbps
        )
    }
}

impl fmt::Display for SubAccelerator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.paper_notation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_notation_matches_table_format() {
        let s = SubAccelerator::new(Dataflow::Nvdla, 576, 56);
        assert_eq!(s.paper_notation(), "<dla, 576, 56>");
        assert_eq!(s.to_string(), "<dla, 576, 56>");
    }

    #[test]
    fn activity_requires_both_pes_and_bandwidth() {
        assert!(SubAccelerator::new(Dataflow::Shidiannao, 64, 8).is_active());
        assert!(!SubAccelerator::new(Dataflow::Shidiannao, 0, 8).is_active());
        assert!(!SubAccelerator::new(Dataflow::Shidiannao, 64, 0).is_active());
        assert!(!SubAccelerator::inactive(Dataflow::Nvdla).is_active());
    }
}
