//! A stateless layer-cost table builder.
//!
//! Cost tables are rebuilt, not memoised: one [`CostModel::layer_cost`]
//! cell is a few dozen nanoseconds of arithmetic, so a whole W1 table
//! builds faster than a hash memo could look its cells up, and a memo
//! kept by a long-lived engine would grow with every accelerator it sees.
//! [`LayerCostCache`] keeps no state and builds every table with
//! [`WorkloadCosts::build`].  It is kept only because the benchmark
//! harness's traced replay (`perfbench/src/trace.rs`) imports it; it goes
//! with the next change to the benchmark, which calls
//! [`WorkloadCosts::build`] directly.

use crate::model::CostModel;
use crate::table::WorkloadCosts;
use nasaic_accel::Accelerator;
use nasaic_nn::layer::Architecture;

/// Builds workload cost tables with [`WorkloadCosts::build`]; holds no
/// state (see the module docs for why it exists).
#[derive(Debug, Default)]
pub struct LayerCostCache;

impl LayerCostCache {
    /// Create the (stateless) builder.
    pub fn new() -> Self {
        Self
    }

    /// The workload cost table of `architectures` on `accelerator`:
    /// exactly [`WorkloadCosts::build`].
    pub fn workload_costs(
        &self,
        model: &CostModel,
        architectures: &[Architecture],
        accelerator: &Accelerator,
    ) -> WorkloadCosts {
        WorkloadCosts::build(model, architectures, accelerator)
    }
}
