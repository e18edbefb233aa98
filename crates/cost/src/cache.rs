//! Memoised layer-cost lookups over a fixed cost model.
//!
//! The hardware side of every candidate evaluation starts by building a
//! [`WorkloadCosts`] table: one [`CostModel::layer_cost`] analysis per
//! (layer, sub-accelerator) cell.  Both factors live in small discrete
//! spaces — layer shapes come from a backbone's search space, and
//! sub-accelerators are quantised by the resource allocator — so across a
//! search run the same cells are analysed over and over.
//! [`LayerCostCache`] memoises them: each distinct (shape, sub) pair is
//! analysed exactly once per cache lifetime, and
//! [`LayerCostCache::workload_costs`] assembles tables from lookups.
//!
//! The cache is keyed by the layer's *geometry* ([`LayerShape`] minus its
//! name — two layers named differently but shaped identically cost the
//! same) and is valid only for the [`CostModel`] it was filled against;
//! owners that swap cost models must start a fresh cache.  The analysis
//! is a pure function of (shape, sub), so serving the memoised
//! [`LayerCost`] (a `Copy` struct) is bit-identical to recomputing —
//! [`WorkloadCosts::build`] is retained as the uncached reference and the
//! `nasaic-bench eval` gate compares full tables against it.

use crate::model::{CostModel, LayerCost};
use crate::table::{LayerCostRow, NetworkCosts, WorkloadCosts};
use nasaic_accel::{Accelerator, SubAccelerator};
use nasaic_nn::layer::{Architecture, LayerKind, LayerShape};
use std::collections::HashMap;
use std::sync::RwLock;

/// A layer's geometry — every [`LayerShape`] field except the name, which
/// does not influence its cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ShapeKey {
    kind: LayerKind,
    input_channels: usize,
    output_channels: usize,
    kernel: usize,
    input_size: usize,
    stride: usize,
}

impl ShapeKey {
    fn of(layer: &LayerShape) -> Self {
        Self {
            kind: layer.kind,
            input_channels: layer.input_channels,
            output_channels: layer.output_channels,
            kernel: layer.kernel,
            input_size: layer.input_size,
            stride: layer.stride,
        }
    }
}

/// Thread-safe memo of [`CostModel::layer_cost`] results.
///
/// See the module docs for the contract; in short: one cache per cost
/// model, keyed by layer geometry, bit-identical to direct evaluation.
#[derive(Debug, Default)]
pub struct LayerCostCache {
    entries: RwLock<HashMap<(ShapeKey, SubAccelerator), LayerCost>>,
}

impl LayerCostCache {
    /// Create an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of memoised (shape, sub-accelerator) cells.
    pub fn len(&self) -> usize {
        self.entries.read().expect("cost cache poisoned").len()
    }

    /// `true` when nothing has been memoised yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cost of a layer on a sub-accelerator, memoised.
    ///
    /// Equivalent to `model.layer_cost(layer, sub)` — the analysis runs
    /// at most once per distinct (geometry, sub) pair.
    pub fn layer_cost(
        &self,
        model: &CostModel,
        layer: &LayerShape,
        sub: &SubAccelerator,
    ) -> LayerCost {
        let key = (ShapeKey::of(layer), *sub);
        if let Some(cost) = self.entries.read().expect("cost cache poisoned").get(&key) {
            return *cost;
        }
        // Analyse outside the lock; a racing thread computing the same
        // cell derives the identical pure-function result.
        let cost = model.layer_cost(layer, sub);
        self.entries
            .write()
            .expect("cost cache poisoned")
            .insert(key, cost);
        cost
    }

    /// Build a workload cost table from memoised lookups.
    ///
    /// Produces exactly the table [`WorkloadCosts::build`] would (same
    /// ordering, same values bit for bit), paying the mapping analysis
    /// only for cells not yet cached.
    pub fn workload_costs(
        &self,
        model: &CostModel,
        architectures: &[Architecture],
        accelerator: &Accelerator,
    ) -> WorkloadCosts {
        let subs = accelerator.sub_accelerators();
        let networks = architectures
            .iter()
            .map(|arch| NetworkCosts {
                name: arch.name.clone(),
                layers: arch
                    .layers
                    .iter()
                    .map(|layer| LayerCostRow {
                        layer_name: layer.name.clone(),
                        macs: layer.macs(),
                        per_sub: subs
                            .iter()
                            .map(|sub| self.layer_cost(model, layer, sub))
                            .collect(),
                    })
                    .collect(),
            })
            .collect();
        WorkloadCosts {
            networks,
            num_subs: subs.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nasaic_accel::Dataflow;
    use nasaic_nn::backbone::Backbone;

    fn accelerator() -> Accelerator {
        Accelerator::new(vec![
            SubAccelerator::new(Dataflow::Nvdla, 2048, 32),
            SubAccelerator::new(Dataflow::Shidiannao, 1024, 16),
        ])
    }

    fn workload() -> Vec<Architecture> {
        vec![
            Backbone::ResNet9Cifar10.materialize_values(&[32, 128, 2, 256, 2, 256, 2]),
            Backbone::UNetNuclei.materialize_values(&[3, 16, 32, 64, 128, 256]),
        ]
    }

    #[test]
    fn cached_table_matches_uncached_build_bit_for_bit() {
        let model = CostModel::paper_calibrated();
        let cache = LayerCostCache::new();
        let archs = workload();
        let acc = accelerator();
        let reference = WorkloadCosts::build(&model, &archs, &acc);
        // Twice: cold (filling) and warm (serving) must both match.
        for _ in 0..2 {
            let cached = cache.workload_costs(&model, &archs, &acc);
            assert_eq!(cached, reference);
        }
        assert!(!cache.is_empty());
    }

    #[test]
    fn cache_deduplicates_identically_shaped_layers() {
        let model = CostModel::paper_calibrated();
        let cache = LayerCostCache::new();
        let sub = SubAccelerator::new(Dataflow::Nvdla, 1024, 32);
        let a = LayerShape::conv2d("one_name", 64, 128, 3, 16, 1);
        let b = LayerShape::conv2d("another_name", 64, 128, 3, 16, 1);
        let cost_a = cache.layer_cost(&model, &a, &sub);
        let cost_b = cache.layer_cost(&model, &b, &sub);
        assert_eq!(cost_a, cost_b);
        assert_eq!(cache.len(), 1, "same geometry must share one entry");
    }

    #[test]
    fn distinct_subs_get_distinct_entries() {
        let model = CostModel::paper_calibrated();
        let cache = LayerCostCache::new();
        let layer = LayerShape::conv2d("conv", 64, 128, 3, 16, 1);
        let fast = SubAccelerator::new(Dataflow::Nvdla, 2048, 32);
        let slow = SubAccelerator::new(Dataflow::Nvdla, 256, 8);
        let cost_fast = cache.layer_cost(&model, &layer, &fast);
        let cost_slow = cache.layer_cost(&model, &layer, &slow);
        assert_eq!(cache.len(), 2);
        assert!(cost_fast.latency_cycles < cost_slow.latency_cycles);
    }
}
