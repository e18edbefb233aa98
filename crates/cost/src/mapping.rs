//! Data-centric mapping analysis of one layer onto one sub-accelerator.
//!
//! This is the core of the MAESTRO substitute: for each dataflow template
//! we model which problem dimension is unrolled spatially over the PE
//! array, how well the array is utilised, and how much DRAM traffic the
//! resulting reuse pattern generates.

use crate::config::CostConfig;
use nasaic_accel::{Dataflow, SubAccelerator};
use nasaic_nn::layer::{LayerKind, LayerShape};
use serde::{Deserialize, Serialize};

/// Result of mapping one layer onto one sub-accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MappingAnalysis {
    /// Number of MACs (or element operations) executed concurrently.
    pub parallelism: f64,
    /// Fraction of the PE array kept busy (`parallelism / num_pes`, capped
    /// at 1).
    pub utilization: f64,
    /// Cycles spent on computation, assuming perfect overlap with data
    /// movement inside the array.
    pub compute_cycles: f64,
    /// Number of times the full weight tensor is (re-)fetched from DRAM.
    pub weight_refetches: f64,
    /// Total DRAM traffic generated by the layer (bytes).
    pub dram_traffic_bytes: f64,
    /// Cycles needed to move [`dram_traffic_bytes`](Self::dram_traffic_bytes)
    /// over the allocated NoC bandwidth.
    pub memory_cycles: f64,
}

impl MappingAnalysis {
    /// Analyse a layer on a sub-accelerator.
    ///
    /// Inactive sub-accelerators (zero PEs or zero bandwidth) yield an
    /// analysis with infinite cycle counts; callers treat such mappings as
    /// unusable.
    pub fn analyze(layer: &LayerShape, sub: &SubAccelerator, config: &CostConfig) -> Self {
        if !sub.is_active() {
            return Self {
                parallelism: 0.0,
                utilization: 0.0,
                compute_cycles: f64::INFINITY,
                weight_refetches: 0.0,
                dram_traffic_bytes: 0.0,
                memory_cycles: f64::INFINITY,
            };
        }

        let pes = sub.num_pes as f64;
        let parallelism = spatial_parallelism(layer, sub.dataflow).min(pes).max(1.0);
        let utilization = (parallelism / pes).min(1.0);
        let macs = layer.macs() as f64;
        let compute_cycles = macs / parallelism + config.layer_overhead_cycles;

        // Reuse analysis: does the weight tensor fit in the aggregate local
        // buffer capacity devoted to weights by this dataflow?
        let weight_bytes = layer.params() as f64 * config.bytes_per_element;
        let weight_buffer = pes * config.per_pe_buffer_bytes * weight_buffer_fraction(sub.dataflow);
        let weight_refetches = if weight_bytes <= weight_buffer || weight_bytes == 0.0 {
            1.0
        } else {
            (weight_bytes / weight_buffer).ceil()
        };

        let input_bytes = layer.input_activations() as f64 * config.bytes_per_element;
        let output_bytes = layer.output_activations() as f64 * config.bytes_per_element;
        let dram_traffic_bytes = input_bytes + output_bytes + weight_bytes * weight_refetches;

        let bandwidth_bytes_per_cycle = sub.bandwidth_gbps as f64 * config.bytes_per_cycle_per_gbps;
        let memory_cycles = dram_traffic_bytes / bandwidth_bytes_per_cycle;

        Self {
            parallelism,
            utilization,
            compute_cycles,
            weight_refetches,
            dram_traffic_bytes,
            memory_cycles,
        }
    }

    /// Latency of the layer on this mapping: the maximum of the compute and
    /// memory components (double-buffered execution overlaps them).
    pub fn latency_cycles(&self) -> f64 {
        self.compute_cycles.max(self.memory_cycles)
    }
}

/// The spatial parallelism a dataflow can exploit on a layer: how many MACs
/// it performs concurrently given unlimited PEs.
fn spatial_parallelism(layer: &LayerShape, dataflow: Dataflow) -> f64 {
    let out = layer.output_height() as f64;
    let k = layer.output_channels as f64;
    let c = layer.input_channels as f64;
    let r = layer.kernel as f64;
    if !layer.kind.has_weights() {
        // Pooling / element-wise layers parallelise over output elements
        // regardless of the dataflow.
        return (k * out * out).max(1.0);
    }
    match layer.kind {
        LayerKind::Dense => match dataflow {
            // A dense layer is a degenerate 1x1 convolution on a 1x1 map:
            // only channel-parallel dataflows keep the array busy.
            Dataflow::Shidiannao => k,
            Dataflow::Nvdla => k * c,
            Dataflow::RowStationary => k * r,
        },
        _ => match dataflow {
            // Output-stationary: unrolls the output feature map.
            Dataflow::Shidiannao => out * out,
            // Adder-tree: unrolls input and output channels.
            Dataflow::Nvdla => k * c,
            // Row-stationary: unrolls filter rows x output rows x a slice of
            // output channels.
            Dataflow::RowStationary => r * out * (k.min(16.0)),
        },
    }
}

/// Fraction of the per-PE buffer a dataflow devotes to weight reuse.
fn weight_buffer_fraction(dataflow: Dataflow) -> f64 {
    match dataflow {
        Dataflow::Shidiannao => 0.3,
        Dataflow::Nvdla => 0.5,
        Dataflow::RowStationary => 0.7,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sub(df: Dataflow, pes: usize, bw: usize) -> SubAccelerator {
        SubAccelerator::new(df, pes, bw)
    }

    #[test]
    fn inactive_sub_has_infinite_latency() {
        let layer = LayerShape::conv2d("c", 16, 16, 3, 16, 1);
        let a = MappingAnalysis::analyze(
            &layer,
            &SubAccelerator::inactive(Dataflow::Nvdla),
            &CostConfig::paper_calibrated(),
        );
        assert!(a.latency_cycles().is_infinite());
        assert!(a.compute_cycles.is_infinite());
    }

    #[test]
    fn nvdla_prefers_channel_heavy_low_resolution_layers() {
        let config = CostConfig::paper_calibrated();
        let late = LayerShape::conv2d("late", 256, 256, 3, 4, 1);
        let dla = MappingAnalysis::analyze(&late, &sub(Dataflow::Nvdla, 1024, 32), &config);
        let shi = MappingAnalysis::analyze(&late, &sub(Dataflow::Shidiannao, 1024, 32), &config);
        assert!(dla.utilization > shi.utilization);
        assert!(dla.compute_cycles < shi.compute_cycles);
    }

    #[test]
    fn shidiannao_prefers_high_resolution_channel_light_layers() {
        let config = CostConfig::paper_calibrated();
        let early = LayerShape::conv2d("early", 8, 16, 3, 128, 1);
        let dla = MappingAnalysis::analyze(&early, &sub(Dataflow::Nvdla, 1024, 32), &config);
        let shi = MappingAnalysis::analyze(&early, &sub(Dataflow::Shidiannao, 1024, 32), &config);
        assert!(shi.utilization > dla.utilization);
        assert!(shi.compute_cycles < dla.compute_cycles);
    }

    #[test]
    fn row_stationary_is_a_middle_ground() {
        let config = CostConfig::paper_calibrated();
        let late = LayerShape::conv2d("late", 256, 256, 3, 4, 1);
        let rs = MappingAnalysis::analyze(&late, &sub(Dataflow::RowStationary, 1024, 32), &config);
        let shi = MappingAnalysis::analyze(&late, &sub(Dataflow::Shidiannao, 1024, 32), &config);
        let dla = MappingAnalysis::analyze(&late, &sub(Dataflow::Nvdla, 1024, 32), &config);
        assert!(rs.compute_cycles < shi.compute_cycles);
        assert!(rs.compute_cycles > dla.compute_cycles);
    }

    #[test]
    fn more_pes_reduce_compute_cycles_until_saturation() {
        let config = CostConfig::paper_calibrated();
        let layer = LayerShape::conv2d("c", 64, 64, 3, 32, 1);
        let small = MappingAnalysis::analyze(&layer, &sub(Dataflow::Nvdla, 256, 32), &config);
        let large = MappingAnalysis::analyze(&layer, &sub(Dataflow::Nvdla, 2048, 32), &config);
        assert!(large.compute_cycles < small.compute_cycles);
        // Saturated: parallelism is capped by K*C = 4096, so going beyond
        // 4096 PEs cannot help.
        let huge = MappingAnalysis::analyze(&layer, &sub(Dataflow::Nvdla, 4096, 32), &config);
        let saturated = MappingAnalysis::analyze(&layer, &sub(Dataflow::Nvdla, 4096, 32), &config);
        assert!((huge.parallelism - saturated.parallelism).abs() < 1e-9);
    }

    #[test]
    fn more_bandwidth_reduces_memory_cycles() {
        let config = CostConfig::paper_calibrated();
        let layer = LayerShape::conv2d("c", 256, 256, 3, 8, 1);
        let slow = MappingAnalysis::analyze(&layer, &sub(Dataflow::Nvdla, 1024, 8), &config);
        let fast = MappingAnalysis::analyze(&layer, &sub(Dataflow::Nvdla, 1024, 64), &config);
        assert!(fast.memory_cycles < slow.memory_cycles);
        assert_eq!(slow.dram_traffic_bytes, fast.dram_traffic_bytes);
    }

    #[test]
    fn weight_refetches_increase_for_large_layers_on_small_buffers() {
        let config = CostConfig::paper_calibrated();
        let big = LayerShape::conv2d("big", 256, 512, 3, 8, 1);
        let small_array =
            MappingAnalysis::analyze(&big, &sub(Dataflow::Shidiannao, 64, 32), &config);
        let big_array =
            MappingAnalysis::analyze(&big, &sub(Dataflow::Shidiannao, 4096, 32), &config);
        assert!(small_array.weight_refetches > big_array.weight_refetches);
        assert!(small_array.dram_traffic_bytes > big_array.dram_traffic_bytes);
    }

    #[test]
    fn memory_bound_detection() {
        let config = CostConfig::paper_calibrated();
        // Dense classifier: tiny compute, weight traffic dominates.
        let fc = LayerShape::dense("fc", 256, 10);
        let a = MappingAnalysis::analyze(&fc, &sub(Dataflow::Nvdla, 2048, 8), &config);
        assert!(a.memory_cycles > a.compute_cycles);
    }

    #[test]
    fn utilization_never_exceeds_one() {
        let config = CostConfig::paper_calibrated();
        let layer = LayerShape::conv2d("c", 512, 512, 3, 64, 1);
        for df in Dataflow::all() {
            let a = MappingAnalysis::analyze(&layer, &sub(df, 128, 16), &config);
            assert!(a.utilization <= 1.0 && a.utilization > 0.0);
        }
    }

    #[test]
    fn pooling_layers_parallelise_on_any_dataflow() {
        let config = CostConfig::paper_calibrated();
        let pool = LayerShape::max_pool("p", 128, 2, 32);
        let shi = MappingAnalysis::analyze(&pool, &sub(Dataflow::Shidiannao, 1024, 32), &config);
        let dla = MappingAnalysis::analyze(&pool, &sub(Dataflow::Nvdla, 1024, 32), &config);
        assert!((shi.parallelism - dla.parallelism).abs() < 1e-9);
        assert_eq!(shi.weight_refetches, 1.0);
    }
}
