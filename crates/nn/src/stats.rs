//! Whole-network statistics used by accuracy surrogates and reports.

use crate::layer::Architecture;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Aggregate statistics of an [`Architecture`].
///
/// The accuracy surrogate in `nasaic-accuracy` consumes
/// [`log_capacity`](NetworkStats::log_capacity) as its main capacity
/// signal; reports and examples print the full struct.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkStats {
    /// Total multiply-accumulate operations for one inference.
    pub total_macs: u64,
    /// Total trainable parameters.
    pub total_params: u64,
    /// Number of weight-carrying layers.
    pub compute_layers: usize,
    /// Number of layers of any kind.
    pub total_layers: usize,
    /// Largest single-layer activation footprint (elements).
    pub peak_activations: u64,
    /// Mean channel-to-resolution ratio over compute layers (dataflow
    /// affinity signal: high values favour NVDLA-style, low values favour
    /// Shidiannao-style dataflows).
    pub mean_channel_resolution_ratio: f64,
}

impl NetworkStats {
    /// Compute statistics for an architecture.
    pub fn of(arch: &Architecture) -> Self {
        let compute_layers = arch.num_compute_layers();
        let peak_activations = arch
            .layers
            .iter()
            .map(|l| l.input_activations().max(l.output_activations()))
            .max()
            .unwrap_or(0);
        let mean_channel_resolution_ratio = if compute_layers == 0 {
            0.0
        } else {
            arch.compute_layers()
                .map(|l| l.channel_to_resolution_ratio())
                .sum::<f64>()
                / compute_layers as f64
        };
        Self {
            total_macs: arch.total_macs(),
            total_params: arch.total_params(),
            compute_layers,
            total_layers: arch.num_layers(),
            peak_activations,
            mean_channel_resolution_ratio,
        }
    }

    /// Logarithmic capacity measure combining compute and parameters,
    /// normalised so typical search-space networks land in roughly `[0, 1]`
    /// relative to each other.  Used by the accuracy surrogate's
    /// diminishing-returns curve.
    pub fn log_capacity(&self) -> f64 {
        let macs = (self.total_macs.max(1)) as f64;
        let params = (self.total_params.max(1)) as f64;
        0.5 * macs.ln() + 0.5 * params.ln()
    }

    /// Depth signal: weight-carrying layer count.
    pub fn depth(&self) -> usize {
        self.compute_layers
    }
}

impl fmt::Display for NetworkStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1}M MACs, {:.2}M params, {} compute layers (of {}), peak act {:.1}K, ch/res {:.2}",
            self.total_macs as f64 / 1e6,
            self.total_params as f64 / 1e6,
            self.compute_layers,
            self.total_layers,
            self.peak_activations as f64 / 1e3,
            self.mean_channel_resolution_ratio
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backbone::Backbone;

    #[test]
    fn stats_aggregate_consistently() {
        let arch = Backbone::ResNet9Cifar10.largest_architecture();
        let stats = NetworkStats::of(&arch);
        assert_eq!(stats.total_macs, arch.total_macs());
        assert_eq!(stats.total_params, arch.total_params());
        assert_eq!(stats.total_layers, arch.num_layers());
        assert!(stats.peak_activations > 0);
    }

    #[test]
    fn log_capacity_is_monotone_in_size() {
        let small = NetworkStats::of(&Backbone::ResNet9Cifar10.smallest_architecture());
        let large = NetworkStats::of(&Backbone::ResNet9Cifar10.largest_architecture());
        assert!(large.log_capacity() > small.log_capacity());
    }

    #[test]
    fn resnet_has_higher_channel_ratio_than_unet() {
        let resnet = NetworkStats::of(&Backbone::ResNet9Cifar10.largest_architecture());
        let unet = NetworkStats::of(&Backbone::UNetNuclei.largest_architecture());
        assert!(resnet.mean_channel_resolution_ratio > unet.mean_channel_resolution_ratio);
    }

    #[test]
    fn display_contains_key_figures() {
        let stats = NetworkStats::of(&Backbone::ResNet9Cifar10.smallest_architecture());
        let s = stats.to_string();
        assert!(s.contains("MACs") && s.contains("params"));
    }
}
