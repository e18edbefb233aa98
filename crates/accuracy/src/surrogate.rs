//! The calibrated accuracy surrogate — the default accuracy oracle of the
//! reproduction.

use crate::calibration::{curve_for, CalibrationCurve};
use nasaic_nn::backbone::Backbone;
use nasaic_nn::layer::Architecture;
use nasaic_nn::stats::NetworkStats;
use serde::{Deserialize, Serialize};

/// An accuracy oracle: maps a concrete architecture (for a given backbone /
/// dataset) to a quality score in `[0, 1]` — classification accuracy or
/// segmentation IOU, matching the paper's metrics.
pub trait AccuracyModel {
    /// Evaluate the architecture's quality on the backbone's dataset.
    fn evaluate(&self, backbone: Backbone, architecture: &Architecture) -> f64;

    /// Human-readable name of the oracle (for experiment logs).
    fn name(&self) -> &str {
        "accuracy-model"
    }
}

/// The calibrated analytical surrogate (see crate-level documentation).
///
/// Quality is a diminishing-returns function of the architecture's capacity
/// plus a deterministic, architecture-specific residual and a small reward
/// for depth (extra residual/encoder levels), making the landscape rugged
/// enough that search is non-trivial while preserving the paper's reported
/// endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SurrogateModel {
    /// Scale applied to the deterministic residual (1.0 = calibrated
    /// default; 0.0 disables the residual entirely).
    pub noise_scale: f64,
    /// Seed mixed into the deterministic residual so independent
    /// experiments can decorrelate their landscapes.
    pub seed: u64,
}

impl SurrogateModel {
    /// The calibration used throughout the reproduction.
    pub fn paper_calibrated() -> Self {
        Self {
            noise_scale: 1.0,
            seed: 0x5a5a_1234,
        }
    }

    /// A perfectly smooth surrogate (no residual); useful for tests that
    /// need exact monotonicity in capacity.
    pub fn smooth() -> Self {
        Self {
            noise_scale: 0.0,
            seed: 0,
        }
    }

    fn residual(
        &self,
        backbone: Backbone,
        architecture: &Architecture,
        curve: &CalibrationCurve,
    ) -> f64 {
        if self.noise_scale == 0.0 {
            return 0.0;
        }
        // Deterministic hash of the hyperparameter vector.
        let mut h: u64 = self.seed ^ (backbone as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for &v in &architecture.hyperparameters {
            h ^= (v as u64)
                .wrapping_add(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(h << 6)
                .wrapping_add(h >> 2);
        }
        // Map to [-1, 1).
        let unit = ((h >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
        unit * curve.noise_amplitude * self.noise_scale
    }
}

impl Default for SurrogateModel {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

impl AccuracyModel for SurrogateModel {
    fn evaluate(&self, backbone: Backbone, architecture: &Architecture) -> f64 {
        let curve = curve_for(backbone);
        let stats = NetworkStats::of(architecture);
        let capacity = CalibrationCurve::capacity_feature(&stats);
        let base = curve.quality_at(capacity);
        // Depth reward: at equal MAC count, deeper networks generalise a
        // little better (up to +0.3%).
        let depth_bonus = 0.003 * (stats.depth() as f64 / 20.0).min(1.0);
        let residual = self.residual(backbone, architecture, &curve);
        (base + depth_bonus + residual).clamp(0.0, curve.q_max)
    }

    fn name(&self) -> &str {
        "calibrated-surrogate"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smallest_architectures_match_paper_lower_bounds() {
        let model = SurrogateModel::paper_calibrated();
        let cases = [
            (Backbone::ResNet9Cifar10, 0.7893),
            (Backbone::ResNet9Stl10, 0.7157),
            (Backbone::UNetNuclei, 0.642),
        ];
        for (backbone, expected) in cases {
            let acc = model.evaluate(backbone, &backbone.smallest_architecture());
            assert!(
                (acc - expected).abs() < 0.012,
                "{backbone}: {acc} vs expected {expected}"
            );
        }
    }

    #[test]
    fn largest_cifar_architecture_reaches_nas_accuracy() {
        let model = SurrogateModel::paper_calibrated();
        let acc = model.evaluate(
            Backbone::ResNet9Cifar10,
            &Backbone::ResNet9Cifar10.largest_architecture(),
        );
        assert!(acc > 0.935 && acc <= 0.95, "accuracy {acc}");
    }

    #[test]
    fn paper_best_w3_architecture_scores_about_94_percent() {
        let model = SurrogateModel::paper_calibrated();
        let arch = Backbone::ResNet9Cifar10.materialize_values(&[32, 128, 2, 256, 2, 256, 2]);
        let acc = model.evaluate(Backbone::ResNet9Cifar10, &arch);
        assert!(acc > 0.925 && acc < 0.95, "accuracy {acc}");
    }

    #[test]
    fn capacity_ordering_is_respected_by_smooth_model() {
        let model = SurrogateModel::smooth();
        let tiny = Backbone::ResNet9Cifar10.materialize_values(&[8, 32, 0, 32, 0, 32, 0]);
        let mid = Backbone::ResNet9Cifar10.materialize_values(&[16, 64, 1, 128, 1, 128, 1]);
        let big = Backbone::ResNet9Cifar10.materialize_values(&[32, 128, 2, 256, 2, 256, 2]);
        let a = model.evaluate(Backbone::ResNet9Cifar10, &tiny);
        let b = model.evaluate(Backbone::ResNet9Cifar10, &mid);
        let c = model.evaluate(Backbone::ResNet9Cifar10, &big);
        assert!(a < b && b < c, "{a} {b} {c}");
    }

    #[test]
    fn evaluation_is_deterministic() {
        let model = SurrogateModel::paper_calibrated();
        let arch = Backbone::UNetNuclei.materialize_values(&[3, 8, 16, 32, 64, 128]);
        let a = model.evaluate(Backbone::UNetNuclei, &arch);
        let b = model.evaluate(Backbone::UNetNuclei, &arch);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_decorrelate_residuals() {
        let arch = Backbone::ResNet9Cifar10.materialize_values(&[16, 64, 1, 128, 1, 128, 1]);
        let seeded = |seed| SurrogateModel {
            seed,
            ..SurrogateModel::paper_calibrated()
        };
        let a = seeded(1).evaluate(Backbone::ResNet9Cifar10, &arch);
        let b = seeded(2).evaluate(Backbone::ResNet9Cifar10, &arch);
        assert_ne!(a, b);
        assert!((a - b).abs() < 0.01);
    }

    #[test]
    fn noise_never_breaks_global_ordering() {
        // The residual amplitude (0.4%) is far smaller than the accuracy
        // gap between the smallest and largest networks (~15%).
        let model = SurrogateModel::paper_calibrated();
        let small = model.evaluate(
            Backbone::ResNet9Cifar10,
            &Backbone::ResNet9Cifar10.smallest_architecture(),
        );
        let large = model.evaluate(
            Backbone::ResNet9Cifar10,
            &Backbone::ResNet9Cifar10.largest_architecture(),
        );
        assert!(large - small > 0.10);
    }

    #[test]
    fn nuclei_iou_range_matches_paper() {
        let model = SurrogateModel::paper_calibrated();
        let best = model.evaluate(
            Backbone::UNetNuclei,
            &Backbone::UNetNuclei.largest_architecture(),
        );
        assert!(best > 0.82 && best < 0.85, "IOU {best}");
    }

    #[test]
    fn model_reports_its_name() {
        assert_eq!(SurrogateModel::default().name(), "calibrated-surrogate");
    }
}
