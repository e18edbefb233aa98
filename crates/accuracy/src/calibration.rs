//! Calibration curves pinning the surrogate to the paper's reported
//! accuracy numbers.

use nasaic_nn::backbone::Backbone;
use nasaic_nn::stats::NetworkStats;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// A diminishing-returns accuracy curve in network capacity.
///
/// The curve is
///
/// ```text
/// quality(f) = q_max - (q_max - q_base) * exp(-alpha * (f - f_min))
/// ```
///
/// where `f = log10(total MACs)` is the capacity feature, `f_min` is the
/// capacity of the smallest architecture in the backbone's search space,
/// `q_base` is the paper's lower-bound accuracy (reached by the smallest
/// architecture) and `q_max` is the asymptotic ceiling.  `alpha` controls
/// how quickly accuracy saturates; it is chosen so the largest architecture
/// lands on the paper's best reported accuracy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CalibrationCurve {
    /// Accuracy (or IOU) of the smallest architecture.
    pub q_base: f64,
    /// Asymptotic accuracy ceiling.
    pub q_max: f64,
    /// Capacity feature (`log10` MACs) of the smallest architecture.
    pub f_min: f64,
    /// Saturation rate.
    pub alpha: f64,
    /// Amplitude of the deterministic per-architecture residual.
    pub noise_amplitude: f64,
}

impl CalibrationCurve {
    /// Evaluate the curve at a capacity feature value.
    pub fn quality_at(&self, capacity_feature: f64) -> f64 {
        let delta = (capacity_feature - self.f_min).max(0.0);
        self.q_max - (self.q_max - self.q_base) * (-self.alpha * delta).exp()
    }

    /// Capacity feature of an architecture (`log10` of its MAC count).
    pub fn capacity_feature(stats: &NetworkStats) -> f64 {
        (stats.total_macs.max(1) as f64).log10()
    }

    /// Fit `alpha` so that the curve passes through
    /// `(f_target, q_target)`.
    ///
    /// # Panics
    ///
    /// Panics if `f_target <= f_min`, `q_target <= q_base` or
    /// `q_target >= q_max`.
    pub fn fitted(
        q_base: f64,
        q_max: f64,
        f_min: f64,
        f_target: f64,
        q_target: f64,
        noise_amplitude: f64,
    ) -> Self {
        assert!(f_target > f_min, "target capacity must exceed minimum");
        assert!(
            q_target > q_base && q_target < q_max,
            "target quality must lie strictly between q_base and q_max"
        );
        let alpha = -((q_max - q_target) / (q_max - q_base)).ln() / (f_target - f_min);
        Self {
            q_base,
            q_max,
            f_min,
            alpha,
            noise_amplitude,
        }
    }
}

/// Fit the calibration curve of one backbone from its search-space
/// endpoints.  This materialises the smallest and largest architectures
/// and walks their layer tables — the expensive step the process-wide
/// [`curve_table`] amortises to exactly once per backbone.
fn fit_curve(backbone: Backbone) -> CalibrationCurve {
    let small = NetworkStats::of(&backbone.smallest_architecture());
    let large = NetworkStats::of(&backbone.largest_architecture());
    let f_min = CalibrationCurve::capacity_feature(&small);
    let f_max = CalibrationCurve::capacity_feature(&large);
    match backbone {
        // CIFAR-10 ResNet-9: 78.93 % for the smallest network (Fig. 6),
        // 94.17 % for the architecture NAS finds with unlimited resources
        // (Table I/II).
        Backbone::ResNet9Cifar10 => {
            CalibrationCurve::fitted(0.7893, 0.9550, f_min, f_max, 0.9425, 0.004)
        }
        // STL-10 ResNet-9: 71.57 % lower bound, 76.5 % for the best NAS
        // architecture (Table I).
        Backbone::ResNet9Stl10 => {
            CalibrationCurve::fitted(0.7157, 0.7760, f_min, f_max, 0.7680, 0.004)
        }
        // Nuclei U-Net: IOU 0.642 lower bound (the paper reports 0.6462 in
        // the text and 0.642 in the figure; we use the figure value),
        // 0.8394 for the best NAS architecture (Table I).
        Backbone::UNetNuclei => {
            CalibrationCurve::fitted(0.642, 0.8460, f_min, f_max, 0.8400, 0.003)
        }
    }
}

/// Index of a backbone in the fitted-curve table.
fn curve_index(backbone: Backbone) -> usize {
    match backbone {
        Backbone::ResNet9Cifar10 => 0,
        Backbone::ResNet9Stl10 => 1,
        Backbone::UNetNuclei => 2,
    }
}

/// The process-wide table of fitted curves, built on first use.
///
/// Fitting a curve re-materialises both search-space endpoint
/// architectures; before this table existed the surrogate paid that cost
/// on **every** `evaluate` call.  The fit is deterministic, so serving
/// the memoised [`CalibrationCurve`] (a `Copy` struct) is bit-identical
/// to refitting.
fn curve_table() -> &'static [CalibrationCurve; 3] {
    static CURVES: OnceLock<[CalibrationCurve; 3]> = OnceLock::new();
    CURVES.get_or_init(|| {
        [
            fit_curve(Backbone::ResNet9Cifar10),
            fit_curve(Backbone::ResNet9Stl10),
            fit_curve(Backbone::UNetNuclei),
        ]
    })
}

/// The CIFAR-10 ResNet-9 calibration (memoised; see [`curve_for`]).
pub fn cifar10_curve() -> CalibrationCurve {
    curve_for(Backbone::ResNet9Cifar10)
}

/// The STL-10 ResNet-9 calibration (memoised; see [`curve_for`]).
pub fn stl10_curve() -> CalibrationCurve {
    curve_for(Backbone::ResNet9Stl10)
}

/// The Nuclei U-Net calibration (memoised; see [`curve_for`]).
pub fn nuclei_curve() -> CalibrationCurve {
    curve_for(Backbone::UNetNuclei)
}

/// The calibration curve for a backbone — a table lookup after the first
/// call per process.
pub fn curve_for(backbone: Backbone) -> CalibrationCurve {
    curve_table()[curve_index(backbone)]
}

/// Fit a backbone's curve from scratch, bypassing the memo table.
///
/// Retained as the reference for the `nasaic-bench eval` identity gate and
/// for tests asserting the table serves exactly what a fresh fit
/// produces.  Not a hot-path API.
pub fn curve_for_reference(backbone: Backbone) -> CalibrationCurve {
    fit_curve(backbone)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_is_monotone_in_capacity() {
        let c = cifar10_curve();
        let mut prev = 0.0;
        for step in 0..20 {
            let f = c.f_min + step as f64 * 0.2;
            let q = c.quality_at(f);
            assert!(q >= prev);
            prev = q;
        }
    }

    #[test]
    fn curve_endpoints_match_paper_numbers() {
        let c = cifar10_curve();
        assert!((c.quality_at(c.f_min) - 0.7893).abs() < 1e-9);
        let large = NetworkStats::of(&Backbone::ResNet9Cifar10.largest_architecture());
        let q_large = c.quality_at(CalibrationCurve::capacity_feature(&large));
        assert!((q_large - 0.9425).abs() < 1e-9);
    }

    #[test]
    fn curve_never_exceeds_ceiling() {
        let c = nuclei_curve();
        assert!(c.quality_at(100.0) <= c.q_max);
        assert!(c.quality_at(c.f_min - 5.0) >= c.q_base - 1e-12);
    }

    #[test]
    fn all_backbone_curves_are_well_formed() {
        for backbone in Backbone::all() {
            let c = curve_for(backbone);
            assert!(c.alpha > 0.0);
            assert!(c.q_max > c.q_base);
            assert!(c.noise_amplitude < 0.01);
        }
    }

    #[test]
    fn stl10_curve_is_flatter_than_cifar() {
        // STL-10 accuracy range (71.6 - 77.6) is narrower than CIFAR-10's
        // (78.9 - 94.6); the curve amplitudes reflect that.
        let cifar = cifar10_curve();
        let stl = stl10_curve();
        assert!(cifar.q_max - cifar.q_base > stl.q_max - stl.q_base);
    }

    #[test]
    #[should_panic]
    fn fitted_rejects_target_below_base() {
        CalibrationCurve::fitted(0.8, 0.9, 1.0, 2.0, 0.7, 0.0);
    }

    #[test]
    fn memoised_curves_are_bit_identical_to_fresh_fits() {
        for backbone in Backbone::all() {
            let cached = curve_for(backbone);
            let fresh = curve_for_reference(backbone);
            assert_eq!(cached.q_base.to_bits(), fresh.q_base.to_bits());
            assert_eq!(cached.q_max.to_bits(), fresh.q_max.to_bits());
            assert_eq!(cached.f_min.to_bits(), fresh.f_min.to_bits());
            assert_eq!(cached.alpha.to_bits(), fresh.alpha.to_bits());
            assert_eq!(
                cached.noise_amplitude.to_bits(),
                fresh.noise_amplitude.to_bits()
            );
        }
    }
}
