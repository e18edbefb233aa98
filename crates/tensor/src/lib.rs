//! Minimal dense linear-algebra substrate for the NASAIC reproduction.
//!
//! The NASAIC controller is a recurrent policy network trained with
//! REINFORCE, and the accuracy-surrogate crate offers an optional proxy
//! training path.  Both need a small, dependency-free tensor library:
//! dense matrices, GEMM, element-wise math, common activations,
//! parameter initialisation and first-order optimizers (SGD, RMSProp,
//! Adam).  This crate provides exactly that — nothing more.
//!
//! # Example
//!
//! ```
//! use nasaic_tensor::{Matrix, activation};
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..]]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! let s = activation::softmax(&[1.0, 2.0, 3.0]);
//! assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
//! ```

#![deny(missing_docs)]

pub mod activation;
pub mod gradcheck;
pub mod init;
pub mod kernel;
pub mod matrix;
pub mod optim;

pub use matrix::Matrix;
pub use optim::{Adam, GradientDescent, Optimizer, RmsProp};

/// Numerically stable mean of a slice. Returns `0.0` for an empty slice.
///
/// ```
/// assert_eq!(nasaic_tensor::mean(&[1.0, 2.0, 3.0]), 2.0);
/// ```
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Population variance of a slice. Returns `0.0` for slices shorter than 2.
///
/// ```
/// let v = nasaic_tensor::variance(&[1.0, 1.0, 1.0]);
/// assert_eq!(v, 0.0);
/// ```
pub fn variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64
}

/// Clamp a value into `[lo, hi]`.
///
/// # Panics
///
/// Panics if `lo > hi`.
///
/// ```
/// assert_eq!(nasaic_tensor::clamp(5.0, 0.0, 1.0), 1.0);
/// ```
pub fn clamp(value: f64, lo: f64, hi: f64) -> f64 {
    assert!(lo <= hi, "clamp bounds inverted: {lo} > {hi}");
    value.max(lo).min(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn mean_basic() {
        assert!((mean(&[2.0, 4.0, 6.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn variance_basic() {
        let v = variance(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((v - 4.0).abs() < 1e-12);
    }

    #[test]
    fn variance_short_slice_is_zero() {
        assert_eq!(variance(&[3.0]), 0.0);
        assert_eq!(variance(&[]), 0.0);
    }

    #[test]
    fn clamp_inside_range_is_identity() {
        assert_eq!(clamp(0.5, 0.0, 1.0), 0.5);
    }

    #[test]
    fn clamp_saturates_low() {
        assert_eq!(clamp(-3.0, -1.0, 1.0), -1.0);
    }

    #[test]
    #[should_panic]
    fn clamp_panics_on_inverted_bounds() {
        clamp(0.0, 1.0, -1.0);
    }
}
