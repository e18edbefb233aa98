//! Scalar and vector activation functions used by the LSTM controller and
//! the proxy MLP trainer, together with their derivatives.

use crate::Matrix;

/// Logistic sigmoid `1 / (1 + e^-x)`.
///
/// ```
/// assert!((nasaic_tensor::activation::sigmoid(0.0) - 0.5).abs() < 1e-12);
/// ```
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        // Numerically stable branch for strongly negative inputs.
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Derivative of the sigmoid expressed in terms of its output `y = sigmoid(x)`.
pub fn sigmoid_derivative_from_output(y: f64) -> f64 {
    y * (1.0 - y)
}

/// Hyperbolic tangent.
pub fn tanh(x: f64) -> f64 {
    x.tanh()
}

/// Derivative of tanh expressed in terms of its output `y = tanh(x)`.
pub fn tanh_derivative_from_output(y: f64) -> f64 {
    1.0 - y * y
}

/// Rectified linear unit.
pub fn relu(x: f64) -> f64 {
    x.max(0.0)
}

/// Derivative of ReLU (defined as 0 at the kink).
pub fn relu_derivative(x: f64) -> f64 {
    if x > 0.0 {
        1.0
    } else {
        0.0
    }
}

/// Numerically stable softmax over a slice of logits.
///
/// Returns a probability vector of the same length.  An empty input yields
/// an empty output.
///
/// ```
/// let p = nasaic_tensor::activation::softmax(&[0.0, 0.0]);
/// assert!((p[0] - 0.5).abs() < 1e-12);
/// ```
pub fn softmax(logits: &[f64]) -> Vec<f64> {
    let mut out = logits.to_vec();
    softmax_in_place(&mut out);
    out
}

/// [`softmax`] into a caller-provided buffer — zero allocations once the
/// buffer's capacity has grown to fit.
pub fn softmax_into(logits: &[f64], out: &mut Vec<f64>) {
    out.clear();
    out.extend_from_slice(logits);
    softmax_in_place(out);
}

/// Replace a slice of logits with their softmax probabilities, in place.
///
/// Every softmax form runs through this one function (subtract-max,
/// exponentiate, normalise), so all of them are bit-for-bit identical.
pub fn softmax_in_place(values: &mut [f64]) {
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    for v in values.iter_mut() {
        *v = (*v - max).exp();
    }
    let sum: f64 = values.iter().sum();
    for v in values.iter_mut() {
        *v /= sum;
    }
}

/// Natural log of the softmax probability of index `chosen`.
///
/// # Panics
///
/// Panics if `chosen` is out of range or `logits` is empty.
pub fn log_softmax_at(logits: &[f64], chosen: usize) -> f64 {
    assert!(!logits.is_empty(), "log_softmax_at on empty logits");
    assert!(chosen < logits.len(), "chosen index out of range");
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let log_sum: f64 = logits.iter().map(|&v| (v - max).exp()).sum::<f64>().ln() + max;
    logits[chosen] - log_sum
}

/// Cross-entropy loss between a probability vector and a one-hot target.
///
/// # Panics
///
/// Panics if `target` is out of range.
pub fn cross_entropy(probabilities: &[f64], target: usize) -> f64 {
    assert!(target < probabilities.len(), "target index out of range");
    -(probabilities[target].max(1e-300)).ln()
}

/// Apply sigmoid element-wise to a matrix.
pub fn sigmoid_matrix(m: &Matrix) -> Matrix {
    m.map(sigmoid)
}

/// Apply tanh element-wise to a matrix.
pub fn tanh_matrix(m: &Matrix) -> Matrix {
    m.map(tanh)
}

/// Apply ReLU element-wise to a matrix.
pub fn relu_matrix(m: &Matrix) -> Matrix {
    m.map(relu)
}

/// Entropy (nats) of a probability distribution.  Probabilities of zero
/// contribute zero.
pub fn entropy(probabilities: &[f64]) -> f64 {
    probabilities
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| -p * p.ln())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_is_symmetric_around_half() {
        for x in [-3.0, -1.0, 0.5, 2.0] {
            assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sigmoid_extremes_saturate() {
        assert!(sigmoid(40.0) > 0.999999);
        assert!(sigmoid(-40.0) < 1e-6);
    }

    #[test]
    fn sigmoid_derivative_matches_finite_difference() {
        let x = 0.37;
        let h = 1e-6;
        let numeric = (sigmoid(x + h) - sigmoid(x - h)) / (2.0 * h);
        let analytic = sigmoid_derivative_from_output(sigmoid(x));
        assert!((numeric - analytic).abs() < 1e-8);
    }

    #[test]
    fn tanh_derivative_matches_finite_difference() {
        let x = -0.81;
        let h = 1e-6;
        let numeric = (tanh(x + h) - tanh(x - h)) / (2.0 * h);
        let analytic = tanh_derivative_from_output(tanh(x));
        assert!((numeric - analytic).abs() < 1e-8);
    }

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(relu(-2.0), 0.0);
        assert_eq!(relu(3.0), 3.0);
        assert_eq!(relu_derivative(-1.0), 0.0);
        assert_eq!(relu_derivative(1.0), 1.0);
    }

    #[test]
    fn softmax_sums_to_one_and_preserves_order() {
        let p = softmax(&[1.0, 3.0, 2.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[1] > p[2] && p[2] > p[0]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[101.0, 102.0, 103.0]);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn softmax_handles_large_logits_without_overflow() {
        let p = softmax(&[1000.0, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!(p.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn softmax_into_is_bit_identical_to_softmax() {
        let logits = [0.3, -1.2, 2.5, 0.0, 1000.0];
        let mut buffer = vec![9.0; 2]; // stale content must be discarded
        softmax_into(&logits, &mut buffer);
        let reference = softmax(&logits);
        assert_eq!(buffer.len(), reference.len());
        for (a, b) in buffer.iter().zip(&reference) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        softmax_into(&[], &mut buffer);
        assert!(buffer.is_empty());
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let logits = [0.3, -1.2, 2.5, 0.0];
        let p = softmax(&logits);
        for (i, &probability) in p.iter().enumerate() {
            assert!((log_softmax_at(&logits, i) - probability.ln()).abs() < 1e-10);
        }
    }

    #[test]
    fn cross_entropy_zero_for_certain_prediction() {
        assert!(cross_entropy(&[1.0, 0.0], 0) < 1e-12);
        assert!(cross_entropy(&[0.5, 0.5], 1) > 0.0);
    }

    #[test]
    fn entropy_maximised_by_uniform() {
        let uniform = entropy(&[0.25; 4]);
        let peaked = entropy(&[0.97, 0.01, 0.01, 0.01]);
        assert!(uniform > peaked);
        assert!((uniform - (4.0_f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn matrix_activations_apply_elementwise() {
        let m = Matrix::from_rows(&[&[-1.0, 0.0, 1.0][..]]);
        assert_eq!(relu_matrix(&m).as_slice(), &[0.0, 0.0, 1.0]);
        let s = sigmoid_matrix(&m);
        assert!((s.as_slice()[1] - 0.5).abs() < 1e-12);
        let t = tanh_matrix(&m);
        assert!((t.as_slice()[2] - (1.0_f64).tanh()).abs() < 1e-12);
    }
}
