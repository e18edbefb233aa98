//! Scalar and vector activation functions used by the LSTM controller and
//! the proxy MLP trainer.

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

/// Hyperbolic tangent.
pub fn tanh(x: f64) -> f64 {
    x.tanh()
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
    fn entropy_maximised_by_uniform() {
        let uniform = entropy(&[0.25; 4]);
        let peaked = entropy(&[0.97, 0.01, 0.01, 0.01]);
        assert!(uniform > peaked);
        assert!((uniform - (4.0_f64).ln()).abs() < 1e-12);
    }
}
