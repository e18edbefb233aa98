//! A small multi-layer perceptron with manual backpropagation, built on
//! `nasaic-tensor`.
//!
//! The forward and backward passes run entirely on caller-provided
//! [`MlpScratch`] buffers (see the "Evaluator hot path" section of
//! `docs/performance.md` for the ownership rules): once the buffers have
//! grown to the topology's sizes, a full train step performs zero heap
//! allocations.  The convenience methods without a scratch parameter
//! allocate a fresh scratch per call and exist for tests and one-off use.

use nasaic_tensor::activation::{relu, relu_derivative, softmax_into};
use nasaic_tensor::{init, Adam, Matrix, Optimizer};
use rand::Rng;

/// Reusable buffers for [`Mlp`] forward/backward passes.
///
/// Every intermediate activation, probability vector and parameter
/// gradient of a pass lives here instead of being allocated per call.
/// Ownership rules:
///
/// * the caller owns the scratch and may reuse one instance across
///   examples, epochs and even across different [`Mlp`] instances — each
///   pass overwrites everything it reads;
/// * buffer contents between calls are unspecified (borrow results such
///   as [`Mlp::predict_proba_with`]'s slice before the next pass);
/// * an empty (`default`) scratch is always valid — buffers grow on
///   first use and then stay at the high-water mark.
#[derive(Debug, Clone, Default)]
pub struct MlpScratch {
    pre_hidden: Vec<f64>,
    hidden: Vec<f64>,
    logits: Vec<f64>,
    probs: Vec<f64>,
    dhidden: Vec<f64>,
    dpre: Vec<f64>,
    dw1: Matrix,
    db1: Matrix,
    dw2: Matrix,
    db2: Matrix,
}

impl MlpScratch {
    /// Create an empty scratch; buffers grow to the topology's sizes on
    /// first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A two-hidden-layer MLP classifier trained with cross-entropy loss.
#[derive(Debug, Clone)]
pub struct Mlp {
    w1: Matrix,
    b1: Matrix,
    w2: Matrix,
    b2: Matrix,
    opt_w1: Adam,
    opt_b1: Adam,
    opt_w2: Adam,
    opt_b2: Adam,
}

impl Mlp {
    /// Create an MLP with the given layer sizes.
    ///
    /// # Panics
    ///
    /// Panics if any size is zero or the learning rate is non-positive.
    pub fn new<R: Rng>(
        rng: &mut R,
        num_features: usize,
        hidden: usize,
        num_classes: usize,
        learning_rate: f64,
    ) -> Self {
        assert!(num_features > 0 && hidden > 0 && num_classes > 0);
        Self {
            w1: init::he_uniform(rng, hidden, num_features),
            b1: Matrix::zeros(hidden, 1),
            w2: init::xavier_uniform(rng, num_classes, hidden),
            b2: Matrix::zeros(num_classes, 1),
            opt_w1: Adam::new(learning_rate),
            opt_b1: Adam::new(learning_rate),
            opt_w2: Adam::new(learning_rate),
            opt_b2: Adam::new(learning_rate),
        }
    }

    /// Hidden-layer width.
    pub fn hidden_size(&self) -> usize {
        self.w1.rows()
    }

    /// Forward pass into the scratch's activation buffers.
    fn forward_into(&self, features: &[f64], scratch: &mut MlpScratch) {
        self.w1.matvec_into(features, &mut scratch.pre_hidden);
        for (v, b) in scratch.pre_hidden.iter_mut().zip(self.b1.as_slice()) {
            *v += b;
        }
        scratch.hidden.clear();
        scratch
            .hidden
            .extend(scratch.pre_hidden.iter().map(|&v| relu(v)));
        self.w2.matvec_into(&scratch.hidden, &mut scratch.logits);
        for (v, b) in scratch.logits.iter_mut().zip(self.b2.as_slice()) {
            *v += b;
        }
    }

    /// Class probabilities for one example, using caller-provided scratch.
    ///
    /// The returned slice borrows the scratch and is valid until the next
    /// pass through it.
    pub fn predict_proba_with<'a>(
        &self,
        features: &[f64],
        scratch: &'a mut MlpScratch,
    ) -> &'a [f64] {
        self.forward_into(features, scratch);
        softmax_into(&scratch.logits, &mut scratch.probs);
        &scratch.probs
    }

    /// Most likely class for one example, using caller-provided scratch.
    pub fn predict_with(&self, features: &[f64], scratch: &mut MlpScratch) -> usize {
        self.predict_proba_with(features, scratch)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Most likely class for one example (allocating convenience form).
    pub fn predict(&self, features: &[f64]) -> usize {
        let mut scratch = MlpScratch::new();
        self.predict_with(features, &mut scratch)
    }

    /// One stochastic-gradient step on a single example, using
    /// caller-provided scratch; returns the cross-entropy loss before the
    /// update.  Zero heap allocations once the scratch is warm.
    ///
    /// # Panics
    ///
    /// Panics if `label` is out of range for the output layer.
    pub fn train_step_with(
        &mut self,
        features: &[f64],
        label: usize,
        scratch: &mut MlpScratch,
    ) -> f64 {
        assert!(label < self.w2.rows(), "label out of range");
        self.forward_into(features, scratch);
        softmax_into(&scratch.logits, &mut scratch.probs);
        let loss = -(scratch.probs[label].max(1e-300)).ln();

        // dL/dlogits = p - onehot(label); reuses the probability buffer.
        scratch.probs[label] -= 1.0;
        scratch.dw2.set_outer(&scratch.probs, &scratch.hidden);
        scratch.db2.set_col_vector(&scratch.probs);

        // Backprop into the hidden layer.
        self.w2.matvec_tn_into(&scratch.probs, &mut scratch.dhidden);
        scratch.dpre.clear();
        scratch.dpre.extend(
            scratch
                .dhidden
                .iter()
                .zip(&scratch.pre_hidden)
                .map(|(&g, &z)| g * relu_derivative(z)),
        );
        scratch.dw1.set_outer(&scratch.dpre, features);
        scratch.db1.set_col_vector(&scratch.dpre);

        self.opt_w2.step(&mut self.w2, &scratch.dw2);
        self.opt_b2.step(&mut self.b2, &scratch.db2);
        self.opt_w1.step(&mut self.w1, &scratch.dw1);
        self.opt_b1.step(&mut self.b1, &scratch.db1);
        loss
    }

    /// One stochastic-gradient step (allocating convenience form).
    ///
    /// # Panics
    ///
    /// Panics if `label` is out of range for the output layer.
    pub fn train_step(&mut self, features: &[f64], label: usize) -> f64 {
        let mut scratch = MlpScratch::new();
        self.train_step_with(features, label, &mut scratch)
    }

    /// Classification accuracy over a labelled set, using caller-provided
    /// scratch.
    ///
    /// Returns 0 for an empty set.
    pub fn accuracy_with(
        &self,
        features: &[Vec<f64>],
        labels: &[usize],
        scratch: &mut MlpScratch,
    ) -> f64 {
        if features.is_empty() {
            return 0.0;
        }
        let correct = features
            .iter()
            .zip(labels)
            .filter(|(x, &y)| self.predict_with(x, scratch) == y)
            .count();
        correct as f64 / features.len() as f64
    }

    /// Classification accuracy over a labelled set (allocating
    /// convenience form).
    ///
    /// Returns 0 for an empty set.
    pub fn accuracy(&self, features: &[Vec<f64>], labels: &[usize]) -> f64 {
        let mut scratch = MlpScratch::new();
        self.accuracy_with(features, labels, &mut scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proxy::data::SyntheticDataset;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn predictions_are_valid_probabilities() {
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = Mlp::new(&mut rng, 4, 8, 3, 0.01);
        let mut scratch = MlpScratch::new();
        let p = mlp.predict_proba_with(&[0.1, -0.5, 0.3, 0.9], &mut scratch);
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(mlp.predict(&[0.1, -0.5, 0.3, 0.9]) < 3);
    }

    #[test]
    fn training_reduces_loss_on_a_fixed_example() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut mlp = Mlp::new(&mut rng, 4, 16, 2, 0.02);
        let x = [1.0, -1.0, 0.5, 0.2];
        let first = mlp.train_step(&x, 1);
        let mut last = first;
        for _ in 0..100 {
            last = mlp.train_step(&x, 1);
        }
        assert!(last < first * 0.5, "loss {first} -> {last}");
    }

    #[test]
    fn mlp_learns_separable_clusters() {
        let mut rng = StdRng::seed_from_u64(3);
        let ds = SyntheticDataset::gaussian_clusters(&mut rng, 3, 6, 60, 0.15);
        let mut mlp = Mlp::new(&mut rng, 6, 24, 3, 0.01);
        for _ in 0..8 {
            for (x, &y) in ds.train_features.iter().zip(&ds.train_labels) {
                mlp.train_step(x, y);
            }
        }
        let acc = mlp.accuracy(&ds.val_features, &ds.val_labels);
        assert!(acc > 0.9, "validation accuracy {acc}");
    }

    #[test]
    fn accuracy_of_empty_set_is_zero() {
        let mut rng = StdRng::seed_from_u64(4);
        let mlp = Mlp::new(&mut rng, 2, 4, 2, 0.01);
        assert_eq!(mlp.accuracy(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_label_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut mlp = Mlp::new(&mut rng, 2, 4, 2, 0.01);
        mlp.train_step(&[0.0, 0.0], 5);
    }

    /// The pre-scratch train step, kept verbatim as the oracle for the
    /// zero-alloc rewrite: every Matrix op here allocates.
    fn reference_train_step(mlp: &mut Mlp, features: &[f64], label: usize) -> f64 {
        use nasaic_tensor::activation::softmax;
        let x = Matrix::col_vector(features);
        let pre_hidden = &mlp.w1.matmul(&x) + &mlp.b1;
        let hidden: Vec<f64> = pre_hidden.as_slice().iter().map(|&v| relu(v)).collect();
        let h = Matrix::col_vector(&hidden);
        let logits_m = &mlp.w2.matmul(&h) + &mlp.b2;
        let probabilities = softmax(logits_m.as_slice());
        let loss = -(probabilities[label].max(1e-300)).ln();

        let mut dlogits = probabilities;
        dlogits[label] -= 1.0;
        let dlogits_m = Matrix::col_vector(&dlogits);
        let hidden_m = Matrix::col_vector(&hidden);
        let dw2 = dlogits_m.matmul(&hidden_m.transpose());
        let db2 = dlogits_m.clone();
        let dhidden = mlp.w2.transpose().matmul(&dlogits_m);
        let dpre: Vec<f64> = dhidden
            .as_slice()
            .iter()
            .zip(pre_hidden.as_slice())
            .map(|(&g, &z)| g * relu_derivative(z))
            .collect();
        let dpre_m = Matrix::col_vector(&dpre);
        let dw1 = dpre_m.matmul(&x.transpose());
        let db1 = dpre_m;

        mlp.opt_w2.step(&mut mlp.w2, &dw2);
        mlp.opt_b2.step(&mut mlp.b2, &db2);
        mlp.opt_w1.step(&mut mlp.w1, &dw1);
        mlp.opt_b1.step(&mut mlp.b1, &db1);
        loss
    }

    fn assert_matrix_bits_equal(a: &Matrix, b: &Matrix) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "parameter mismatch: {x} vs {y}");
        }
    }

    #[test]
    fn scratch_train_step_is_bit_identical_to_matmul_composition() {
        let mut rng = StdRng::seed_from_u64(7);
        let ds = SyntheticDataset::gaussian_clusters(&mut rng, 3, 5, 20, 0.2);
        // 9 hidden units: not a multiple of the kernel unroll width.
        let mut fast = Mlp::new(&mut rng, 5, 9, 3, 0.015);
        let mut reference = fast.clone();
        let mut scratch = MlpScratch::new();
        for (x, &y) in ds.train_features.iter().zip(&ds.train_labels) {
            let loss_fast = fast.train_step_with(x, y, &mut scratch);
            let loss_reference = reference_train_step(&mut reference, x, y);
            assert_eq!(loss_fast.to_bits(), loss_reference.to_bits());
        }
        assert_matrix_bits_equal(&fast.w1, &reference.w1);
        assert_matrix_bits_equal(&fast.b1, &reference.b1);
        assert_matrix_bits_equal(&fast.w2, &reference.w2);
        assert_matrix_bits_equal(&fast.b2, &reference.b2);
        // Inference paths agree too, through the same shared scratch.
        for x in &ds.val_features {
            let p_fast = fast.predict_proba_with(x, &mut scratch).to_vec();
            let p_reference = reference
                .predict_proba_with(x, &mut MlpScratch::new())
                .to_vec();
            for (a, b) in p_fast.iter().zip(&p_reference) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
