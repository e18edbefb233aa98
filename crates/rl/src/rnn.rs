//! A minimal recurrent cell with manual backpropagation.
//!
//! The controller uses an Elman-style recurrent core
//! `h_t = tanh(W_x x_t + W_h h_{t-1} + b)` whose input `x_t` is always a
//! one-hot vector (the previous decision, or a start token).  The step
//! therefore takes the hot *column index* instead of a dense vector, and
//! works on caller-owned slices so a whole trajectory runs without a heap
//! allocation per step.  Keeping the cell simple makes hand-written
//! backpropagation-through-time tractable and verifiable with finite
//! differences (see the tests here and in [`crate::policy`]).
//!
//! Every product keeps the accumulation order of the matmul composition it
//! replaces: `W_h h` is a column of ascending-`k` dot products
//! ([`kernel::matvec_add`]), and `W_x e_a` is the column gather
//! [`kernel::gather_column`], which equals the one-hot matmul bit for bit
//! while `W_x` is finite (pinned in `nasaic-tensor`'s kernel identity
//! suite).  Gradient clipping keeps the weights finite.

use nasaic_tensor::{init, kernel, Matrix};
use rand::Rng;

/// Parameters of the recurrent cell.
#[derive(Debug, Clone, PartialEq)]
pub struct RnnCell {
    /// Input-to-hidden weights (`hidden x input`).
    pub w_x: Matrix,
    /// Hidden-to-hidden weights (`hidden x hidden`).
    pub w_h: Matrix,
    /// Hidden bias (`hidden x 1`).
    pub b: Matrix,
}

/// Accumulated parameter gradients for the cell.
#[derive(Debug, Clone, PartialEq)]
pub struct RnnGradients {
    /// Gradient of `w_x`.
    pub w_x: Matrix,
    /// Gradient of `w_h`.
    pub w_h: Matrix,
    /// Gradient of `b`.
    pub b: Matrix,
}

impl RnnCell {
    /// Create a cell with Xavier-initialised weights.
    ///
    /// # Panics
    ///
    /// Panics if either size is zero.
    pub fn new<R: Rng>(rng: &mut R, input_size: usize, hidden_size: usize) -> Self {
        assert!(
            input_size > 0 && hidden_size > 0,
            "cell sizes must be positive"
        );
        Self {
            w_x: init::xavier_uniform(rng, hidden_size, input_size),
            w_h: init::xavier_uniform(rng, hidden_size, hidden_size),
            b: Matrix::zeros(hidden_size, 1),
        }
    }

    /// Hidden state dimensionality.
    pub fn hidden_size(&self) -> usize {
        self.w_h.rows()
    }

    /// Input dimensionality (the length of the one-hot input).
    pub fn input_size(&self) -> usize {
        self.w_x.cols()
    }

    /// One forward step on the one-hot input `e_input`: writes
    /// `h = tanh(W_x e_input + W_h h_prev + b)`.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not below [`input_size`](Self::input_size) or
    /// either slice is not [`hidden_size`](Self::hidden_size) long.
    pub fn forward(&self, input: usize, h_prev: &[f64], h: &mut [f64]) {
        let hidden = self.hidden_size();
        assert_eq!(h_prev.len(), hidden, "previous hidden state length");
        assert_eq!(h.len(), hidden, "hidden state length");
        kernel::gather_column(self.w_x.as_slice(), input, h, hidden, self.input_size());
        kernel::matvec_add(self.w_h.as_slice(), h_prev, h, hidden, hidden);
        for (h_i, &b_i) in h.iter_mut().zip(self.b.as_slice()) {
            *h_i = (*h_i + b_i).tanh();
        }
    }

    /// One backward step through [`forward`](Self::forward).
    ///
    /// On entry `grad` holds the gradient flowing into the step's hidden
    /// state `h` (from the output head and from the next time step); it is
    /// overwritten with the pre-activation gradient `dz`.  Parameter
    /// gradients are accumulated into `grads`, and the gradient with
    /// respect to `h_prev` is written to `dh_prev` so the caller can
    /// continue the backward sweep.
    ///
    /// The `W_x` gradient `dz e_input^T` touches one column
    /// ([`kernel::scatter_add_column`]); like the gather it equals the
    /// rank-1 matmul update bit for bit while `dz` is finite.
    ///
    /// # Panics
    ///
    /// Panics if `input` is out of range or a slice has the wrong length.
    pub fn backward(
        &self,
        input: usize,
        h_prev: &[f64],
        h: &[f64],
        grad: &mut [f64],
        grads: &mut RnnGradients,
        dh_prev: &mut [f64],
    ) {
        let hidden = self.hidden_size();
        assert_eq!(h.len(), hidden, "hidden state length");
        assert_eq!(grad.len(), hidden, "hidden gradient length");
        // dz = dh * (1 - h^2)   (tanh derivative)
        for (g, &h_i) in grad.iter_mut().zip(h) {
            *g *= 1.0 - h_i * h_i;
        }
        let dz = &*grad;
        kernel::scatter_add_column(
            grads.w_x.as_mut_slice(),
            input,
            dz,
            hidden,
            self.input_size(),
        );
        grads.w_h.add_outer(dz, h_prev);
        for (g_b, &dz_i) in grads.b.as_mut_slice().iter_mut().zip(dz) {
            *g_b += dz_i;
        }
        kernel::matvec_tn(self.w_h.as_slice(), dz, dh_prev, hidden, hidden);
    }

    /// Zero-valued gradient buffers matching this cell's shapes.
    pub fn zero_gradients(&self) -> RnnGradients {
        RnnGradients {
            w_x: Matrix::zeros(self.w_x.rows(), self.w_x.cols()),
            w_h: Matrix::zeros(self.w_h.rows(), self.w_h.cols()),
            b: Matrix::zeros(self.b.rows(), self.b.cols()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Run `inputs` through the cell from the zero state, returning every
    /// hidden state `h_0 .. h_T`.
    fn unroll(cell: &RnnCell, inputs: &[usize]) -> Vec<Vec<f64>> {
        let mut states = vec![vec![0.0; cell.hidden_size()]];
        for &input in inputs {
            let mut h = vec![0.0; cell.hidden_size()];
            cell.forward(input, states.last().expect("non-empty"), &mut h);
            states.push(h);
        }
        states
    }

    /// Gradients of `sum(h_T)` by backpropagation through `inputs`.
    fn sum_of_last_state_gradients(cell: &RnnCell, inputs: &[usize]) -> RnnGradients {
        let states = unroll(cell, inputs);
        let mut grads = cell.zero_gradients();
        let mut grad = vec![1.0; cell.hidden_size()];
        let mut dh_prev = vec![0.0; cell.hidden_size()];
        for (t, &input) in inputs.iter().enumerate().rev() {
            cell.backward(
                input,
                &states[t],
                &states[t + 1],
                &mut grad,
                &mut grads,
                &mut dh_prev,
            );
            grad.copy_from_slice(&dh_prev);
        }
        grads
    }

    #[test]
    fn forward_produces_bounded_activations() {
        let mut rng = StdRng::seed_from_u64(1);
        let cell = RnnCell::new(&mut rng, 4, 8);
        let states = unroll(&cell, &[3]);
        assert_eq!(states[1].len(), 8);
        assert!(states[1].iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn forward_matches_the_one_hot_matmul_composition() {
        // The dense formula tanh(W_x e_a + W_h h + b) through `Matrix`
        // products, against the gathered slice step, bit for bit.
        let mut rng = StdRng::seed_from_u64(6);
        let mut cell = RnnCell::new(&mut rng, 5, 7);
        cell.b = init::xavier_uniform(&mut rng, 7, 1);
        let h_prev = unroll(&cell, &[4, 1]).pop().expect("two steps");
        for input in 0..5 {
            let mut one_hot = Matrix::zeros(5, 1);
            one_hot[(input, 0)] = 1.0;
            let z = &(&cell.w_x.matmul(&one_hot) + &cell.w_h.matmul(&Matrix::col_vector(&h_prev)))
                + &cell.b;
            let mut h = vec![0.0; 7];
            cell.forward(input, &h_prev, &mut h);
            for (got, want) in h.iter().zip(z.as_slice()) {
                assert_eq!(got.to_bits(), want.tanh().to_bits());
            }
        }
    }

    #[test]
    fn hidden_state_carries_information_across_steps() {
        let mut rng = StdRng::seed_from_u64(2);
        let cell = RnnCell::new(&mut rng, 3, 6);
        let after_0_then_1 = unroll(&cell, &[0, 1]).pop();
        let only_1 = unroll(&cell, &[1]).pop();
        assert_ne!(after_0_then_1, only_1);
    }

    #[test]
    fn backward_gradient_matches_finite_difference_for_wx() {
        // Loss = sum(h) after one step; check dLoss/dW_x numerically.  Only
        // the gathered column has a nonzero gradient.
        let mut rng = StdRng::seed_from_u64(3);
        let cell = RnnCell::new(&mut rng, 3, 4);
        let grads = sum_of_last_state_gradients(&cell, &[1]);
        let loss = |w: &Matrix| -> f64 {
            let mut trial = cell.clone();
            trial.w_x = w.clone();
            unroll(&trial, &[1])[1].iter().sum()
        };
        let report = nasaic_tensor::gradcheck::check_gradient(&cell.w_x, &grads.w_x, 1e-5, loss);
        assert!(report.passes(1e-5), "{report:?}");
        for row in grads.w_x.as_slice().chunks_exact(3) {
            assert_eq!((row[0], row[2]), (0.0, 0.0));
        }
    }

    #[test]
    fn backward_gradient_matches_finite_difference_for_wh_over_two_steps() {
        // Two chained steps, loss = sum(h2): checks the recurrent path.
        let mut rng = StdRng::seed_from_u64(4);
        let cell = RnnCell::new(&mut rng, 2, 3);
        let inputs = [0, 1];
        let grads = sum_of_last_state_gradients(&cell, &inputs);
        let loss = |w: &Matrix| -> f64 {
            let mut trial = cell.clone();
            trial.w_h = w.clone();
            unroll(&trial, &inputs)[2].iter().sum()
        };
        let report = nasaic_tensor::gradcheck::check_gradient(&cell.w_h, &grads.w_h, 1e-5, loss);
        assert!(report.passes(1e-4), "{report:?}");
    }

    #[test]
    #[should_panic]
    fn out_of_range_input_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let cell = RnnCell::new(&mut rng, 3, 4);
        cell.forward(3, &[0.0; 4], &mut [0.0; 4]);
    }

    #[test]
    #[should_panic]
    fn zero_sized_cell_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        RnnCell::new(&mut rng, 0, 4);
    }
}
