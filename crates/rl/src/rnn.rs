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
//! replaces: `W_h h` is the column kernel [`kernel::matvec_tn`] on `W_hᵀ`,
//! which a [`ForwardPass`] transposes once for all of its steps and which
//! sums each element in ascending `k` like the matmul; and `W_x e_a` is the
//! column gather [`kernel::gather_column`], which equals the one-hot
//! matmul bit for bit while `W_x` is finite (pinned in `nasaic-tensor`'s
//! kernel identity suite).  Gradient clipping keeps the weights finite.

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

    /// Start a forward pass: copies `W_hᵀ` once for all of the pass's
    /// steps.  The pass borrows the cell, so its copy cannot go stale.
    pub fn forward_pass(&self) -> ForwardPass<'_> {
        ForwardPass {
            cell: self,
            w_h_t: self.w_h.transpose(),
            z: vec![0.0; self.hidden_size()],
        }
    }

    /// Backpropagation through time over one forward pass — the only
    /// backward pass of the cell.
    ///
    /// `states` stacks the pass's hidden states `h_0 .. h_T`
    /// ([`hidden_size`](Self::hidden_size) values each) and `inputs` holds
    /// its `T` input columns.  The sweep runs from the last step to the
    /// first.  At step `t`, `output_grad(t, dh)` overwrites `dh` with the
    /// gradient that the step's output sends into `h_t`; the sweep adds the
    /// gradient from step `t + 1` and turns the sum into the
    /// pre-activation gradient `dz_t = dh ⊙ (1 - h_t²)`.
    ///
    /// `grads` is overwritten with the parameter gradients.  The `W_x`
    /// gradient `dz_t e_inputᵀ` touches one column per step
    /// ([`kernel::scatter_add_column`]; like the gather it equals the
    /// rank-1 matmul update bit for bit while `dz_t` is finite), and the
    /// `W_h` gradient `Σ_t dz_t h_{t-1}ᵀ` is one blocked pass after the
    /// sweep ([`kernel::sum_outer_rev`]), in the sweep's order.
    ///
    /// # Panics
    ///
    /// Panics if an input is out of range or `states` does not hold
    /// `inputs.len() + 1` hidden states.
    pub fn backward(
        &self,
        inputs: &[usize],
        states: &[f64],
        grads: &mut RnnGradients,
        mut output_grad: impl FnMut(usize, &mut [f64]),
    ) {
        let hidden = self.hidden_size();
        let steps = inputs.len();
        assert_eq!(states.len(), (steps + 1) * hidden, "hidden states length");
        grads.w_x.as_mut_slice().fill(0.0);
        grads.b.as_mut_slice().fill(0.0);
        let mut dz = vec![0.0; steps * hidden];
        let mut dh = vec![0.0; hidden];
        let mut dh_next = vec![0.0; hidden];
        for (t, &input) in inputs.iter().enumerate().rev() {
            output_grad(t, &mut dh);
            let h = &states[(t + 1) * hidden..(t + 2) * hidden];
            let dz_t = &mut dz[t * hidden..(t + 1) * hidden];
            // dz = (dh + dh_next) * (1 - h^2)   (tanh derivative)
            for (((d, &g), &next), &h_i) in dz_t.iter_mut().zip(&dh).zip(&dh_next).zip(h) {
                *d = (g + next) * (1.0 - h_i * h_i);
            }
            kernel::scatter_add_column(
                grads.w_x.as_mut_slice(),
                input,
                dz_t,
                hidden,
                self.input_size(),
            );
            for (g_b, &dz_i) in grads.b.as_mut_slice().iter_mut().zip(&*dz_t) {
                *g_b += dz_i;
            }
            // The zero state h_0 takes no gradient.
            if t > 0 {
                kernel::matvec_tn(self.w_h.as_slice(), dz_t, &mut dh_next, hidden, hidden);
            }
        }
        kernel::sum_outer_rev(
            grads.w_h.as_mut_slice(),
            &dz,
            &states[..steps * hidden],
            hidden,
            hidden,
        );
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

/// One forward pass of an [`RnnCell`]: the cell plus its `W_hᵀ`, copied
/// once by [`RnnCell::forward_pass`] so every step's `W_h h_prev` runs on
/// the column kernel.
#[derive(Debug)]
pub struct ForwardPass<'a> {
    cell: &'a RnnCell,
    w_h_t: Matrix,
    /// `W_h h_prev` of the current step.
    z: Vec<f64>,
}

impl ForwardPass<'_> {
    /// One forward step on the one-hot input `e_input`: writes
    /// `h = tanh(W_x e_input + W_h h_prev + b)`.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not below the cell's
    /// [`input_size`](RnnCell::input_size) or either slice is not
    /// [`hidden_size`](RnnCell::hidden_size) long.
    pub fn step(&mut self, input: usize, h_prev: &[f64], h: &mut [f64]) {
        let cell = self.cell;
        let hidden = cell.hidden_size();
        assert_eq!(h_prev.len(), hidden, "previous hidden state length");
        assert_eq!(h.len(), hidden, "hidden state length");
        kernel::gather_column(cell.w_x.as_slice(), input, h, hidden, cell.input_size());
        kernel::matvec_tn(self.w_h_t.as_slice(), h_prev, &mut self.z, hidden, hidden);
        for ((h_i, &z_i), &b_i) in h.iter_mut().zip(&self.z).zip(cell.b.as_slice()) {
            *h_i = (*h_i + z_i + b_i).tanh();
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
        let mut pass = cell.forward_pass();
        let mut states = vec![vec![0.0; cell.hidden_size()]];
        for &input in inputs {
            let mut h = vec![0.0; cell.hidden_size()];
            pass.step(input, states.last().expect("non-empty"), &mut h);
            states.push(h);
        }
        states
    }

    /// Gradients of `sum(h_T)` by backpropagation through `inputs`.
    fn sum_of_last_state_gradients(cell: &RnnCell, inputs: &[usize]) -> RnnGradients {
        let states = unroll(cell, inputs).concat();
        let mut grads = cell.zero_gradients();
        let last = inputs.len() - 1;
        cell.backward(inputs, &states, &mut grads, |t, dh| {
            dh.fill(if t == last { 1.0 } else { 0.0 })
        });
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
            cell.forward_pass().step(input, &h_prev, &mut h);
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
        cell.forward_pass().step(3, &[0.0; 4], &mut [0.0; 4]);
    }

    #[test]
    #[should_panic]
    fn zero_sized_cell_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        RnnCell::new(&mut rng, 0, 4);
    }
}
