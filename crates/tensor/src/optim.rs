//! First-order optimizers for the controller and proxy trainer.
//!
//! The paper trains its controller RNN with RMSProp (initial learning rate
//! 0.99, exponential decay 0.5 every 50 steps); [`RmsProp`] mirrors that
//! configuration, and Adam is provided for the proxy trainer.

use crate::Matrix;

/// A first-order optimizer that updates one parameter matrix from its
/// gradient.
///
/// Each parameter matrix owns its own optimizer instance, so stateful
/// optimizers (RMSProp, Adam) keep per-parameter accumulators without a
/// registry keyed by name.
pub trait Optimizer {
    /// Apply one update step: mutate `param` using `grad`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `param` and `grad` have different shapes.
    fn step(&mut self, param: &mut Matrix, grad: &Matrix);

    /// The current learning rate.
    fn learning_rate(&self) -> f64;

    /// Override the learning rate (used by decay schedules).  A rate of
    /// zero, where a decay schedule has underflowed, makes every later
    /// step a zero step.
    ///
    /// # Panics
    ///
    /// Implementations panic if `lr` is negative or NaN.
    fn set_learning_rate(&mut self, lr: f64);
}

/// RMSProp optimizer, as used for the NASAIC controller RNN.
#[derive(Debug, Clone)]
pub struct RmsProp {
    lr: f64,
    decay: f64,
    epsilon: f64,
    cache: Option<Matrix>,
}

impl RmsProp {
    /// Create a new RMSProp optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0` or `decay` is outside `[0, 1)`.
    pub fn new(lr: f64, decay: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&decay), "decay must be in [0, 1)");
        Self {
            lr,
            decay,
            epsilon: 1e-8,
            cache: None,
        }
    }

    /// RMSProp with the paper's controller settings (lr = 0.99, decay = 0.9).
    pub fn paper_defaults() -> Self {
        Self::new(0.99, 0.9)
    }

    /// The squared-gradient accumulator (`None` until the first step).
    /// Together with the learning rate this is the optimizer's entire
    /// mutable state, exposed so checkpoints can serialize it.
    pub fn cache(&self) -> Option<&Matrix> {
        self.cache.as_ref()
    }

    /// Restore a previously exported accumulator (see
    /// [`RmsProp::cache`]).  Passing `None` resets the optimizer to its
    /// pre-first-step state.
    pub fn set_cache(&mut self, cache: Option<Matrix>) {
        self.cache = cache;
    }

    /// The decay constant the optimizer was built with.
    pub fn decay(&self) -> f64 {
        self.decay
    }

    /// One step that *ascends* `grad` clipped element-wise to
    /// `[-clip, clip]`: bit for bit [`Optimizer::step`] on the gradient
    /// `-g.max(-clip).min(clip)`, but each gradient element is read once,
    /// in the same pass as its parameter and accumulator, and never
    /// written.
    ///
    /// # Panics
    ///
    /// Panics if `param` and `grad` have different shapes.
    pub fn ascend_clipped(&mut self, param: &mut Matrix, grad: &Matrix, clip: f64) {
        self.update(param, grad, |g| -g.max(-clip).min(clip));
    }

    /// The RMSProp pass over one parameter, on the gradient `map(g)`.
    #[inline(always)]
    fn update(&mut self, param: &mut Matrix, grad: &Matrix, map: impl Fn(f64) -> f64) {
        assert_eq!(param.shape(), grad.shape(), "optimizer shape mismatch");
        let cache = self
            .cache
            .get_or_insert_with(|| Matrix::zeros(param.rows(), param.cols()));
        for ((p, &g), c) in param
            .as_mut_slice()
            .iter_mut()
            .zip(grad.as_slice())
            .zip(cache.as_mut_slice())
        {
            let g = map(g);
            *c = self.decay * *c + (1.0 - self.decay) * g * g;
            *p -= self.lr * g / (c.sqrt() + self.epsilon);
        }
    }
}

impl Optimizer for RmsProp {
    fn step(&mut self, param: &mut Matrix, grad: &Matrix) {
        self.update(param, grad, |g| g);
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        assert!(lr >= 0.0, "learning rate must be non-negative");
        self.lr = lr;
    }
}

/// Adam optimizer (Kingma & Ba) used by the proxy trainer.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    epsilon: f64,
    step_count: u64,
    first_moment: Option<Matrix>,
    second_moment: Option<Matrix>,
}

impl Adam {
    /// Create a new Adam optimizer with standard betas (0.9, 0.999).
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not strictly positive.
    pub fn new(lr: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            step_count: 0,
            first_moment: None,
            second_moment: None,
        }
    }

    /// Number of update steps applied so far.
    pub fn steps(&self) -> u64 {
        self.step_count
    }
}

impl Optimizer for Adam {
    fn step(&mut self, param: &mut Matrix, grad: &Matrix) {
        assert_eq!(param.shape(), grad.shape(), "optimizer shape mismatch");
        self.step_count += 1;
        let m = self
            .first_moment
            .get_or_insert_with(|| Matrix::zeros(param.rows(), param.cols()));
        let v = self
            .second_moment
            .get_or_insert_with(|| Matrix::zeros(param.rows(), param.cols()));
        let t = self.step_count as f64;
        let bias1 = 1.0 - self.beta1.powf(t);
        let bias2 = 1.0 - self.beta2.powf(t);
        for (((p, g), mi), vi) in param
            .as_mut_slice()
            .iter_mut()
            .zip(grad.as_slice())
            .zip(m.as_mut_slice())
            .zip(v.as_mut_slice())
        {
            *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
            *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
            let m_hat = *mi / bias1;
            let v_hat = *vi / bias2;
            *p -= self.lr * m_hat / (v_hat.sqrt() + self.epsilon);
        }
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        assert!(lr >= 0.0, "learning rate must be non-negative");
        self.lr = lr;
    }
}

/// Exponential step decay schedule: multiply the learning rate by `factor`
/// every `period` steps, mirroring the paper's "exponential decay of 0.5
/// for 50 steps" controller schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct StepDecay {
    initial_lr: f64,
    factor: f64,
    period: u64,
}

impl StepDecay {
    /// Create a decay schedule.
    ///
    /// # Panics
    ///
    /// Panics if any argument is non-positive or `factor > 1`.
    pub fn new(initial_lr: f64, factor: f64, period: u64) -> Self {
        assert!(initial_lr > 0.0, "initial learning rate must be positive");
        assert!(factor > 0.0 && factor <= 1.0, "factor must be in (0, 1]");
        assert!(period > 0, "period must be positive");
        Self {
            initial_lr,
            factor,
            period,
        }
    }

    /// The paper's controller schedule: lr 0.99, halved every 50 steps.
    pub fn paper_defaults() -> Self {
        Self::new(0.99, 0.5, 50)
    }

    /// Learning rate to use at a given (zero-based) step.  After enough
    /// decays `initial_lr * factor^k` underflows to exactly `0.0` (the
    /// paper's schedule at step 53 750), and an optimizer given that rate
    /// takes zero steps.
    pub fn learning_rate_at(&self, step: u64) -> f64 {
        self.initial_lr * self.factor.powf((step / self.period) as f64)
    }

    /// Apply the schedule to an optimizer for the given step.
    pub fn apply<O: Optimizer>(&self, optimizer: &mut O, step: u64) {
        optimizer.set_learning_rate(self.learning_rate_at(step));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_grad(param: &Matrix) -> Matrix {
        // Gradient of f(x) = 0.5 * ||x - 3||^2  ->  x - 3
        param.map(|v| v - 3.0)
    }

    #[test]
    fn rmsprop_converges_on_quadratic() {
        let mut p = Matrix::filled(1, 3, 10.0);
        let mut opt = RmsProp::new(0.05, 0.9);
        for _ in 0..2000 {
            let g = quadratic_grad(&p);
            opt.step(&mut p, &g);
        }
        for &v in p.as_slice() {
            assert!((v - 3.0).abs() < 0.05, "value {v}");
        }
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut p = Matrix::filled(1, 3, -5.0);
        let mut opt = Adam::new(0.05);
        for _ in 0..2000 {
            let g = quadratic_grad(&p);
            opt.step(&mut p, &g);
        }
        for &v in p.as_slice() {
            assert!((v - 3.0).abs() < 0.05, "value {v}");
        }
        assert_eq!(opt.steps(), 2000);
    }

    #[test]
    fn step_decay_schedule_matches_paper_shape() {
        let schedule = StepDecay::paper_defaults();
        assert!((schedule.learning_rate_at(0) - 0.99).abs() < 1e-12);
        assert!((schedule.learning_rate_at(49) - 0.99).abs() < 1e-12);
        assert!((schedule.learning_rate_at(50) - 0.495).abs() < 1e-12);
        assert!((schedule.learning_rate_at(100) - 0.2475).abs() < 1e-12);
    }

    #[test]
    fn step_decay_applies_to_optimizer() {
        let mut opt = RmsProp::paper_defaults();
        let schedule = StepDecay::paper_defaults();
        schedule.apply(&mut opt, 150);
        assert!((opt.learning_rate() - 0.99 * 0.125).abs() < 1e-12);
    }

    #[test]
    fn a_schedule_that_underflows_gives_zero_steps() {
        // The library's controller schedule (0.05, halved every 200
        // updates) underflows at update 214 200, the paper's at 53 750.
        let stable = StepDecay::new(0.05, 0.5, 200);
        assert!(stable.learning_rate_at(214_199) > 0.0);
        assert_eq!(
            stable.learning_rate_at(214_200).to_bits(),
            0.0_f64.to_bits()
        );
        let paper = StepDecay::paper_defaults();
        assert!(paper.learning_rate_at(53_749) > 0.0);
        assert_eq!(paper.learning_rate_at(53_750), 0.0);

        let mut opt = RmsProp::new(0.05, 0.9);
        stable.apply(&mut opt, 214_200);
        assert_eq!(opt.learning_rate(), 0.0);
        let mut p = Matrix::from_vec(1, 3, vec![0.5, -1.5, 2.0]);
        let before = p.clone();
        opt.step(&mut p, &Matrix::from_vec(1, 3, vec![1.0, -3.0, 0.25]));
        assert_eq!(p, before);
        assert!(opt
            .cache()
            .is_some_and(|c| c.as_slice().iter().all(|&v| v > 0.0)));
    }

    #[test]
    fn clipped_ascent_is_step_on_the_clipped_negated_gradient() {
        let grad = Matrix::from_vec(1, 5, vec![7.0, -7.0, 0.3, -0.0, -0.2]);
        let (mut fused, mut stepped) = (RmsProp::new(0.05, 0.9), RmsProp::new(0.05, 0.9));
        let (mut a, mut b) = (Matrix::filled(1, 5, 0.5), Matrix::filled(1, 5, 0.5));
        let clip = 1.0;
        for _ in 0..3 {
            fused.ascend_clipped(&mut a, &grad, clip);
            stepped.step(&mut b, &grad.map(|v| -v.max(-clip).min(clip)));
        }
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
        assert_eq!(
            bits(fused.cache().expect("stepped")),
            bits(stepped.cache().expect("stepped"))
        );
    }

    #[test]
    #[should_panic]
    fn shape_mismatch_panics() {
        let mut p = Matrix::zeros(2, 2);
        let g = Matrix::zeros(1, 2);
        RmsProp::new(0.1, 0.9).step(&mut p, &g);
    }

    #[test]
    #[should_panic]
    fn negative_learning_rate_rejected() {
        RmsProp::new(-0.1, 0.9);
    }
}
