//! The recurrent policy network: a shared recurrent core with one softmax
//! head per decision step, plus REINFORCE gradients computed by manual
//! backpropagation-through-time.

use crate::rnn::{RnnCell, RnnGradients};
use nasaic_tensor::activation::{entropy, softmax_in_place};
use nasaic_tensor::{init, kernel, Matrix, Optimizer, RmsProp};
use rand::Rng;

/// One sampled episode: the chosen action index for every decision step and
/// the log-probability of the whole trajectory under the sampling policy.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeSample {
    /// Chosen option index per decision step.
    pub actions: Vec<usize>,
    /// `sum_t log pi(a_t | a_{t-1..1})`.
    pub log_prob: f64,
    /// Mean per-step entropy of the sampling distributions (exploration
    /// diagnostic).
    pub mean_entropy: f64,
}

/// Parameter gradients of the policy network.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyGradients {
    cell: RnnGradients,
    heads: Vec<(Matrix, Matrix)>,
}

/// Hyperparameters of one REINFORCE update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateConfig {
    /// Learning rate for this update.
    pub learning_rate: f64,
    /// Entropy-bonus coefficient (0 disables the bonus).
    pub entropy_beta: f64,
    /// Mean per-step entropy (nats) below which `entropy_beta` is scaled
    /// up by `floor / entropy` — the anti-collapse guard (0 disables it).
    pub entropy_floor: f64,
    /// Gradient clipping threshold (absolute value per element).
    pub gradient_clip: f64,
}

impl Default for UpdateConfig {
    fn default() -> Self {
        Self {
            learning_rate: 0.05,
            entropy_beta: 0.01,
            entropy_floor: 0.0,
            gradient_clip: 5.0,
        }
    }
}

/// One forward pass along a trajectory, recorded flat for the backward
/// sweep: allocated once per call, never per step.
struct Tape {
    /// Hidden states `h_0 .. h_T`, `hidden` values each (`h_0` is the zero
    /// state).
    hidden: Vec<f64>,
    /// Step `t`'s head output at `offsets[t]..offsets[t + 1]` (see
    /// [`PolicyNetwork::forward`]).
    probabilities: Vec<f64>,
    /// One-hot input column of each step.
    inputs: Vec<usize>,
    /// Action taken at each step.
    actions: Vec<usize>,
}

/// The recurrent policy network of the NASAIC controller.
///
/// The network emits `T` decisions; decision `t` has
/// `cardinalities[t]` options.  The input of step `t` is a one-hot encoding
/// of the previous step's chosen option (a dedicated start token for step
/// 0), exactly the autoregressive scheme of NAS controllers.
#[derive(Debug, Clone)]
pub struct PolicyNetwork {
    cell: RnnCell,
    heads: Vec<(Matrix, Matrix)>,
    cardinalities: Vec<usize>,
    /// Prefix sums of `cardinalities`: step `t`'s slice of a tape's
    /// probabilities.
    offsets: Vec<usize>,
    // Per-parameter RMSProp state (the paper trains the controller with
    // RMSProp).
    opt_w_x: RmsProp,
    opt_w_h: RmsProp,
    opt_b: RmsProp,
    opt_heads: Vec<(RmsProp, RmsProp)>,
    /// Gradient buffers that [`reinforce_update`](Self::reinforce_update)
    /// reuses across updates; [`backward`](Self::backward) overwrites every
    /// value, so nothing carries from one update (or a restore) to the
    /// next.  `None` until the first update.
    gradients: Option<PolicyGradients>,
}

impl PolicyNetwork {
    /// Create a policy network for the given per-step option counts.
    ///
    /// # Panics
    ///
    /// Panics if `cardinalities` is empty or contains a zero, or
    /// `hidden_size` is zero.
    pub fn new<R: Rng>(rng: &mut R, cardinalities: Vec<usize>, hidden_size: usize) -> Self {
        assert!(
            !cardinalities.is_empty(),
            "policy needs at least one decision"
        );
        assert!(
            cardinalities.iter().all(|&c| c > 0),
            "every decision needs at least one option"
        );
        assert!(hidden_size > 0, "hidden size must be positive");
        let max_card = *cardinalities.iter().max().expect("non-empty");
        let input_size = max_card + 1; // +1 for the start token
        let cell = RnnCell::new(rng, input_size, hidden_size);
        let heads = cardinalities
            .iter()
            .map(|&c| {
                (
                    init::xavier_uniform(rng, c, hidden_size),
                    Matrix::zeros(c, 1),
                )
            })
            .collect::<Vec<_>>();
        let opt_heads = cardinalities
            .iter()
            .map(|_| (RmsProp::new(0.05, 0.9), RmsProp::new(0.05, 0.9)))
            .collect();
        let offsets = std::iter::once(0)
            .chain(cardinalities.iter().scan(0, |end, &c| {
                *end += c;
                Some(*end)
            }))
            .collect();
        Self {
            cell,
            heads,
            cardinalities,
            offsets,
            opt_w_x: RmsProp::new(0.05, 0.9),
            opt_w_h: RmsProp::new(0.05, 0.9),
            opt_b: RmsProp::new(0.05, 0.9),
            opt_heads,
            gradients: None,
        }
    }

    /// Number of decision steps.
    pub fn num_steps(&self) -> usize {
        self.cardinalities.len()
    }

    /// Option count per decision step.
    pub fn cardinalities(&self) -> &[usize] {
        &self.cardinalities
    }

    /// Run the recurrent core and every head along one trajectory — the
    /// only forward pass of the network.
    ///
    /// Step `t` writes its logits `U_t h_t + c_t` into the tape's
    /// probability slot and calls `choose(t, logits)`, which may rewrite
    /// them in place (sampling and replay turn them into probabilities)
    /// and returns the step's action; that action is the next step's
    /// one-hot input.
    fn forward(&self, mut choose: impl FnMut(usize, &mut [f64]) -> usize) -> Tape {
        let hidden = self.cell.hidden_size();
        let steps = self.num_steps();
        let start_token = self.cell.input_size() - 1;
        let mut tape = Tape {
            hidden: vec![0.0; (steps + 1) * hidden],
            probabilities: vec![0.0; self.offsets[steps]],
            inputs: Vec::with_capacity(steps),
            actions: Vec::with_capacity(steps),
        };
        let mut pass = self.cell.forward_pass();
        for (t, (u, c)) in self.heads.iter().enumerate() {
            let input = match tape.actions.last() {
                None => start_token,
                Some(&a) => a.min(start_token - 1),
            };
            let (past, next) = tape.hidden.split_at_mut((t + 1) * hidden);
            let h = &mut next[..hidden];
            pass.step(input, &past[t * hidden..], h);
            let logits = &mut tape.probabilities[self.offsets[t]..self.offsets[t + 1]];
            kernel::matvec(u.as_slice(), h, logits, u.rows(), hidden);
            for (logit, &bias) in logits.iter_mut().zip(c.as_slice()) {
                *logit += bias;
            }
            let action = choose(t, logits);
            tape.inputs.push(input);
            tape.actions.push(action);
        }
        tape
    }

    /// Forward pass along a fixed trajectory, recording probabilities.
    fn replay_tape(&self, actions: &[usize]) -> Tape {
        assert_eq!(
            actions.len(),
            self.num_steps(),
            "trajectory length mismatch"
        );
        self.forward(|t, logits| {
            softmax_in_place(logits);
            actions[t]
        })
    }

    /// Each step's probabilities in a replayed tape, in step order.
    fn step_probabilities<'a>(
        &'a self,
        tape: &'a Tape,
    ) -> impl DoubleEndedIterator<Item = &'a [f64]> + ExactSizeIterator {
        self.offsets
            .windows(2)
            .map(|span| &tape.probabilities[span[0]..span[1]])
    }

    /// Sample an on-policy episode.
    pub fn sample_episode<R: Rng>(&self, rng: &mut R) -> EpisodeSample {
        let mut log_prob = 0.0;
        let mut entropy_sum = 0.0;
        let tape = self.forward(|_, logits| {
            softmax_in_place(logits);
            let action = sample_categorical(rng, logits);
            log_prob += logits[action].max(1e-300).ln();
            entropy_sum += entropy(logits);
            action
        });
        EpisodeSample {
            actions: tape.actions,
            log_prob,
            mean_entropy: entropy_sum / self.num_steps() as f64,
        }
    }

    /// Greedy (argmax) trajectory of the current policy.
    pub fn greedy_episode(&self) -> Vec<usize> {
        self.forward(|_, logits| {
            logits
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0)
        })
        .actions
    }

    /// The REINFORCE objective for a trajectory:
    /// `advantage * sum_t log pi(a_t) + entropy_beta * sum_t H(pi_t)`.
    pub fn objective(&self, actions: &[usize], advantage: f64, entropy_beta: f64) -> f64 {
        let tape = self.replay_tape(actions);
        let mut value = 0.0;
        for (probabilities, &action) in self.step_probabilities(&tape).zip(actions) {
            value += advantage * probabilities[action].max(1e-300).ln();
            value += entropy_beta * entropy(probabilities);
        }
        value
    }

    /// Gradients of the REINFORCE objective (for *ascent*).
    pub fn compute_gradients(
        &self,
        actions: &[usize],
        advantage: f64,
        entropy_beta: f64,
    ) -> PolicyGradients {
        let mut grads = self.zero_gradients();
        self.backward(
            &self.replay_tape(actions),
            advantage,
            entropy_beta,
            &mut grads,
        );
        grads
    }

    /// Zero-valued gradient buffers matching this network's shapes.
    fn zero_gradients(&self) -> PolicyGradients {
        PolicyGradients {
            cell: self.cell.zero_gradients(),
            heads: self
                .heads
                .iter()
                .map(|(u, c)| {
                    (
                        Matrix::zeros(u.rows(), u.cols()),
                        Matrix::zeros(c.rows(), c.cols()),
                    )
                })
                .collect(),
        }
    }

    /// Backward sweep over a replayed tape — the only backward pass of the
    /// network.  Overwrites every value of `grads`.
    fn backward(
        &self,
        tape: &Tape,
        advantage: f64,
        entropy_beta: f64,
        grads: &mut PolicyGradients,
    ) {
        let hidden = self.cell.hidden_size();
        let mut dlogits = vec![0.0; self.cell.input_size()];
        let head_grads = &mut grads.heads;
        for (g_u, g_c) in head_grads.iter_mut() {
            g_u.as_mut_slice().fill(0.0);
            g_c.as_mut_slice().fill(0.0);
        }
        // The recurrent sweep asks each step for the gradient its head
        // sends into h_t: dh = U_t^T dlogits.
        self.cell
            .backward(&tape.inputs, &tape.hidden, &mut grads.cell, |t, dh| {
                let probabilities = &tape.probabilities[self.offsets[t]..self.offsets[t + 1]];
                let action = tape.actions[t];
                let step_entropy = entropy(probabilities);
                // d(objective)/dlogits for ascent:
                //   advantage * (onehot - p)  - entropy_beta * p * (ln p + H)
                let dlogits = &mut dlogits[..probabilities.len()];
                for (i, (d, &p)) in dlogits.iter_mut().zip(probabilities).enumerate() {
                    let onehot = if i == action { 1.0 } else { 0.0 };
                    let policy_term = advantage * (onehot - p);
                    let entropy_term = -entropy_beta * p * (p.max(1e-300).ln() + step_entropy);
                    *d = policy_term + entropy_term;
                }
                let h = &tape.hidden[(t + 1) * hidden..(t + 2) * hidden];
                let (u, _) = &self.heads[t];
                let (g_u, g_c) = &mut head_grads[t];
                g_u.add_outer(dlogits, h);
                for (g, &d) in g_c.as_mut_slice().iter_mut().zip(&*dlogits) {
                    *g += d;
                }
                kernel::matvec_tn(u.as_slice(), dlogits, dh, u.rows(), hidden);
            });
    }

    /// Apply one REINFORCE update for a trajectory and its advantage.
    ///
    /// Gradients are clipped element-wise and applied with RMSProp (gradient
    /// *ascent* on the objective): one pass per parameter
    /// ([`RmsProp::ascend_clipped`]), bit for bit a clip-and-negate pass
    /// followed by [`Optimizer::step`].
    pub fn reinforce_update(&mut self, actions: &[usize], advantage: f64, config: &UpdateConfig) {
        let clip = config.gradient_clip;
        assert!(clip >= 0.0, "clip limit must be non-negative");
        let tape = self.replay_tape(actions);
        // Anti-collapse guard: when the replayed trajectory's mean entropy
        // sits below the floor, scale the entropy bonus up in proportion.
        // The scaled coefficient is a constant within this update, so the
        // gradient is the exact gradient of the (rescaled) objective.
        let mut entropy_beta = config.entropy_beta;
        if config.entropy_floor > 0.0 {
            let steps = self.step_probabilities(&tape);
            let count = steps.len();
            let mean_entropy = (steps.map(entropy).sum::<f64>() / count.max(1) as f64).max(1e-3);
            if mean_entropy < config.entropy_floor {
                entropy_beta *= config.entropy_floor / mean_entropy;
            }
        }
        let mut grads = self
            .gradients
            .take()
            .unwrap_or_else(|| self.zero_gradients());
        self.backward(&tape, advantage, entropy_beta, &mut grads);
        let cell = [
            (&mut self.cell.w_x, &grads.cell.w_x, &mut self.opt_w_x),
            (&mut self.cell.w_h, &grads.cell.w_h, &mut self.opt_w_h),
            (&mut self.cell.b, &grads.cell.b, &mut self.opt_b),
        ];
        let heads = self
            .heads
            .iter_mut()
            .zip(&grads.heads)
            .zip(&mut self.opt_heads)
            .flat_map(|(((u, c), (g_u, g_c)), (opt_u, opt_c))| [(u, g_u, opt_u), (c, g_c, opt_c)]);
        for (param, grad, optimizer) in cell.into_iter().chain(heads) {
            optimizer.set_learning_rate(config.learning_rate);
            optimizer.ascend_clipped(param, grad, clip);
        }
        self.gradients = Some(grads);
    }

    /// Snapshot weights + optimizer accumulators (see
    /// [`crate::state::PolicyState`]).
    pub(crate) fn state_snapshot(&self) -> crate::state::PolicyState {
        crate::state::PolicyState {
            w_x: self.cell.w_x.clone(),
            w_h: self.cell.w_h.clone(),
            b: self.cell.b.clone(),
            heads: self.heads.clone(),
            opt_cell: [
                self.opt_w_x.cache().cloned(),
                self.opt_w_h.cache().cloned(),
                self.opt_b.cache().cloned(),
            ],
            opt_heads: self
                .opt_heads
                .iter()
                .map(|(u, c)| (u.cache().cloned(), c.cache().cloned()))
                .collect(),
        }
    }

    /// Restore a snapshot taken by
    /// [`state_snapshot`](Self::state_snapshot).  Every weight, head and
    /// accumulator shape is checked before anything changes, so a rejected
    /// snapshot leaves the network as it was.
    pub(crate) fn state_restore(
        &mut self,
        state: &crate::state::PolicyState,
    ) -> Result<(), String> {
        if state.heads.len() != self.heads.len() || state.opt_heads.len() != self.heads.len() {
            return Err(format!(
                "controller snapshot has {} heads and {} head accumulator pairs, the network \
                 has {} heads",
                state.heads.len(),
                state.opt_heads.len(),
                self.heads.len()
            ));
        }
        let mut checks = vec![
            (
                "w_x".to_string(),
                &self.cell.w_x,
                &state.w_x,
                &state.opt_cell[0],
            ),
            (
                "w_h".to_string(),
                &self.cell.w_h,
                &state.w_h,
                &state.opt_cell[1],
            ),
            ("b".to_string(), &self.cell.b, &state.b, &state.opt_cell[2]),
        ];
        let heads = self.heads.iter().zip(&state.heads).zip(&state.opt_heads);
        for (i, (((own_u, own_c), (u, c)), (acc_u, acc_c))) in heads.enumerate() {
            checks.push((format!("head {i} weights"), own_u, u, acc_u));
            checks.push((format!("head {i} bias"), own_c, c, acc_c));
        }
        for (name, own, weight, accumulator) in checks {
            for (what, matrix) in [("", Some(weight)), (" accumulator", accumulator.as_ref())] {
                if let Some((rows, cols)) = matrix.map(Matrix::shape).filter(|&s| s != own.shape())
                {
                    return Err(format!(
                        "controller {name}{what} is {rows}x{cols}, the network's is {}x{}",
                        own.rows(),
                        own.cols()
                    ));
                }
            }
        }
        self.cell.w_x = state.w_x.clone();
        self.cell.w_h = state.w_h.clone();
        self.cell.b = state.b.clone();
        self.heads = state.heads.clone();
        self.opt_w_x.set_cache(state.opt_cell[0].clone());
        self.opt_w_h.set_cache(state.opt_cell[1].clone());
        self.opt_b.set_cache(state.opt_cell[2].clone());
        for ((opt_u, opt_c), (u, c)) in self.opt_heads.iter_mut().zip(&state.opt_heads) {
            opt_u.set_cache(u.clone());
            opt_c.set_cache(c.clone());
        }
        Ok(())
    }
}

fn sample_categorical<R: Rng>(rng: &mut R, probabilities: &[f64]) -> usize {
    let mut threshold: f64 = rng.gen_range(0.0..1.0);
    for (i, &p) in probabilities.iter().enumerate() {
        if threshold < p {
            return i;
        }
        threshold -= p;
    }
    probabilities.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn network(seed: u64) -> PolicyNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        PolicyNetwork::new(&mut rng, vec![4, 3, 17, 9], 16)
    }

    #[test]
    fn sampled_actions_respect_cardinalities() {
        let net = network(1);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let sample = net.sample_episode(&mut rng);
            assert_eq!(sample.actions.len(), 4);
            for (a, &card) in sample.actions.iter().zip(net.cardinalities()) {
                assert!(*a < card);
            }
            assert!(sample.log_prob <= 0.0);
            assert!(sample.mean_entropy >= 0.0);
        }
    }

    #[test]
    fn greedy_episode_is_deterministic_and_valid() {
        let net = network(3);
        let a = net.greedy_episode();
        let b = net.greedy_episode();
        assert_eq!(a, b);
        for (x, &card) in a.iter().zip(net.cardinalities()) {
            assert!(*x < card);
        }
    }

    #[test]
    fn head_gradient_matches_finite_difference() {
        let net = network(4);
        let actions = vec![1, 2, 10, 5];
        let grads = net.compute_gradients(&actions, 1.0, 0.0);
        // Finite-difference the objective w.r.t. head 2's weights.
        let report = nasaic_tensor::gradcheck::check_gradient(
            &net.heads[2].0,
            &grads.heads[2].0,
            1e-5,
            |w| {
                let mut trial = net.clone();
                trial.heads[2].0 = w.clone();
                trial.objective(&actions, 1.0, 0.0)
            },
        );
        assert!(report.passes(1e-4), "{report:?}");
    }

    #[test]
    fn recurrent_gradient_matches_finite_difference() {
        let net = network(5);
        let actions = vec![0, 1, 3, 8];
        let grads = net.compute_gradients(&actions, 0.7, 0.0);
        let check = |param: &Matrix, grad: &Matrix, set: fn(&mut PolicyNetwork, Matrix)| {
            let report = nasaic_tensor::gradcheck::check_gradient(param, grad, 1e-5, |w| {
                let mut trial = net.clone();
                set(&mut trial, w.clone());
                trial.objective(&actions, 0.7, 0.0)
            });
            assert!(report.passes(1e-4), "{report:?}");
        };
        check(&net.cell.w_h, &grads.cell.w_h, |n, w| n.cell.w_h = w);
        check(&net.cell.w_x, &grads.cell.w_x, |n, w| n.cell.w_x = w);
    }

    #[test]
    fn entropy_gradient_matches_finite_difference() {
        let net = network(6);
        let actions = vec![2, 0, 5, 1];
        let grads = net.compute_gradients(&actions, 0.0, 0.5);
        let report = nasaic_tensor::gradcheck::check_gradient(
            &net.heads[0].0,
            &grads.heads[0].0,
            1e-5,
            |w| {
                let mut trial = net.clone();
                trial.heads[0].0 = w.clone();
                trial.objective(&actions, 0.0, 0.5)
            },
        );
        assert!(report.passes(1e-4), "{report:?}");
    }

    #[test]
    fn positive_advantage_increases_trajectory_probability() {
        let mut net = network(7);
        let actions = vec![3, 2, 11, 4];
        let before = net.objective(&actions, 1.0, 0.0);
        for _ in 0..20 {
            net.reinforce_update(&actions, 1.0, &UpdateConfig::default());
        }
        let after = net.objective(&actions, 1.0, 0.0);
        assert!(
            after > before,
            "log-prob did not increase: {before} -> {after}"
        );
    }

    #[test]
    fn negative_advantage_decreases_trajectory_probability() {
        let mut net = network(8);
        let actions = vec![0, 0, 0, 0];
        let before = net.objective(&actions, 1.0, 0.0);
        for _ in 0..20 {
            net.reinforce_update(&actions, -1.0, &UpdateConfig::default());
        }
        let after = net.objective(&actions, 1.0, 0.0);
        assert!(
            after < before,
            "log-prob did not decrease: {before} -> {after}"
        );
    }

    #[test]
    fn reinforced_policy_converges_to_target_actions() {
        // A tiny bandit-style check: reward 1 for one specific trajectory,
        // 0 otherwise.  After training, greedy decoding should recover it.
        let mut rng = StdRng::seed_from_u64(9);
        let mut net = PolicyNetwork::new(&mut rng, vec![3, 3, 3], 12);
        let target = vec![2, 0, 1];
        let config = UpdateConfig {
            learning_rate: 0.05,
            entropy_beta: 0.0,
            ..UpdateConfig::default()
        };
        let mut baseline = 0.0;
        for _ in 0..400 {
            let sample = net.sample_episode(&mut rng);
            let reward = if sample.actions == target { 1.0 } else { 0.0 };
            baseline = 0.9 * baseline + 0.1 * reward;
            net.reinforce_update(&sample.actions, reward - baseline, &config);
        }
        assert_eq!(net.greedy_episode(), target);
    }

    /// `reinforce_update` as it was before the fused step: gradients from
    /// `compute_gradients`, a clip-and-negate pass over each gradient, then
    /// `Optimizer::step`.
    fn reference_update(
        net: &mut PolicyNetwork,
        actions: &[usize],
        advantage: f64,
        config: &UpdateConfig,
    ) {
        let mut entropy_beta = config.entropy_beta;
        if config.entropy_floor > 0.0 {
            let tape = net.replay_tape(actions);
            let steps = net.step_probabilities(&tape);
            let count = steps.len();
            let mean_entropy = (steps.map(entropy).sum::<f64>() / count.max(1) as f64).max(1e-3);
            if mean_entropy < config.entropy_floor {
                entropy_beta *= config.entropy_floor / mean_entropy;
            }
        }
        let mut grads = net.compute_gradients(actions, advantage, entropy_beta);
        let clip = config.gradient_clip;
        let cell = [
            (&mut net.cell.w_x, &mut grads.cell.w_x, &mut net.opt_w_x),
            (&mut net.cell.w_h, &mut grads.cell.w_h, &mut net.opt_w_h),
            (&mut net.cell.b, &mut grads.cell.b, &mut net.opt_b),
        ];
        let heads = net
            .heads
            .iter_mut()
            .zip(&mut grads.heads)
            .zip(&mut net.opt_heads)
            .flat_map(|(((u, c), (g_u, g_c)), (opt_u, opt_c))| [(u, g_u, opt_u), (c, g_c, opt_c)]);
        for (param, grad, optimizer) in cell.into_iter().chain(heads) {
            grad.map_inplace(|v| -v.max(-clip).min(clip));
            optimizer.set_learning_rate(config.learning_rate);
            optimizer.step(param, grad);
        }
    }

    /// Every weight and accumulator bit, in the snapshot's order.
    fn state_bits(net: &PolicyNetwork) -> Vec<u64> {
        let state = net.export_state();
        let mut matrices = vec![&state.w_x, &state.w_h, &state.b];
        matrices.extend(state.heads.iter().flat_map(|(u, c)| [u, c]));
        matrices.extend(state.opt_cell.iter().flatten());
        matrices.extend(
            state
                .opt_heads
                .iter()
                .flat_map(|(u, c)| [u.as_ref(), c.as_ref()])
                .flatten(),
        );
        matrices
            .into_iter()
            .flat_map(|m| m.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn fused_update_matches_clip_negate_and_optimizer_step_bit_for_bit() {
        // The w1 controller's decision layout at its default hidden size.
        let cardinalities = vec![4, 4, 3, 4, 3, 4, 3, 5, 3, 3, 3, 3, 3, 3, 17, 9, 3, 17, 9];
        let mut rng = StdRng::seed_from_u64(11);
        let mut fused = PolicyNetwork::new(&mut rng, cardinalities, 32);
        let mut reference = fused.clone();
        let mut snapshot = None;
        let (mut bound_clips, mut floors_active, mut negative_advantages) = (0, 0, 0);
        for round in 0..300 {
            let actions = fused.sample_episode(&mut rng).actions;
            let advantage = rng.gen_range(-2.0..2.0);
            let config = UpdateConfig {
                learning_rate: [0.05, 0.01, 1e-3][round % 3],
                entropy_beta: rng.gen_range(0.0..0.3),
                // A floor above any entropy these heads can reach keeps
                // the guard active; zero disables it.
                entropy_floor: [0.0, 0.35, 10.0][round % 5 % 3],
                // Tight clips bind on the large-advantage rounds.
                gradient_clip: [5.0, 0.05, 1e-3][round % 7 % 3],
            };
            let unclipped = fused.compute_gradients(&actions, advantage, config.entropy_beta);
            let largest = unclipped
                .cell
                .w_h
                .max_abs()
                .max(unclipped.cell.w_x.max_abs());
            bound_clips += usize::from(largest > config.gradient_clip);
            floors_active += usize::from(config.entropy_floor == 10.0);
            negative_advantages += usize::from(advantage < 0.0);
            fused.reinforce_update(&actions, advantage, &config);
            reference_update(&mut reference, &actions, advantage, &config);
            assert_eq!(state_bits(&fused), state_bits(&reference), "round {round}");
            if round == 100 {
                snapshot = Some(fused.export_state());
            }
            if round == 200 {
                // Rewind both to round 100: the fused network's reused
                // gradient buffers must not carry values across a restore.
                let state = snapshot.take().expect("taken at round 100");
                fused.restore_state(&state).expect("same layout");
                reference.restore_state(&state).expect("same layout");
            }
        }
        assert!(bound_clips > 100, "{bound_clips} rounds had a binding clip");
        assert!(
            floors_active > 50,
            "{floors_active} rounds had the floor active"
        );
        assert!(
            (100..200).contains(&negative_advantages),
            "{negative_advantages} negative"
        );
    }

    #[test]
    #[should_panic]
    fn zero_cardinality_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        PolicyNetwork::new(&mut rng, vec![3, 0], 8);
    }
}
