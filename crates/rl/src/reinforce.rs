//! REINFORCE training glue: baseline, discounting and learning-rate
//! schedule.
//!
//! The paper updates the controller with the Monte-Carlo policy gradient of
//! Eq. 1: rewards are discounted by `gamma` per step, the baseline `b` is
//! the exponential moving average of past rewards, and the optimizer is
//! RMSProp with an initial learning rate of 0.99 decayed by 0.5 every 50
//! steps.

use crate::policy::{PolicyNetwork, UpdateConfig};
use nasaic_tensor::optim::StepDecay;
use serde::{Deserialize, Serialize};

/// Hyperparameters of the REINFORCE trainer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReinforceConfig {
    /// Reward discount per step (`gamma` in Eq. 1).
    pub gamma: f64,
    /// Smoothing factor of the exponential-moving-average baseline.
    pub baseline_momentum: f64,
    /// Initial learning rate (the paper uses 0.99 — large because RMSProp
    /// normalises the gradient magnitude).
    pub initial_learning_rate: f64,
    /// Multiplicative decay applied to the learning rate every
    /// `decay_period` updates.
    pub learning_rate_decay: f64,
    /// Number of updates between learning-rate decays.
    pub decay_period: u64,
    /// Entropy-bonus coefficient.
    pub entropy_beta: f64,
    /// Mean per-step policy entropy (nats) below which the entropy bonus
    /// is scaled up.  RMSProp's normalised steps can drive the softmax
    /// heads to near-determinism within a handful of strongly penalised
    /// episodes — before the search has seen a single feasible design —
    /// after which every episode replays the same stuck trajectory.  When
    /// the replayed trajectory's mean entropy drops below this floor, the
    /// effective entropy coefficient grows as `beta * floor / entropy`,
    /// which reopens exploration instead of letting the policy collapse.
    /// Set to `0.0` to disable the guard (the literal paper behaviour).
    pub entropy_floor: f64,
    /// Element-wise gradient clip.
    pub gradient_clip: f64,
    /// Clip applied to the advantage `(R - b)` before the policy-gradient
    /// update.  Large spec violations produce rewards tens of units below
    /// the baseline; clipping keeps those episodes from destroying the
    /// policy while preserving the update's direction.
    pub advantage_clip: f64,
}

impl ReinforceConfig {
    /// The paper's controller-training configuration.
    pub fn paper() -> Self {
        Self {
            gamma: 0.99,
            baseline_momentum: 0.9,
            initial_learning_rate: 0.99,
            learning_rate_decay: 0.5,
            decay_period: 50,
            entropy_beta: 0.01,
            entropy_floor: 0.0,
            gradient_clip: 5.0,
            advantage_clip: 2.0,
        }
    }
}

impl ReinforceConfig {
    /// A numerically tamer configuration used as the library default.
    ///
    /// The paper quotes an initial RMSProp learning rate of 0.99, which in
    /// practice makes near-unit-size parameter steps and can oscillate on
    /// small policies; this configuration keeps the same structure (EMA
    /// baseline, step decay, entropy bonus) with a smaller step size, a
    /// stronger entropy bonus and the entropy-floor guard, and is what
    /// [`crate::ControllerConfig::default`] uses.  Without the guard, a
    /// run whose first episodes are all spec-infeasible can collapse to a
    /// deterministic penalised trajectory and stay there for the whole
    /// search.  The literal paper settings remain available through
    /// [`ReinforceConfig::paper`].
    pub fn stable() -> Self {
        Self {
            initial_learning_rate: 0.05,
            decay_period: 200,
            entropy_beta: 0.2,
            entropy_floor: 0.35,
            ..Self::paper()
        }
    }
}

impl Default for ReinforceConfig {
    fn default() -> Self {
        Self::stable()
    }
}

/// Stateful REINFORCE trainer wrapping a [`PolicyNetwork`].
#[derive(Debug, Clone)]
pub struct ReinforceTrainer {
    config: ReinforceConfig,
    schedule: StepDecay,
    baseline: Option<f64>,
    updates: u64,
}

impl ReinforceTrainer {
    /// Create a trainer with an explicit configuration.
    pub fn new(config: ReinforceConfig) -> Self {
        let schedule = StepDecay::new(
            config.initial_learning_rate,
            config.learning_rate_decay,
            config.decay_period,
        );
        Self {
            config,
            schedule,
            baseline: None,
            updates: 0,
        }
    }

    /// Trainer with the paper's settings.
    pub fn paper() -> Self {
        Self::new(ReinforceConfig::paper())
    }

    /// Number of updates applied so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Current baseline value (exponential moving average of rewards), or
    /// `None` before the first update.
    pub fn baseline(&self) -> Option<f64> {
        self.baseline
    }

    /// Discounted advantage for a reward observed now: the paper discounts
    /// by `gamma^(T - t)`; applied to the scalar terminal reward this is a
    /// constant factor `gamma^0 = 1` for the final step, so the discount
    /// effectively scales how strongly earlier decisions are reinforced.
    /// We apply the mean discount over the trajectory length.
    fn advantage(&self, reward: f64, trajectory_len: usize) -> f64 {
        let baseline = self.baseline.unwrap_or(reward);
        let mean_discount = if trajectory_len == 0 {
            1.0
        } else {
            (0..trajectory_len)
                .map(|t| self.config.gamma.powi((trajectory_len - 1 - t) as i32))
                .sum::<f64>()
                / trajectory_len as f64
        };
        (reward - baseline) * mean_discount
    }

    /// Restore baseline/counters from a snapshot (the schedule and config
    /// are reconstructed from [`ReinforceConfig`], not carried).
    pub(crate) fn restore_trainer_state(&mut self, state: &crate::state::TrainerState) {
        self.baseline = state.baseline;
        self.updates = state.updates;
    }

    /// Apply one REINFORCE update for a sampled trajectory and its terminal
    /// reward.  Returns the advantage that was used.
    ///
    /// # Panics
    ///
    /// Panics if `reward` is not finite: a non-finite reward would poison
    /// the baseline and every weight, and the policy's gathered-column
    /// gradient is only bit-identical to the dense update for finite
    /// gradients.
    pub fn update(&mut self, policy: &mut PolicyNetwork, actions: &[usize], reward: f64) -> f64 {
        assert!(reward.is_finite(), "reward must be finite, got {reward}");
        let advantage = self
            .advantage(reward, actions.len())
            .clamp(-self.config.advantage_clip, self.config.advantage_clip);
        let learning_rate = self.schedule.learning_rate_at(self.updates);
        let update_config = UpdateConfig {
            learning_rate,
            entropy_beta: self.config.entropy_beta,
            // Anti-collapse guard, applied by the policy inside its own
            // replay (see `PolicyNetwork::reinforce_update`).
            entropy_floor: self.config.entropy_floor,
            gradient_clip: self.config.gradient_clip,
        };
        policy.reinforce_update(actions, advantage, &update_config);
        // Update the baseline after computing the advantage (so the very
        // first sample gets a zero advantage rather than a huge one).
        self.baseline = Some(match self.baseline {
            None => reward,
            Some(b) => {
                self.config.baseline_momentum * b + (1.0 - self.config.baseline_momentum) * reward
            }
        });
        self.updates += 1;
        advantage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn baseline_tracks_reward_average() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut policy = PolicyNetwork::new(&mut rng, vec![2, 2], 8);
        let mut trainer = ReinforceTrainer::paper();
        assert_eq!(trainer.baseline(), None);
        for _ in 0..50 {
            let sample = policy.sample_episode(&mut rng);
            trainer.update(&mut policy, &sample.actions, 0.8);
        }
        let baseline = trainer.baseline().unwrap();
        assert!((baseline - 0.8).abs() < 0.05, "baseline {baseline}");
        assert_eq!(trainer.updates(), 50);
    }

    #[test]
    fn first_update_has_zero_advantage() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut policy = PolicyNetwork::new(&mut rng, vec![3], 8);
        let mut trainer = ReinforceTrainer::paper();
        let sample = policy.sample_episode(&mut rng);
        let advantage = trainer.update(&mut policy, &sample.actions, 0.5);
        assert_eq!(advantage, 0.0);
    }

    #[test]
    fn better_than_baseline_rewards_give_positive_advantage() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut policy = PolicyNetwork::new(&mut rng, vec![3, 3], 8);
        let mut trainer = ReinforceTrainer::paper();
        // Establish a baseline around 0.5.
        for _ in 0..20 {
            let s = policy.sample_episode(&mut rng);
            trainer.update(&mut policy, &s.actions, 0.5);
        }
        let s = policy.sample_episode(&mut rng);
        let advantage = trainer.update(&mut policy, &s.actions, 0.9);
        assert!(advantage > 0.0);
        let s = policy.sample_episode(&mut rng);
        let advantage = trainer.update(&mut policy, &s.actions, 0.1);
        assert!(advantage < 0.0);
    }

    #[test]
    fn trainer_improves_expected_reward_on_a_bandit() {
        // Reward = 1 when the first action is option 2, else 0.2.
        let mut rng = StdRng::seed_from_u64(4);
        let mut policy = PolicyNetwork::new(&mut rng, vec![4, 3], 12);
        let mut trainer = ReinforceTrainer::new(ReinforceConfig {
            entropy_beta: 0.005,
            ..ReinforceConfig::paper()
        });
        let reward_of = |actions: &[usize]| if actions[0] == 2 { 1.0 } else { 0.2 };
        let mut tail = Vec::new();
        for round in 0..300 {
            let s = policy.sample_episode(&mut rng);
            let r = reward_of(&s.actions);
            trainer.update(&mut policy, &s.actions, r);
            if round >= 250 {
                tail.push(r);
            }
        }
        let greedy = policy.greedy_episode();
        assert_eq!(greedy[0], 2, "policy failed to find the rewarding arm");
        // The last 50 rewards should be dominated by the good arm.
        let mean_tail = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(mean_tail > 0.7, "late mean reward {mean_tail}");
    }

    #[test]
    #[should_panic(expected = "reward must be finite")]
    fn non_finite_rewards_are_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut policy = PolicyNetwork::new(&mut rng, vec![3], 8);
        let sample = policy.sample_episode(&mut rng);
        ReinforceTrainer::paper().update(&mut policy, &sample.actions, f64::NAN);
    }

    #[test]
    fn learning_rate_decays_with_updates() {
        let config = ReinforceConfig::paper();
        let trainer = ReinforceTrainer::new(config);
        assert!((trainer.schedule.learning_rate_at(0) - 0.99).abs() < 1e-12);
        assert!((trainer.schedule.learning_rate_at(100) - 0.2475).abs() < 1e-12);
    }
}
