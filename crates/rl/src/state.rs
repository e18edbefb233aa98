//! Plain-data snapshots of the controller's mutable training state.
//!
//! A search checkpoint has to carry the controller across process
//! boundaries: the policy weights, the per-parameter RMSProp accumulators
//! and the trainer's baseline/step counters.  This module exposes that
//! state as plain `Matrix`/`f64`/`u64` structs so the core crate can
//! serialize it with its own codec without `nasaic-rl` depending on it.
//!
//! Everything *not* in these structs is either reconstructed from the
//! controller's configuration (segment layout, schedule) or
//! transient within a single update (gradients, the RNN hidden state,
//! which is re-initialised per episode).

use crate::controller::Controller;
use crate::policy::PolicyNetwork;
use crate::reinforce::ReinforceTrainer;
use nasaic_tensor::Matrix;

/// Mutable state of a [`PolicyNetwork`]: every weight matrix plus the
/// RMSProp squared-gradient accumulators (in the network's parameter
/// order: recurrent cell, then one `(weights, bias)` pair per head).
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyState {
    /// Input-to-hidden weights of the recurrent cell.
    pub w_x: Matrix,
    /// Hidden-to-hidden weights of the recurrent cell.
    pub w_h: Matrix,
    /// Hidden bias of the recurrent cell.
    pub b: Matrix,
    /// Per-head `(weights, bias)` pairs, one per decision step.
    pub heads: Vec<(Matrix, Matrix)>,
    /// RMSProp accumulators of `w_x`/`w_h`/`b` (`None` before the first
    /// update).
    pub opt_cell: [Option<Matrix>; 3],
    /// RMSProp accumulators of each head's `(weights, bias)`.
    pub opt_heads: Vec<(Option<Matrix>, Option<Matrix>)>,
}

/// Mutable state of a [`ReinforceTrainer`]: the EMA baseline and the
/// update counter driving the learning-rate schedule — all a REINFORCE
/// update reads besides the policy, so the snapshot stays the same size
/// however long the run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainerState {
    /// EMA reward baseline (`None` before the first update).
    pub baseline: Option<f64>,
    /// Number of updates applied so far.
    pub updates: u64,
}

/// Mutable state of a whole [`Controller`].
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerState {
    /// Policy weights + optimizer accumulators.
    pub policy: PolicyState,
    /// Trainer baseline/counters.
    pub trainer: TrainerState,
}

impl PolicyNetwork {
    /// Snapshot the network's mutable state (weights + optimizer
    /// accumulators).
    pub fn export_state(&self) -> PolicyState {
        self.state_snapshot()
    }

    /// Restore a previously exported snapshot.
    ///
    /// # Errors
    ///
    /// Returns the first weight, head or accumulator whose shape does not
    /// match this network (the snapshot belongs to another controller
    /// layout); the network is then left unchanged.
    pub fn restore_state(&mut self, state: &PolicyState) -> Result<(), String> {
        self.state_restore(state)
    }
}

impl ReinforceTrainer {
    /// Snapshot the trainer's mutable state.
    pub fn export_state(&self) -> TrainerState {
        TrainerState {
            baseline: self.baseline(),
            updates: self.updates(),
        }
    }
}

impl Controller {
    /// Snapshot the controller's mutable state (policy weights, optimizer
    /// accumulators, trainer baseline/counters).  Restoring the snapshot
    /// into a freshly constructed controller with the same segments and
    /// configuration reproduces the original bit-for-bit: subsequent
    /// `sample`/`feedback` calls yield identical results.
    pub fn export_state(&self) -> ControllerState {
        ControllerState {
            policy: self.policy_ref().export_state(),
            trainer: self.trainer_ref().export_state(),
        }
    }

    /// Restore a previously exported snapshot.
    ///
    /// # Errors
    ///
    /// Returns the first policy weight, head or accumulator whose shape
    /// does not match this controller's segment layout; the controller is
    /// then left unchanged.
    pub fn restore_state(&mut self, state: &ControllerState) -> Result<(), String> {
        self.policy_mut().restore_state(&state.policy)?;
        self.trainer_mut().restore_trainer_state(&state.trainer);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{ControllerConfig, Segment};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn segments() -> Vec<Segment> {
        vec![
            Segment::new("dnn0", vec![4, 4, 3]),
            Segment::new("aic0", vec![3, 17, 9]),
        ]
    }

    #[test]
    fn controller_state_round_trip_is_bit_identical() {
        // Train a controller for a while, snapshot, keep training both the
        // original and a restored clone in lockstep: samples, feedback
        // advantages and the final snapshots must agree exactly.
        let mut original = Controller::new(segments(), ControllerConfig::default(), 42);
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..25 {
            let sample = original.sample(&mut rng);
            original.feedback(&sample, 0.1 * (i % 7) as f64);
        }
        let state = original.export_state();
        let rng_state = rng.state();

        let mut restored = Controller::new(segments(), ControllerConfig::default(), 999);
        restored.restore_state(&state).unwrap();
        let mut restored_rng = StdRng::from_state(rng_state);

        assert_eq!(original.baseline(), restored.baseline());
        assert_eq!(original.updates(), restored.updates());
        for i in 0..25 {
            let a = original.sample(&mut rng);
            let b = restored.sample(&mut restored_rng);
            assert_eq!(a, b, "sample diverged at step {i}");
            let reward = 0.05 * (i % 5) as f64;
            let adv_a = original.feedback(&a, reward);
            let adv_b = restored.feedback(&b, reward);
            assert_eq!(adv_a, adv_b, "advantage diverged at step {i}");
        }
        assert_eq!(original.greedy(), restored.greedy());
        assert_eq!(original.export_state(), restored.export_state());
    }

    #[test]
    fn feedback_survives_the_learning_rate_decaying_to_zero() {
        // The w1 layout under the default (stable) schedule, 0.05 halved
        // every 200 updates: update 214 199 takes the last positive rate
        // and update 214 200 the first that underflows to zero.
        let w1 = vec![
            Segment::new("dnn0", vec![4, 4, 3, 4, 3, 4, 3]),
            Segment::new("dnn1", vec![5, 3, 3, 3, 3, 3]),
            Segment::new("aic0", vec![3, 17, 9]),
            Segment::new("aic1", vec![3, 17, 9]),
        ];
        let mut controller = Controller::new(w1, ControllerConfig::default(), 2020);
        let mut rng = StdRng::seed_from_u64(4);
        let sample = controller.sample(&mut rng);
        controller.feedback(&sample, 0.5);
        let mut state = controller.export_state();
        state.trainer.updates = 214_199;
        controller.restore_state(&state).unwrap();
        for reward in [0.9, 0.1] {
            let sample = controller.sample(&mut rng);
            let before = controller.export_state().policy;
            controller.feedback(&sample, reward);
            let after = controller.export_state().policy;
            // Both rates are too small to move a weight; the accumulators
            // still take the squared gradients.
            assert_eq!(
                (after.w_x, after.w_h, after.heads),
                (before.w_x, before.w_h, before.heads)
            );
            assert_ne!(after.opt_cell, before.opt_cell);
        }
        assert_eq!(controller.updates(), 214_201);
    }

    #[test]
    fn fresh_controller_state_round_trips_before_any_update() {
        let original = Controller::new(segments(), ControllerConfig::default(), 3);
        let state = original.export_state();
        assert!(state.trainer.baseline.is_none());
        assert_eq!(state.trainer.updates, 0);
        assert!(state.policy.opt_cell.iter().all(Option::is_none));
        let mut restored = Controller::new(segments(), ControllerConfig::default(), 3);
        restored.restore_state(&state).unwrap();
        assert_eq!(original.greedy(), restored.greedy());
    }

    #[test]
    fn mismatched_layout_is_rejected() {
        let original = Controller::new(segments(), ControllerConfig::default(), 1);
        let state = original.export_state();
        let mut other = Controller::new(
            vec![Segment::new("dnn0", vec![2, 2])],
            ControllerConfig::default(),
            1,
        );
        let before = other.export_state();
        assert!(other.restore_state(&state).is_err());
        assert_eq!(
            other.export_state(),
            before,
            "a rejected snapshot changed the controller"
        );
    }

    #[test]
    fn every_shape_is_checked_before_anything_changes() {
        let mut trained = Controller::new(segments(), ControllerConfig::default(), 1);
        let mut rng = StdRng::seed_from_u64(2);
        let sample = trained.sample(&mut rng);
        trained.feedback(&sample, 0.5);
        let state = trained.export_state();
        let tiny = Matrix::zeros(1, 1);
        type Mutation = fn(&mut ControllerState, Matrix);
        let mutations: [(&str, Mutation); 5] = [
            ("w_x", |s, m| s.policy.w_x = m),
            ("b", |s, m| s.policy.b = m),
            ("head 1 bias", |s, m| s.policy.heads[1].1 = m),
            ("w_x accumulator", |s, m| s.policy.opt_cell[0] = Some(m)),
            ("head 0 weights accumulator", |s, m| {
                s.policy.opt_heads[0].0 = Some(m)
            }),
        ];
        for (name, mutate) in mutations {
            let mut bad = state.clone();
            mutate(&mut bad, tiny.clone());
            let mut fresh = Controller::new(segments(), ControllerConfig::default(), 9);
            let before = fresh.export_state();
            let error = fresh.restore_state(&bad).unwrap_err();
            assert!(error.contains(&format!("{name} is 1x1")), "{name}: {error}");
            assert_eq!(
                fresh.export_state(),
                before,
                "{name}: the controller changed"
            );
        }
        let mut short = state.clone();
        short.policy.opt_heads.pop();
        let mut fresh = Controller::new(segments(), ControllerConfig::default(), 9);
        assert!(fresh.restore_state(&short).is_err());
    }
}
