//! The multi-segment NASAIC controller.
//!
//! Fig. 5 of the paper: the controller consists of `N = m + k` segments —
//! one per DNN in the workload and one per sub-accelerator — emitted by a
//! single recurrent policy.  A DNN segment predicts that network's
//! hyperparameters (`nas(D_i)`); a sub-accelerator segment predicts the
//! dataflow, PE and bandwidth allocation (`alloc(aic_k)`).
//!
//! [`Controller`] owns the flat [`PolicyNetwork`] over all segments'
//! decisions; a sample is one flat action vector, laid out segment after
//! segment, which the caller decodes.

use crate::policy::PolicyNetwork;
use crate::reinforce::{ReinforceConfig, ReinforceTrainer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One controller segment: a named group of consecutive decisions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Segment {
    /// Segment name (e.g. `"dnn0"` or `"aic1"`).
    pub name: String,
    /// Option count of every decision in the segment.
    pub cardinalities: Vec<usize>,
}

impl Segment {
    /// Create a segment.
    ///
    /// # Panics
    ///
    /// Panics if the segment has no decisions.
    pub fn new(name: &str, cardinalities: Vec<usize>) -> Self {
        assert!(!cardinalities.is_empty(), "segment {name} has no decisions");
        Self {
            name: name.to_string(),
            cardinalities,
        }
    }

    /// Number of decisions in this segment.
    pub fn len(&self) -> usize {
        self.cardinalities.len()
    }

    /// `true` when the segment has no decisions (never true for segments
    /// built through [`Segment::new`]).
    pub fn is_empty(&self) -> bool {
        self.cardinalities.is_empty()
    }
}

/// Controller hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Hidden size of the recurrent policy.
    pub hidden_size: usize,
    /// REINFORCE settings.
    pub reinforce: ReinforceConfig,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            hidden_size: 32,
            reinforce: ReinforceConfig::stable(),
        }
    }
}

/// One controller prediction: the flat trajectory over all segments.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerSample {
    /// Flat action vector: every segment's decisions, in segment order.
    pub actions: Vec<usize>,
    /// Mean per-step entropy of the sampling distributions.
    pub mean_entropy: f64,
}

/// The NASAIC multi-task co-exploration controller.
#[derive(Debug, Clone)]
pub struct Controller {
    segments: Vec<Segment>,
    policy: PolicyNetwork,
    trainer: ReinforceTrainer,
}

impl Controller {
    /// Create a controller for the given segments.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty.
    pub fn new(segments: Vec<Segment>, config: ControllerConfig, seed: u64) -> Self {
        assert!(
            !segments.is_empty(),
            "controller needs at least one segment"
        );
        let cardinalities: Vec<usize> = segments
            .iter()
            .flat_map(|s| s.cardinalities.iter().copied())
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let policy = PolicyNetwork::new(&mut rng, cardinalities, config.hidden_size);
        Self {
            segments,
            policy,
            trainer: ReinforceTrainer::new(config.reinforce),
        }
    }

    /// The controller's segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of policy updates applied so far.
    pub fn updates(&self) -> u64 {
        self.trainer.updates()
    }

    /// The trainer's current REINFORCE baseline (exponential moving
    /// average of rewards), or `None` before the first feedback — exposed
    /// as search telemetry for the episode event stream.
    pub fn baseline(&self) -> Option<f64> {
        self.trainer.baseline()
    }

    pub(crate) fn policy_ref(&self) -> &PolicyNetwork {
        &self.policy
    }

    pub(crate) fn policy_mut(&mut self) -> &mut PolicyNetwork {
        &mut self.policy
    }

    pub(crate) fn trainer_ref(&self) -> &ReinforceTrainer {
        &self.trainer
    }

    pub(crate) fn trainer_mut(&mut self) -> &mut ReinforceTrainer {
        &mut self.trainer
    }

    /// Sample one candidate (architectures + hardware allocation).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> ControllerSample {
        let episode = self.policy.sample_episode(rng);
        ControllerSample {
            actions: episode.actions,
            mean_entropy: episode.mean_entropy,
        }
    }

    /// The current greedy (most likely) candidate.
    pub fn greedy(&self) -> ControllerSample {
        let actions = self.policy.greedy_episode();
        ControllerSample {
            actions,
            mean_entropy: 0.0,
        }
    }

    /// Feed the reward of a previously sampled candidate back into the
    /// controller (one REINFORCE update).  Returns the advantage used.
    pub fn feedback(&mut self, sample: &ControllerSample, reward: f64) -> f64 {
        self.trainer
            .update(&mut self.policy, &sample.actions, reward)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nasaic_like_segments() -> Vec<Segment> {
        vec![
            // Two DNN segments (CIFAR-10 ResNet + Nuclei U-Net shapes).
            Segment::new("dnn0", vec![4, 4, 3, 4, 3, 4, 3]),
            Segment::new("dnn1", vec![5, 3, 3, 3, 3, 3]),
            // Two sub-accelerator segments: dataflow, PE level, BW level.
            Segment::new("aic0", vec![3, 17, 9]),
            Segment::new("aic1", vec![3, 17, 9]),
        ]
    }

    #[test]
    fn sampled_actions_stay_in_range() {
        let controller = Controller::new(nasaic_like_segments(), ControllerConfig::default(), 2);
        let cardinalities: Vec<usize> = controller
            .segments()
            .iter()
            .flat_map(|segment| segment.cardinalities.iter().copied())
            .collect();
        assert_eq!(cardinalities.len(), 19);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let sample = controller.sample(&mut rng);
            assert_eq!(sample.actions.len(), cardinalities.len());
            for (a, &card) in sample.actions.iter().zip(&cardinalities) {
                assert!(*a < card);
            }
        }
    }

    #[test]
    fn feedback_shifts_policy_toward_rewarded_candidates() {
        // Reward candidates whose first decision is the largest option.
        let segments = vec![
            Segment::new("dnn0", vec![4, 3]),
            Segment::new("aic0", vec![3]),
        ];
        let mut controller = Controller::new(segments, ControllerConfig::default(), 3);
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..300 {
            let sample = controller.sample(&mut rng);
            let reward = if sample.actions[0] == 3 { 1.0 } else { 0.1 };
            controller.feedback(&sample, reward);
        }
        assert_eq!(controller.greedy().actions[0], 3);
        assert_eq!(controller.updates(), 300);
    }

    #[test]
    fn greedy_sample_has_valid_segments() {
        let controller = Controller::new(nasaic_like_segments(), ControllerConfig::default(), 4);
        let greedy = controller.greedy();
        assert_eq!(greedy.actions.len(), 19);
        assert_eq!(greedy.mean_entropy, 0.0);
    }

    #[test]
    #[should_panic]
    fn empty_segment_list_rejected() {
        Controller::new(vec![], ControllerConfig::default(), 0);
    }

    #[test]
    #[should_panic]
    fn empty_segment_rejected() {
        Segment::new("empty", vec![]);
    }
}
