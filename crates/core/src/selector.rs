//! The optimizer selector (paper Fig. 4, component ②).
//!
//! The selector controls two switches: `S_A` (architecture exploration) and
//! `S_H` (hardware exploration).  NASAIC repeats, for each of `beta`
//! episodes:
//!
//! 1. one step with both switches closed (`S_A = S_H = 1`) — a fresh pair
//!    of architectures and a hardware design;
//! 2. `phi` steps with the architecture switch open (`S_A = 0`) — the
//!    previously identified architectures are kept and only hardware
//!    designs are explored; accuracy is not part of the reward for these
//!    steps.
//!
//! Because hardware evaluation is much cheaper than training, the selector
//! also performs **early pruning**: if none of the `1 + phi` hardware
//!    designs of an episode yields a feasible (spec-satisfiable) design, the
//! expensive accuracy evaluation ("training") of that episode is skipped.

use serde::{Deserialize, Serialize};

/// The state of the two exploration switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwitchState {
    /// Architecture exploration switch `S_A`.
    pub architecture: bool,
    /// Hardware exploration switch `S_H`.
    pub hardware: bool,
}

impl SwitchState {
    /// Both switches closed: conventional co-exploration step.
    pub fn joint() -> Self {
        Self {
            architecture: true,
            hardware: true,
        }
    }

    /// Architecture fixed, hardware explored.
    pub fn hardware_only() -> Self {
        Self {
            architecture: false,
            hardware: true,
        }
    }
}

/// The per-episode plan produced by the optimizer selector.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpisodePlan {
    /// Switch states of the episode's steps, in order: one joint step
    /// followed by `phi` hardware-only steps.
    pub steps: Vec<SwitchState>,
}

impl EpisodePlan {
    /// Number of steps in the episode.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` when the plan has no steps (never produced by the selector).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// The optimizer selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OptimizerSelector {
    /// Number of hardware-only exploration steps per episode (`phi`).
    pub hardware_trials: usize,
}

impl OptimizerSelector {
    /// Create a selector with `phi` hardware-only steps per episode.
    pub fn new(hardware_trials: usize) -> Self {
        Self { hardware_trials }
    }

    /// The paper's setting: `phi = 10`.
    pub fn paper() -> Self {
        Self::new(10)
    }

    /// Plan one episode: a joint step followed by `phi` hardware-only
    /// steps.
    pub fn plan_episode(&self) -> EpisodePlan {
        let mut steps = vec![SwitchState::joint()];
        steps.extend(std::iter::repeat_n(
            SwitchState::hardware_only(),
            self.hardware_trials,
        ));
        EpisodePlan { steps }
    }

    /// Early-pruning decision: the accuracy evaluation ("training") runs
    /// only if at least one of the episode's hardware designs was feasible
    /// with respect to the design specs.
    pub fn should_train(&self, any_design_meets_specs: bool) -> bool {
        any_design_meets_specs
    }
}

impl Default for OptimizerSelector {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_selector_plans_eleven_steps() {
        let plan = OptimizerSelector::paper().plan_episode();
        assert_eq!(plan.len(), 11);
        assert!(!plan.is_empty());
        assert_eq!(plan.steps[0], SwitchState::joint());
        for step in &plan.steps[1..] {
            assert_eq!(*step, SwitchState::hardware_only());
        }
    }

    #[test]
    fn zero_trials_selector_only_does_joint_steps() {
        let plan = OptimizerSelector::new(0).plan_episode();
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.steps[0], SwitchState::joint());
    }

    #[test]
    fn early_pruning_skips_training_without_feasible_designs() {
        let selector = OptimizerSelector::paper();
        assert!(!selector.should_train(false));
        assert!(selector.should_train(true));
    }

    #[test]
    fn switch_states_cover_paper_modes() {
        assert!(SwitchState::joint().architecture && SwitchState::joint().hardware);
        assert!(!SwitchState::hardware_only().architecture);
        assert!(SwitchState::hardware_only().hardware);
    }
}
