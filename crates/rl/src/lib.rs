//! Reinforcement-learning machinery for the NASAIC controller.
//!
//! The paper's co-exploration controller (Section IV ①, Fig. 5) is a
//! recurrent policy network with one *segment* per DNN and one per
//! sub-accelerator; each segment emits a sequence of discrete decisions
//! (hyperparameters or hardware allocation parameters).  The controller is
//! trained with the Monte-Carlo policy gradient (REINFORCE, Williams 1992)
//! of Eq. 1, with an exponential-moving-average baseline, reward
//! discounting and RMSProp updates.
//!
//! This crate implements that machinery from scratch on top of
//! `nasaic-tensor`:
//!
//! * [`rnn`] — a recurrent cell (Elman RNN with tanh non-linearity) with
//!   manual backpropagation-through-time;
//! * [`policy`] — the recurrent policy network: shared recurrent core plus
//!   one softmax head per decision step, with episode sampling and
//!   REINFORCE gradients (validated by finite-difference tests);
//! * [`reinforce`] — the training loop glue: advantage computation with an
//!   EMA baseline, reward discounting, learning-rate schedule;
//! * [`controller`] — the multi-segment NASAIC controller that maps
//!   decision segments (per-task architecture choices, per-sub-accelerator
//!   hardware choices) onto the flat policy network.
//!
//! # Example
//!
//! ```
//! use nasaic_rl::{Controller, ControllerConfig, Segment};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // Two segments: a 3-decision architecture segment and a 2-decision
//! // hardware segment.
//! let segments = vec![
//!     Segment::new("dnn0", vec![4, 3, 4]),
//!     Segment::new("aic0", vec![3, 17]),
//! ];
//! let mut controller = Controller::new(segments, ControllerConfig::default(), 7);
//! let mut rng = StdRng::seed_from_u64(1);
//! let sample = controller.sample(&mut rng);
//! // One flat action vector: the architecture decisions, then the hardware.
//! assert_eq!(sample.actions.len(), 5);
//! controller.feedback(&sample, 0.9);
//! ```

#![deny(missing_docs)]

pub mod controller;
pub mod policy;
pub mod reinforce;
pub mod rnn;
pub mod state;

pub use controller::{Controller, ControllerConfig, ControllerSample, Segment};
pub use policy::{EpisodeSample, PolicyNetwork};
pub use reinforce::ReinforceTrainer;
pub use rnn::RnnCell;
pub use state::{ControllerState, PolicyState, TrainerState};
