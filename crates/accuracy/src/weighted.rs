//! Multi-task accuracy combination (Eq. 2 of the paper).

use serde::{Deserialize, Serialize};
use std::fmt;

/// How per-task accuracies are combined into the scalar the reward
/// maximises.
///
/// The paper's `weighted(D) = sum_i alpha_i * acc_i` with
/// `sum_i alpha_i = 1`; it also mentions `avg` and `min` as possible
/// choices of the weighting function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum AccuracyCombiner {
    /// Explicit weights, one per task; must sum to 1.
    Weighted(Vec<f64>),
    /// Plain average (equal weights).
    #[default]
    Average,
    /// The minimum across tasks (maximise the worst task).
    Minimum,
}

impl AccuracyCombiner {
    /// Combine per-task accuracies into one scalar.
    ///
    /// # Panics
    ///
    /// Panics if `accuracies` is empty, or if explicit weights have a
    /// different length than `accuracies` or do not sum to 1 (within
    /// `1e-6`).
    pub fn combine(&self, accuracies: &[f64]) -> f64 {
        assert!(!accuracies.is_empty(), "no accuracies to combine");
        match self {
            AccuracyCombiner::Weighted(weights) => {
                assert_eq!(
                    weights.len(),
                    accuracies.len(),
                    "weight count does not match task count"
                );
                let sum: f64 = weights.iter().sum();
                assert!((sum - 1.0).abs() < 1e-6, "weights must sum to 1, got {sum}");
                weights.iter().zip(accuracies).map(|(w, a)| w * a).sum()
            }
            AccuracyCombiner::Average => accuracies.iter().sum::<f64>() / accuracies.len() as f64,
            AccuracyCombiner::Minimum => accuracies.iter().cloned().fold(f64::INFINITY, f64::min),
        }
    }
}

impl fmt::Display for AccuracyCombiner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccuracyCombiner::Weighted(w) => write!(f, "weighted({w:?})"),
            AccuracyCombiner::Average => f.write_str("average"),
            AccuracyCombiner::Minimum => f.write_str("minimum"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_weights_match_average() {
        let acc = [0.9285, 0.8374];
        let weighted = AccuracyCombiner::Weighted(vec![0.5, 0.5]).combine(&acc);
        let average = AccuracyCombiner::Average.combine(&acc);
        assert!((weighted - average).abs() < 1e-12);
        assert!((weighted - 0.88295).abs() < 1e-9);
    }

    #[test]
    fn minimum_picks_worst_task() {
        assert_eq!(AccuracyCombiner::Minimum.combine(&[0.93, 0.75, 0.80]), 0.75);
    }

    #[test]
    fn asymmetric_weights_shift_the_result() {
        let combiner = AccuracyCombiner::Weighted(vec![0.8, 0.2]);
        let v = combiner.combine(&[1.0, 0.0]);
        assert!((v - 0.8).abs() < 1e-12);
    }

    #[test]
    fn single_task_workload_is_identity() {
        assert_eq!(AccuracyCombiner::Average.combine(&[0.77]), 0.77);
        assert_eq!(AccuracyCombiner::Minimum.combine(&[0.77]), 0.77);
    }

    #[test]
    #[should_panic]
    fn weights_not_summing_to_one_rejected() {
        AccuracyCombiner::Weighted(vec![0.7, 0.7]).combine(&[0.5, 0.5]);
    }

    #[test]
    #[should_panic]
    fn wrong_weight_count_rejected() {
        AccuracyCombiner::Weighted(vec![1.0]).combine(&[0.5, 0.5]);
    }

    #[test]
    #[should_panic]
    fn empty_accuracies_rejected() {
        AccuracyCombiner::Average.combine(&[]);
    }

    #[test]
    fn display_names() {
        assert_eq!(AccuracyCombiner::Average.to_string(), "average");
        assert_eq!(AccuracyCombiner::Minimum.to_string(), "minimum");
        assert!(AccuracyCombiner::Weighted(vec![0.5, 0.5])
            .to_string()
            .starts_with("weighted"));
    }
}
