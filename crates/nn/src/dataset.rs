//! Datasets and task kinds used in the paper's evaluation.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The kind of AI task a DNN solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskKind {
    /// Image classification (accuracy metric in percent).
    Classification,
    /// Image segmentation (IOU metric in `[0, 1]`).
    Segmentation,
}

impl fmt::Display for TaskKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskKind::Classification => f.write_str("classification"),
            TaskKind::Segmentation => f.write_str("segmentation"),
        }
    }
}

/// The datasets of the paper's three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dataset {
    /// CIFAR-10: 32x32 RGB, 10 classes.
    Cifar10,
    /// STL-10: 96x96 RGB, 10 classes.
    Stl10,
    /// 2018 Data Science Bowl nuclei segmentation: 128x128 RGB, binary mask.
    Nuclei,
}

impl Dataset {
    /// Input image resolution (square).
    pub fn input_resolution(&self) -> usize {
        match self {
            Dataset::Cifar10 => 32,
            Dataset::Stl10 => 96,
            Dataset::Nuclei => 128,
        }
    }

    /// Number of input channels.
    pub fn input_channels(&self) -> usize {
        3
    }

    /// Number of output classes (classification) or mask channels
    /// (segmentation).
    pub fn num_outputs(&self) -> usize {
        match self {
            Dataset::Cifar10 | Dataset::Stl10 => 10,
            Dataset::Nuclei => 1,
        }
    }

    /// The task kind this dataset is used for in the paper.
    pub fn task_kind(&self) -> TaskKind {
        match self {
            Dataset::Cifar10 | Dataset::Stl10 => TaskKind::Classification,
            Dataset::Nuclei => TaskKind::Segmentation,
        }
    }

    /// All datasets, in a stable order.
    pub fn all() -> [Dataset; 3] {
        [Dataset::Cifar10, Dataset::Stl10, Dataset::Nuclei]
    }
}

impl fmt::Display for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dataset::Cifar10 => f.write_str("CIFAR-10"),
            Dataset::Stl10 => f.write_str("STL-10"),
            Dataset::Nuclei => f.write_str("Nuclei"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolutions_match_the_paper() {
        assert_eq!(Dataset::Cifar10.input_resolution(), 32);
        assert_eq!(Dataset::Stl10.input_resolution(), 96);
        assert_eq!(Dataset::Nuclei.input_resolution(), 128);
    }

    #[test]
    fn task_kinds_are_correct() {
        assert_eq!(Dataset::Cifar10.task_kind(), TaskKind::Classification);
        assert_eq!(Dataset::Stl10.task_kind(), TaskKind::Classification);
        assert_eq!(Dataset::Nuclei.task_kind(), TaskKind::Segmentation);
    }

    #[test]
    fn output_counts() {
        assert_eq!(Dataset::Cifar10.num_outputs(), 10);
        assert_eq!(Dataset::Nuclei.num_outputs(), 1);
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(Dataset::Cifar10.to_string(), "CIFAR-10");
        assert_eq!(Dataset::Stl10.to_string(), "STL-10");
        assert_eq!(Dataset::Nuclei.to_string(), "Nuclei");
        assert_eq!(TaskKind::Segmentation.to_string(), "segmentation");
    }

    #[test]
    fn all_lists_every_dataset_once() {
        let all = Dataset::all();
        assert_eq!(all.len(), 3);
        assert!(all.contains(&Dataset::Stl10));
    }
}
