//! A co-exploration candidate: one architecture per task plus a hardware
//! design.

use crate::workload::Workload;
use nasaic_accel::{Accelerator, HardwareSpace};
use nasaic_nn::layer::Architecture;
use nasaic_nn::space::DecodeError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A fully decoded candidate solution: the `nas(D_i)` outputs for every
/// task and the `alloc(aic_k)` outputs for every sub-accelerator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// One concrete architecture per task, in workload order.
    pub architectures: Vec<Architecture>,
    /// The heterogeneous accelerator design.
    pub accelerator: Accelerator,
    /// The controller index vectors that produced the architectures
    /// (one per task).
    pub architecture_indices: Vec<Vec<usize>>,
    /// The controller index vector that produced the accelerator.
    pub hardware_indices: Vec<usize>,
}

impl Candidate {
    /// Decode a candidate from controller segments: the first `m` segments
    /// are per-task architecture choices, the rest are per-sub-accelerator
    /// hardware choices.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if a segment does not fit its search space.
    ///
    /// # Panics
    ///
    /// Panics if the number of segments differs from
    /// `workload.num_tasks() + hardware.num_sub_accelerators()`.
    pub fn from_segments(
        workload: &Workload,
        hardware: &HardwareSpace,
        segments: &[Vec<usize>],
    ) -> Result<Self, DecodeError> {
        let _span = crate::metrics::maybe_time(crate::metrics::candidate_decode_wall);
        let m = workload.num_tasks();
        let k = hardware.num_sub_accelerators();
        assert_eq!(
            segments.len(),
            m + k,
            "expected {m} architecture segments + {k} hardware segments, got {}",
            segments.len()
        );
        let architectures = Self::decode_architectures(workload, &segments[..m])?;
        let hardware_indices: Vec<usize> = segments[m..].iter().flatten().copied().collect();
        let accelerator = hardware.decode(&hardware_indices)?;
        Ok(Self {
            architectures,
            accelerator,
            architecture_indices: segments[..m].to_vec(),
            hardware_indices,
        })
    }

    /// Decode one architecture per task from its controller segment (the
    /// architecture half of [`Candidate::from_segments`]).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if a segment does not fit its task's
    /// search space.
    pub fn decode_architectures(
        workload: &Workload,
        segments: &[Vec<usize>],
    ) -> Result<Vec<Architecture>, DecodeError> {
        workload
            .tasks
            .iter()
            .zip(segments)
            .map(|(task, segment)| task.backbone.materialize(segment))
            .collect()
    }

    /// Build a candidate directly from concrete parts (used by baselines
    /// that do not go through the controller).
    pub fn from_parts(architectures: Vec<Architecture>, accelerator: Accelerator) -> Self {
        let architecture_indices = architectures
            .iter()
            .map(|a| a.hyperparameters.clone())
            .collect();
        Self {
            architectures,
            accelerator,
            architecture_indices,
            hardware_indices: Vec::new(),
        }
    }

    /// Replace the accelerator while keeping the architectures (used by the
    /// hardware-only exploration steps of the optimizer selector).
    pub fn with_accelerator(
        mut self,
        accelerator: Accelerator,
        hardware_indices: Vec<usize>,
    ) -> Self {
        self.accelerator = accelerator;
        self.hardware_indices = hardware_indices;
        self
    }

    /// Compact summary of the candidate in the paper's notation.
    pub fn summary(&self) -> String {
        let archs: Vec<String> = self
            .architectures
            .iter()
            .map(|a| a.hyperparameter_string())
            .collect();
        format!(
            "{} | {}",
            archs.join(" & "),
            self.accelerator.paper_notation()
        )
    }
}

impl fmt::Display for Candidate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use nasaic_accel::{Dataflow, SubAccelerator};
    use nasaic_nn::backbone::Backbone;

    #[test]
    fn decodes_segments_into_architectures_and_accelerator() {
        let workload = Workload::w1();
        let hardware = HardwareSpace::paper_default(2);
        let segments = vec![
            vec![2, 2, 2, 3, 2, 3, 2], // CIFAR ResNet
            vec![2, 1, 1, 1, 1, 1],    // Nuclei U-Net
            vec![1, 8, 4],             // aic0: nvdla, mid PEs, mid BW
            vec![0, 8, 4],             // aic1: shidiannao
        ];
        let candidate = Candidate::from_segments(&workload, &hardware, &segments).unwrap();
        assert_eq!(candidate.architectures.len(), 2);
        assert_eq!(candidate.architectures[0].name, "resnet9-cifar10");
        assert_eq!(candidate.architectures[1].name, "unet-nuclei");
        assert_eq!(candidate.accelerator.sub_accelerators().len(), 2);
        assert!(candidate.accelerator.has_capacity());
        assert!(candidate.summary().contains("dla") || candidate.summary().contains("shi"));
    }

    #[test]
    fn invalid_segment_indices_are_reported() {
        let workload = Workload::w3();
        let hardware = HardwareSpace::paper_default(2);
        let segments = vec![
            vec![9, 0, 0, 0, 0, 0, 0], // index 9 out of range
            vec![0, 0, 0, 0, 0, 0, 0],
            vec![0, 0, 0],
            vec![0, 0, 0],
        ];
        assert!(Candidate::from_segments(&workload, &hardware, &segments).is_err());
    }

    #[test]
    #[should_panic]
    fn wrong_segment_count_panics() {
        let workload = Workload::w3();
        let hardware = HardwareSpace::paper_default(2);
        let _ = Candidate::from_segments(&workload, &hardware, &[vec![0; 7]]);
    }

    #[test]
    fn from_parts_and_with_accelerator() {
        let arch = Backbone::ResNet9Cifar10.materialize_values(&[8, 32, 0, 32, 0, 32, 0]);
        let acc = Accelerator::single(SubAccelerator::new(Dataflow::Nvdla, 1024, 32));
        let candidate = Candidate::from_parts(vec![arch.clone()], acc);
        assert_eq!(candidate.architectures[0], arch);
        let other = Accelerator::single(SubAccelerator::new(Dataflow::Shidiannao, 512, 16));
        let replaced = candidate.with_accelerator(other.clone(), vec![0, 2, 2]);
        assert_eq!(replaced.accelerator, other);
        assert_eq!(replaced.hardware_indices, vec![0, 2, 2]);
        assert_eq!(replaced.architectures[0], arch);
    }
}
