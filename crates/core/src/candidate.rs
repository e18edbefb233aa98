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
}

impl Candidate {
    /// Decode a candidate from one flat choice vector, laid out as
    /// [`Workload::controller_segments`] defines it: each task's
    /// architecture choices, then every sub-accelerator's hardware
    /// choices.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the vector is shorter or longer than the
    /// layout, or a choice does not fit its search space.
    pub fn decode(
        workload: &Workload,
        hardware: &HardwareSpace,
        choices: &[usize],
    ) -> Result<Self, DecodeError> {
        let _span = crate::metrics::maybe_time(crate::metrics::candidate_decode_wall);
        let (architectures, hardware_choices) = Self::decode_architectures(workload, choices)?;
        Ok(Self {
            architectures,
            accelerator: hardware.decode(hardware_choices)?,
        })
    }

    /// Decode one architecture per task from the front of a flat choice
    /// vector (the architecture half of [`Candidate::decode`]), and return
    /// them with the choices that follow.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the vector is shorter than the tasks'
    /// choices, or a choice does not fit its task's search space.
    pub fn decode_architectures<'a>(
        workload: &Workload,
        choices: &'a [usize],
    ) -> Result<(Vec<Architecture>, &'a [usize]), DecodeError> {
        let mut rest = choices;
        let mut architectures = Vec::with_capacity(workload.num_tasks());
        for task in &workload.tasks {
            let space = task.backbone.search_space();
            let (own, after) = rest.split_at(space.num_choices().min(rest.len()));
            architectures.push(task.backbone.materialize_values(&space.decode(own)?));
            rest = after;
        }
        Ok((architectures, rest))
    }

    /// Build a candidate directly from concrete parts.
    pub fn from_parts(architectures: Vec<Architecture>, accelerator: Accelerator) -> Self {
        Self {
            architectures,
            accelerator,
        }
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

    /// W1's layout: CIFAR ResNet (7 choices), Nuclei U-Net (6), then
    /// two sub-accelerators of (dataflow, PE level, bandwidth level).
    const W1_CHOICES: [usize; 19] = [
        2, 2, 2, 3, 2, 3, 2, // CIFAR ResNet
        2, 1, 1, 1, 1, 1, // Nuclei U-Net
        1, 8, 4, // aic0: nvdla, mid PEs, mid BW
        0, 8, 4, // aic1: shidiannao
    ];

    #[test]
    fn decodes_a_flat_vector_into_architectures_and_accelerator() {
        let workload = Workload::w1();
        let hardware = HardwareSpace::paper_default(2);
        let candidate = Candidate::decode(&workload, &hardware, &W1_CHOICES).unwrap();
        assert_eq!(candidate.architectures.len(), 2);
        assert_eq!(candidate.architectures[0].name, "resnet9-cifar10");
        assert_eq!(candidate.architectures[1].name, "unet-nuclei");
        assert_eq!(candidate.accelerator.sub_accelerators().len(), 2);
        assert!(candidate.accelerator.has_capacity());
        assert!(candidate.summary().contains("dla") || candidate.summary().contains("shi"));
        let (architectures, hardware_choices) =
            Candidate::decode_architectures(&workload, &W1_CHOICES).unwrap();
        assert_eq!(architectures, candidate.architectures);
        assert_eq!(hardware_choices, &W1_CHOICES[13..]);
    }

    #[test]
    fn invalid_choice_indices_are_reported() {
        let workload = Workload::w3();
        let hardware = HardwareSpace::paper_default(2);
        let mut choices = vec![0; 7 + 7 + 6];
        choices[0] = 9; // index 9 out of range
        assert!(matches!(
            Candidate::decode(&workload, &hardware, &choices),
            Err(DecodeError::IndexOutOfRange { index: 9, .. })
        ));
    }

    #[test]
    fn a_vector_of_the_wrong_length_is_reported() {
        let workload = Workload::w1();
        let hardware = HardwareSpace::paper_default(2);
        let wrong_length = |found| Err(DecodeError::WrongLength { expected: 6, found });
        // A choice short: the hardware tail is one choice short.
        let short = Candidate::decode(&workload, &hardware, &W1_CHOICES[..18]);
        assert_eq!(short, wrong_length(5));
        // A choice long: the hardware tail has one choice too many.
        let long = [&W1_CHOICES[..], &[0]].concat();
        assert_eq!(
            Candidate::decode(&workload, &hardware, &long),
            wrong_length(7)
        );
        // Too short even for the tasks: the second task's choices run out.
        let tasks_short = Candidate::decode(&workload, &hardware, &W1_CHOICES[..10]);
        assert_eq!(tasks_short, wrong_length(3));
    }

    #[test]
    fn from_parts_keeps_the_parts() {
        let arch = Backbone::ResNet9Cifar10.materialize_values(&[8, 32, 0, 32, 0, 32, 0]);
        let acc = Accelerator::single(SubAccelerator::new(Dataflow::Nvdla, 1024, 32));
        let candidate = Candidate::from_parts(vec![arch.clone()], acc.clone());
        assert_eq!(candidate.architectures, vec![arch]);
        assert_eq!(candidate.accelerator, acc);
    }
}
