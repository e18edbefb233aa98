//! The per-task backbones of the paper, tying together a dataset, a search
//! space and an architecture generator.

use crate::dataset::{Dataset, TaskKind};
use crate::layer::Architecture;
use crate::resnet::{self, ResNetConfig};
use crate::space::{DecodeError, SearchSpace};
use crate::unet::{self, UNetConfig};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A backbone is the combination of a dataset and a parameterised network
/// family.  Each task `T_i` of a workload maps to exactly one backbone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Backbone {
    /// ResNet-9 with three residual blocks on CIFAR-10.
    ResNet9Cifar10,
    /// ResNet-9 deepened to five residual blocks on STL-10.
    ResNet9Stl10,
    /// U-Net with searchable height on the Nuclei segmentation dataset.
    UNetNuclei,
}

impl Backbone {
    /// The stable machine-readable name of this backbone, used by scenario
    /// configs and round-tripped by [`Backbone::from_name`].
    pub fn name(&self) -> &'static str {
        match self {
            Backbone::ResNet9Cifar10 => "resnet9-cifar10",
            Backbone::ResNet9Stl10 => "resnet9-stl10",
            Backbone::UNetNuclei => "unet-nuclei",
        }
    }

    /// Look a backbone up by its stable name (case-insensitive; `_` and `/`
    /// are accepted in place of `-`).  Inverse of [`Backbone::name`].
    ///
    /// ```
    /// use nasaic_nn::backbone::Backbone;
    ///
    /// assert_eq!(Backbone::from_name("unet-nuclei"), Some(Backbone::UNetNuclei));
    /// assert_eq!(Backbone::from_name("ResNet9_CIFAR10"), Some(Backbone::ResNet9Cifar10));
    /// assert_eq!(Backbone::from_name("vgg16"), None);
    /// ```
    pub fn from_name(name: &str) -> Option<Backbone> {
        let canonical: String = name
            .trim()
            .to_ascii_lowercase()
            .chars()
            .map(|c| if c == '_' || c == '/' { '-' } else { c })
            .collect();
        Backbone::all().into_iter().find(|b| b.name() == canonical)
    }

    /// The dataset this backbone is evaluated on.
    pub fn dataset(&self) -> Dataset {
        match self {
            Backbone::ResNet9Cifar10 => Dataset::Cifar10,
            Backbone::ResNet9Stl10 => Dataset::Stl10,
            Backbone::UNetNuclei => Dataset::Nuclei,
        }
    }

    /// The task kind (classification or segmentation).
    pub fn task_kind(&self) -> TaskKind {
        self.dataset().task_kind()
    }

    /// The hyperparameter search space of this backbone.
    pub fn search_space(&self) -> SearchSpace {
        match self {
            Backbone::ResNet9Cifar10 => resnet::cifar10_search_space(),
            Backbone::ResNet9Stl10 => resnet::stl10_search_space(),
            Backbone::UNetNuclei => unet::nuclei_search_space(),
        }
    }

    /// Materialise an architecture from an index vector into the search
    /// space (this is the paper's `nas(D_i)` function).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the index vector does not fit the search
    /// space.
    pub fn materialize(&self, indices: &[usize]) -> Result<Architecture, DecodeError> {
        let space = self.search_space();
        let values = space.decode(indices)?;
        Ok(self.materialize_values(&values))
    }

    /// Materialise an architecture directly from concrete hyperparameter
    /// values (paper notation).
    ///
    /// # Panics
    ///
    /// Panics if the values are structurally invalid for the backbone
    /// (e.g. wrong vector length); see
    /// [`try_materialize_values`](Self::try_materialize_values).
    pub fn materialize_values(&self, values: &[usize]) -> Architecture {
        self.try_materialize_values(values)
            .unwrap_or_else(|reason| panic!("{reason}"))
    }

    /// Materialise an architecture from concrete hyperparameter values, or
    /// say why they do not fit the backbone's configuration.
    ///
    /// # Errors
    ///
    /// Returns the configuration constructor's reason: a ResNet vector
    /// whose length is not odd and at least 3, a U-Net vector that is
    /// empty, has a height outside `1..=MAX_HEIGHT`, or is not longer than
    /// its height, or a zero filter count.
    pub fn try_materialize_values(&self, values: &[usize]) -> Result<Architecture, String> {
        Ok(match self {
            Backbone::ResNet9Cifar10 => {
                ResNetConfig::try_from_hyperparameters(Dataset::Cifar10, values)?.build()
            }
            Backbone::ResNet9Stl10 => {
                ResNetConfig::try_from_hyperparameters(Dataset::Stl10, values)?.build()
            }
            Backbone::UNetNuclei => {
                UNetConfig::try_from_hyperparameters(Dataset::Nuclei, values)?.build()
            }
        })
    }

    /// The smallest architecture in the search space (the paper's accuracy
    /// lower bound, shown as blue crosses in Fig. 6).
    pub fn smallest_architecture(&self) -> Architecture {
        let space = self.search_space();
        self.materialize(&space.smallest())
            .expect("smallest candidate is always valid")
    }

    /// The largest architecture in the search space.
    pub fn largest_architecture(&self) -> Architecture {
        let space = self.search_space();
        self.materialize(&space.largest())
            .expect("largest candidate is always valid")
    }

    /// All backbones, in a stable order.
    pub fn all() -> [Backbone; 3] {
        [
            Backbone::ResNet9Cifar10,
            Backbone::ResNet9Stl10,
            Backbone::UNetNuclei,
        ]
    }
}

impl fmt::Display for Backbone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backbone::ResNet9Cifar10 => f.write_str("ResNet9/CIFAR-10"),
            Backbone::ResNet9Stl10 => f.write_str("ResNet9/STL-10"),
            Backbone::UNetNuclei => f.write_str("U-Net/Nuclei"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_backbone_materializes_its_extremes() {
        for backbone in Backbone::all() {
            let small = backbone.smallest_architecture();
            let large = backbone.largest_architecture();
            assert!(large.total_macs() > small.total_macs(), "{backbone}");
            assert!(small.total_macs() > 0);
        }
    }

    #[test]
    fn materialize_rejects_bad_indices() {
        let err = Backbone::ResNet9Cifar10.materialize(&[0, 0]).unwrap_err();
        assert!(matches!(err, DecodeError::WrongLength { .. }));
    }

    #[test]
    fn materialize_values_round_trips_with_search_space() {
        let backbone = Backbone::UNetNuclei;
        let space = backbone.search_space();
        let indices = vec![2, 1, 1, 1, 1, 1];
        let values = space.decode(&indices).unwrap();
        let a = backbone.materialize(&indices).unwrap();
        let b = backbone.materialize_values(&values);
        assert_eq!(a, b);
    }

    #[test]
    fn backbone_datasets_and_tasks() {
        assert_eq!(Backbone::ResNet9Cifar10.dataset(), Dataset::Cifar10);
        assert_eq!(Backbone::UNetNuclei.task_kind(), TaskKind::Segmentation);
        assert_eq!(Backbone::ResNet9Stl10.task_kind(), TaskKind::Classification);
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(Backbone::UNetNuclei.to_string(), "U-Net/Nuclei");
    }

    #[test]
    fn name_round_trips_through_from_name() {
        for backbone in Backbone::all() {
            assert_eq!(Backbone::from_name(backbone.name()), Some(backbone));
        }
        assert_eq!(
            Backbone::from_name(" RESNET9_STL10 "),
            Some(Backbone::ResNet9Stl10)
        );
        assert_eq!(Backbone::from_name("unknown-backbone"), None);
    }

    #[test]
    fn search_space_sizes_match_backbones() {
        assert_eq!(Backbone::ResNet9Cifar10.search_space().num_choices(), 7);
        assert_eq!(Backbone::ResNet9Stl10.search_space().num_choices(), 11);
        assert_eq!(Backbone::UNetNuclei.search_space().num_choices(), 6);
    }
}
