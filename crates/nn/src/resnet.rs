//! ResNet-9 backbone generator (classification tasks).
//!
//! The paper uses the ResNet-9 of [Li 2019] as the classification backbone.
//! The searchable hyperparameters are, per residual block `i`, the filter
//! count `FN_i` and the number of extra convolution layers `SK_i`
//! ("skip layers" in the paper's terminology).  Block 0 is a plain stem
//! convolution with filter count `FN_0` (see the footnote of Table II).
//!
//! The hyperparameter vector follows the paper's notation:
//! `<FN_0, FN_1, SK_1, FN_2, SK_2, ..., FN_B, SK_B>` for `B` residual
//! blocks (3 for CIFAR-10, 5 for STL-10).

use crate::dataset::Dataset;
use crate::layer::{Architecture, LayerShape};
use crate::space::{ChoicePoint, SearchSpace};
use serde::{Deserialize, Serialize};

/// Configuration of one residual block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResidualBlockConfig {
    /// Filter count `FN_i`.
    pub filters: usize,
    /// Number of extra 3x3 convolutions `SK_i` in the residual branch.
    pub skip_convs: usize,
}

/// Full configuration of a ResNet-9-style network.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResNetConfig {
    /// Dataset the network is built for (fixes input geometry and classes).
    pub dataset: Dataset,
    /// Stem convolution filter count `FN_0`.
    pub stem_filters: usize,
    /// Residual blocks, in order.
    pub blocks: Vec<ResidualBlockConfig>,
}

impl ResNetConfig {
    /// Build a configuration from the paper's flat hyperparameter vector
    /// `<FN_0, FN_1, SK_1, ..., FN_B, SK_B>`.
    ///
    /// # Panics
    ///
    /// Panics if the vector length is not odd and at least 3
    /// (`1 + 2 * blocks`) or a filter count is zero;
    /// [`try_from_hyperparameters`](Self::try_from_hyperparameters)
    /// returns that as an error instead.
    pub fn from_hyperparameters(dataset: Dataset, hyperparameters: &[usize]) -> Self {
        Self::try_from_hyperparameters(dataset, hyperparameters).unwrap_or_else(|reason| {
            panic!("{reason}");
        })
    }

    /// Build a configuration from the flat hyperparameter vector, or say
    /// why it does not describe one.
    ///
    /// # Errors
    ///
    /// Returns the reason when the vector length is not odd and at least 3,
    /// or when a filter count (`FN_0` or an `FN_i`) is zero, which no
    /// convolution layer accepts.
    pub fn try_from_hyperparameters(
        dataset: Dataset,
        hyperparameters: &[usize],
    ) -> Result<Self, String> {
        if hyperparameters.len() < 3 || hyperparameters.len().is_multiple_of(2) {
            return Err(format!(
                "ResNet hyperparameter vector must have odd length >= 3, got {}",
                hyperparameters.len()
            ));
        }
        let stem_filters = hyperparameters[0];
        let blocks: Vec<_> = hyperparameters[1..]
            .chunks(2)
            .map(|pair| ResidualBlockConfig {
                filters: pair[0],
                skip_convs: pair[1],
            })
            .collect();
        if stem_filters == 0 || blocks.iter().any(|block| block.filters == 0) {
            return Err(format!(
                "ResNet filter counts must be > 0, got {hyperparameters:?}"
            ));
        }
        Ok(Self {
            dataset,
            stem_filters,
            blocks,
        })
    }

    /// Flatten back to the paper's hyperparameter vector.
    pub fn to_hyperparameters(&self) -> Vec<usize> {
        let mut v = vec![self.stem_filters];
        for b in &self.blocks {
            v.push(b.filters);
            v.push(b.skip_convs);
        }
        v
    }

    /// Generate the concrete layer list for this configuration.
    ///
    /// The network layout is the ResNet-9 template: a stem convolution, then
    /// per block a widening convolution followed by 2x max-pooling and
    /// `SK_i` residual convolutions (joined by an element-wise add when the
    /// residual branch is non-empty), and finally global average pooling
    /// plus a dense classifier.
    pub fn build(&self) -> Architecture {
        let mut layers = Vec::new();
        let mut resolution = self.dataset.input_resolution();
        let mut channels = self.dataset.input_channels();

        layers.push(LayerShape::conv2d(
            "stem_conv",
            channels,
            self.stem_filters,
            3,
            resolution,
            1,
        ));
        channels = self.stem_filters;

        for (bi, block) in self.blocks.iter().enumerate() {
            let b = bi + 1;
            layers.push(LayerShape::conv2d(
                &format!("block{b}_conv"),
                channels,
                block.filters,
                3,
                resolution,
                1,
            ));
            channels = block.filters;
            layers.push(LayerShape::max_pool(
                &format!("block{b}_pool"),
                channels,
                2,
                resolution,
            ));
            resolution = (resolution / 2).max(1);
            for s in 0..block.skip_convs {
                layers.push(LayerShape::conv2d(
                    &format!("block{b}_res{s}"),
                    channels,
                    channels,
                    3,
                    resolution,
                    1,
                ));
            }
            if block.skip_convs > 0 {
                layers.push(LayerShape::elementwise_add(
                    &format!("block{b}_add"),
                    channels,
                    resolution,
                ));
            }
        }

        layers.push(LayerShape::global_avg_pool(
            "head_pool",
            channels,
            resolution,
        ));
        layers.push(LayerShape::dense(
            "classifier",
            channels,
            self.dataset.num_outputs(),
        ));

        let name = match self.dataset {
            Dataset::Cifar10 => "resnet9-cifar10",
            Dataset::Stl10 => "resnet9-stl10",
            Dataset::Nuclei => "resnet9-custom",
        };
        Architecture::new(name, layers, self.to_hyperparameters())
    }
}

/// The CIFAR-10 ResNet-9 search space of Fig. 1 / Fig. 3: three residual
/// blocks, `FN_i` in `{32, 64, 128, 256}`, `SK_i` in `{0, 1, 2}`, and a stem
/// filter count in `{8, 16, 32, 64}` (Table II shows stems as small as 8).
pub fn cifar10_search_space() -> SearchSpace {
    let mut choices = vec![ChoicePoint::new("FN0", vec![8, 16, 32, 64])];
    for b in 1..=3 {
        choices.push(ChoicePoint::new(&format!("FN{b}"), vec![32, 64, 128, 256]));
        choices.push(ChoicePoint::new(&format!("SK{b}"), vec![0, 1, 2]));
    }
    SearchSpace::new("resnet9-cifar10", choices)
}

/// The STL-10 ResNet-9 search space: the paper deepens the network to five
/// residual blocks, allows up to three convolutions per block and filter
/// counts up to 512.
pub fn stl10_search_space() -> SearchSpace {
    let mut choices = vec![ChoicePoint::new("FN0", vec![8, 16, 32, 64])];
    for b in 1..=5 {
        choices.push(ChoicePoint::new(
            &format!("FN{b}"),
            vec![32, 64, 128, 256, 512],
        ));
        choices.push(ChoicePoint::new(&format!("SK{b}"), vec![0, 1, 2, 3]));
    }
    SearchSpace::new("resnet9-stl10", choices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerKind;

    #[test]
    fn hyperparameter_round_trip() {
        let hp = vec![32, 128, 2, 256, 2, 256, 2];
        let cfg = ResNetConfig::from_hyperparameters(Dataset::Cifar10, &hp);
        assert_eq!(cfg.to_hyperparameters(), hp);
        assert_eq!(cfg.blocks.len(), 3);
        assert_eq!(cfg.blocks[0].filters, 128);
        assert_eq!(cfg.blocks[2].skip_convs, 2);
    }

    #[test]
    fn paper_best_w3_architecture_builds() {
        // Table II, NAS row: <32, 128, 2, 256, 2, 256, 2>.
        let cfg =
            ResNetConfig::from_hyperparameters(Dataset::Cifar10, &[32, 128, 2, 256, 2, 256, 2]);
        let arch = cfg.build();
        // Stem + 3 * (conv + pool + 2 res + add) + head pool + classifier.
        assert_eq!(arch.num_layers(), 1 + 3 * 5 + 2);
        assert!(arch.total_macs() > 50_000_000, "macs {}", arch.total_macs());
        assert_eq!(arch.layers.last().unwrap().output_channels, 10);
    }

    #[test]
    fn smallest_architecture_is_much_cheaper_than_largest() {
        let space = cifar10_search_space();
        let small = ResNetConfig::from_hyperparameters(
            Dataset::Cifar10,
            &space.decode(&space.smallest()).unwrap(),
        )
        .build();
        let large = ResNetConfig::from_hyperparameters(
            Dataset::Cifar10,
            &space.decode(&space.largest()).unwrap(),
        )
        .build();
        assert!(large.total_macs() > 20 * small.total_macs());
        assert!(large.total_params() > 20 * small.total_params());
    }

    #[test]
    fn zero_skip_block_has_no_add_layer() {
        let cfg = ResNetConfig::from_hyperparameters(Dataset::Cifar10, &[8, 32, 0, 32, 0, 32, 0]);
        let arch = cfg.build();
        assert!(arch
            .layers
            .iter()
            .all(|l| l.kind != LayerKind::ElementwiseAdd));
        assert_eq!(arch.num_layers(), 1 + 3 * 2 + 2);
    }

    #[test]
    fn resolution_halves_per_block() {
        let cfg = ResNetConfig::from_hyperparameters(Dataset::Cifar10, &[8, 32, 1, 64, 1, 128, 1]);
        let arch = cfg.build();
        // The residual conv of block 3 runs at 32 / 2 / 2 / 2 = 4.
        let res3 = arch
            .layers
            .iter()
            .find(|l| l.name == "block3_res0")
            .unwrap();
        assert_eq!(res3.input_size, 4);
    }

    #[test]
    fn stl10_backbone_is_deeper_and_higher_resolution() {
        let space = stl10_search_space();
        assert_eq!(space.num_choices(), 11);
        let hp = space.decode(&space.largest()).unwrap();
        let arch = ResNetConfig::from_hyperparameters(Dataset::Stl10, &hp).build();
        assert_eq!(arch.layers[0].input_size, 96);
        let cifar_best =
            ResNetConfig::from_hyperparameters(Dataset::Cifar10, &[32, 128, 2, 256, 2, 256, 2])
                .build();
        assert!(arch.total_macs() > cifar_best.total_macs());
    }

    #[test]
    fn cifar_space_cardinality_matches_options() {
        // 4 stem options * (4 * 3)^3
        assert_eq!(cifar10_search_space().cardinality(), 4 * 12u64.pow(3));
    }

    #[test]
    #[should_panic]
    fn even_length_hyperparameters_rejected() {
        ResNetConfig::from_hyperparameters(Dataset::Cifar10, &[8, 32, 0, 32]);
    }
}
