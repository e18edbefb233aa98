//! U-Net backbone generator (segmentation tasks).
//!
//! The paper's segmentation backbone is U-Net [Ronneberger 2015].  The
//! searchable hyperparameters are the network *height* (number of
//! encoder levels, 1–5) and the filter count of each level, chosen from
//! `{4 * 2^(i-1), 8 * 2^(i-1), 16 * 2^(i-1)}` for level `i`.
//!
//! The hyperparameter vector is `<Height, FN_1, FN_2, ..., FN_H>` where
//! only the first `Height` filter entries are materialised (the controller
//! always emits all five filter decisions; the unused ones are ignored,
//! exactly as a fixed-length RNN controller would behave).

use crate::dataset::Dataset;
use crate::layer::{Architecture, LayerShape};
use crate::space::{ChoicePoint, SearchSpace};
use serde::{Deserialize, Serialize};

/// Maximum U-Net height considered in the paper's search space.
pub const MAX_HEIGHT: usize = 5;

/// Configuration of a U-Net.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UNetConfig {
    /// Dataset the network is built for (fixes input geometry).
    pub dataset: Dataset,
    /// Number of encoder levels (1..=5).
    pub height: usize,
    /// Filter count per level; must contain at least `height` entries.
    pub filters: Vec<usize>,
}

impl UNetConfig {
    /// Build a configuration from the flat hyperparameter vector
    /// `<Height, FN_1, ..., FN_k>` with `k >= Height`.
    ///
    /// # Panics
    ///
    /// Panics if the vector is shorter than `1 + height`, the height is
    /// outside `1..=MAX_HEIGHT` or a filter count is zero;
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
    /// Returns the reason when the vector is empty, the height is outside
    /// `1..=MAX_HEIGHT`, the vector is shorter than `1 + height`, or a
    /// filter count is zero, which no convolution layer accepts.
    pub fn try_from_hyperparameters(
        dataset: Dataset,
        hyperparameters: &[usize],
    ) -> Result<Self, String> {
        let Some(&height) = hyperparameters.first() else {
            return Err("U-Net hyperparameter vector is empty".to_string());
        };
        if !(1..=MAX_HEIGHT).contains(&height) {
            return Err(format!("U-Net height {height} outside 1..={MAX_HEIGHT}"));
        }
        if hyperparameters.len() <= height {
            return Err(format!(
                "U-Net hyperparameter vector too short: height {height} needs {} filter \
                 entries, got {}",
                height,
                hyperparameters.len() - 1
            ));
        }
        if hyperparameters[1..].contains(&0) {
            return Err(format!(
                "U-Net filter counts must be > 0, got {hyperparameters:?}"
            ));
        }
        Ok(Self {
            dataset,
            height,
            filters: hyperparameters[1..].to_vec(),
        })
    }

    /// Flatten back to the hyperparameter vector `<Height, FN_1, ...>`.
    pub fn to_hyperparameters(&self) -> Vec<usize> {
        let mut v = vec![self.height];
        v.extend_from_slice(&self.filters);
        v
    }

    /// Filter count actually used at a given level (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `level >= self.height`.
    pub fn level_filters(&self, level: usize) -> usize {
        assert!(
            level < self.height,
            "level {level} >= height {}",
            self.height
        );
        self.filters[level]
    }

    /// Generate the concrete layer list: an encoder of `height` levels (two
    /// 3x3 convolutions each, max-pooling between levels), a symmetric
    /// decoder (2x2 transposed convolution followed by two 3x3 convolutions
    /// whose first conv sees the concatenated skip connection), and a final
    /// 1x1 output convolution.
    pub fn build(&self) -> Architecture {
        let mut layers = Vec::new();
        let mut resolution = self.dataset.input_resolution();
        let mut channels = self.dataset.input_channels();

        // Encoder.
        for level in 0..self.height {
            let f = self.level_filters(level);
            layers.push(LayerShape::conv2d(
                &format!("enc{level}_conv0"),
                channels,
                f,
                3,
                resolution,
                1,
            ));
            layers.push(LayerShape::conv2d(
                &format!("enc{level}_conv1"),
                f,
                f,
                3,
                resolution,
                1,
            ));
            channels = f;
            if level + 1 < self.height {
                layers.push(LayerShape::max_pool(
                    &format!("enc{level}_pool"),
                    channels,
                    2,
                    resolution,
                ));
                resolution = (resolution / 2).max(1);
            }
        }

        // Decoder (mirror of the encoder, skipping the bottleneck level).
        for level in (0..self.height.saturating_sub(1)).rev() {
            let f = self.level_filters(level);
            layers.push(LayerShape::transposed_conv2d(
                &format!("dec{level}_up"),
                channels,
                f,
                2,
                resolution,
                2,
            ));
            resolution *= 2;
            // The first decoder conv consumes the concatenation of the
            // upsampled path and the skip connection: 2 * f input channels.
            layers.push(LayerShape::conv2d(
                &format!("dec{level}_conv0"),
                2 * f,
                f,
                3,
                resolution,
                1,
            ));
            layers.push(LayerShape::conv2d(
                &format!("dec{level}_conv1"),
                f,
                f,
                3,
                resolution,
                1,
            ));
            channels = f;
        }

        // 1x1 output projection to the mask.
        layers.push(LayerShape::conv2d(
            "output_conv",
            channels,
            self.dataset.num_outputs(),
            1,
            resolution,
            1,
        ));

        Architecture::new("unet-nuclei", layers, self.to_hyperparameters())
    }
}

/// The Nuclei U-Net search space of Fig. 3: height 1–5 and, per level `i`
/// (1-based), a filter count in `{4 * 2^(i-1), 8 * 2^(i-1), 16 * 2^(i-1)}`.
pub fn nuclei_search_space() -> SearchSpace {
    let mut choices = vec![ChoicePoint::new("Height", vec![1, 2, 3, 4, 5])];
    for level in 1..=MAX_HEIGHT {
        let scale = 1usize << (level - 1);
        choices.push(ChoicePoint::new(
            &format!("FN{level}"),
            vec![4 * scale, 8 * scale, 16 * scale],
        ));
    }
    SearchSpace::new("unet-nuclei", choices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerKind;

    #[test]
    fn hyperparameter_round_trip() {
        let hp = vec![3, 8, 16, 32, 64, 128];
        let cfg = UNetConfig::from_hyperparameters(Dataset::Nuclei, &hp);
        assert_eq!(cfg.height, 3);
        assert_eq!(cfg.to_hyperparameters(), hp);
        assert_eq!(cfg.level_filters(2), 32);
    }

    #[test]
    fn height_one_unet_is_a_plain_conv_stack() {
        let cfg = UNetConfig::from_hyperparameters(Dataset::Nuclei, &[1, 4]);
        let arch = cfg.build();
        // Two encoder convs + output conv, no pooling or upsampling.
        assert_eq!(arch.num_layers(), 3);
        assert!(arch
            .layers
            .iter()
            .all(|l| l.kind != LayerKind::TransposedConv2d && l.kind != LayerKind::MaxPool));
    }

    #[test]
    fn full_height_unet_is_symmetric() {
        let space = nuclei_search_space();
        let hp = space.decode(&space.largest()).unwrap();
        assert_eq!(hp[0], 5);
        let arch = UNetConfig::from_hyperparameters(Dataset::Nuclei, &hp).build();
        let downs = arch
            .layers
            .iter()
            .filter(|l| l.kind == LayerKind::MaxPool)
            .count();
        let ups = arch
            .layers
            .iter()
            .filter(|l| l.kind == LayerKind::TransposedConv2d)
            .count();
        assert_eq!(downs, 4);
        assert_eq!(ups, 4);
        // Output resolution must match the input resolution.
        assert_eq!(arch.layers.last().unwrap().input_size, 128);
        assert_eq!(arch.layers.last().unwrap().output_channels, 1);
    }

    #[test]
    fn decoder_first_conv_sees_concatenated_channels() {
        let cfg = UNetConfig::from_hyperparameters(Dataset::Nuclei, &[2, 8, 16]);
        let arch = cfg.build();
        let dec_conv = arch.layers.iter().find(|l| l.name == "dec0_conv0").unwrap();
        assert_eq!(dec_conv.input_channels, 16);
        assert_eq!(dec_conv.output_channels, 8);
    }

    #[test]
    fn unet_favours_high_resolution_layers() {
        // The bulk of U-Net compute sits at high resolution / low channel
        // count, the regime the paper says Shidiannao-style dataflows like.
        let space = nuclei_search_space();
        let hp = space.decode(&space.largest()).unwrap();
        let arch = UNetConfig::from_hyperparameters(Dataset::Nuclei, &hp).build();
        let avg_ratio: f64 = arch
            .compute_layers()
            .map(|l| l.channel_to_resolution_ratio())
            .sum::<f64>()
            / arch.num_compute_layers() as f64;
        let resnet = crate::resnet::ResNetConfig::from_hyperparameters(
            Dataset::Cifar10,
            &[32, 128, 2, 256, 2, 256, 2],
        )
        .build();
        let resnet_ratio: f64 = resnet
            .compute_layers()
            .map(|l| l.channel_to_resolution_ratio())
            .sum::<f64>()
            / resnet.num_compute_layers() as f64;
        assert!(
            resnet_ratio > avg_ratio,
            "resnet {resnet_ratio} vs unet {avg_ratio}"
        );
    }

    #[test]
    fn search_space_matches_paper_options() {
        let space = nuclei_search_space();
        assert_eq!(space.num_choices(), 6);
        assert_eq!(space.choices()[1].options, vec![4, 8, 16]);
        assert_eq!(space.choices()[5].options, vec![64, 128, 256]);
    }

    #[test]
    #[should_panic]
    fn too_few_filter_entries_rejected() {
        UNetConfig::from_hyperparameters(Dataset::Nuclei, &[3, 8, 16]);
    }

    #[test]
    #[should_panic]
    fn excessive_height_rejected() {
        UNetConfig::from_hyperparameters(Dataset::Nuclei, &[6, 4, 8, 16, 32, 64, 128]);
    }
}
