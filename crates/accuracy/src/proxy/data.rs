//! Synthetic classification datasets for the proxy trainer.

use rand::Rng;

/// A labelled, in-memory classification dataset split into training and
/// validation halves.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticDataset {
    /// Feature dimensionality.
    pub num_features: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Training features, one row per example.
    pub train_features: Vec<Vec<f64>>,
    /// Training labels.
    pub train_labels: Vec<usize>,
    /// Validation features.
    pub val_features: Vec<Vec<f64>>,
    /// Validation labels.
    pub val_labels: Vec<usize>,
}

impl SyntheticDataset {
    /// Generate a Gaussian-cluster classification task.
    ///
    /// Each class gets a random centroid on a hypersphere; examples are the
    /// centroid plus isotropic noise of standard deviation `spread`.  An
    /// 80/20 train/validation split is applied per class so both splits are
    /// balanced.
    ///
    /// # Panics
    ///
    /// Panics if any size parameter is zero or `spread` is negative.
    pub fn gaussian_clusters<R: Rng>(
        rng: &mut R,
        num_classes: usize,
        num_features: usize,
        samples_per_class: usize,
        spread: f64,
    ) -> Self {
        assert!(num_classes > 1, "need at least two classes");
        assert!(num_features > 0, "need at least one feature");
        assert!(
            samples_per_class >= 5,
            "need at least five samples per class"
        );
        assert!(spread >= 0.0, "spread must be non-negative");

        let mut centroids = Vec::with_capacity(num_classes);
        for _ in 0..num_classes {
            let raw: Vec<f64> = (0..num_features)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            let norm = raw.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-9);
            centroids.push(
                raw.into_iter()
                    .map(|v| 2.0 * v / norm)
                    .collect::<Vec<f64>>(),
            );
        }

        let mut train_features = Vec::new();
        let mut train_labels = Vec::new();
        let mut val_features = Vec::new();
        let mut val_labels = Vec::new();
        let val_per_class = (samples_per_class / 5).max(1);

        for (label, centroid) in centroids.iter().enumerate() {
            for i in 0..samples_per_class {
                let example: Vec<f64> = centroid
                    .iter()
                    .map(|&c| {
                        let noise: f64 =
                            (0..4).map(|_| rng.gen_range(-1.0..1.0)).sum::<f64>() / 2.0;
                        c + noise * spread
                    })
                    .collect();
                if i < val_per_class {
                    val_features.push(example);
                    val_labels.push(label);
                } else {
                    train_features.push(example);
                    train_labels.push(label);
                }
            }
        }

        Self {
            num_features,
            num_classes,
            train_features,
            train_labels,
            val_features,
            val_labels,
        }
    }

    /// Number of training examples.
    pub fn train_len(&self) -> usize {
        self.train_features.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dataset_has_balanced_splits() {
        let mut rng = StdRng::seed_from_u64(1);
        let ds = SyntheticDataset::gaussian_clusters(&mut rng, 4, 8, 50, 0.2);
        assert_eq!(ds.num_classes, 4);
        assert_eq!(ds.train_len(), 4 * 40);
        assert_eq!(ds.val_features.len(), 4 * 10);
        assert_eq!(ds.train_features[0].len(), 8);
        // Every class appears in validation.
        for class in 0..4 {
            assert!(ds.val_labels.contains(&class));
        }
    }

    #[test]
    fn zero_spread_collapses_examples_onto_centroids() {
        let mut rng = StdRng::seed_from_u64(2);
        let ds = SyntheticDataset::gaussian_clusters(&mut rng, 2, 3, 10, 0.0);
        // All examples of a class are identical.
        let first_label = ds.train_labels[0];
        let reference = &ds.train_features[0];
        for (features, &label) in ds.train_features.iter().zip(&ds.train_labels) {
            if label == first_label {
                assert_eq!(features, reference);
            }
        }
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let a = SyntheticDataset::gaussian_clusters(&mut StdRng::seed_from_u64(7), 3, 4, 20, 0.3);
        let b = SyntheticDataset::gaussian_clusters(&mut StdRng::seed_from_u64(7), 3, 4, 20, 0.3);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn single_class_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        SyntheticDataset::gaussian_clusters(&mut rng, 1, 4, 20, 0.3);
    }
}
