//! Datasets and mini-batch iteration.
//!
//! Real CIFAR10/SpeechCommands/AGNews/COCO are unavailable offline, so the
//! genuine-training path uses procedurally generated classification
//! datasets whose difficulty is controlled by construction. The tuning
//! stack only needs a dataset it can actually learn from — these provide
//! that with zero external files.

use edgetune_util::rng::{sample_normal, SeedStream};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::tensor::Tensor;

/// An in-memory labelled dataset of `[samples, features]` inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    features: Tensor,
    labels: Vec<usize>,
    classes: usize,
}

impl Dataset {
    /// Wraps pre-built features/labels.
    ///
    /// # Panics
    ///
    /// Panics if the row count and label count differ, or a label is out
    /// of range.
    #[must_use]
    pub fn new(features: Tensor, labels: Vec<usize>, classes: usize) -> Self {
        assert_eq!(
            features.rows(),
            labels.len(),
            "feature/label count mismatch"
        );
        assert!(classes >= 2, "need at least two classes");
        assert!(labels.iter().all(|&l| l < classes), "label out of range");
        Dataset {
            features,
            labels,
            classes,
        }
    }

    /// Gaussian blobs: `classes` isotropic clusters in `features`-D space
    /// with the given within-cluster standard deviation. Lower `noise`
    /// means an easier problem.
    #[must_use]
    pub fn gaussian_blobs(
        samples: usize,
        features: usize,
        classes: usize,
        noise: f64,
        seed: SeedStream,
    ) -> Self {
        assert!(samples >= classes, "need at least one sample per class");
        let mut rng = seed.rng("blobs");
        // Class centres on a scaled simplex-ish arrangement.
        let centres: Vec<Vec<f64>> = (0..classes)
            .map(|_| (0..features).map(|_| rng.gen_range(-2.0..2.0)).collect())
            .collect();
        let mut data = Vec::with_capacity(samples * features);
        let mut labels = Vec::with_capacity(samples);
        for i in 0..samples {
            let class = i % classes;
            labels.push(class);
            for &centre in &centres[class] {
                data.push(sample_normal(&mut rng, centre, noise) as f32);
            }
        }
        Dataset {
            features: Tensor::from_vec(data, &[samples, features]),
            labels,
            classes,
        }
    }

    /// Tiny procedural "images": `side × side` single-channel patterns
    /// (one oriented gradient per class, plus noise), flattened row-major.
    /// Serves as a CIFAR10 stand-in for exercising convolutional models.
    #[must_use]
    pub fn tiny_images(
        samples: usize,
        side: usize,
        classes: usize,
        noise: f64,
        seed: SeedStream,
    ) -> Self {
        let mut rng = seed.rng("tiny-images");
        let mut data = Vec::with_capacity(samples * side * side);
        let mut labels = Vec::with_capacity(samples);
        for i in 0..samples {
            let class = i % classes;
            labels.push(class);
            let angle = class as f64 / classes as f64 * std::f64::consts::PI;
            let (dx, dy) = (angle.cos(), angle.sin());
            for y in 0..side {
                for x in 0..side {
                    let u = x as f64 / side as f64 - 0.5;
                    let v = y as f64 / side as f64 - 0.5;
                    let value = (u * dx + v * dy) * 2.0 + sample_normal(&mut rng, 0.0, noise);
                    data.push(value as f32);
                }
            }
        }
        Dataset {
            features: Tensor::from_vec(data, &[samples, side * side]),
            labels,
            classes,
        }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the dataset has no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature width per sample.
    #[must_use]
    pub fn feature_width(&self) -> usize {
        self.features.cols()
    }

    /// Number of classes.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The full feature matrix.
    #[must_use]
    pub fn features(&self) -> &Tensor {
        &self.features
    }

    /// The labels.
    #[must_use]
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Splits into `(first, second)` where `first` holds `fraction` of the
    /// samples (in original order — shuffle at batch time).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction < 1` leaves both halves non-empty.
    #[must_use]
    pub fn split(&self, fraction: f64) -> (Dataset, Dataset) {
        assert!((0.0..1.0).contains(&fraction), "fraction must be in (0,1)");
        let cut = ((self.len() as f64) * fraction).round() as usize;
        assert!(cut > 0 && cut < self.len(), "split leaves an empty side");
        let first_idx: Vec<usize> = (0..cut).collect();
        let second_idx: Vec<usize> = (cut..self.len()).collect();
        (self.subset(&first_idx), self.subset(&second_idx))
    }

    /// Extracts the samples at `indices` into a new dataset.
    #[must_use]
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let features = self.features.gather_rows(indices);
        let labels = indices.iter().map(|&i| self.labels[i]).collect();
        Dataset {
            features,
            labels,
            classes: self.classes,
        }
    }

    /// Takes a prefix fraction of the dataset (the *dataset budget*
    /// primitive: trials on a partial budget see only part of the data).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction ≤ 1`.
    #[must_use]
    pub fn fraction(&self, fraction: f64) -> Dataset {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0,1]"
        );
        let n = ((self.len() as f64) * fraction).ceil().max(1.0) as usize;
        let idx: Vec<usize> = (0..n.min(self.len())).collect();
        self.subset(&idx)
    }

    /// Returns shuffled mini-batches of `(features, labels)` for one
    /// epoch.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    #[must_use]
    pub fn batches(&self, batch: usize, seed: SeedStream, epoch: u64) -> Vec<(Tensor, Vec<usize>)> {
        assert!(batch >= 1, "batch must be >= 1");
        let mut order: Vec<usize> = (0..self.len()).collect();
        let mut rng = seed.rng_indexed("shuffle", epoch);
        order.shuffle(&mut rng);
        order
            .chunks(batch)
            .map(|chunk| {
                let features = self.features.gather_rows(chunk);
                let labels = chunk.iter().map(|&i| self.labels[i]).collect();
                (features, labels)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed() -> SeedStream {
        SeedStream::new(77)
    }

    #[test]
    fn blobs_have_expected_shape_and_balanced_classes() {
        let d = Dataset::gaussian_blobs(90, 5, 3, 0.1, seed());
        assert_eq!(d.len(), 90);
        assert_eq!(d.feature_width(), 5);
        assert_eq!(d.classes(), 3);
        for c in 0..3 {
            assert_eq!(d.labels().iter().filter(|&&l| l == c).count(), 30);
        }
    }

    #[test]
    fn blobs_are_reproducible() {
        let a = Dataset::gaussian_blobs(50, 3, 2, 0.2, seed());
        let b = Dataset::gaussian_blobs(50, 3, 2, 0.2, seed());
        assert_eq!(a, b);
        let c = Dataset::gaussian_blobs(50, 3, 2, 0.2, SeedStream::new(78));
        assert_ne!(a, c);
    }

    #[test]
    fn tiny_images_flatten_to_pixels() {
        let d = Dataset::tiny_images(20, 8, 4, 0.05, seed());
        assert_eq!(d.feature_width(), 64);
        assert_eq!(d.classes(), 4);
    }

    #[test]
    fn split_partitions_all_samples() {
        let d = Dataset::gaussian_blobs(100, 2, 2, 0.1, seed());
        let (a, b) = d.split(0.8);
        assert_eq!(a.len(), 80);
        assert_eq!(b.len(), 20);
        assert_eq!(a.classes(), d.classes());
    }

    #[test]
    fn fraction_takes_a_prefix() {
        let d = Dataset::gaussian_blobs(100, 2, 2, 0.1, seed());
        let f = d.fraction(0.3);
        assert_eq!(f.len(), 30);
        assert_eq!(f.features().data()[0], d.features().data()[0]);
        assert_eq!(d.fraction(1.0).len(), 100);
    }

    #[test]
    #[should_panic(expected = "fraction must be in (0,1]")]
    fn fraction_rejects_zero() {
        let d = Dataset::gaussian_blobs(10, 2, 2, 0.1, seed());
        let _ = d.fraction(0.0);
    }

    #[test]
    fn batches_cover_every_sample_once() {
        let d = Dataset::gaussian_blobs(25, 2, 2, 0.1, seed());
        let batches = d.batches(4, seed(), 0);
        assert_eq!(batches.len(), 7, "ceil(25/4)");
        let total: usize = batches.iter().map(|(_, l)| l.len()).sum();
        assert_eq!(total, 25);
        // Last batch is the remainder.
        assert_eq!(batches.last().unwrap().1.len(), 1);
    }

    #[test]
    fn batches_shuffle_differs_between_epochs_but_reproduces() {
        let d = Dataset::gaussian_blobs(32, 2, 2, 0.1, seed());
        let e0a = d.batches(8, seed(), 0);
        let e0b = d.batches(8, seed(), 0);
        let e1 = d.batches(8, seed(), 1);
        assert_eq!(e0a[0].1, e0b[0].1, "same epoch reproduces");
        assert_ne!(e0a[0].1, e1[0].1, "different epoch reshuffles");
    }

    #[test]
    fn subset_keeps_feature_label_alignment() {
        let d = Dataset::gaussian_blobs(10, 2, 2, 0.0, seed());
        let s = d.subset(&[3, 7]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.labels()[0], d.labels()[3]);
        assert_eq!(s.features().at(0, 0), d.features().at(3, 0));
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn new_rejects_bad_labels() {
        let _ = Dataset::new(Tensor::zeros(&[2, 2]), vec![0, 5], 2);
    }
}
