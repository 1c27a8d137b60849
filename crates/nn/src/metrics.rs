//! Classification metrics.

use crate::tensor::Tensor;

/// Fraction of rows whose argmax matches the label. A row holding a NaN
/// makes no prediction and counts as wrong.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the batch size or is zero.
#[must_use]
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f64 {
    assert!(
        !labels.is_empty(),
        "cannot compute accuracy of an empty batch"
    );
    assert_eq!(logits.rows(), labels.len(), "batch size mismatch");
    let predictions = logits.argmax_rows();
    let correct = predictions
        .iter()
        .zip(labels)
        .filter(|&(&p, &l)| p == Some(l))
        .count();
    correct as f64 / labels.len() as f64
}

/// A confusion matrix over `classes` classes: `counts[actual][predicted]`,
/// plus, per actual class, the samples that made no prediction (a NaN
/// row), which count as wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    classes: usize,
    counts: Vec<u64>,
    unpredicted: Vec<u64>,
}

impl ConfusionMatrix {
    /// An empty matrix.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is below 2.
    #[must_use]
    pub fn new(classes: usize) -> Self {
        assert!(classes >= 2, "need at least two classes");
        ConfusionMatrix {
            classes,
            counts: vec![0; classes * classes],
            unpredicted: vec![0; classes],
        }
    }

    /// Records a prediction.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn record(&mut self, actual: usize, predicted: usize) {
        assert!(
            actual < self.classes && predicted < self.classes,
            "class out of range"
        );
        self.counts[actual * self.classes + predicted] += 1;
    }

    /// Records a whole batch from logits. A row holding a NaN makes no
    /// prediction and is recorded as wrong.
    ///
    /// # Panics
    ///
    /// Panics if a label is out of range.
    pub fn record_batch(&mut self, logits: &Tensor, labels: &[usize]) {
        for (p, &a) in logits.argmax_rows().into_iter().zip(labels) {
            match p {
                Some(p) => self.record(a, p),
                None => {
                    assert!(a < self.classes, "class out of range");
                    self.unpredicted[a] += 1;
                }
            }
        }
    }

    /// Count at `(actual, predicted)`.
    #[must_use]
    pub fn count(&self, actual: usize, predicted: usize) -> u64 {
        self.counts[actual * self.classes + predicted]
    }

    /// Total recorded samples, including those that made no prediction.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.unpredicted.iter().sum::<u64>()
    }

    /// Overall accuracy; `None` when nothing has been recorded.
    #[must_use]
    pub fn accuracy(&self) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let diag: u64 = (0..self.classes).map(|i| self.count(i, i)).sum();
        Some(diag as f64 / total as f64)
    }

    /// Per-class recall; `None` for classes with no samples.
    #[must_use]
    pub fn recall(&self, class: usize) -> Option<f64> {
        let row =
            (0..self.classes).map(|j| self.count(class, j)).sum::<u64>() + self.unpredicted[class];
        if row == 0 {
            None
        } else {
            Some(self.count(class, class) as f64 / row as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_matches() {
        let logits = Tensor::from_vec(vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4], &[3, 2]);
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(accuracy(&logits, &[0, 1, 0]), 1.0);
    }

    #[test]
    fn a_nan_row_is_a_wrong_prediction() {
        let logits = Tensor::from_vec(vec![0.9, 0.1, f32::NAN, 0.8, 0.2, 0.7], &[3, 2]);
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-12);
        let mut cm = ConfusionMatrix::new(2);
        cm.record_batch(&logits, &[0, 1, 1]);
        assert_eq!(cm.total(), 3, "the NaN row is recorded as wrong");
        assert!((cm.accuracy().unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(cm.recall(1), Some(0.5));
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn accuracy_rejects_empty() {
        let logits = Tensor::zeros(&[1, 2]);
        let _ = accuracy(&logits, &[]);
    }

    #[test]
    fn confusion_matrix_tracks_counts() {
        let mut cm = ConfusionMatrix::new(2);
        cm.record(0, 0);
        cm.record(0, 1);
        cm.record(1, 1);
        assert_eq!(cm.total(), 3);
        assert_eq!(cm.count(0, 1), 1);
        assert!((cm.accuracy().unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(cm.recall(0), Some(0.5));
        assert_eq!(cm.recall(1), Some(1.0));
    }

    #[test]
    fn empty_matrix_has_no_accuracy() {
        let cm = ConfusionMatrix::new(3);
        assert_eq!(cm.accuracy(), None);
        assert_eq!(cm.recall(1), None);
    }

    #[test]
    fn record_batch_from_logits() {
        let mut cm = ConfusionMatrix::new(2);
        let logits = Tensor::from_vec(vec![0.9, 0.1, 0.1, 0.9], &[2, 2]);
        cm.record_batch(&logits, &[0, 0]);
        assert_eq!(cm.count(0, 0), 1);
        assert_eq!(cm.count(0, 1), 1);
    }
}
