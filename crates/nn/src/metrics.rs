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
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn accuracy_rejects_empty() {
        let logits = Tensor::zeros(&[1, 2]);
        let _ = accuracy(&logits, &[]);
    }
}
