//! Loss functions.
//!
//! Each loss returns the scalar loss value together with the gradient with
//! respect to the network output, already averaged over the batch.

use crate::tensor::Tensor;

/// Numerically-stable row-wise softmax of a `[batch, classes]` tensor.
#[must_use]
pub fn softmax(logits: &Tensor) -> Tensor {
    let (m, n) = (logits.rows(), logits.cols());
    let mut out = logits.clone();
    let data = out.data_mut();
    for i in 0..m {
        let row = &mut data[i * n..(i + 1) * n];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    out
}

/// Softmax cross-entropy for classification.
///
/// Returns `(mean_loss, grad_wrt_logits)` for logits `[batch, classes]`
/// and integer `labels`.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the batch size or any label is
/// out of range.
#[must_use]
pub fn cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    let (m, n) = (logits.rows(), logits.cols());
    assert_eq!(labels.len(), m, "labels must match batch size");
    // The gradient is built in the softmax output itself: each label's
    // probability is read for the loss before 1 is subtracted from it,
    // then every element is scaled by 1/m.
    let mut grad = softmax(logits);
    let mut loss = 0.0f32;
    for (row, &label) in grad.data_mut().chunks_exact_mut(n).zip(labels) {
        assert!(label < n, "label {label} out of range for {n} classes");
        loss -= row[label].max(1e-12).ln();
        row[label] -= 1.0;
    }
    let scale = 1.0 / m as f32;
    grad.data_mut().iter_mut().for_each(|g| *g *= scale);
    (loss * scale, grad)
}

/// Mean squared error, the optimiser tests' regression loss.
///
/// Returns `(mean_loss, grad_wrt_prediction)` for same-shape prediction
/// and target tensors.
///
/// # Panics
///
/// Panics on shape mismatch.
#[cfg(test)]
pub(crate) fn mse(prediction: &Tensor, target: &Tensor) -> (f32, Tensor) {
    assert_eq!(prediction.shape(), target.shape(), "mse shape mismatch");
    let diff: Vec<f32> = (prediction.data().iter().zip(target.data()))
        .map(|(p, t)| p - t)
        .collect();
    let n = diff.len() as f32;
    let loss = diff.iter().map(|d| d * d).sum::<f32>() / n;
    let grad = diff.iter().map(|d| d * 2.0 / n).collect();
    (loss, Tensor::from_vec(grad, prediction.shape()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let p = softmax(&logits);
        for i in 0..2 {
            let s: f32 = (0..3).map(|j| p.at(i, j)).sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        // Monotone in the logits.
        assert!(p.at(0, 2) > p.at(0, 1) && p.at(0, 1) > p.at(0, 0));
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        let b = Tensor::from_vec(vec![1001.0, 1002.0], &[1, 2]);
        let pa = softmax(&a);
        let pb = softmax(&b);
        for (x, y) in pa.data().iter().zip(pb.data()) {
            assert!((x - y).abs() < 1e-6);
            assert!(x.is_finite());
        }
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let logits = Tensor::from_vec(vec![10.0, -10.0, -10.0, 10.0], &[2, 2]);
        let (loss, _) = cross_entropy(&logits, &[0, 1]);
        assert!(loss < 1e-3, "loss={loss}");
    }

    #[test]
    fn cross_entropy_of_uniform_prediction_is_log_classes() {
        let logits = Tensor::zeros(&[1, 4]);
        let (loss, _) = cross_entropy(&logits, &[2]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_differences() {
        let logits = Tensor::from_vec(vec![0.5, -0.2, 0.1, 0.9, -0.5, 0.3], &[2, 3]);
        let labels = [2usize, 0usize];
        let (_, grad) = cross_entropy(&logits, &labels);
        let eps = 1e-3f32;
        for i in 0..logits.len() {
            let mut plus = logits.clone();
            plus.data_mut()[i] += eps;
            let mut minus = logits.clone();
            minus.data_mut()[i] -= eps;
            let (lp, _) = cross_entropy(&plus, &labels);
            let (lm, _) = cross_entropy(&minus, &labels);
            let numeric = (lp - lm) / (2.0 * eps);
            let a = grad.data()[i];
            assert!(
                (a - numeric).abs() < 1e-3,
                "at {i}: analytic={a}, numeric={numeric}"
            );
        }
    }

    #[test]
    fn cross_entropy_gradient_rows_sum_to_zero() {
        let logits = Tensor::from_vec(vec![0.3, 0.1, -0.4, 0.2, 0.0, 0.5], &[2, 3]);
        let (_, grad) = cross_entropy(&logits, &[0, 1]);
        for i in 0..2 {
            let s: f32 = (0..3).map(|j| grad.at(i, j)).sum();
            assert!(s.abs() < 1e-6, "row {i} sums to {s}");
        }
    }

    #[test]
    #[should_panic(expected = "label")]
    fn cross_entropy_rejects_bad_label() {
        let logits = Tensor::zeros(&[1, 2]);
        let _ = cross_entropy(&logits, &[5]);
    }

    #[test]
    fn mse_known_value_and_gradient() {
        let pred = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        let target = Tensor::from_vec(vec![0.0, 0.0], &[1, 2]);
        let (loss, grad) = mse(&pred, &target);
        assert!((loss - 2.5).abs() < 1e-6);
        assert_eq!(grad.data(), &[1.0, 2.0]);
    }

    #[test]
    fn mse_of_equal_tensors_is_zero() {
        let t = Tensor::from_vec(vec![1.0, -1.0], &[1, 2]);
        let (loss, grad) = mse(&t, &t);
        assert_eq!(loss, 0.0);
        assert!(grad.data().iter().all(|&g| g == 0.0));
    }
}
