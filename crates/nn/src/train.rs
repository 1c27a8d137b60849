//! The training loop.
//!
//! [`fit`] runs mini-batch SGD over a dataset for a number of epochs and a
//! dataset *fraction* — the two budget dimensions the paper's multi-budget
//! trials control (Algorithm 2) — and reports the per-epoch training loss
//! and the validation accuracy of the trained model.

use edgetune_util::rng::SeedStream;

use crate::data::Dataset;
use crate::loss::cross_entropy;
use crate::metrics::accuracy;
use crate::model::Sequential;
use crate::optim::Sgd;

/// Configuration of one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct FitConfig {
    /// Number of epochs to run.
    pub epochs: u32,
    /// Mini-batch size.
    pub batch: usize,
    /// Fraction of the training data to use (the dataset budget), in
    /// `(0, 1]`.
    pub data_fraction: f64,
}

impl FitConfig {
    /// A full-dataset configuration.
    ///
    /// # Panics
    ///
    /// Panics if `epochs` or `batch` is zero.
    #[must_use]
    pub fn new(epochs: u32, batch: usize) -> Self {
        assert!(epochs >= 1, "need at least one epoch");
        assert!(batch >= 1, "need a positive batch size");
        FitConfig {
            epochs,
            batch,
            data_fraction: 1.0,
        }
    }

    /// Restricts training to a prefix fraction of the data.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction ≤ 1`.
    #[must_use]
    pub fn with_data_fraction(mut self, fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0,1]"
        );
        self.data_fraction = fraction;
        self
    }
}

/// Report of a [`fit`] run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FitReport {
    /// Mean training loss over each epoch's batches, in epoch order.
    pub train_loss: Vec<f64>,
    val_accuracy: f64,
}

impl FitReport {
    /// Validation accuracy after the final epoch (0 in the default,
    /// empty report).
    #[must_use]
    pub fn final_val_accuracy(&self) -> f64 {
        self.val_accuracy
    }
}

/// Evaluates classification accuracy of `model` on a dataset.
#[must_use]
pub fn evaluate(model: &mut Sequential, data: &Dataset) -> f64 {
    let logits = model.forward(data.features());
    accuracy(&logits, data.labels())
}

/// Trains `model` on `train` with cross-entropy + SGD, then validates on
/// `val` once, after the last epoch.
///
/// The dataset fraction of `config` is applied as a prefix subset before
/// the first epoch, mirroring the paper's dataset-budget semantics.
pub fn fit(
    model: &mut Sequential,
    optimizer: &mut Sgd,
    train: &Dataset,
    val: &Dataset,
    config: &FitConfig,
    seed: SeedStream,
) -> FitReport {
    // Borrow the full dataset directly — the common full-budget case was
    // deep-cloning features and labels once per trial.
    let fractioned;
    let effective = if config.data_fraction < 1.0 {
        fractioned = train.fraction(config.data_fraction);
        &fractioned
    } else {
        train
    };
    let mut report = FitReport::default();
    for epoch in 0..config.epochs {
        let mut loss_sum = 0.0f64;
        let mut batches = 0usize;
        for (features, labels) in effective.batches(config.batch, seed, u64::from(epoch)) {
            let logits = model.forward(&features);
            let (loss, grad) = cross_entropy(&logits, &labels);
            model.backward_params(&grad);
            optimizer.step(model);
            loss_sum += f64::from(loss);
            batches += 1;
        }
        report.train_loss.push(loss_sum / batches.max(1) as f64);
    }
    report.val_accuracy = evaluate(model, val);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Dense, Relu};

    fn seed() -> SeedStream {
        SeedStream::new(2024)
    }

    fn mlp(inputs: usize, hidden: usize, classes: usize) -> Sequential {
        Sequential::new()
            .with(Dense::new(inputs, hidden, seed().child("l1")))
            .with(Relu::new())
            .with(Dense::new(hidden, classes, seed().child("l2")))
    }

    #[test]
    fn learns_gaussian_blobs_to_high_accuracy() {
        let data = Dataset::gaussian_blobs(300, 4, 3, 0.25, seed());
        let (train, val) = data.split(0.8);
        let mut model = mlp(4, 24, 3);
        let mut opt = Sgd::new(0.1).with_momentum(0.9);
        let report = fit(
            &mut model,
            &mut opt,
            &train,
            &val,
            &FitConfig::new(15, 16),
            seed(),
        );
        assert!(
            report.final_val_accuracy() > 0.9,
            "blobs should be learnable: {}",
            report.final_val_accuracy()
        );
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let data = Dataset::gaussian_blobs(200, 4, 2, 0.3, seed());
        let (train, val) = data.split(0.8);
        let mut model = mlp(4, 16, 2);
        let mut opt = Sgd::new(0.05);
        let report = fit(
            &mut model,
            &mut opt,
            &train,
            &val,
            &FitConfig::new(10, 16),
            seed(),
        );
        let first = report.train_loss[0];
        let last = *report.train_loss.last().unwrap();
        assert!(last < first, "loss should fall: {first} -> {last}");
    }

    #[test]
    fn more_epochs_do_not_hurt_on_easy_data() {
        let data = Dataset::gaussian_blobs(200, 4, 2, 0.2, seed());
        let (train, val) = data.split(0.8);
        let run = |epochs: u32| {
            let mut model = mlp(4, 16, 2);
            let mut opt = Sgd::new(0.05);
            fit(
                &mut model,
                &mut opt,
                &train,
                &val,
                &FitConfig::new(epochs, 16),
                seed(),
            )
            .final_val_accuracy()
        };
        assert!(run(12) >= run(1) - 0.05);
    }

    #[test]
    fn data_fraction_limits_samples_seen() {
        // With a tiny fraction the model sees too few samples to learn a
        // hard task as well as with the full set.
        let data = Dataset::gaussian_blobs(400, 4, 4, 1.0, seed());
        let (train, val) = data.split(0.8);
        let run = |fraction: f64| {
            let mut model = mlp(4, 32, 4);
            let mut opt = Sgd::new(0.08).with_momentum(0.9);
            let cfg = FitConfig::new(30, 16).with_data_fraction(fraction);
            fit(&mut model, &mut opt, &train, &val, &cfg, seed()).final_val_accuracy()
        };
        let full = run(1.0);
        let tiny = run(0.05);
        assert!(
            full > tiny,
            "full data should beat 5% prefix: {full} vs {tiny}"
        );
    }

    #[test]
    fn report_defaults_when_empty() {
        let r = FitReport::default();
        assert_eq!(r.final_val_accuracy(), 0.0);
    }

    #[test]
    fn evaluate_and_predict_are_consistent() {
        let data = Dataset::gaussian_blobs(50, 3, 2, 0.2, seed());
        let mut model = mlp(3, 8, 2);
        let logits = model.forward(data.features());
        let manual = accuracy(&logits, data.labels());
        let auto = evaluate(&mut model, &data);
        assert!((manual - auto).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one epoch")]
    fn config_rejects_zero_epochs() {
        let _ = FitConfig::new(0, 8);
    }

    #[test]
    fn without_early_stopping_all_epochs_run() {
        let data = Dataset::gaussian_blobs(100, 4, 2, 0.2, seed());
        let (train, val) = data.split(0.8);
        let mut model = mlp(4, 8, 2);
        let mut opt = Sgd::new(0.05);
        let report = fit(
            &mut model,
            &mut opt,
            &train,
            &val,
            &FitConfig::new(7, 16),
            seed(),
        );
        assert_eq!(report.train_loss.len(), 7);
    }
}
