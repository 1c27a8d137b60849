//! Learning-curve simulation.
//!
//! The tuning algorithms only ever observe the *accuracy* a trial reaches
//! given its budget; this module produces that observation. The curve is a
//! saturating exponential in effective epochs,
//!
//! ```text
//! acc = a_max(hp) · (1 − exp(−rate(hp) · epochs · q(batch))) · frac^γ + ε
//! ```
//!
//! whose three factors encode the phenomena the paper's budget study
//! (Figs. 11–13) relies on:
//!
//! * `a_max`/`rate` depend on the architecture hyperparameter — deeper
//!   ResNets reach higher asymptotes but converge more slowly,
//! * the *data-fraction cap* `frac^γ` (γ ≈ 0.35) makes dataset-only
//!   budgets plateau around 40–50% of the asymptote, the Fig. 12b
//!   behaviour,
//! * the batch-quality factor `q` penalises extreme batch sizes, so
//!   batch 1024 needs more epochs to a target accuracy (Fig. 3a),
//! * `ε` is small seeded noise, reproducible per (workload, config).
//!
//! The noise seed is the FNV-1a of the label
//! `"{kind}|hp{model_hp}|b{batch}|e{epochs:.3}|f{data_fraction:.4}"`.
//! [`NoiseLabels`] feeds it in memoised pieces, so a trial formats no
//! text: a study has few model-hp values and fewer budgets.

use std::collections::HashMap;

use edgetune_util::rng::{sample_normal, LabelHash, SeedStream};

/// Exponent of the data-fraction accuracy cap (`frac^γ`).
const FRACTION_CAP_EXPONENT: f64 = 0.35;
/// Standard deviation of the per-trial accuracy noise.
const NOISE_SIGMA: f64 = 0.010;
/// Batch size at which the convergence-quality factor peaks.
const OPTIMAL_BATCH: f64 = 96.0;
/// Log-width of the batch-quality bell.
const BATCH_QUALITY_WIDTH: f64 = 1.55; // ≈ ln(4.7)

/// Training-method quality of a trial: how well its batch size converts
/// epochs into learning progress.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingQuality {
    /// Mini-batch size of the trial.
    pub batch: u32,
}

impl TrainingQuality {
    /// Quality of a batch-size-only configuration.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    #[must_use]
    pub fn from_batch(batch: u32) -> Self {
        assert!(batch >= 1, "batch must be >= 1");
        TrainingQuality { batch }
    }

    /// The multiplicative epoch-effectiveness factor in `(0, 1]`.
    #[must_use]
    pub fn factor(&self) -> f64 {
        let b = f64::from(self.batch.max(1));
        log_bell(b, OPTIMAL_BATCH, BATCH_QUALITY_WIDTH)
    }
}

/// Gaussian bell in log space, peaking at `opt` with log-width `width`.
fn log_bell(value: f64, opt: f64, width: f64) -> f64 {
    let z = (value / opt).ln() / width;
    (-0.5 * z * z).exp()
}

/// Which analytic accuracy family a workload follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CurveKind {
    Resnet,
    M5,
    Rnn,
    Yolo,
}

impl CurveKind {
    /// The kind's spelling in accuracy-noise labels. It is the `Debug`
    /// spelling the labels were first written with, kept as a literal so
    /// renaming a variant cannot move the noise.
    const fn label(self) -> &'static str {
        match self {
            CurveKind::Resnet => "Resnet",
            CurveKind::M5 => "M5",
            CurveKind::Rnn => "Rnn",
            CurveKind::Yolo => "Yolo",
        }
    }
}

/// The memoised pieces of accuracy-noise labels (see the module docs).
/// Each piece is formatted by the label's own spec the first time it is
/// needed and reused after:
///
/// * the hash state after `"{kind}|hp{model_hp}|b"`, once per kind and
///   model-hp value;
/// * the text `"|e{epochs:.3}|f{data_fraction:.4}"`, once per budget.
///
/// The batch digits between them are fed without formatting. A memo
/// holds only what a fresh one would compute, so which trials warmed it
/// never changes a label.
#[derive(Debug, Clone, Default)]
pub struct NoiseLabels {
    heads: HashMap<(CurveKind, u64), LabelHash>,
    tails: HashMap<(u64, u64), Box<str>>,
}

impl NoiseLabels {
    /// The hashed label of one trial.
    fn label(
        &mut self,
        kind: CurveKind,
        model_hp: f64,
        batch: u32,
        epochs: f64,
        data_fraction: f64,
    ) -> LabelHash {
        let head = *self
            .heads
            .entry((kind, model_hp.to_bits()))
            .or_insert_with(|| {
                LabelHash::new().write_str(&format!("{}|hp{model_hp}|b", kind.label()))
            });
        let tail = self
            .tails
            .entry((epochs.to_bits(), data_fraction.to_bits()))
            .or_insert_with(|| format!("|e{epochs:.3}|f{data_fraction:.4}").into());
        head.write_decimal(batch).write_str(tail)
    }
}

/// A calibrated learning curve for one workload family.
#[derive(Debug, Clone, PartialEq)]
pub struct LearningCurve {
    kind: CurveKind,
}

impl LearningCurve {
    /// ResNet / CIFAR10.
    #[must_use]
    pub fn image_classification() -> Self {
        LearningCurve {
            kind: CurveKind::Resnet,
        }
    }

    /// M5 / Speech Commands.
    #[must_use]
    pub fn speech_recognition() -> Self {
        LearningCurve {
            kind: CurveKind::M5,
        }
    }

    /// RNN / AG News.
    #[must_use]
    pub fn natural_language_processing() -> Self {
        LearningCurve {
            kind: CurveKind::Rnn,
        }
    }

    /// YOLO / COCO (accuracy plays the role of mAP).
    #[must_use]
    pub fn object_detection() -> Self {
        LearningCurve {
            kind: CurveKind::Yolo,
        }
    }

    /// `(a_max, rate)` of the saturating exponential for a model
    /// hyperparameter value.
    fn asymptote_and_rate(&self, model_hp: f64) -> (f64, f64) {
        match self.kind {
            CurveKind::Resnet => {
                // Deeper: higher ceiling, slower convergence (but the
                // deeper nets overtake within ~12-16 well-tuned epochs).
                if model_hp < 26.0 {
                    (0.90, 0.35)
                } else if model_hp < 42.0 {
                    (0.92, 0.30)
                } else {
                    (0.93, 0.28)
                }
            }
            CurveKind::M5 => {
                if model_hp < 48.0 {
                    (0.82, 0.40)
                } else if model_hp < 96.0 {
                    (0.86, 0.32)
                } else {
                    (0.88, 0.26)
                }
            }
            CurveKind::Rnn => {
                // Larger stride discards sequence information.
                let s = model_hp.max(1.0);
                let log_s = s.log2();
                let a_max = (0.90 - 0.008 * log_s * log_s).max(0.55);
                let rate = 0.30 * (1.0 + 0.10 * log_s);
                (a_max, rate)
            }
            CurveKind::Yolo => {
                // Dropout has an interior optimum at 0.3.
                let d = model_hp.clamp(0.0, 0.9);
                let a_max = 0.56 - 0.5 * (d - 0.3) * (d - 0.3);
                (a_max, 0.12)
            }
        }
    }

    /// Simulated validation accuracy (see module docs for the formula),
    /// its noise label fed from `labels`.
    ///
    /// # Panics
    ///
    /// Panics if `epochs` is negative or `data_fraction` is outside
    /// `(0, 1]`.
    #[must_use]
    pub fn accuracy(
        &self,
        labels: &mut NoiseLabels,
        model_hp: f64,
        quality: &TrainingQuality,
        epochs: f64,
        data_fraction: f64,
        seed: SeedStream,
    ) -> f64 {
        assert!(epochs >= 0.0, "epochs must be non-negative");
        assert!(
            data_fraction > 0.0 && data_fraction <= 1.0,
            "data fraction must be in (0,1], got {data_fraction}"
        );
        let (a_max, rate) = self.asymptote_and_rate(model_hp);
        let effective = epochs * quality.factor();
        let progress = 1.0 - (-rate * effective).exp();
        let cap = data_fraction.powf(FRACTION_CAP_EXPONENT);
        let label = labels.label(self.kind, model_hp, quality.batch, epochs, data_fraction);
        let mut rng = seed.child("accuracy-noise").rng_hashed(label);
        let noise = sample_normal(&mut rng, 0.0, NOISE_SIGMA);
        (a_max * progress * cap + noise).clamp(0.02, 0.99)
    }

    /// Inverse of the (noise-free) curve: epochs needed to reach
    /// `target` accuracy, or `None` when the configuration can never get
    /// there (asymptote × data cap below target).
    ///
    /// # Panics
    ///
    /// Panics if `target` is outside `(0, 1)` or `data_fraction` outside
    /// `(0, 1]`.
    #[must_use]
    pub fn epochs_to_accuracy(
        &self,
        model_hp: f64,
        quality: &TrainingQuality,
        data_fraction: f64,
        target: f64,
    ) -> Option<f64> {
        assert!(target > 0.0 && target < 1.0, "target must be in (0,1)");
        assert!(
            data_fraction > 0.0 && data_fraction <= 1.0,
            "data fraction must be in (0,1]"
        );
        let (a_max, rate) = self.asymptote_and_rate(model_hp);
        let ceiling = a_max * data_fraction.powf(FRACTION_CAP_EXPONENT);
        if target >= ceiling {
            return None;
        }
        let progress = target / ceiling;
        let effective = -(1.0 - progress).ln() / rate;
        Some(effective / quality.factor())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed() -> SeedStream {
        SeedStream::new(123)
    }

    fn q(batch: u32) -> TrainingQuality {
        TrainingQuality::from_batch(batch)
    }

    /// `c.accuracy` from a fresh noise-label memo.
    fn accuracy(
        c: &LearningCurve,
        model_hp: f64,
        quality: &TrainingQuality,
        epochs: f64,
        data_fraction: f64,
        seed: SeedStream,
    ) -> f64 {
        let labels = &mut NoiseLabels::default();
        c.accuracy(labels, model_hp, quality, epochs, data_fraction, seed)
    }

    const KINDS: [CurveKind; 4] = [
        CurveKind::Resnet,
        CurveKind::M5,
        CurveKind::Rnn,
        CurveKind::Yolo,
    ];

    /// The noise label as it was first written: the whole text formatted
    /// per trial, then hashed.
    fn formatted_label(
        kind: CurveKind,
        model_hp: f64,
        batch: u32,
        epochs: f64,
        data_fraction: f64,
    ) -> LabelHash {
        LabelHash::new().write_str(&format!(
            "{kind:?}|hp{model_hp}|b{batch}|e{epochs:.3}|f{data_fraction:.4}"
        ))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(16))]

        /// Memoised pieces hash the very bytes the formatted label does,
        /// from a fresh memo and from one warmed by every other input.
        #[test]
        fn noise_labels_hash_the_formatted_label(
            hp in -1e3f64..1e3,
            batch in 0u32..=u32::MAX,
            epochs in 0.0f64..1e3,
            fraction in 1e-9f64..=1.0,
        ) {
            let hps = [hp, 18.5, 1e15, 1.234_567_890_123e17, -0.0];
            let batches = [0, 1, u32::MAX, batch];
            let epochs = [0.5, 1e-3, 1e20, epochs];
            let fractions = [1e-9, 0.1 * 3.0, 1.0, fraction];
            let mut warm = NoiseLabels::default();
            for kind in KINDS {
                for &h in &hps {
                    for &b in &batches {
                        for &e in &epochs {
                            for &f in &fractions {
                                let expected = formatted_label(kind, h, b, e, f);
                                proptest::prop_assert_eq!(warm.label(kind, h, b, e, f), expected);
                                proptest::prop_assert_eq!(
                                    NoiseLabels::default().label(kind, h, b, e, f),
                                    expected
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn accuracy_increases_with_epochs_up_to_noise() {
        let c = LearningCurve::image_classification();
        let a2 = accuracy(&c, 18.0, &q(128), 2.0, 1.0, seed());
        let a10 = accuracy(&c, 18.0, &q(128), 10.0, 1.0, seed());
        let a30 = accuracy(&c, 18.0, &q(128), 30.0, 1.0, seed());
        assert!(a10 > a2);
        assert!(
            a30 >= a10 - 0.03,
            "saturation may flatten but not drop: {a10} vs {a30}"
        );
    }

    #[test]
    fn resnet18_reaches_target_80_with_enough_epochs() {
        // The paper tunes IC to ≥80% accuracy (§2.3).
        let c = LearningCurve::image_classification();
        let acc = accuracy(&c, 18.0, &q(128), 20.0, 1.0, seed());
        assert!(acc > 0.8, "acc={acc}");
    }

    #[test]
    fn dataset_fraction_caps_accuracy_like_fig12b() {
        let c = LearningCurve::image_classification();
        // Fully converged on 10% of the data: plateau well below target.
        let acc = accuracy(&c, 18.0, &q(128), 100.0, 0.1, seed());
        assert!(
            (0.25..=0.50).contains(&acc),
            "10% data should cap near 40%: {acc}"
        );
    }

    #[test]
    fn deeper_resnet_higher_ceiling_slower_convergence() {
        let c = LearningCurve::image_classification();
        let early18 = accuracy(&c, 18.0, &q(128), 3.0, 1.0, seed());
        let early50 = accuracy(&c, 50.0, &q(128), 3.0, 1.0, seed());
        assert!(
            early18 > early50,
            "shallow converges faster: {early18} vs {early50}"
        );
        let late18 = accuracy(&c, 18.0, &q(128), 60.0, 1.0, seed());
        let late50 = accuracy(&c, 50.0, &q(128), 60.0, 1.0, seed());
        assert!(
            late50 > late18 - 0.02,
            "deep catches up: {late18} vs {late50}"
        );
    }

    #[test]
    fn batch_quality_peaks_mid_range() {
        let q32 = q(32).factor();
        let q96 = q(96).factor();
        let q1024 = q(1024).factor();
        assert!(q96 > q32);
        assert!(q96 > q1024);
        assert!(
            q1024 < 0.5,
            "batch 1024 should significantly slow convergence: {q1024}"
        );
        assert!(q96 > 0.99);
    }

    #[test]
    fn yolo_dropout_optimum_is_interior() {
        let c = LearningCurve::object_detection();
        let a1 = accuracy(&c, 0.1, &q(64), 40.0, 1.0, seed());
        let a3 = accuracy(&c, 0.3, &q(64), 40.0, 1.0, seed());
        let a5 = accuracy(&c, 0.5, &q(64), 40.0, 1.0, seed());
        assert!(a3 > a1 && a3 > a5, "dropout 0.3 should win: {a1} {a3} {a5}");
    }

    #[test]
    fn rnn_stride_trades_accuracy() {
        let c = LearningCurve::natural_language_processing();
        let s1 = accuracy(&c, 1.0, &q(64), 40.0, 1.0, seed());
        let s32 = accuracy(&c, 32.0, &q(64), 40.0, 1.0, seed());
        assert!(s1 > s32, "stride 32 loses information: {s1} vs {s32}");
    }

    #[test]
    fn noise_is_reproducible_and_config_dependent() {
        let c = LearningCurve::speech_recognition();
        let a = accuracy(&c, 64.0, &q(64), 5.0, 0.5, seed());
        let b = accuracy(&c, 64.0, &q(64), 5.0, 0.5, seed());
        assert_eq!(a, b, "same seed and config must reproduce exactly");
        let other = accuracy(&c, 64.0, &q(64), 5.0, 0.5, SeedStream::new(124));
        assert_ne!(a, other);
    }

    #[test]
    fn accuracy_stays_in_bounds() {
        let c = LearningCurve::image_classification();
        for epochs in [0.0, 1.0, 1000.0] {
            for frac in [0.01, 0.5, 1.0] {
                let a = accuracy(&c, 50.0, &q(1), epochs, frac, seed());
                assert!((0.0..=1.0).contains(&a), "acc={a}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "data fraction")]
    fn rejects_zero_fraction() {
        let c = LearningCurve::image_classification();
        let _ = accuracy(&c, 18.0, &q(32), 1.0, 0.0, seed());
    }

    #[test]
    fn trajectory_is_monotone_and_ends_at_the_final_accuracy() {
        let c = LearningCurve::image_classification();
        let quality = q(128);
        let traj: Vec<f64> = (1..=20)
            .map(|e| accuracy(&c, 18.0, &quality, f64::from(e), 1.0, seed()))
            .collect();
        for w in traj.windows(2) {
            assert!(w[1] >= w[0] - 0.04, "trajectory must not collapse: {w:?}");
        }
        assert!(
            *traj.last().unwrap() > traj[0],
            "20 epochs beat 1: {traj:?}"
        );
    }

    #[test]
    fn epochs_to_accuracy_inverts_the_curve() {
        let c = LearningCurve::image_classification();
        let quality = q(128);
        let epochs = c.epochs_to_accuracy(18.0, &quality, 1.0, 0.8).unwrap();
        // Running that many epochs should land at the target (± noise).
        let acc = accuracy(&c, 18.0, &quality, epochs, 1.0, seed());
        assert!((acc - 0.8).abs() < 0.05, "epochs={epochs}, acc={acc}");
    }

    #[test]
    fn unreachable_targets_are_none() {
        let c = LearningCurve::image_classification();
        // 10% of the data caps far below 80%.
        assert!(c.epochs_to_accuracy(18.0, &q(128), 0.1, 0.8).is_none());
        // 99% accuracy is above the asymptote.
        assert!(c.epochs_to_accuracy(18.0, &q(128), 1.0, 0.95).is_none());
    }

    #[test]
    fn large_batches_need_more_epochs_to_target() {
        let c = LearningCurve::image_classification();
        let e256 = c.epochs_to_accuracy(18.0, &q(256), 1.0, 0.8).unwrap();
        let e1024 = c.epochs_to_accuracy(18.0, &q(1024), 1.0, 0.8).unwrap();
        assert!(
            e1024 > e256 * 1.5,
            "batch 1024 converges slower: {e256} vs {e1024}"
        );
    }
}
