//! The workload catalog (paper Table 1) and per-workload cost models.

use edgetune_device::profile::WorkProfile;
use edgetune_util::rng::SeedStream;
use serde::{Deserialize, Serialize};

use crate::curve::{LearningCurve, NoiseLabels, TrainingQuality};

/// Workload identifiers, matching the paper's Table 1 IDs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadId {
    /// Image classification: ResNet on CIFAR10.
    Ic,
    /// Speech recognition: M5 on Speech Commands.
    Sr,
    /// Natural language processing: RNN on AG News.
    Nlp,
    /// Object detection: YOLO on COCO.
    Od,
}

impl WorkloadId {
    /// All workloads in the paper's order.
    #[must_use]
    pub fn all() -> [WorkloadId; 4] {
        [
            WorkloadId::Ic,
            WorkloadId::Sr,
            WorkloadId::Nlp,
            WorkloadId::Od,
        ]
    }

    /// The paper's short ID string.
    #[must_use]
    pub fn short_name(self) -> &'static str {
        match self {
            WorkloadId::Ic => "IC",
            WorkloadId::Sr => "SR",
            WorkloadId::Nlp => "NLP",
            WorkloadId::Od => "OD",
        }
    }
}

impl std::fmt::Display for WorkloadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Parses a workload code, case-insensitively: `ic`, `sr`, `nlp` or `od`.
impl std::str::FromStr for WorkloadId {
    type Err = String;

    fn from_str(name: &str) -> Result<Self, String> {
        match name.to_lowercase().as_str() {
            "ic" => Ok(WorkloadId::Ic),
            "sr" => Ok(WorkloadId::Sr),
            "nlp" => Ok(WorkloadId::Nlp),
            "od" => Ok(WorkloadId::Od),
            other => Err(format!("unknown workload '{other}' (ic|sr|nlp|od)")),
        }
    }
}

/// Dataset descriptor, with the sizes of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Dataset name.
    pub name: String,
    /// On-disk size in bytes.
    pub size_bytes: u64,
    /// Number of training files/samples.
    pub train_files: u64,
    /// Number of test files/samples.
    pub test_files: u64,
}

/// One evaluation workload: task, model family, dataset, cost and
/// learning-curve models.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Which workload this is.
    pub id: WorkloadId,
    /// Task type, e.g. "Image Classification".
    pub task: String,
    /// Model family name, e.g. "ResNet".
    pub model: String,
    /// The dataset (Table 1 sizes).
    pub dataset: DatasetSpec,
    /// Name of the tuned model hyperparameter.
    pub model_hp_name: String,
    /// Values the model hyperparameter may take in the evaluation (§5.1).
    pub model_hp_values: Vec<f64>,
    curve: LearningCurve,
}

impl Workload {
    /// Image classification: ResNet on CIFAR10, tuning the number of
    /// layers over {18, 34, 50}.
    #[must_use]
    pub fn image_classification() -> Self {
        Workload {
            id: WorkloadId::Ic,
            task: "Image Classification".to_string(),
            model: "ResNet".to_string(),
            dataset: DatasetSpec {
                name: "CIFAR10".to_string(),
                size_bytes: 163 * 1_000_000,
                train_files: 50_000,
                test_files: 10_000,
            },
            model_hp_name: "layers".to_string(),
            model_hp_values: vec![18.0, 34.0, 50.0],
            curve: LearningCurve::image_classification(),
        }
    }

    /// Speech recognition: M5 on Speech Commands, tuning the embedding
    /// dimension over {32, 64, 128}.
    #[must_use]
    pub fn speech_recognition() -> Self {
        Workload {
            id: WorkloadId::Sr,
            task: "Speech Recognition".to_string(),
            model: "M5".to_string(),
            dataset: DatasetSpec {
                name: "Speech Commands".to_string(),
                size_bytes: (8.17 * 1024.0 * 1024.0 * 1024.0) as u64,
                train_files: 85_511,
                test_files: 4_890,
            },
            model_hp_name: "embed_dim".to_string(),
            model_hp_values: vec![32.0, 64.0, 128.0],
            curve: LearningCurve::speech_recognition(),
        }
    }

    /// Natural language processing: RNN on AG News, tuning the stride
    /// over 1..=32 (powers of two).
    #[must_use]
    pub fn natural_language_processing() -> Self {
        Workload {
            id: WorkloadId::Nlp,
            task: "Natural Language Processing".to_string(),
            model: "RNN".to_string(),
            dataset: DatasetSpec {
                name: "AG News".to_string(),
                size_bytes: 60_100_000,
                train_files: 120_000,
                test_files: 7_600,
            },
            model_hp_name: "stride".to_string(),
            model_hp_values: vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
            curve: LearningCurve::natural_language_processing(),
        }
    }

    /// Object detection: YOLO on COCO, tuning the dropout rate over
    /// 0.1..=0.5.
    #[must_use]
    pub fn object_detection() -> Self {
        Workload {
            id: WorkloadId::Od,
            task: "Object Detection".to_string(),
            model: "YOLO".to_string(),
            dataset: DatasetSpec {
                name: "COCO".to_string(),
                size_bytes: 19_000_000_000,
                train_files: 164_000,
                test_files: 41_000,
            },
            model_hp_name: "dropout".to_string(),
            model_hp_values: vec![0.1, 0.2, 0.3, 0.4, 0.5],
            curve: LearningCurve::object_detection(),
        }
    }

    /// Looks a workload up by ID.
    #[must_use]
    pub fn by_id(id: WorkloadId) -> Self {
        match id {
            WorkloadId::Ic => Workload::image_classification(),
            WorkloadId::Sr => Workload::speech_recognition(),
            WorkloadId::Nlp => Workload::natural_language_processing(),
            WorkloadId::Od => Workload::object_detection(),
        }
    }

    /// All four workloads in the paper's order.
    #[must_use]
    pub fn all() -> Vec<Workload> {
        WorkloadId::all().into_iter().map(Workload::by_id).collect()
    }

    /// The per-sample computational footprint of the architecture selected
    /// by `model_hp` (the tuned model hyperparameter's value).
    ///
    /// # Panics
    ///
    /// Panics if `model_hp` is not finite.
    #[must_use]
    pub fn profile(&self, model_hp: f64) -> WorkProfile {
        assert!(model_hp.is_finite(), "model hyperparameter must be finite");
        match self.id {
            WorkloadId::Ic => {
                // CIFAR-ResNet: FLOPs/params grow with depth.
                let (flops, params_m, act_mb) = if model_hp < 26.0 {
                    (0.56e9, 11.2, 3.0)
                } else if model_hp < 42.0 {
                    (1.16e9, 21.3, 4.6)
                } else {
                    (1.30e9, 23.5, 9.2)
                };
                WorkProfile::new(flops, act_mb * 1e6, params_m * 1e6 * 4.0)
            }
            WorkloadId::Sr => {
                // M5 on 1s/16kHz audio: cost roughly linear in embed dim.
                let dim = model_hp.max(8.0);
                let flops = 0.55e9 * dim / 64.0;
                let params = (0.56e6 * dim / 64.0) * 4.0;
                WorkProfile::new(flops, 1.2e6 * dim / 64.0, params)
            }
            WorkloadId::Nlp => {
                // RNN over token sequences: stride s processes ~1/s of the
                // positions.
                let stride = model_hp.max(1.0);
                let flops = (0.24e9 / stride).max(0.012e9);
                WorkProfile::new(flops, (0.8e6 / stride).max(0.05e6), 7.5e6 * 4.0)
            }
            WorkloadId::Od => {
                // YOLO at 416x416: dropout does not change inference cost.
                WorkProfile::new(8.5e9, 30.0e6, 61.5e6 * 4.0)
            }
        }
    }

    /// A stable string identifying the *architecture structure* selected
    /// by `model_hp` — the Inference Tuning Server's historical-cache key
    /// (§3.4): training-only hyperparameters (batch, epochs) deliberately
    /// do not appear in it.
    #[must_use]
    pub fn arch_signature(&self, model_hp: f64) -> String {
        format!("{}/{}={}", self.model, self.model_hp_name, model_hp)
    }

    /// Simulated final validation accuracy of a training trial.
    ///
    /// * `labels` — the caller's memo of noise-label pieces,
    /// * `model_hp` — the architecture hyperparameter value,
    /// * `quality` — batch-size quality of the trial,
    /// * `epochs` — number of epochs actually run,
    /// * `data_fraction` — fraction of the training data used,
    /// * `seed` — noise seed (same seed → same accuracy).
    #[must_use]
    pub fn simulated_accuracy(
        &self,
        labels: &mut NoiseLabels,
        model_hp: f64,
        quality: &TrainingQuality,
        epochs: f64,
        data_fraction: f64,
        seed: SeedStream,
    ) -> f64 {
        self.curve
            .accuracy(labels, model_hp, quality, epochs, data_fraction, seed)
    }

    /// Epochs needed to reach `target` accuracy under a training
    /// configuration; `None` when unreachable. See
    /// [`crate::curve::LearningCurve::epochs_to_accuracy`].
    #[must_use]
    pub fn epochs_to_accuracy(
        &self,
        model_hp: f64,
        quality: &TrainingQuality,
        data_fraction: f64,
        target: f64,
    ) -> Option<f64> {
        self.curve
            .epochs_to_accuracy(model_hp, quality, data_fraction, target)
    }

    /// Samples per epoch at a dataset fraction.
    #[must_use]
    pub fn samples_at_fraction(&self, data_fraction: f64) -> u64 {
        ((self.dataset.train_files as f64) * data_fraction.clamp(0.0, 1.0)).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_table1() {
        let all = Workload::all();
        assert_eq!(all.len(), 4);
        let ic = &all[0];
        assert_eq!(ic.dataset.train_files, 50_000);
        assert_eq!(ic.dataset.test_files, 10_000);
        assert_eq!(ic.model, "ResNet");
        let sr = &all[1];
        assert_eq!(sr.dataset.train_files, 85_511);
        assert_eq!(sr.model, "M5");
        let nlp = &all[2];
        assert_eq!(nlp.dataset.name, "AG News");
        assert_eq!(nlp.dataset.train_files, 120_000);
        let od = &all[3];
        assert_eq!(od.dataset.train_files, 164_000);
        assert_eq!(od.dataset.test_files, 41_000);
    }

    #[test]
    fn resnet_cost_grows_with_depth() {
        let ic = Workload::image_classification();
        let p18 = ic.profile(18.0);
        let p34 = ic.profile(34.0);
        let p50 = ic.profile(50.0);
        assert!(p18.flops_per_sample < p34.flops_per_sample);
        assert!(p34.flops_per_sample < p50.flops_per_sample);
        assert!(p18.param_bytes < p50.param_bytes);
    }

    #[test]
    fn m5_cost_scales_with_embed_dim() {
        let sr = Workload::speech_recognition();
        assert!(sr.profile(32.0).flops_per_sample < sr.profile(128.0).flops_per_sample);
    }

    #[test]
    fn rnn_cost_falls_with_stride() {
        let nlp = Workload::natural_language_processing();
        assert!(nlp.profile(1.0).flops_per_sample > nlp.profile(32.0).flops_per_sample);
        // Floor keeps cost positive.
        assert!(nlp.profile(1000.0).flops_per_sample > 0.0);
    }

    #[test]
    fn yolo_cost_is_dropout_invariant() {
        let od = Workload::object_detection();
        assert_eq!(
            od.profile(0.1).flops_per_sample,
            od.profile(0.5).flops_per_sample
        );
        // And much heavier than the IC workload.
        let ic = Workload::image_classification();
        assert!(od.profile(0.3).flops_per_sample > 5.0 * ic.profile(50.0).flops_per_sample);
    }

    /// `simulated_accuracy` bits at seed 42, pinned when the noise label
    /// was still formatted whole per trial: the label's bytes, and so the
    /// noise, must not move.
    #[test]
    fn simulated_accuracy_bits_are_pinned() {
        #[rustfmt::skip]
        let pinned: [(WorkloadId, u32, f64, f64, u64); 12] = [
            (WorkloadId::Ic, 32, 2.0, 0.1, 0x3fc2_af28_1109_08eb),
            (WorkloadId::Ic, 96, 6.0, 0.1 * 3.0, 0x3fe0_3447_2e3e_dc08),
            (WorkloadId::Ic, 512, 10.0, 1.0, 0x3fe7_dad8_c840_f3c9),
            (WorkloadId::Sr, 32, 2.0, 0.1, 0x3fc4_7434_4b55_f301),
            (WorkloadId::Sr, 96, 6.0, 0.1 * 3.0, 0x3fde_93f8_752c_1c12),
            (WorkloadId::Sr, 512, 10.0, 1.0, 0x3fe6_63ad_f684_ae71),
            (WorkloadId::Nlp, 32, 2.0, 0.1, 0x3fc5_908d_279f_0588),
            (WorkloadId::Nlp, 96, 6.0, 0.1 * 3.0, 0x3fe0_4a49_f374_1dc7),
            (WorkloadId::Nlp, 512, 10.0, 1.0, 0x3fe8_55d1_171a_5271),
            (WorkloadId::Od, 32, 2.0, 0.1, 0x3fa6_1424_b9de_3e1b),
            (WorkloadId::Od, 96, 6.0, 0.1 * 3.0, 0x3fc9_48eb_82ad_52d2),
            (WorkloadId::Od, 512, 10.0, 1.0, 0x3fd2_b413_3fce_6b79),
        ];
        let mut warm = NoiseLabels::default();
        for _ in 0..2 {
            for (id, batch, epochs, fraction, bits) in pinned {
                let w = Workload::by_id(id);
                let accuracy = w.simulated_accuracy(
                    &mut warm,
                    w.model_hp_values[1],
                    &TrainingQuality::from_batch(batch),
                    epochs,
                    fraction,
                    SeedStream::new(42),
                );
                assert_eq!(
                    accuracy.to_bits(),
                    bits,
                    "{id:?} batch {batch} epochs {epochs} fraction {fraction}: {accuracy}"
                );
            }
        }
    }

    #[test]
    fn arch_signature_ignores_training_hyperparameters() {
        let ic = Workload::image_classification();
        // Same model hp => same signature, regardless of anything else.
        assert_eq!(ic.arch_signature(18.0), ic.arch_signature(18.0));
        assert_ne!(ic.arch_signature(18.0), ic.arch_signature(34.0));
        assert!(ic.arch_signature(18.0).contains("layers"));
    }

    #[test]
    fn samples_at_fraction_scales_and_clamps() {
        let ic = Workload::image_classification();
        assert_eq!(ic.samples_at_fraction(1.0), 50_000);
        assert_eq!(ic.samples_at_fraction(0.1), 5_000);
        assert_eq!(ic.samples_at_fraction(2.0), 50_000);
    }

    #[test]
    fn ids_round_trip_and_display() {
        for id in WorkloadId::all() {
            assert_eq!(Workload::by_id(id).id, id);
        }
        assert_eq!(WorkloadId::Ic.to_string(), "IC");
        assert_eq!(WorkloadId::Od.to_string(), "OD");
    }
}
