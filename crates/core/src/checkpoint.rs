//! Study checkpoints: serialize tuning progress after each rung so an
//! interrupted run can resume and finish with the *exact* history an
//! uninterrupted run would have produced.
//!
//! Determinism is the whole point, so the format is built for exact
//! round-trips: trial scores are stored as raw IEEE-754 bits
//! (`f64::to_bits`) because failed trials carry `f64::INFINITY`
//! penalties, which plain JSON would flatten to `null`. Alongside the
//! trial log the checkpoint records the two fault-injection cursors —
//! the training backend's draw counter and the inference server's
//! request sequence — so a resumed run replays the same fate for every
//! *future* trial and request as the uninterrupted run, and every piece
//! of study-global state ([`StudyGlobals`]) the trial log alone cannot
//! reproduce — replayed trials never rerun inference sweeps, and cache
//! hit/miss counters are `#[serde(skip)]` inside the cache itself — so a
//! resumed run serialises the exact report bytes of the uninterrupted
//! run.
//!
//! There is one layout: a [`StudyCheckpoint`] in one atomically renamed
//! file at the configured path. The coordinator holds the study's one
//! history whole — engine shards only measure rung slices and hand the
//! numbers back — so the file's bytes do not depend on `study_shards`
//! or `shard_exec`, and a study halted under one shard count resumes
//! under any other. Every field is required: a file that lacks one (or
//! is torn, or is some other format) is a structured error, or — when
//! the degradation ladder is armed — a fresh, still deterministic,
//! start; never a resume from partial state.

use std::path::Path;

use edgetune_faults::DegradationStats;
use edgetune_tuner::budget::TrialBudget;
use edgetune_tuner::pareto::ObjectiveVector;
use edgetune_tuner::space::Config;
use edgetune_tuner::{History, TrialFailure, TrialOutcome, TrialRecord};
use edgetune_util::units::{Joules, Seconds};
use edgetune_util::{Error, Result};
use serde::{Deserialize, Serialize};

use crate::cache::{CacheStats, HistoricalCache};
use crate::timeline::Timeline;

/// One trial in checkpoint form. Identical to [`TrialRecord`] except the
/// score travels as raw bits so non-finite penalties survive JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CheckpointTrial {
    id: u64,
    config: Config,
    budget: TrialBudget,
    /// `f64::to_bits` of the scheduler score — exact for every value,
    /// including the infinite penalties of failed trials.
    score_bits: u64,
    accuracy: f64,
    runtime: Seconds,
    energy: Joules,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    failure: Option<TrialFailure>,
    /// Pareto objective vector of the trial, when the study ran in
    /// `--pareto` mode. Absent (and skipped) in scalar studies so their
    /// checkpoints are byte-identical to pre-Pareto builds.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    vector: Option<ObjectiveVector>,
}

impl From<&TrialRecord> for CheckpointTrial {
    fn from(record: &TrialRecord) -> Self {
        CheckpointTrial {
            id: record.id,
            config: record.config.clone(),
            budget: record.budget,
            score_bits: record.outcome.score.to_bits(),
            accuracy: record.outcome.accuracy,
            runtime: record.outcome.runtime,
            energy: record.outcome.energy,
            failure: record.outcome.failure,
            vector: record.outcome.vector,
        }
    }
}

impl From<&CheckpointTrial> for TrialRecord {
    fn from(trial: &CheckpointTrial) -> Self {
        TrialRecord {
            id: trial.id,
            config: trial.config.clone(),
            budget: trial.budget,
            outcome: TrialOutcome {
                score: f64::from_bits(trial.score_bits),
                accuracy: trial.accuracy,
                runtime: trial.runtime,
                energy: trial.energy,
                failure: trial.failure,
                vector: trial.vector,
            },
        }
    }
}

/// A resumable snapshot of a tuning study, written after each completed
/// rung: the trial log plus the study's [`StudyGlobals`], field for
/// field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyCheckpoint {
    /// The seed the interrupted study ran under. Resuming under a
    /// different seed would silently diverge, so loads verify it.
    pub seed: u64,
    trials: Vec<CheckpointTrial>,
    // The study's `StudyGlobals`, one required key each.
    cache: HistoricalCache,
    fault_cursor: u64,
    inference_cursor: u64,
    cache_stats: CacheStats,
    timeline: Timeline,
    stall: Seconds,
    inference_energy: Joules,
    degradation: DegradationStats,
    backoff_draws: u64,
    injected_losses: u64,
    injected_outages: u64,
}

/// The study-global state a checkpoint carries beyond the trial log:
/// everything the orchestrator must reinstate — on top of replaying the
/// trials — for a resumed run to serialise the same report bytes as the
/// uninterrupted run. `Default` is the state of a study that has not
/// started.
#[derive(Debug, Clone, Default)]
pub struct StudyGlobals {
    /// The historical cache (inference results are the expensive part of
    /// a rung — no reason to recompute them).
    pub cache: HistoricalCache,
    /// The cache's hit/miss counters, carried separately because they
    /// are `#[serde(skip)]` inside [`HistoricalCache`]. Read from
    /// [`AsyncInferenceServer::cache_stats`](crate::async_server::AsyncInferenceServer::cache_stats)
    /// — the same single tally the trace's cache counter events sample,
    /// so checkpoints and traces can never disagree about them.
    pub cache_stats: CacheStats,
    /// Every timeline span recorded so far. Replayed trials skip
    /// inference sweeps entirely, so the spans of the completed prefix
    /// can only come from here.
    pub timeline: Timeline,
    /// Accumulated model-server stall time.
    pub stall: Seconds,
    /// Accumulated inference-sweep energy.
    pub inference_energy: Joules,
    /// Degradation-ladder counters (all zero without an active fault
    /// plan).
    pub degradation: DegradationStats,
    /// Supervisor backoff-jitter draws consumed so far, so retried
    /// operations after a resume never reuse a jitter value the
    /// interrupted run already spent.
    pub backoff_draws: u64,
    /// Training-backend fault-draw cursor: how many trial fates the
    /// injector has already decided.
    pub fault_cursor: u64,
    /// Inference-server request sequence: how many requests have been
    /// submitted (each one's fate is keyed by its sequence number).
    pub inference_cursor: u64,
    /// Inference requests dropped by injected worker deaths so far.
    /// Replayed trials never resubmit their requests, so the prefix's
    /// injected-fault tallies can only come from here.
    pub injected_losses: u64,
    /// Inference sweeps delayed by injected device outages so far.
    pub injected_outages: u64,
}

impl StudyCheckpoint {
    /// Snapshots a study in progress.
    #[must_use]
    pub fn new(seed: u64, history: &History, globals: StudyGlobals) -> Self {
        StudyCheckpoint {
            seed,
            trials: history
                .records()
                .iter()
                .map(CheckpointTrial::from)
                .collect(),
            cache: globals.cache,
            fault_cursor: globals.fault_cursor,
            inference_cursor: globals.inference_cursor,
            cache_stats: globals.cache_stats,
            timeline: globals.timeline,
            stall: globals.stall,
            inference_energy: globals.inference_energy,
            degradation: globals.degradation,
            backoff_draws: globals.backoff_draws,
            injected_losses: globals.injected_losses,
            injected_outages: globals.injected_outages,
        }
    }

    /// Takes the checkpoint apart into what a resume reinstates: the
    /// trial log to replay, bit-exact and in execution order, and the
    /// study-global state.
    #[must_use]
    pub fn into_parts(self) -> (Vec<TrialRecord>, StudyGlobals) {
        let trials = self.trials.iter().map(TrialRecord::from).collect();
        let globals = StudyGlobals {
            cache: self.cache,
            cache_stats: self.cache_stats,
            timeline: self.timeline,
            stall: self.stall,
            inference_energy: self.inference_energy,
            degradation: self.degradation,
            backoff_draws: self.backoff_draws,
            fault_cursor: self.fault_cursor,
            inference_cursor: self.inference_cursor,
            injected_losses: self.injected_losses,
            injected_outages: self.injected_outages,
        };
        (trials, globals)
    }

    /// Writes the checkpoint atomically (`.tmp` sibling + rename), the
    /// same crash-safety discipline as [`HistoricalCache::save`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Storage`] on I/O or serialisation failure.
    pub fn save(&self, path: &Path) -> Result<()> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| Error::storage(format!("serialising checkpoint: {e}")))?;
        let file_name = path.file_name().ok_or_else(|| {
            Error::storage(format!(
                "checkpoint path {} has no file name",
                path.display()
            ))
        })?;
        let mut tmp_name = file_name.to_os_string();
        tmp_name.push(".tmp");
        let tmp = path.with_file_name(tmp_name);
        std::fs::write(&tmp, json)?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Loads a checkpoint written by [`StudyCheckpoint::save`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Storage`] when the file is missing, unreadable,
    /// or not a valid checkpoint (a checkpoint is exact state — unlike
    /// the historical cache there is no lenient mode here; a corrupt
    /// checkpoint must not silently resume from wrong state).
    pub fn load(path: &Path) -> Result<Self> {
        Self::parse(&std::fs::read(path)?, path)
    }

    /// Decodes the bytes found at `path`; anything but a complete
    /// checkpoint — undecodable text included — is an error naming the
    /// path.
    fn parse(bytes: &[u8], path: &Path) -> Result<Self> {
        std::str::from_utf8(bytes)
            .map_err(|e| e.to_string())
            .and_then(|json| serde_json::from_str(json).map_err(|e| e.to_string()))
            .map_err(|e| Error::storage(format!("parsing checkpoint {}: {e}", path.display())))
    }
}

/// Reads the checkpoint a resume starts from. `None` — re-run the study
/// from scratch, which is deterministic and so still reproduces the
/// exact bytes an uninterrupted run would have produced — is returned
/// only when `allow_degraded` is set (the degradation ladder is armed)
/// and the content at `path` is not a complete checkpoint.
///
/// # Errors
///
/// Returns [`Error::Storage`] when the file is missing or unreadable,
/// or when its content is corrupt and `allow_degraded` is off.
pub fn load_resume_state(path: &Path, allow_degraded: bool) -> Result<Option<StudyCheckpoint>> {
    let bytes = std::fs::read(path)?;
    match StudyCheckpoint::parse(&bytes, path) {
        Ok(checkpoint) => Ok(Some(checkpoint)),
        Err(_) if allow_degraded => Ok(None),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheKey;
    use crate::inference::InferenceRecommendation;
    use edgetune_tuner::Metric;
    use edgetune_util::units::{Hertz, ItemsPerSecond, JoulesPerItem};

    fn record(id: u64, score: f64) -> TrialRecord {
        TrialRecord {
            id,
            config: Config::new().with("batch", 8.0).with("lr", 0.01),
            budget: TrialBudget::new(4.0, 1.0),
            outcome: TrialOutcome::new(score, 0.8, Seconds::new(12.0), Joules::new(30.0)),
        }
    }

    fn failed_record(id: u64) -> TrialRecord {
        TrialRecord {
            id,
            config: Config::new().with("batch", 16.0),
            budget: TrialBudget::new(2.0, 1.0),
            outcome: TrialOutcome::failed(TrialFailure::Crash, Seconds::new(3.0), Joules::new(7.0)),
        }
    }

    fn sample_cache() -> HistoricalCache {
        let mut cache = HistoricalCache::new();
        cache.store(
            &CacheKey::new("Raspberry Pi 3B+", "ResNet/layers=18", Metric::Runtime),
            InferenceRecommendation {
                device: "Raspberry Pi 3B+".to_string(),
                batch: 8,
                cores: 4,
                freq: Hertz::from_ghz(1.4),
                latency_per_item: Seconds::new(0.05),
                energy_per_item: JoulesPerItem::new(0.3),
                throughput: ItemsPerSecond::new(20.0),
            },
        );
        cache
    }

    fn globals_with(
        cache: HistoricalCache,
        fault_cursor: u64,
        inference_cursor: u64,
    ) -> StudyGlobals {
        StudyGlobals {
            cache,
            fault_cursor,
            inference_cursor,
            ..StudyGlobals::default()
        }
    }

    #[test]
    fn history_round_trips_through_json_including_infinite_scores() {
        let mut history = History::new();
        history.push(record(0, 1.25));
        history.push(failed_record(1));
        history.push(record(2, 0.75));
        let ckpt = StudyCheckpoint::new(42, &history, globals_with(sample_cache(), 7, 11));
        let json = serde_json::to_string(&ckpt).unwrap();
        let back: StudyCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back.seed, 42);
        assert_eq!(back.fault_cursor, 7);
        assert_eq!(back.inference_cursor, 11);
        assert_eq!(back.cache.len(), 1);
        let (trials, _) = back.into_parts();
        assert_eq!(trials, history.records(), "bit-exact history round-trip");
        assert!(trials[1].outcome.score.is_infinite());
    }

    #[test]
    fn save_load_round_trip_is_atomic() {
        let mut history = History::new();
        history.push(record(0, 2.0));
        let globals = StudyGlobals {
            cache_stats: CacheStats { hits: 5, misses: 2 },
            stall: Seconds::new(1.5),
            inference_energy: Joules::new(4.0),
            ..globals_with(sample_cache(), 3, 9)
        };
        let ckpt = StudyCheckpoint::new(9, &history, globals);
        let dir = std::env::temp_dir().join("edgetune-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("study.ckpt.json");
        ckpt.save(&path).unwrap();
        assert!(!dir.join("study.ckpt.json.tmp").exists());
        let loaded = StudyCheckpoint::load(&path).unwrap();
        assert_eq!(loaded, ckpt);
        // The resume reader is the same parse, and hands the state back
        // whole.
        let resumed = load_resume_state(&path, false).unwrap();
        assert_eq!(resumed.as_ref(), Some(&ckpt));
        let (replay, globals) = resumed.unwrap().into_parts();
        assert_eq!(replay, history.records());
        assert_eq!(
            globals.cache_stats,
            CacheStats { hits: 5, misses: 2 },
            "serde-skipped counters must survive through the checkpoint"
        );
        assert_eq!(globals.stall, Seconds::new(1.5));
        assert_eq!(globals.inference_energy, Joules::new(4.0));
        assert_eq!((globals.fault_cursor, globals.inference_cursor), (3, 9));
        assert_eq!(globals.cache.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_checkpoints_are_rejected_not_salvaged() {
        let dir = std::env::temp_dir().join("edgetune-checkpoint-corrupt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("study.ckpt.json");
        std::fs::write(&path, "{\"seed\": 42, \"trials\": [tor").unwrap();
        assert!(StudyCheckpoint::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_state_degrades_to_fresh_only_when_the_ladder_is_armed() {
        let dir = std::env::temp_dir().join("edgetune-checkpoint-degrade-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("study.ckpt.json");
        let mut history = History::new();
        history.push(record(0, 1.0));
        let ckpt = StudyCheckpoint::new(3, &history, globals_with(sample_cache(), 2, 4));
        let intact = serde_json::to_value(&ckpt).unwrap();

        let mut corrupt: Vec<(String, Vec<u8>)> = vec![
            (
                "torn JSON".into(),
                b"{\"seed\": 42, \"trials\": [tor".to_vec(),
            ),
            ("torn into invalid UTF-8".into(), vec![0xff, 0xfe]),
            (
                // What a sharded study left at the path before there was
                // one layout; its trials lived in sibling files.
                "a shard manifest".into(),
                {
                    let mut manifest = intact.clone();
                    let obj = manifest.as_object_mut().unwrap();
                    obj.remove("trials");
                    obj.insert("shards", serde_json::json!(2));
                    obj.insert(
                        "shard_files",
                        serde_json::json!(["study.ckpt.json.shard0", "study.ckpt.json.shard1"]),
                    );
                    serde_json::to_string(&manifest).unwrap().into_bytes()
                },
            ),
        ];
        // Every key is required: state the trial log cannot reproduce
        // is never defaulted.
        for field in intact.as_object().unwrap().keys() {
            let mut partial = intact.clone();
            partial.as_object_mut().unwrap().remove(field);
            corrupt.push((
                format!("a checkpoint without `{field}`"),
                serde_json::to_string(&partial).unwrap().into_bytes(),
            ));
        }
        assert_eq!(corrupt.len(), 3 + 13, "seed, trials and eleven globals");

        for (what, bytes) in corrupt {
            std::fs::write(&path, bytes).unwrap();
            assert_eq!(
                load_resume_state(&path, true).unwrap(),
                None,
                "{what} must restart fresh under an armed ladder"
            );
            let err = load_resume_state(&path, false).expect_err(&what);
            assert!(
                matches!(&err, Error::Storage(msg) if msg.contains("study.ckpt.json")),
                "{what}: {err:?} must be a storage error naming the path"
            );
        }
        std::fs::remove_file(&path).ok();
        assert!(
            load_resume_state(&path, true).is_err(),
            "a missing file is a hard error even under an armed ladder"
        );
    }
}
