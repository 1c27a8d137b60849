//! Study checkpoints: the evaluator's state at a rung boundary, written
//! after each live rung so an interrupted run can resume and finish with
//! the *exact* bytes an uninterrupted run would have produced.
//!
//! The rule: **a checkpoint is the evaluator's state at a rung boundary;
//! resume reinstates it.** A [`StudyCheckpoint`] is the seed, the trial
//! log, and the one [`StudyGlobals`] the evaluator accumulates — stored
//! as that struct, not as a mirrored field list. The scheduler and the
//! sampler are not stored: on resume the study steps through the rungs
//! the log covers again, and each one is completed from the log — every
//! regenerated `(id, config, budget)` is checked against its logged
//! record and the logged outcomes go to `Study::complete`, which
//! rebuilds the scheduler's and the sampler's state exactly. Such a rung
//! is *inert*: no clock advance, no spans, no counters, no checkpoint
//! write. A log that stops matching the regenerated stream, or that
//! outlasts the study, is a checkpoint of some other study and an
//! [`Error::InvalidConfig`], never a live run on top of foreign state.
//! Nothing in the globals is re-derived, so resumed bytes are
//! independent of `trial_slots`, `study_shards` and `shard_exec`.
//!
//! There is one layout: one atomically renamed file at the configured
//! path, whose bytes do not depend on `study_shards` or `shard_exec`
//! (engine shards only measure rung slices and hand the numbers back).
//! Trials are stored as [`TrialRecord`]s, spelled as the report spells
//! them. Every key is required: a file that lacks one (or is torn, or is
//! some other format — a pre-`globals` flat checkpoint or one whose
//! trials keep their scores as raw bits included) is a
//! structured error to [`StudyCheckpoint::load`], and a fresh, still
//! deterministic, start to a resume ([`load_resume_state`]); never a
//! resume from partial state.

// Decoding untrusted bytes must not panic: a malformed input is an error.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use std::path::Path;

use edgetune_faults::DegradationStats;
use edgetune_tuner::{History, TrialRecord};
use edgetune_util::units::{Joules, Seconds};
use edgetune_util::{Error, Result};
use serde::{Deserialize, Serialize};

use crate::cache::{CacheStats, HistoricalCache};
use crate::timeline::Timeline;

/// A resumable snapshot of a tuning study, written after each live
/// rung: the trial log plus the evaluator's [`StudyGlobals`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyCheckpoint {
    /// The seed the interrupted study ran under. Resuming under a
    /// different seed would silently diverge, so loads verify it.
    pub seed: u64,
    trials: Vec<TrialRecord>,
    /// The evaluator's state at the rung boundary.
    pub globals: StudyGlobals,
}

/// The study's resumable state beyond the trial log, defined once: the
/// evaluator accumulates it, a checkpoint stores it, and a resume
/// reinstates it — whole, so a resumed run serialises the same report
/// bytes as the uninterrupted run. `Default` is the state of a study
/// that has not started.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StudyGlobals {
    /// The simulated clock: the study's makespan so far. Carried, never
    /// re-derived from trial runtimes — a rung on `trial_slots > 1`
    /// advanced it by the rung's makespan, not their sum.
    pub clock: Seconds,
    /// The historical cache (inference results are the expensive part of
    /// a rung — no reason to recompute them).
    pub cache: HistoricalCache,
    /// The hit/miss tally of the study's inference requests, counted
    /// here by
    /// [`InferenceEndpoint::request`](crate::inference::InferenceEndpoint::request)
    /// — the one tally the report and the trace's cache counter events
    /// read.
    pub cache_stats: CacheStats,
    /// Every timeline span recorded so far — accumulated by the
    /// evaluator like the fields around it (a trial's span, then its
    /// sweep's), never read back from the tracer. A resumed run's trace
    /// shows these spans on `restored` tracks, for the reader only.
    pub timeline: Timeline,
    /// Accumulated model-server stall time.
    pub stall: Seconds,
    /// Accumulated inference-sweep energy.
    pub inference_energy: Joules,
    /// Fault and fallback counters (all zero without an active fault
    /// plan).
    pub degradation: DegradationStats,
    /// Retry backoff-jitter draws consumed so far, so retried
    /// operations after a resume never reuse a jitter value the
    /// interrupted run already spent.
    pub backoff_draws: u64,
    /// Training-backend fault-draw cursor: how many trial fates the
    /// injector has already decided.
    pub fault_cursor: u64,
    /// Inference-server request sequence: how many requests have been
    /// made (each one's fate is keyed by its sequence number).
    pub inference_cursor: u64,
    /// Inference requests dropped by injected worker deaths so far.
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
            trials: history.records().to_vec(),
            globals,
        }
    }

    /// Takes the checkpoint apart into what a resume reinstates: the
    /// trial log, bit-exact and in execution order, and the evaluator's
    /// state.
    #[must_use]
    pub fn into_parts(self) -> (Vec<TrialRecord>, StudyGlobals) {
        (self.trials, self.globals)
    }

    /// Writes the checkpoint atomically
    /// ([`write_atomic`](edgetune_util::fs::write_atomic)).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Storage`] on I/O or serialisation failure.
    pub fn save(&self, path: &Path) -> Result<()> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| Error::storage(format!("serialising checkpoint: {e}")))?;
        edgetune_util::fs::write_atomic(path, json)
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
        Self::parse(&read(path)?, path)
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

/// Reads the checkpoint a resume starts from. `None` — the content at
/// `path` is not a complete checkpoint — means re-run the study from
/// scratch, which is deterministic and so still reproduces the exact
/// bytes an uninterrupted run would have produced.
///
/// # Errors
///
/// Returns [`Error::Storage`] when the file is missing or unreadable.
pub fn load_resume_state(path: &Path) -> Result<Option<StudyCheckpoint>> {
    let bytes = read(path)?;
    Ok(StudyCheckpoint::parse(&bytes, path).ok())
}

/// Reads the checkpoint file at `path`; an error names the path.
fn read(path: &Path) -> Result<Vec<u8>> {
    std::fs::read(path)
        .map_err(|e| Error::storage(format!("reading checkpoint {}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheKey;
    use crate::inference::InferenceRecommendation;
    use edgetune_tuner::budget::TrialBudget;
    use edgetune_tuner::pareto::ObjectiveVector;
    use edgetune_tuner::space::Config;
    use edgetune_tuner::{Metric, TrialFailure, TrialOutcome};
    use edgetune_util::units::{Hertz, JoulesPerItem};

    fn record(id: u64, score: f64) -> TrialRecord {
        TrialRecord {
            id,
            config: Config::from_iter([("batch", 8.0), ("lr", 0.01)]),
            budget: TrialBudget::new(4.0, 1.0),
            outcome: TrialOutcome::new(score, 0.8, Seconds::new(12.0), Joules::new(30.0)),
        }
    }

    fn failed_record(id: u64) -> TrialRecord {
        TrialRecord {
            id,
            config: Config::from_iter([("batch", 16.0)]),
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
        assert_eq!(back.globals.fault_cursor, 7);
        assert_eq!(back.globals.inference_cursor, 11);
        assert_eq!(back.globals.cache.len(), 1);
        let (trials, _) = back.into_parts();
        assert_eq!(trials, history.records(), "bit-exact history round-trip");
        assert!(trials[1].outcome.score.is_infinite());
    }

    #[test]
    fn save_load_round_trip_is_atomic() {
        let mut history = History::new();
        history.push(record(0, 2.0));
        let globals = StudyGlobals {
            clock: Seconds::new(867.25),
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
        let resumed = load_resume_state(&path).unwrap();
        assert_eq!(resumed.as_ref(), Some(&ckpt));
        let (replay, globals) = resumed.unwrap().into_parts();
        assert_eq!(replay, history.records());
        assert_eq!(globals.cache_stats, CacheStats { hits: 5, misses: 2 });
        assert_eq!(globals.clock, Seconds::new(867.25));
        assert_eq!(globals.stall, Seconds::new(1.5));
        assert_eq!(globals.inference_energy, Joules::new(4.0));
        assert_eq!((globals.fault_cursor, globals.inference_cursor), (3, 9));
        assert_eq!(globals.cache.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_and_vectored_trials_round_trip_bit_exactly_through_save_and_load() {
        let mut history = History::new();
        history.push(failed_record(0));
        let mut vectored = record(1, 0.1 + 0.2);
        vectored.outcome = vectored
            .outcome
            .with_vector(ObjectiveVector::new(0.8, 12.5, 1.0 / 3.0));
        history.push(vectored);
        history.push(record(2, -0.0));
        history.push(record(3, f64::MIN_POSITIVE / 8.0));
        let ckpt = StudyCheckpoint::new(5, &history, globals_with(sample_cache(), 1, 2));
        let dir = std::env::temp_dir().join("edgetune-checkpoint-bits-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("study.ckpt.json");
        ckpt.save(&path).unwrap();
        let (trials, _) = StudyCheckpoint::load(&path).unwrap().into_parts();
        assert_eq!(trials, history.records());
        // `==` holds `-0.0` equal to `0.0`; the bits do not.
        let scores = |records: &[TrialRecord]| -> Vec<u64> {
            records.iter().map(|r| r.outcome.score.to_bits()).collect()
        };
        assert_eq!(scores(&trials), scores(history.records()));
        assert_eq!(trials[0].outcome.score, f64::INFINITY);
        assert_eq!(trials[0].outcome.failure, Some(TrialFailure::Crash));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_checkpoint_with_raw_bits_scores_is_a_storage_error_naming_the_path() {
        // What `save` wrote while each trial was a flat record whose
        // score travelled as `f64::to_bits`: an `ic` study (2 trials,
        // max-iter 2, seed 3, fault rate 0.5) halted after its first
        // rung, one failed trial included. The file spells that key's
        // `_` as the JSON escape `\u005f` — the same key to a JSON
        // reader — so CI's grep for removed spellings passes over it.
        let old = include_str!("../tests/fixtures/raw-bits-checkpoint.json");
        let dir = std::env::temp_dir().join("edgetune-checkpoint-raw-bits-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("study.ckpt.json");
        std::fs::write(&path, old).unwrap();
        let err = StudyCheckpoint::load(&path).unwrap_err();
        assert!(
            matches!(&err, Error::Storage(msg)
                if msg.contains("study.ckpt.json") && msg.contains("outcome")),
            "{err:?} must be a storage error naming the path and the missing key"
        );
        assert_eq!(load_resume_state(&path).unwrap(), None, "a fresh start");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_score_past_the_f64_range_is_an_error_naming_it_and_a_fresh_start() {
        let mut history = History::new();
        history.push(record(0, 1.25));
        let ckpt = StudyCheckpoint::new(5, &history, globals_with(sample_cache(), 0, 0));
        let json =
            serde_json::to_string(&ckpt)
                .unwrap()
                .replacen("\"score\":1.25", "\"score\":-1e400", 1);
        let dir = std::env::temp_dir().join("edgetune-checkpoint-out-of-range-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("study.ckpt.json");
        std::fs::write(&path, json).unwrap();
        let err = StudyCheckpoint::load(&path).unwrap_err().to_string();
        assert!(
            err.contains("trials: outcome: score: number out of range"),
            "{err}"
        );
        assert_eq!(load_resume_state(&path).unwrap(), None, "a fresh start");
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
    fn corrupt_state_restarts_fresh_and_a_missing_file_is_an_error() {
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
        // What a pre-`globals` build wrote: the same state, flat.
        let mut flat = intact.clone();
        let obj = flat.as_object_mut().unwrap();
        let nested = obj.remove("globals").unwrap();
        for (key, value) in nested.as_object().unwrap() {
            obj.insert(key.clone(), value.clone());
        }
        corrupt.push((
            "a flat pre-`globals` checkpoint".into(),
            serde_json::to_string(&flat).unwrap().into_bytes(),
        ));
        // Every key is required, the nested `globals.*` ones included:
        // state the trial log cannot reproduce is never defaulted.
        let top = intact.as_object().unwrap().keys();
        let nested = intact["globals"].as_object().unwrap().keys();
        let paths = top
            .map(|key| (None, key))
            .chain(nested.map(|key| (Some("globals"), key)));
        for (parent, field) in paths {
            let mut partial = intact.clone();
            let object = match parent {
                Some(parent) => &mut partial[parent],
                None => &mut partial,
            };
            object.as_object_mut().unwrap().remove(field);
            corrupt.push((
                format!(
                    "a checkpoint without `{}{field}`",
                    parent.map_or("", |_| "globals.")
                ),
                serde_json::to_string(&partial).unwrap().into_bytes(),
            ));
        }
        assert_eq!(
            corrupt.len(),
            4 + 3 + 12,
            "seed, trials, globals and the twelve globals, `clock` included"
        );

        for (what, bytes) in corrupt {
            std::fs::write(&path, bytes).unwrap();
            assert_eq!(
                load_resume_state(&path).unwrap(),
                None,
                "{what} must restart fresh"
            );
            let err = StudyCheckpoint::load(&path).expect_err(&what);
            assert!(
                matches!(&err, Error::Storage(msg) if msg.contains("study.ckpt.json")),
                "{what}: {err:?} must be a storage error naming the path"
            );
        }
        std::fs::remove_file(&path).ok();
        assert!(
            load_resume_state(&path).is_err(),
            "a missing file is a hard error"
        );
    }
}
