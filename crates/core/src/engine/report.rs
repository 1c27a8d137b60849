//! The user-facing outcome of an EdgeTune run.
//!
//! A [`TuningReport`] is the artefact a tuning service hands back: the
//! full trial history, the winner and its deployment recommendation, the
//! pipelining timeline, cache statistics, and the simulated cost totals.
//! Its JSON form ([`TuningReport::to_json`]) is a stability contract —
//! byte-identical for a fixed seed and configuration regardless of how
//! many engine shards measured the trials or where they ran (shards
//! only measure; the study keeps one history, in execution order) — so
//! snapshot tests can compare runs across refactors and machines.

use edgetune_faults::DegradationStats;
use edgetune_tuner::pareto::{FrontPoint, ParetoFront};
use edgetune_tuner::space::Config;
use edgetune_tuner::trial::{History, TrialRecord};
use edgetune_util::units::{Joules, Seconds};
use edgetune_util::{Error, Result};

use crate::cache::CacheStats;
use crate::fabric::FabricStats;
use crate::inference::InferenceRecommendation;
use crate::timeline::Timeline;

/// What the fault-tolerance layer observed during a chaos run: the rate
/// that was injected, every fallback taken, and the failure
/// counters of both servers. Present in a [`TuningReport`] only when the
/// fault rate was positive, so fault-free reports are unchanged.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FaultReport {
    /// The injected fault rate. A report written before the rate replaced
    /// the per-kind plan object has no `rate` key and loads with 0.
    #[serde(default)]
    pub rate: f64,
    /// Faults observed and fallbacks taken by the Model Tuning Server.
    pub degradation: DegradationStats,
    /// Real panics caught by the inference server's supervision loop.
    pub worker_panics: u64,
    /// Inference requests dropped by injected worker deaths.
    pub injected_losses: u64,
    /// Inference sweeps delayed by injected device outages.
    pub injected_outages: u64,
    /// Trials that ended with a failure marker in the history.
    pub failed_trials: u64,
}

/// Assembles a report frontier from the study's history: every healthy
/// vectored trial is offered to a [`ParetoFront`] and the canonical
/// top-`k` survives. The history is in execution order and the front
/// itself is insertion-order invariant, so the result is byte-identical
/// whatever the shard split.
pub(crate) fn build_frontier(history: &History, k: usize) -> Vec<FrontPoint> {
    let mut front = ParetoFront::new();
    for record in history.records() {
        if record.outcome.is_failed() {
            continue;
        }
        if let Some(vector) = record.outcome.vector {
            front.insert(FrontPoint {
                config: record.config.clone(),
                vector,
                trial: record.id,
            });
        }
    }
    front.top(k).to_vec()
}

/// The outcome of an EdgeTune run.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TuningReport {
    pub(crate) history: History,
    pub(crate) best: TrialRecord,
    pub(crate) recommendation: InferenceRecommendation,
    pub(crate) timeline: Timeline,
    pub(crate) cache_stats: CacheStats,
    pub(crate) makespan: Seconds,
    pub(crate) stall_time: Seconds,
    pub(crate) inference_energy: Joules,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub(crate) faults: Option<FaultReport>,
    /// The Pareto frontier of the study when it ran in `--pareto` mode:
    /// up to `k` mutually non-dominated configurations in the canonical
    /// front order. Empty in scalar mode and omitted from JSON so scalar
    /// reports are byte-identical to a build without this feature.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub(crate) frontier: Vec<FrontPoint>,
    /// Fabric supervision counters when the study's shards ran under
    /// `--shard-exec process|remote`. Never serialised: fabric telemetry is
    /// wall-clock-dependent, and the JSON report must stay
    /// byte-identical across execution modes.
    #[serde(skip)]
    pub(crate) fabric: Option<FabricStats>,
    /// Entries the `--cache` file held that the study skipped.
    #[serde(skip)]
    pub(crate) skipped_cache_entries: usize,
}

impl TuningReport {
    /// Full trial history.
    #[must_use]
    pub fn history(&self) -> &History {
        &self.history
    }

    /// The winning trial.
    #[must_use]
    pub fn best(&self) -> &TrialRecord {
        &self.best
    }

    /// The winning configuration.
    #[must_use]
    pub fn best_config(&self) -> &Config {
        &self.best.config
    }

    /// Accuracy of the winning trial.
    #[must_use]
    pub fn best_accuracy(&self) -> f64 {
        self.best.outcome.accuracy
    }

    /// The deployment recommendation for the winning architecture —
    /// EdgeTune's extra output over a conventional tuner.
    #[must_use]
    pub fn recommendation(&self) -> &InferenceRecommendation {
        &self.recommendation
    }

    /// Total tuning duration (simulated): with one trial slot this is
    /// the sum of trial runtimes plus any stalls waiting for the
    /// inference server (Fig. 13/14's "tuning duration"); with parallel
    /// trial slots it is the list-scheduled makespan.
    #[must_use]
    pub fn tuning_runtime(&self) -> Seconds {
        self.makespan
    }

    /// Total tuning energy: training trials plus the inference server's
    /// sweeps (Fig. 13/14's "tuning energy").
    #[must_use]
    pub fn tuning_energy(&self) -> Joules {
        self.history.total_energy()
    }

    /// Time the model server spent stalled on inference replies (zero
    /// when pipelining fully hides the inference server).
    #[must_use]
    pub fn stall_time(&self) -> Seconds {
        self.stall_time
    }

    /// The Fig. 6-style pipelining timeline.
    #[must_use]
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Historical-cache statistics of the run.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache_stats
    }

    /// What the fault-tolerance layer observed — `None` unless the run
    /// had a positive fault rate.
    #[must_use]
    pub fn faults(&self) -> Option<&FaultReport> {
        self.faults.as_ref()
    }

    /// Supervision counters from the shard fabric, when the study's
    /// shards ran with `--shard-exec process|remote`. `None` for thread
    /// placement, for a single shard, and for reports parsed back from
    /// JSON (the counters are never serialised).
    #[must_use]
    pub fn fabric_stats(&self) -> Option<&FabricStats> {
        self.fabric.as_ref()
    }

    /// How many entries of the `--cache` file the study skipped (see
    /// `HistoricalCache::load`); zero after a resume and when parsed.
    #[must_use]
    pub fn skipped_cache_entries(&self) -> usize {
        self.skipped_cache_entries
    }

    /// The study's Pareto frontier — empty unless the run was configured
    /// with [`EdgeTuneConfig::with_pareto`](crate::config::EdgeTuneConfig::with_pareto).
    #[must_use]
    pub fn frontier(&self) -> &[FrontPoint] {
        &self.frontier
    }

    /// Serialises the full report (history, winner, recommendation,
    /// timeline, statistics) to pretty JSON — the artefact a tuning
    /// service would hand back to its user.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Storage`] if serialisation fails.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string_pretty(self)
            .map_err(|e| Error::storage(format!("serialising report: {e}")))
    }

    /// Reads a report previously produced by [`TuningReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Storage`] if parsing fails.
    pub fn from_json(json: &str) -> Result<Self> {
        serde_json::from_str(json).map_err(|e| Error::storage(format!("parsing report: {e}")))
    }
}
