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

use edgetune_faults::{DegradationStats, FaultPlan};
use edgetune_tuner::pareto::{FrontPoint, ParetoFront};
use edgetune_tuner::space::Config;
use edgetune_tuner::trial::{History, TrialRecord};
use edgetune_util::units::{Joules, Seconds};
use edgetune_util::{Error, Result};

use crate::cache::CacheStats;
use crate::fabric::FabricStats;
use crate::inference::InferenceRecommendation;
use crate::timeline::Timeline;

/// What the fault-tolerance layer observed during a chaos run: the plan
/// that was injected, every ladder rung exercised, and the failure
/// counters of both servers. Present in a [`TuningReport`] only when a
/// fault plan was active, so fault-free reports are unchanged.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FaultReport {
    /// The injected fault plan.
    pub plan: FaultPlan,
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
    /// Whether the run stopped at a `halt_after_rungs` boundary rather
    /// than finishing the study. Never serialised — the JSON form stays
    /// a byte-stability contract over *completed* studies — but a
    /// service driving studies in rung-quantum slices needs to know
    /// whether this slice hit its halt or ran to natural completion.
    #[serde(skip)]
    pub(crate) halted: bool,
    /// Fabric supervision counters when the study's shards ran under
    /// `--shard-exec process|remote`. Never serialised: fabric telemetry is
    /// wall-clock-dependent, and the JSON report must stay
    /// byte-identical across execution modes.
    #[serde(skip)]
    pub(crate) fabric: Option<FabricStats>,
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

    /// Total *resource* time consumed by trials (the sum of their
    /// durations, independent of how many ran concurrently).
    #[must_use]
    pub fn trial_resource_time(&self) -> Seconds {
        self.history.total_runtime()
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

    /// Energy consumed by inference sweeps alone.
    #[must_use]
    pub fn inference_energy(&self) -> Joules {
        self.inference_energy
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
    /// had an active fault plan.
    #[must_use]
    pub fn faults(&self) -> Option<&FaultReport> {
        self.faults.as_ref()
    }

    /// `true` when the run stopped because it reached its configured
    /// `halt_after_rungs` boundary instead of completing the study.
    /// Always `false` on reports parsed back from JSON.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Supervision counters from the shard fabric, when the study's
    /// shards ran with `--shard-exec process|remote`. `None` for thread
    /// placement, for a single shard, and for reports parsed back from
    /// JSON (the counters are never serialised).
    #[must_use]
    pub fn fabric_stats(&self) -> Option<&FabricStats> {
        self.fabric.as_ref()
    }

    /// The study's Pareto frontier — empty unless the run was configured
    /// with [`EdgeTuneConfig::with_pareto`](crate::config::EdgeTuneConfig::with_pareto).
    #[must_use]
    pub fn frontier(&self) -> &[FrontPoint] {
        &self.frontier
    }

    /// A compact human-readable summary of the run — what the CLI and
    /// examples print.
    #[must_use]
    pub fn summary(&self) -> String {
        let rec = &self.recommendation;
        let mut summary = format!(
            "winner {} (accuracy {:.1}%, {} trials)\n\
             tuning {:.1} min / {:.1} kJ (stall {:.1}s, cache {}h/{}m)\n\
             deploy on {}: batch {}, {} cores @ {:.2} GHz -> {:.1} items/s, {:.3} J/item",
            self.best.config,
            self.best.outcome.accuracy * 100.0,
            self.history.len(),
            self.tuning_runtime().as_minutes(),
            self.tuning_energy().as_kilojoules(),
            self.stall_time.value(),
            self.cache_stats.hits,
            self.cache_stats.misses,
            rec.device,
            rec.batch,
            rec.cores,
            rec.freq.as_ghz(),
            rec.throughput.value(),
            rec.energy_per_item.value(),
        );
        if !self.frontier.is_empty() {
            summary.push_str(&format!(
                "\npareto frontier: {} configs (accuracy {:.1}%..{:.1}%)",
                self.frontier.len(),
                self.frontier
                    .iter()
                    .map(|p| p.vector.accuracy)
                    .fold(f64::INFINITY, f64::min)
                    * 100.0,
                self.frontier
                    .iter()
                    .map(|p| p.vector.accuracy)
                    .fold(f64::NEG_INFINITY, f64::max)
                    * 100.0,
            ));
        }
        if let Some(faults) = &self.faults {
            let d = &faults.degradation;
            summary.push_str(&format!(
                "\nchaos: {} failed trials ({} crashes, {} stragglers, {} timeouts), \
                 {} retries, {} lost replies \
                 (stale-cache {}, default-rec {}, skipped {})",
                faults.failed_trials,
                d.trial_crashes,
                d.trial_stragglers,
                d.trial_timeouts,
                d.trial_retries,
                d.worker_losses,
                d.stale_cache_served,
                d.default_recommendations,
                d.trials_skipped,
            ));
        }
        summary
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

#[cfg(test)]
mod summary_tests {
    use edgetune_tuner::scheduler::SchedulerConfig;
    use edgetune_workloads::catalog::WorkloadId;

    use crate::config::EdgeTuneConfig;
    use crate::engine::EdgeTune;

    #[test]
    fn summary_mentions_the_key_outputs() {
        let report = EdgeTune::new(
            EdgeTuneConfig::for_workload(WorkloadId::Ic)
                .with_scheduler(SchedulerConfig::new(4, 2.0, 4))
                .without_hyperband()
                .with_seed(42),
        )
        .run()
        .unwrap();
        let summary = report.summary();
        assert!(summary.contains("winner"), "{summary}");
        assert!(summary.contains("deploy on Raspberry Pi 3B+"), "{summary}");
        assert!(summary.contains("items/s"), "{summary}");
        assert!(summary.contains("J/item"), "{summary}");
    }
}
