//! The Model Tuning Server façade and the end-to-end EdgeTune run
//! (Algorithm 1).
//!
//! [`EdgeTune`] wires everything together: a
//! [`TrainingBackend`](crate::backend::TrainingBackend) supplies trials,
//! a sampler + multi-fidelity scheduler explores the joint
//! (model × training × system)-parameter space under a budget policy, and
//! for every trial an
//! [`AsyncInferenceServer`](crate::async_server::AsyncInferenceServer)
//! request is fired *at trial start* and collected *at trial end* — the
//! onefold pipelining of Fig. 6. Trial scores combine training cost,
//! accuracy and the estimated inference metrics through the §4.4 ratio
//! objective, and the user gets back both the winning configuration and
//! the deployment
//! [`InferenceRecommendation`](crate::inference::InferenceRecommendation).
//!
//! Time accounting is *simulated*: trial runtimes come from the device
//! models, and because the inference sweep runs on separate CPU resources
//! in parallel with training, it only extends the tuning makespan when it
//! outlasts its trial (which the paper argues — and these models confirm —
//! essentially never happens). Its *energy*, however, is real work done by
//! the tuning server and is always added. Real engine shards
//! ([`EdgeTuneConfig::with_study_shards`], wherever
//! [`EdgeTuneConfig::with_shard_exec`] places them) only change how fast
//! that simulation is computed, never what it computes.
//!
//! This module is a façade: configuration lives in [`crate::config`],
//! execution in [`crate::engine`]. The long-standing public paths
//! (`server::EdgeTune`, `server::EdgeTuneConfig`, `server::TuningReport`,
//! …) are preserved via re-exports.

pub use crate::config::{EdgeTuneConfig, SamplerKind};
pub use crate::engine::report::{FaultReport, TuningReport};

use crate::backend::TrainingBackend;
use crate::engine::Engine;
use edgetune_util::Result;

/// The EdgeTune tuning job.
#[derive(Debug, Clone)]
pub struct EdgeTune {
    config: EdgeTuneConfig,
}

impl EdgeTune {
    /// Creates a job from a configuration.
    #[must_use]
    pub fn new(config: EdgeTuneConfig) -> Self {
        EdgeTune { config }
    }

    /// The job's configuration.
    #[must_use]
    pub fn config(&self) -> &EdgeTuneConfig {
        &self.config
    }

    /// Runs the job with the default simulated backend for the configured
    /// workload.
    ///
    /// # Errors
    ///
    /// Propagates configuration and storage errors; see
    /// [`EdgeTune::run_with_backend`].
    pub fn run(&self) -> Result<TuningReport> {
        Engine::new(&self.config).run()
    }

    /// Runs the job against any training backend (e.g. the real
    /// `edgetune-nn` one).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`](edgetune_util::Error::InvalidConfig)
    /// for inconsistent configurations,
    /// [`Error::Storage`](edgetune_util::Error::Storage) if the historical
    /// cache cannot be written, and
    /// [`Error::Channel`](edgetune_util::Error::Channel) if the inference
    /// server fails irrecoverably.
    pub fn run_with_backend(&self, backend: &mut dyn TrainingBackend) -> Result<TuningReport> {
        Engine::new(&self.config).run_with_backend(backend)
    }

    /// Runs the job and additionally returns the Chrome trace of every
    /// span and event the study emitted on the simulated clock — open it
    /// in `chrome://tracing` or Perfetto to see the Fig. 6 pipelining.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`EdgeTune::run`].
    pub fn run_traced(&self) -> Result<(TuningReport, edgetune_trace::ChromeTrace)> {
        Engine::new(&self.config).run_traced()
    }
}

#[cfg(test)]
mod facade_tests {
    use super::*;
    use edgetune_tuner::scheduler::SchedulerConfig;
    use edgetune_workloads::catalog::WorkloadId;

    fn golden_config() -> EdgeTuneConfig {
        EdgeTuneConfig::for_workload(WorkloadId::Ic)
            .with_scheduler(SchedulerConfig::new(6, 2.0, 6))
            .without_hyperband()
            .with_seed(1234)
    }

    /// The golden snapshot: the report's JSON artefact is a stability
    /// contract — byte-identical for a fixed seed whatever the engine
    /// shard count, before and after any internal refactor.
    #[test]
    fn report_json_is_byte_identical_across_study_shard_counts() {
        let baseline = EdgeTune::new(golden_config())
            .run()
            .unwrap()
            .to_json()
            .unwrap();
        for shards in [1, 4] {
            let json = EdgeTune::new(golden_config().with_study_shards(shards))
                .run()
                .unwrap()
                .to_json()
                .unwrap();
            assert_eq!(baseline, json, "study_shards={shards} changed the report");
        }
    }

    #[test]
    fn report_json_round_trips_through_the_facade_path() {
        let report = EdgeTune::new(golden_config()).run().unwrap();
        let json = report.to_json().unwrap();
        let restored = crate::server::TuningReport::from_json(&json).expect("parses");
        assert_eq!(restored.best_config(), report.best_config());
        assert_eq!(restored.to_json().unwrap(), json, "round trip is lossless");
    }

    #[test]
    fn facade_reexports_preserve_the_public_paths() {
        // Compile-time check that the pre-refactor paths still resolve.
        let _: fn(EdgeTuneConfig) -> EdgeTune = crate::server::EdgeTune::new;
        let _ = crate::server::SamplerKind::Tpe;
        fn takes_report(_: &crate::server::TuningReport) {}
        fn takes_faults(_: &crate::server::FaultReport) {}
        let _ = (takes_report, takes_faults);
    }
}
