//! E D G E T U N E — inference-aware multi-parameter tuning middleware.
//!
//! This crate is a from-scratch Rust reproduction of the system described
//! in *EdgeTune: Inference-Aware Multi-Parameter Tuning* (Rocha, Felber,
//! Schiavoni, Chen — Middleware 2022). EdgeTune tunes a deep-learning
//! workload's **model hyperparameters**, **training hyperparameters** and
//! **system parameters** in one joint ("onefold") search whose objective
//! also accounts for *inference* performance on emulated edge devices:
//!
//! * the [`EdgeTune`] job (the Model Tuning Server role) runs
//!   training trials under a
//!   multi-fidelity budget (the multi-budget of Algorithm 2) and scores
//!   them with the §4.4 ratio objectives,
//! * for every candidate architecture it consults the
//!   [`inference::InferenceTuningServer`], which searches inference batch
//!   size / CPU cores / frequency on an emulated edge device. The
//!   asynchrony of Algorithm 1 / Fig. 6 is accounted, not threaded: the
//!   request is answered at trial start on the evaluator's thread
//!   ([`inference::InferenceEndpoint`]) and its simulated cost is
//!   overlapped with the trial's,
//! * results are memoised in a persistent [`cache::HistoricalCache`]
//!   keyed by architecture signature, so a structure is never re-tuned,
//! * the [`batching`] module sizes inference batches for the two serving
//!   scenarios of Fig. 8 (fixed-frequency N-sample queries and Poisson
//!   multi-stream arrivals),
//! * the [`serve`] module deploys tuned configurations into the
//!   `edgetune-serving` runtime and re-tunes them online when the live
//!   arrival rate drifts ([`serve::ScenarioRetuner`]),
//! * the user receives the winning configuration **plus** deployment
//!   recommendations ([`inference::InferenceRecommendation`]).
//!
//! Training itself goes through the [`backend::TrainingBackend`]
//! abstraction: the default [`backend::SimTrainingBackend`] drives the
//! calibrated workload models of `edgetune-workloads` on the emulated
//! Titan RTX node, and [`backend::NnTrainingBackend`] drives *real*
//! gradient-descent training from `edgetune-nn`.
//!
//! # Quickstart
//!
//! ```
//! use edgetune::prelude::*;
//!
//! let config = EdgeTuneConfig::for_workload(WorkloadId::Ic)
//!     .with_scheduler(SchedulerConfig::new(4, 2.0, 3))
//!     .with_seed(7);
//! let report = EdgeTune::new(config).run()?;
//! assert!(report.best_accuracy() > 0.0);
//! println!("deploy with {:?}", report.recommendation());
//! # Ok::<(), edgetune_util::Error>(())
//! ```

pub mod backend;
pub mod batching;
pub mod cache;
pub mod checkpoint;
pub mod config;
pub mod engine;
pub mod fabric;
pub mod inference;
pub mod scenario;
pub mod serve;
pub mod timeline;
pub mod trace;
pub mod transfer;

/// Convenient re-exports for typical use.
pub mod prelude {
    pub use crate::inference::{InferenceRecommendation, InferenceSpace};
    pub use crate::{EdgeTune, EdgeTuneConfig, TuningReport};
    pub use edgetune_faults::{DegradationLadder, FaultPlan, RetryPolicy, Supervisor};
    pub use edgetune_tuner::{BudgetPolicy, Metric, SchedulerConfig};
    pub use edgetune_workloads::WorkloadId;
}

pub use config::EdgeTuneConfig;
pub use engine::{EdgeTune, Engine, TuningReport};
pub use inference::{InferenceRecommendation, InferenceSpace, InferenceTuningServer};
pub use serve::ScenarioRetuner;
pub use transfer::{TransferIndex, TransferKey};
