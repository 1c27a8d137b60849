//! Search machinery for the EdgeTune reproduction.
//!
//! This crate is the paper's "searching algorithm" layer (§4): search
//! spaces and configurations, samplers (grid, random, and a TPE model —
//! the Bayesian component of BOHB), budget policies (epoch-based,
//! dataset-based and the paper's novel **multi-budget**, Algorithm 2),
//! bandit schedulers (successive halving and HyperBand; TPE + HyperBand =
//! BOHB), and the objective functions of §4.4.
//!
//! It is deliberately independent of *what* is being tuned: a [`Study`]
//! hands out `(configuration, budget)` trials and takes observed outcomes
//! back — from a closure, or from a caller that steps it — so the same
//! machinery drives the simulated paper workloads, real `edgetune-nn`
//! training, and the plain synthetic functions used in unit tests.

pub mod budget;
pub mod merge;
pub mod objective;
pub mod pareto;
pub mod sampler;
pub mod scheduler;
pub mod space;
pub mod trial;

pub use budget::{BudgetPolicy, TrialBudget};
pub use merge::{HistoryMerge, ShardHistory, StampedTrial};
pub use objective::{InferenceObjective, Metric, TrainObjective};
pub use pareto::{FrontPoint, ObjectiveVector, ParetoFront, ParetoTpeSampler};
pub use sampler::{GridSampler, RandomSampler, Sampler, TpeSampler};
pub use scheduler::{
    BracketSpec, FixedBudgetSearch, HyperBand, PromotionRule, Rung, SchedulerConfig, Study,
    SuccessiveHalving,
};
pub use space::{Config, Domain, SearchSpace};
pub use trial::{History, TrialFailure, TrialOutcome, TrialRecord};
