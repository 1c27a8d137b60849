//! Baseline tuning systems the paper evaluates EdgeTune against.
//!
//! * [`tune`] — the **Tune** baseline (§5.1): BOHB over hyperparameters
//!   only, epoch-based budget, system parameters fixed to the framework
//!   default (every GPU on the node), no inference awareness. Used in
//!   Fig. 14.
//! * [`hyperpower`] — **HyperPower**: Bayesian (TPE) hyperparameter
//!   optimisation with power-constrained early termination; tuning- and
//!   training-oriented objective, no inference output. Used in Fig. 17.
//! * [`hierarchical`] — the two-tier strategy of §4.1/Fig. 9: first tune
//!   hyperparameters for accuracy, then tune system parameters for the
//!   frozen winner.
//! * [`deploy`] — shared helpers evaluating how a tuner's chosen
//!   architecture actually performs at the edge, used for the inference
//!   columns of Figs. 14, 16 and 17.

pub mod deploy;
pub mod hierarchical;
pub mod hyperpower;
pub mod report;
pub mod tune;

pub use hierarchical::HierarchicalTuner;
pub use hyperpower::HyperPower;
pub use report::BaselineReport;
pub use tune::TuneBaseline;

use edgetune::backend::TrialMeasurement;
use edgetune_tuner::objective::{TrainMeasurement, TrainObjective};
use edgetune_tuner::trial::TrialOutcome;

/// Scores one trial of a baseline: none of them measures an inference
/// side, so the objective sees the accuracy and the training cost only.
fn train_only_outcome(objective: &TrainObjective, m: &TrialMeasurement) -> TrialOutcome {
    let score = objective.score(&TrainMeasurement {
        accuracy: m.accuracy,
        train_time: m.runtime,
        train_energy: m.energy,
        inference_time: None,
        inference_energy: None,
    });
    TrialOutcome::new(score, m.accuracy, m.runtime, m.energy)
}
