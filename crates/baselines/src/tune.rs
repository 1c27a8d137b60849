//! The **Tune** baseline (§5.1).
//!
//! "Our baseline system (i.e., Tune) uses the tuning of hyperparameters
//! ignoring all system parameters and the inference phase. For a fair
//! comparison, we configure Tune to use the same searching algorithm as
//! EdgeTune (i.e., BOHB)." Concretely:
//!
//! * search space: model + training hyperparameters only,
//! * system parameters fixed to the framework default — *all* GPUs of
//!   the node, the Ray-style "use what is available" allocation,
//! * budget: the conventional epoch-based ladder,
//! * objective: maximise model accuracy — no system-cost and no
//!   inference factor,
//! * no Inference Tuning Server, hence no deployment recommendation.

use edgetune::backend::{SimTrainingBackend, TrainingBackend};
use edgetune_tuner::budget::BudgetPolicy;
use edgetune_tuner::objective::TrainObjective;
use edgetune_tuner::sampler::TpeSampler;
use edgetune_tuner::scheduler::{HyperBand, SchedulerConfig};
use edgetune_util::rng::SeedStream;
use edgetune_workloads::catalog::{Workload, WorkloadId};

/// The Tune baseline runner.
#[derive(Debug, Clone)]
pub struct TuneBaseline {
    workload: WorkloadId,
    scheduler: SchedulerConfig,
    gpus: u32,
    seed: u64,
}

impl TuneBaseline {
    /// Creates the baseline with the paper's defaults for a workload
    /// (BOHB, epoch budget, all 8 GPUs).
    #[must_use]
    pub fn new(workload: WorkloadId) -> Self {
        TuneBaseline {
            workload,
            scheduler: SchedulerConfig::new(8, 2.0, 8),
            gpus: 8,
            seed: SeedStream::default().seed(),
        }
    }

    /// Overrides the scheduler shape (keep it equal to EdgeTune's for
    /// fair comparisons).
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: SchedulerConfig) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Overrides the fixed GPU allocation.
    #[must_use]
    pub fn with_gpus(mut self, gpus: u32) -> Self {
        self.gpus = gpus;
        self
    }

    /// Sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the baseline tuning job.
    #[must_use]
    pub fn run(&self) -> crate::report::BaselineReport {
        let workload = Workload::by_id(self.workload);
        let mut backend =
            SimTrainingBackend::new(workload, SeedStream::new(self.seed).child("tune-trials"))
                .with_fixed_gpus(self.gpus);
        let space = backend.search_space();
        let objective = TrainObjective::accuracy_only();
        let mut sampler = TpeSampler::new(SeedStream::new(self.seed).child("tune-sampler"));
        let mut evaluator =
            |_id: u64,
             config: &edgetune_tuner::space::Config,
             budget: edgetune_tuner::budget::TrialBudget| {
                crate::train_only_outcome(&objective, &backend.run_trial(config, budget))
            };
        let history = HyperBand::new(self.scheduler).run(
            &mut sampler,
            &space,
            &BudgetPolicy::epoch_default(),
            &mut evaluator,
        );
        crate::report::BaselineReport::new(history)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgetune::backend::{PARAM_GPUS, PARAM_MODEL_HP};
    use edgetune::prelude::*;

    fn quick() -> TuneBaseline {
        TuneBaseline::new(WorkloadId::Ic)
            .with_scheduler(SchedulerConfig::new(4, 2.0, 4))
            .with_seed(42)
    }

    #[test]
    fn tune_ignores_system_parameters() {
        let report = quick().run();
        assert!(report.best_config().get(PARAM_GPUS).is_none());
        assert!(report.best_config().get(PARAM_MODEL_HP).is_some());
        assert!(report.best_accuracy() > 0.0);
    }

    #[test]
    fn tune_is_deterministic() {
        let a = quick().run();
        let b = quick().run();
        assert_eq!(a.best_config(), b.best_config());
        assert_eq!(a.tuning_runtime(), b.tuning_runtime());
    }

    #[test]
    fn edgetune_beats_tune_on_tuning_cost() {
        // The Fig. 14 comparison at small scale: same scheduler shape,
        // same workload, same seed family.
        let tune = quick().run();
        let edgetune = EdgeTune::new(
            EdgeTuneConfig::for_workload(WorkloadId::Ic)
                .with_scheduler(SchedulerConfig::new(4, 2.0, 4))
                .with_seed(42),
        )
        .run()
        .unwrap();
        let runtime_gain = 1.0 - edgetune.tuning_runtime().value() / tune.tuning_runtime().value();
        let energy_gain = 1.0 - edgetune.tuning_energy().value() / tune.tuning_energy().value();
        assert!(
            runtime_gain > 0.05,
            "EdgeTune should tune faster (paper: ≈18%): gain={runtime_gain:.3}"
        );
        assert!(
            energy_gain > 0.25,
            "EdgeTune should tune much cheaper (paper: ≈53%): gain={energy_gain:.3}"
        );
    }
}
