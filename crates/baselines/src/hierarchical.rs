//! Hierarchical (two-tier) tuning — the alternative §4.1 contrasts with
//! EdgeTune's onefold approach (Fig. 9).
//!
//! Phase 1 tunes the hyperparameters with system parameters frozen at a
//! default; phase 2 freezes the winning hyperparameters and sweeps the
//! system parameters alone. The structural weakness the paper calls out
//! is that phase 1 cannot see the hyper ↔ system interaction (e.g. the
//! batch-size × GPU-count coupling of Fig. 4), so the composed optimum
//! can miss the joint one.

use edgetune::backend::{SimTrainingBackend, TrainingBackend, PARAM_GPUS};
use edgetune_tuner::budget::BudgetPolicy;
use edgetune_tuner::objective::TrainObjective;
use edgetune_tuner::sampler::TpeSampler;
use edgetune_tuner::scheduler::{SchedulerConfig, SuccessiveHalving};
use edgetune_tuner::space::Config;
use edgetune_tuner::trial::{History, TrialRecord};
use edgetune_tuner::Metric;
use edgetune_util::rng::SeedStream;
use edgetune_workloads::catalog::{Workload, WorkloadId};

use crate::report::BaselineReport;

/// Result of a hierarchical run: both phases plus the composed winner.
#[derive(Debug, Clone)]
pub struct HierarchicalReport {
    /// Phase-1 (hyperparameter) report.
    pub hyper: BaselineReport,
    /// Phase-2 (system-parameter) report.
    pub system: BaselineReport,
    /// The composed final configuration (phase-1 hypers + phase-2 system
    /// parameters).
    pub final_config: Config,
}

impl HierarchicalReport {
    /// Total tuning duration across both phases.
    #[must_use]
    pub fn tuning_runtime(&self) -> edgetune_util::units::Seconds {
        self.hyper.tuning_runtime() + self.system.tuning_runtime()
    }

    /// Total tuning energy across both phases.
    #[must_use]
    pub fn tuning_energy(&self) -> edgetune_util::units::Joules {
        self.hyper.tuning_energy() + self.system.tuning_energy()
    }

    /// Final accuracy (from the phase-2 winner, which retrained the
    /// frozen hypers under the chosen system parameters).
    #[must_use]
    pub fn final_accuracy(&self) -> f64 {
        self.system.best_accuracy()
    }
}

/// The two-tier tuner.
#[derive(Debug, Clone)]
pub struct HierarchicalTuner {
    workload: WorkloadId,
    scheduler: SchedulerConfig,
    metric: Metric,
    default_gpus: u32,
    seed: u64,
}

impl HierarchicalTuner {
    /// Creates the tuner with defaults mirroring the onefold setup.
    #[must_use]
    pub fn new(workload: WorkloadId) -> Self {
        HierarchicalTuner {
            workload,
            scheduler: SchedulerConfig::new(8, 2.0, 8),
            metric: Metric::Runtime,
            default_gpus: 1,
            seed: SeedStream::default().seed(),
        }
    }

    /// Overrides the scheduler shape (applies to phase 1; phase 2 is an
    /// exhaustive sweep of the small system space).
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: SchedulerConfig) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Sets the training metric.
    #[must_use]
    pub fn with_metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs both phases.
    #[must_use]
    pub fn run(&self) -> HierarchicalReport {
        let workload = Workload::by_id(self.workload);
        let objective = TrainObjective::training_only(self.metric);

        // ---- Phase 1: hyperparameters, system frozen ----
        let mut backend = SimTrainingBackend::new(
            workload.clone(),
            SeedStream::new(self.seed).child("hier-phase1"),
        )
        .with_fixed_gpus(self.default_gpus);
        let space = backend.search_space();
        let mut sampler = TpeSampler::new(SeedStream::new(self.seed).child("hier-sampler"));
        let mut evaluator =
            |_id: u64, config: &Config, budget: edgetune_tuner::budget::TrialBudget| {
                crate::train_only_outcome(&objective, &backend.run_trial(config, budget))
            };
        let phase1 = SuccessiveHalving::new(self.scheduler).run(
            &mut sampler,
            &space,
            &BudgetPolicy::epoch_default(),
            &mut evaluator,
        );
        let hyper = BaselineReport::new(phase1);

        // ---- Phase 2: system parameters for the frozen winner ----
        let mut backend2 =
            SimTrainingBackend::new(workload, SeedStream::new(self.seed).child("hier-phase2"));
        let budget = BudgetPolicy::epoch_default().budget(self.scheduler.max_iteration);
        let mut phase2 = History::new();
        for (id, gpus) in (1..=8u32).enumerate() {
            let mut config = hyper.best_config().clone();
            config.set(PARAM_GPUS, f64::from(gpus));
            let outcome =
                crate::train_only_outcome(&objective, &backend2.run_trial(&config, budget));
            phase2.push(TrialRecord {
                id: id as u64,
                config,
                budget,
                outcome,
            });
        }
        let system = BaselineReport::new(phase2);
        let final_config = system.best_config().clone();
        HierarchicalReport {
            hyper,
            system,
            final_config,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgetune::backend::PARAM_MODEL_HP;

    fn quick() -> HierarchicalTuner {
        HierarchicalTuner::new(WorkloadId::Ic)
            .with_scheduler(SchedulerConfig::new(4, 2.0, 4))
            .with_seed(42)
    }

    #[test]
    fn two_phases_compose_the_final_config() {
        let report = quick().run();
        // Phase 1 winner's hypers are preserved in the final config.
        let hp1 = report.hyper.best_config().get(PARAM_MODEL_HP).unwrap();
        assert_eq!(report.final_config.get(PARAM_MODEL_HP), Some(hp1));
        // Phase 2 added the system parameter.
        assert!(report.final_config.get(PARAM_GPUS).is_some());
        assert!(report.hyper.best_config().get(PARAM_GPUS).is_none());
    }

    #[test]
    fn phase_two_sweeps_all_gpu_counts() {
        let report = quick().run();
        assert_eq!(report.system.history().len(), 8);
        let gpus: Vec<f64> = report
            .system
            .history()
            .records()
            .iter()
            .map(|r| r.config.get(PARAM_GPUS).unwrap())
            .collect();
        assert_eq!(gpus, (1..=8).map(f64::from).collect::<Vec<_>>());
    }

    #[test]
    fn totals_accumulate_both_phases() {
        let report = quick().run();
        assert!(report.tuning_runtime() > report.hyper.tuning_runtime());
        assert!(report.tuning_energy() > report.system.tuning_energy());
        assert!(report.final_accuracy() > 0.0);
    }

    #[test]
    fn onefold_tuning_cost_is_competitive_with_hierarchical() {
        // §4.1: the onefold approach folds system-parameter exploration
        // into the same multi-fidelity schedule instead of a full extra
        // phase; at equal scheduler shapes its tuning cost must not
        // exceed the two-tier total.
        use edgetune::prelude::*;
        let hier = quick().run();
        let onefold = EdgeTune::new(
            EdgeTuneConfig::for_workload(WorkloadId::Ic)
                .with_scheduler(SchedulerConfig::new(4, 2.0, 4))
                .without_hyperband()
                .with_seed(42),
        )
        .run()
        .unwrap();
        assert!(
            onefold.tuning_runtime().value() < hier.tuning_runtime().value() * 1.05,
            "onefold {} vs hierarchical {}",
            onefold.tuning_runtime(),
            hier.tuning_runtime()
        );
    }

    #[test]
    fn is_deterministic() {
        let a = quick().run();
        let b = quick().run();
        assert_eq!(a.final_config, b.final_config);
    }
}
