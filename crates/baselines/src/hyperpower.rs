//! The **HyperPower** comparator (§5.5, Table 2).
//!
//! HyperPower (Stamoulis et al., 2017) is power- and memory-constrained
//! Bayesian hyperparameter optimisation for neural networks: sequential
//! model-based search (no multi-fidelity ladder), with *early
//! termination* of trials that violate a power constraint at objective
//! evaluation time. It tunes hyperparameters on GPUs, optimises for
//! tuning/training cost, and — the property Fig. 17 probes — produces
//! **no inference-side output**.

use edgetune::backend::{SimTrainingBackend, TrainingBackend, PARAM_MODEL_HP, PARAM_TRAIN_BATCH};
use edgetune_tuner::budget::TrialBudget;
use edgetune_tuner::objective::{TrainMeasurement, TrainObjective};
use edgetune_tuner::sampler::{Sampler, TpeSampler};
use edgetune_tuner::space::{Domain, SearchSpace};
use edgetune_tuner::trial::{History, TrialOutcome, TrialRecord};
use edgetune_util::rng::SeedStream;
use edgetune_util::units::Watts;
use edgetune_workloads::catalog::{Workload, WorkloadId};

/// Fraction of a trial's budget run before the early-termination checks
/// (power constraint and accuracy probe) are evaluated.
const PROBE_FRACTION: f64 = 0.25;
/// A trial whose probe accuracy trails the best probe so far by more than
/// this margin is terminated early. The margin is wide enough that a
/// slower-converging (deeper) architecture survives while genuinely bad
/// training configurations do not.
const PROBE_ACCURACY_MARGIN: f64 = 0.08;
/// HyperPower's fixed training batch size (framework default).
const FIXED_BATCH: u32 = 256;

/// The HyperPower baseline runner.
#[derive(Debug, Clone)]
pub struct HyperPower {
    workload: WorkloadId,
    trials: usize,
    epochs_per_trial: f64,
    power_cap: Watts,
    gpus: u32,
    seed: u64,
}

impl HyperPower {
    /// Creates the comparator with representative defaults: 4 sequential
    /// BO trials of 20 epochs each on 2 GPUs with the batch size fixed at
    /// 256, capped at 900 W average training power. Sequential BO runs
    /// far fewer — but individually deeper — trials than a multi-fidelity
    /// ladder, and HyperPower tunes *model* hyperparameters, not the
    /// training batch size.
    #[must_use]
    pub fn new(workload: WorkloadId) -> Self {
        HyperPower {
            workload,
            trials: 4,
            epochs_per_trial: 20.0,
            power_cap: Watts::new(900.0),
            gpus: 2,
            seed: SeedStream::default().seed(),
        }
    }

    /// Sets the number of sequential BO trials.
    #[must_use]
    pub fn with_trials(mut self, trials: usize) -> Self {
        assert!(trials >= 1, "need at least one trial");
        self.trials = trials;
        self
    }

    /// Sets the per-trial epoch budget.
    #[must_use]
    pub fn with_epochs_per_trial(mut self, epochs: f64) -> Self {
        assert!(epochs > 0.0, "epochs must be positive");
        self.epochs_per_trial = epochs;
        self
    }

    /// Sets the power constraint.
    #[must_use]
    pub fn with_power_cap(mut self, cap: Watts) -> Self {
        self.power_cap = cap;
        self
    }

    /// Sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the comparator.
    #[must_use]
    pub fn run(&self) -> crate::report::BaselineReport {
        let workload = Workload::by_id(self.workload);
        let mut backend = SimTrainingBackend::new(
            workload,
            SeedStream::new(self.seed).child("hyperpower-trials"),
        )
        .with_fixed_gpus(self.gpus);
        // HyperPower searches the model hyperparameters only; the batch
        // size stays at the framework default.
        let space = SearchSpace::new().with(
            PARAM_MODEL_HP,
            Domain::choice(Workload::by_id(self.workload).model_hp_values),
        );
        let objective = TrainObjective::accuracy_only();
        let mut sampler = TpeSampler::new(SeedStream::new(self.seed).child("hyperpower-sampler"));
        let budget = TrialBudget::new(self.epochs_per_trial, 1.0);

        let probe_budget = TrialBudget::new((self.epochs_per_trial * PROBE_FRACTION).max(1.0), 1.0);
        let mut best_probe_accuracy: Option<f64> = None;
        let mut history = History::new();
        for id in 0..self.trials as u64 {
            let mut config = sampler.suggest(&space, &history.observations());
            config.set(PARAM_TRAIN_BATCH, f64::from(FIXED_BATCH));

            // Probe phase: run a quarter of the budget, then decide.
            let probe = backend.run_trial(&config, probe_budget);
            let probe_power = probe.energy / probe.runtime;
            let keep_probe = best_probe_accuracy
                .is_none_or(|best| probe.accuracy >= best - PROBE_ACCURACY_MARGIN);
            if let Some(best) = &mut best_probe_accuracy {
                *best = best.max(probe.accuracy);
            } else {
                best_probe_accuracy = Some(probe.accuracy);
            }
            let outcome = if probe_power > self.power_cap {
                // Power constraint violated at the probe: terminate,
                // paying only the probe cost; the trial is infeasible.
                TrialOutcome::new(f64::INFINITY, 0.0, probe.runtime, probe.energy)
            } else if !keep_probe {
                // Unpromising accuracy at the probe: terminate early.
                TrialOutcome::new(f64::INFINITY, probe.accuracy, probe.runtime, probe.energy)
            } else {
                // Training resumes from the probe checkpoint, so a kept
                // trial costs exactly one full budget, not probe + full.
                let m = backend.run_trial(&config, budget);
                let score = objective.score(&TrainMeasurement {
                    accuracy: m.accuracy,
                    train_time: m.runtime,
                    train_energy: m.energy,
                    inference_time: None,
                    inference_energy: None,
                });
                TrialOutcome::new(score, m.accuracy, m.runtime, m.energy)
            };
            history.push(TrialRecord {
                id,
                config,
                budget,
                outcome,
            });
        }
        crate::report::BaselineReport::new(history)
    }

    /// The architecture the winner selects.
    #[must_use]
    pub fn winning_architecture(
        &self,
        report: &crate::report::BaselineReport,
    ) -> (String, edgetune_device::WorkProfile) {
        let workload = Workload::by_id(self.workload);
        let backend = SimTrainingBackend::new(
            workload,
            SeedStream::new(self.seed).child("hyperpower-trials"),
        )
        .with_fixed_gpus(self.gpus);
        backend.architecture(report.best_config())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> HyperPower {
        HyperPower::new(WorkloadId::Ic)
            .with_trials(10)
            .with_seed(42)
    }

    #[test]
    fn runs_the_requested_number_of_trials() {
        let report = quick().run();
        assert_eq!(report.history().len(), 10);
        assert!(report.best_accuracy() > 0.0);
    }

    #[test]
    fn power_constraint_terminates_hungry_trials_early() {
        // A very low cap: everything violates it at the probe.
        let report = quick().with_power_cap(Watts::new(1.0)).run();
        // Early-terminated trials pay only the probe cost...
        let unconstrained = quick().run();
        assert!(report.tuning_energy().value() < unconstrained.tuning_energy().value());
        // ...and are all infeasible.
        assert!(report
            .history()
            .records()
            .iter()
            .all(|r| r.outcome.score.is_infinite()));
    }

    #[test]
    fn accuracy_probe_terminates_unpromising_trials() {
        // With enough trials, at least one architecture probes clearly
        // worse than the best and is cut early, paying less runtime
        // than a full trial. Speech recognition has the widest probe
        // spread across its architectures, so the margin actually
        // trips; image classification's ResNet depths all probe within
        // it (the margin is deliberately wide enough that deeper,
        // slower-converging variants survive).
        let report = HyperPower::new(WorkloadId::Sr)
            .with_trials(12)
            .with_seed(11)
            .run();
        let full: Vec<f64> = report
            .history()
            .records()
            .iter()
            .filter(|r| r.outcome.score.is_finite())
            .map(|r| r.outcome.runtime.value())
            .collect();
        let cut: Vec<f64> = report
            .history()
            .records()
            .iter()
            .filter(|r| r.outcome.score.is_infinite())
            .map(|r| r.outcome.runtime.value())
            .collect();
        assert!(!cut.is_empty(), "some trials should be terminated early");
        let max_cut = cut.iter().copied().fold(0.0f64, f64::max);
        let max_full = full.iter().copied().fold(0.0f64, f64::max);
        assert!(
            max_cut < max_full,
            "terminated trials are cheaper: {max_cut} vs {max_full}"
        );
    }

    #[test]
    fn feasible_trials_respect_the_cap() {
        let cap = Watts::new(900.0);
        let report = quick().with_power_cap(cap).run();
        for r in report.history().records() {
            if r.outcome.score.is_finite() {
                let power = r.outcome.energy / r.outcome.runtime;
                assert!(power <= cap, "feasible trial exceeded the cap: {power}");
            }
        }
    }

    #[test]
    fn is_deterministic() {
        let a = quick().run();
        let b = quick().run();
        assert_eq!(a.best_config(), b.best_config());
    }

    #[test]
    fn no_inference_output_exists() {
        // Structural property: the winning config never mentions
        // inference parameters.
        let report = quick().run();
        assert!(report
            .best_config()
            .keys()
            .all(|k| !k.contains("inference")));
    }
}
