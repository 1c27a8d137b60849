//! Common result type for baseline tuners.

use edgetune_tuner::space::Config;
use edgetune_tuner::trial::{History, TrialRecord};
use edgetune_util::units::{Joules, Seconds};

/// What a baseline tuning run produces: the trial log and the winner.
/// Unlike EdgeTune's `TuningReport`, there is *no* inference
/// recommendation — that absence is the paper's point.
#[derive(Debug, Clone)]
pub struct BaselineReport {
    history: History,
    best: TrialRecord,
}

impl BaselineReport {
    /// Wraps a completed history.
    ///
    /// # Panics
    ///
    /// Panics if the history is empty.
    #[must_use]
    pub fn new(history: History) -> Self {
        let best = history
            .winner()
            .expect("baseline ran at least one trial")
            .clone();
        BaselineReport { history, best }
    }

    /// Full trial history.
    #[must_use]
    pub fn history(&self) -> &History {
        &self.history
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

    /// Total tuning duration.
    #[must_use]
    pub fn tuning_runtime(&self) -> Seconds {
        self.history.total_runtime()
    }

    /// Total tuning energy.
    #[must_use]
    pub fn tuning_energy(&self) -> Joules {
        self.history.total_energy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgetune_tuner::budget::TrialBudget;
    use edgetune_tuner::trial::TrialOutcome;

    #[test]
    fn report_exposes_winner_and_totals() {
        let mut history = History::new();
        for (id, score) in [(0u64, 3.0), (1, 1.0), (2, 2.0)] {
            history.push(TrialRecord {
                id,
                config: Config::from_iter([("x", id as f64)]),
                budget: TrialBudget::new(1.0, 1.0),
                outcome: TrialOutcome::new(score, 0.5, Seconds::new(10.0), Joules::new(100.0)),
            });
        }
        let report = BaselineReport::new(history);
        assert_eq!(report.best.id, 1);
        assert_eq!(report.best_config().get("x"), Some(1.0));
        assert_eq!(report.tuning_runtime(), Seconds::new(30.0));
        assert_eq!(report.tuning_energy(), Joules::new(300.0));
        assert_eq!(report.best_accuracy(), 0.5);
        assert_eq!(report.history().len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn empty_history_rejected() {
        let _ = BaselineReport::new(History::new());
    }
}
