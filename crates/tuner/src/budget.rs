//! Trial budgets: epoch-based, dataset-based, and the paper's
//! multi-budget (§4.3, Algorithm 2).
//!
//! A [`TrialBudget`] tells a trial how many epochs to run and on what
//! fraction of the data; a [`BudgetPolicy`] maps a successive-halving
//! *iteration level* to a budget:
//!
//! * **Epoch** budget — epochs grow with the iteration, always on the
//!   full dataset ("epochs is equal to two times the iteration level"),
//! * **Dataset** budget — exactly one epoch, on a growing data fraction
//!   ("percentage of dataset used is equals to min(1, iteration_id*0.1)"),
//! * **Multi-budget** — *both* grow simultaneously and proportionally,
//!   each capped independently at its maximum (Algorithm 2:
//!   `epochs = min(min_epochs·it, max_epochs)`,
//!   `frac = min(min_frac·it, 1)`).

use serde::{Deserialize, Refusal, Serialize};

/// The resources one training trial is allowed to consume.
///
/// Its reader admits exactly what [`TrialBudget::new`] does: a persisted
/// budget whose epochs are not positive, or whose fraction is outside
/// `(0, 1]`, is an error naming the field, never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(check = "Self::admits")]
pub struct TrialBudget {
    /// Number of epochs to run.
    pub epochs: f64,
    /// Fraction of the training data to use, in `(0, 1]`.
    pub data_fraction: f64,
}

impl TrialBudget {
    /// Creates a budget.
    ///
    /// # Panics
    ///
    /// Panics if `epochs` is not positive or `data_fraction` is outside
    /// `(0, 1]`.
    #[must_use]
    pub fn new(epochs: f64, data_fraction: f64) -> Self {
        let budget = TrialBudget {
            epochs,
            data_fraction,
        };
        budget.admits().unwrap_or_else(|(_, why)| panic!("{why}"));
        budget
    }

    /// The domain [`TrialBudget::new`] builds and the reader admits; a
    /// refusal names the field.
    fn admits(&self) -> Result<(), Refusal> {
        let (epochs, fraction) = (self.epochs, self.data_fraction);
        let (epochs_ok, fraction_ok) = (epochs > 0.0, fraction > 0.0 && fraction <= 1.0);
        if !epochs_ok {
            Err(("epochs", format!("epochs must be positive, got {epochs}")))
        } else if !fraction_ok {
            let why = format!("data fraction must be in (0,1], got {fraction}");
            Err(("data_fraction", why))
        } else {
            Ok(())
        }
    }

    /// The *effective* training effort of this budget, in units of
    /// full-dataset epochs (epochs × fraction). Both sample-count cost and
    /// learning progress scale with it.
    #[must_use]
    pub fn effective_epochs(&self) -> f64 {
        self.epochs * self.data_fraction
    }
}

/// A policy mapping iteration levels (1-based) to trial budgets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BudgetPolicy {
    /// Epoch-based: `epochs = min(epochs_per_iteration · it, max_epochs)`,
    /// full dataset.
    Epoch {
        /// Epochs added per iteration level (the paper uses 2).
        epochs_per_iteration: f64,
        /// Cap on epochs.
        max_epochs: f64,
    },
    /// Dataset-based: one epoch on `min(1, fraction_per_iteration · it)`
    /// of the data.
    Dataset {
        /// Data fraction added per iteration level (the paper uses 0.1).
        fraction_per_iteration: f64,
    },
    /// The paper's multi-budget (Algorithm 2): both dimensions grow
    /// proportionally to the iteration and cap independently.
    Multi {
        /// Minimum (and per-iteration increment of) epochs.
        min_epochs: f64,
        /// Cap on epochs.
        max_epochs: f64,
        /// Minimum (and per-iteration increment of) data fraction.
        min_fraction: f64,
    },
}

impl BudgetPolicy {
    /// The paper's epoch-based baseline (2 epochs per iteration, capped).
    #[must_use]
    pub fn epoch_default() -> Self {
        BudgetPolicy::Epoch {
            epochs_per_iteration: 2.0,
            max_epochs: 16.0,
        }
    }

    /// The paper's dataset-based baseline (10% per iteration).
    #[must_use]
    pub fn dataset_default() -> Self {
        BudgetPolicy::Dataset {
            fraction_per_iteration: 0.1,
        }
    }

    /// The paper's multi-budget defaults (§4.3's running example: start
    /// at 2 epochs / 10% data, cap at 10 epochs / 100%).
    #[must_use]
    pub fn multi_default() -> Self {
        BudgetPolicy::Multi {
            min_epochs: 2.0,
            max_epochs: 10.0,
            min_fraction: 0.1,
        }
    }

    /// The budget granted at iteration level `iteration` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `iteration` is zero.
    #[must_use]
    pub fn budget(&self, iteration: u32) -> TrialBudget {
        assert!(iteration >= 1, "iteration levels are 1-based");
        let it = f64::from(iteration);
        match *self {
            BudgetPolicy::Epoch {
                epochs_per_iteration,
                max_epochs,
            } => TrialBudget::new((epochs_per_iteration * it).min(max_epochs), 1.0),
            BudgetPolicy::Dataset {
                fraction_per_iteration,
            } => TrialBudget::new(1.0, (fraction_per_iteration * it).min(1.0)),
            BudgetPolicy::Multi {
                min_epochs,
                max_epochs,
                min_fraction,
            } => TrialBudget::new(
                (min_epochs * it).min(max_epochs),
                (min_fraction * it).min(1.0),
            ),
        }
    }

    /// Short display name matching the paper's legends.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            BudgetPolicy::Epoch { .. } => "epochs",
            BudgetPolicy::Dataset { .. } => "dataset",
            BudgetPolicy::Multi { .. } => "multi-budget",
        }
    }
}

impl std::fmt::Display for BudgetPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_persisted_budget_is_one_new_would_build() {
        let read = |text: &str| serde_json::from_str::<TrialBudget>(text);
        assert_eq!(
            read(r#"{"epochs": 5e-324, "data_fraction": 1.0}"#).unwrap(),
            TrialBudget::new(5e-324, 1.0)
        );
        for (field, spelling) in [
            ("epochs", "0"),
            ("epochs", "-1"),
            ("epochs", "-5e-324"),
            ("data_fraction", "0"),
            ("data_fraction", "1.0000000000000002"),
            ("data_fraction", "1.7976931348623157e308"),
        ] {
            let text = if field == "epochs" {
                format!(r#"{{"epochs": {spelling}, "data_fraction": 0.5}}"#)
            } else {
                format!(r#"{{"epochs": 2.0, "data_fraction": {spelling}}}"#)
            };
            let error = read(&text).expect_err(&text).to_string();
            assert!(error.starts_with(&format!("{field}: ")), "{text}: {error}");
        }
        let missing = read(r#"{"epochs": 2.0}"#).unwrap_err().to_string();
        assert!(missing.contains("data_fraction"), "{missing}");
    }

    #[test]
    fn epoch_policy_grows_epochs_on_full_data() {
        let p = BudgetPolicy::epoch_default();
        let b1 = p.budget(1);
        assert_eq!(b1.epochs, 2.0);
        assert_eq!(b1.data_fraction, 1.0);
        let b4 = p.budget(4);
        assert_eq!(b4.epochs, 8.0);
        let b99 = p.budget(99);
        assert_eq!(b99.epochs, 16.0, "cap applies");
    }

    #[test]
    fn dataset_policy_grows_fraction_single_epoch() {
        let p = BudgetPolicy::dataset_default();
        assert_eq!(p.budget(1), TrialBudget::new(1.0, 0.1));
        assert_eq!(p.budget(5), TrialBudget::new(1.0, 0.5));
        assert_eq!(
            p.budget(20),
            TrialBudget::new(1.0, 1.0),
            "fraction caps at 1"
        );
    }

    #[test]
    fn multi_budget_matches_algorithm2_example() {
        // §4.3: min epochs 2, min fraction 10%: iteration 2 = 4 epochs on
        // 20%, iteration 3 = 6 epochs on 30%; epochs cap at 10 from the
        // 5th iteration while the dataset keeps growing to the 10th.
        let p = BudgetPolicy::multi_default();
        let close = |b: TrialBudget, epochs: f64, frac: f64| {
            assert!((b.epochs - epochs).abs() < 1e-9, "epochs {b:?} vs {epochs}");
            assert!(
                (b.data_fraction - frac).abs() < 1e-9,
                "fraction {b:?} vs {frac}"
            );
        };
        close(p.budget(1), 2.0, 0.1);
        close(p.budget(2), 4.0, 0.2);
        close(p.budget(3), 6.0, 0.3);
        close(p.budget(5), 10.0, 0.5);
        close(p.budget(7), 10.0, 0.7); // epochs capped, data grows
        close(p.budget(10), 10.0, 1.0);
        close(p.budget(12), 10.0, 1.0);
    }

    #[test]
    fn multi_budget_early_iterations_are_cheaper_than_epoch_budget() {
        let multi = BudgetPolicy::multi_default();
        let epoch = BudgetPolicy::epoch_default();
        for it in 1..=4 {
            assert!(
                multi.budget(it).effective_epochs() < epoch.budget(it).effective_epochs(),
                "iteration {it}"
            );
        }
    }

    #[test]
    fn effective_epochs_multiplies_dimensions() {
        assert_eq!(TrialBudget::new(4.0, 0.5).effective_epochs(), 2.0);
        assert_eq!(TrialBudget::new(1.0, 1.0).effective_epochs(), 1.0);
    }

    #[test]
    fn budgets_grow_monotonically() {
        for policy in [
            BudgetPolicy::epoch_default(),
            BudgetPolicy::dataset_default(),
            BudgetPolicy::multi_default(),
        ] {
            let mut last = 0.0;
            for it in 1..=15 {
                let eff = policy.budget(it).effective_epochs();
                assert!(eff >= last, "{policy}: effective epochs must not shrink");
                last = eff;
            }
        }
    }

    #[test]
    fn names_match_paper_legends() {
        assert_eq!(BudgetPolicy::epoch_default().name(), "epochs");
        assert_eq!(BudgetPolicy::dataset_default().to_string(), "dataset");
        assert_eq!(BudgetPolicy::multi_default().name(), "multi-budget");
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn iteration_zero_rejected() {
        let _ = BudgetPolicy::multi_default().budget(0);
    }

    #[test]
    #[should_panic(expected = "data fraction")]
    fn budget_rejects_bad_fraction() {
        let _ = TrialBudget::new(1.0, 1.5);
    }
}
