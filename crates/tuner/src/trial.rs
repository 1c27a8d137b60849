//! Trial records and tuning history.

use edgetune_util::units::{Joules, Seconds};
use serde::{DeError, Deserialize, Map, Serialize, Value};

use crate::budget::TrialBudget;
use crate::pareto::ObjectiveVector;
use crate::space::Config;

/// Why a trial was abandoned by the fault-tolerance layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum TrialFailure {
    /// The training process crashed and exhausted its retry budget.
    Crash,
    /// The trial exceeded its deadline and was treated as hung.
    Timeout,
    /// The inference side never produced a recommendation and the
    /// degradation ladder had no fallback left.
    InferenceLoss,
}

/// What a trial evaluation reports back to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TrialOutcome {
    /// Scheduler score — **lower is better** (objective functions convert
    /// maximisation into minimisation).
    pub score: f64,
    /// Model accuracy reached by the trial.
    pub accuracy: f64,
    /// Wall-clock time the trial consumed.
    pub runtime: Seconds,
    /// Energy the trial consumed.
    pub energy: Joules,
    /// Failure marker set by the fault-tolerance layer when the trial was
    /// abandoned after exhausting its retries. `None` for every healthy
    /// (or naturally infeasible) trial, and omitted from JSON so
    /// fault-free reports are unchanged by its existence.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub failure: Option<TrialFailure>,
    /// The trial's multi-objective coordinates, set only when the study
    /// runs in Pareto mode. `None` in scalar mode and omitted from JSON
    /// so scalar reports are unchanged by its existence.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub vector: Option<ObjectiveVector>,
}

impl TrialOutcome {
    /// Creates an outcome.
    ///
    /// # Panics
    ///
    /// Panics if `score` is NaN (infinite scores are allowed: they mark
    /// failed/infeasible trials).
    #[must_use]
    pub fn new(score: f64, accuracy: f64, runtime: Seconds, energy: Joules) -> Self {
        assert!(!score.is_nan(), "trial score must not be NaN");
        TrialOutcome {
            score,
            accuracy,
            runtime,
            energy,
            failure: None,
            vector: None,
        }
    }

    /// Attaches the trial's objective-space coordinates (Pareto mode).
    #[must_use]
    pub fn with_vector(mut self, vector: ObjectiveVector) -> Self {
        self.vector = Some(vector);
        self
    }

    /// An abandoned trial: infinite penalty score, zero accuracy, and the
    /// (wasted) runtime and energy the attempts consumed.
    #[must_use]
    pub fn failed(failure: TrialFailure, runtime: Seconds, energy: Joules) -> Self {
        TrialOutcome {
            score: f64::INFINITY,
            accuracy: 0.0,
            runtime,
            energy,
            failure: Some(failure),
            vector: None,
        }
    }

    /// True when the fault-tolerance layer abandoned this trial.
    #[must_use]
    pub fn is_failed(&self) -> bool {
        self.failure.is_some()
    }
}

/// Hand-written only for `score`: JSON has no infinity, so the `+∞` of a
/// failed or infeasible trial is written as `null`, which `f64` refuses;
/// here `null` reads back as `f64::INFINITY` and a report containing such
/// a trial round-trips. Every other field reads as the derive would.
impl Deserialize for TrialOutcome {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        fn field<T: Deserialize>(obj: &Map, name: &str) -> Result<T, DeError> {
            match obj.get(name) {
                Some(x) => T::from_json_value(x).map_err(|e| e.in_field(name)),
                None => T::from_json_value(&Value::Null).map_err(|_| DeError::missing_field(name)),
            }
        }
        let obj = v
            .as_object()
            .ok_or_else(|| DeError::expected("object", v))?;
        Ok(TrialOutcome {
            score: match obj.get("score") {
                Some(Value::Null) => f64::INFINITY,
                _ => field(obj, "score")?,
            },
            accuracy: field(obj, "accuracy")?,
            runtime: field(obj, "runtime")?,
            energy: field(obj, "energy")?,
            failure: field(obj, "failure")?,
            vector: field(obj, "vector")?,
        })
    }
}

/// One completed trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialRecord {
    /// Sequential trial identifier (order of completion).
    pub id: u64,
    /// The evaluated configuration.
    pub config: Config,
    /// The budget the trial ran under.
    pub budget: TrialBudget,
    /// The observed outcome.
    pub outcome: TrialOutcome,
}

/// An append-only log of completed trials.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct History {
    records: Vec<TrialRecord>,
}

impl History {
    /// An empty history.
    #[must_use]
    pub fn new() -> Self {
        History::default()
    }

    /// Appends a record.
    pub fn push(&mut self, record: TrialRecord) {
        self.records.push(record);
    }

    /// All records, in completion order.
    #[must_use]
    pub fn records(&self) -> &[TrialRecord] {
        &self.records
    }

    /// Number of completed trials.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no trials have completed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The record with the lowest score across the whole history.
    ///
    /// Beware: raw scores are only comparable *within* one budget level
    /// (a 2-epoch trial trivially has a lower time×accuracy ratio than a
    /// converged one); use [`History::winner`] for the tuning job's
    /// output.
    #[must_use]
    pub fn best(&self) -> Option<&TrialRecord> {
        self.records.iter().min_by(|a, b| {
            a.outcome
                .score
                .partial_cmp(&b.outcome.score)
                .expect("scores are not NaN by construction")
        })
    }

    /// The *winning trial*: the best-scoring record among those evaluated
    /// at the highest budget reached — the final-rung winner a
    /// successive-halving tuner outputs to the user.
    #[must_use]
    pub fn winner(&self) -> Option<&TrialRecord> {
        let max_budget = self
            .records
            .iter()
            .map(|r| r.budget.effective_epochs())
            .fold(f64::NEG_INFINITY, f64::max);
        self.records
            .iter()
            .filter(|r| r.budget.effective_epochs() >= max_budget - 1e-9)
            .min_by(|a, b| {
                a.outcome
                    .score
                    .partial_cmp(&b.outcome.score)
                    .expect("scores are not NaN by construction")
            })
    }

    /// Total wall-clock time across all trials — the *tuning duration* the
    /// paper's figures report (trials run sequentially on the testbed).
    #[must_use]
    pub fn total_runtime(&self) -> Seconds {
        self.records.iter().map(|r| r.outcome.runtime).sum()
    }

    /// Total energy across all trials — the *tuning energy* of the
    /// figures.
    #[must_use]
    pub fn total_energy(&self) -> Joules {
        self.records.iter().map(|r| r.outcome.energy).sum()
    }

    /// `(config, score)` observations for model-based samplers, highest
    /// budget first so the sampler models the most faithful evidence, and
    /// — the sort is stable — *oldest* first within a budget. A sampler
    /// that reads only a prefix (TPE fits the first 128) therefore stops
    /// seeing new evidence once that many top-budget trials exist.
    #[must_use]
    pub fn observations(&self) -> Vec<(&Config, f64)> {
        let mut obs: Vec<&TrialRecord> = self.records.iter().collect();
        obs.sort_by(|a, b| {
            b.budget
                .effective_epochs()
                .partial_cmp(&a.budget.effective_epochs())
                .expect("budgets are finite")
        });
        obs.into_iter()
            .map(|r| (&r.config, r.outcome.score))
            .collect()
    }

    /// First trial id (completion index) at which accuracy reached
    /// `target`, if ever — convergence speed in Fig. 12.
    #[must_use]
    pub fn first_reaching_accuracy(&self, target: f64) -> Option<u64> {
        self.records
            .iter()
            .find(|r| r.outcome.accuracy >= target)
            .map(|r| r.id)
    }
}

impl Extend<TrialRecord> for History {
    fn extend<T: IntoIterator<Item = TrialRecord>>(&mut self, iter: T) {
        self.records.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, score: f64, accuracy: f64, runtime: f64, energy: f64) -> TrialRecord {
        TrialRecord {
            id,
            config: Config::new().with("x", id as f64),
            budget: TrialBudget::new(id as f64 + 1.0, 1.0),
            outcome: TrialOutcome::new(score, accuracy, Seconds::new(runtime), Joules::new(energy)),
        }
    }

    #[test]
    fn best_is_lowest_score() {
        let mut h = History::new();
        h.push(record(0, 5.0, 0.5, 10.0, 100.0));
        h.push(record(1, 2.0, 0.8, 10.0, 100.0));
        h.push(record(2, 9.0, 0.9, 10.0, 100.0));
        assert_eq!(h.best().unwrap().id, 1);
    }

    #[test]
    fn winner_only_considers_the_top_budget() {
        let mut h = History::new();
        // record() gives trial `id` a budget of `id + 1` epochs, so the
        // later trials ran at higher budgets.
        h.push(record(0, 0.1, 0.2, 1.0, 1.0)); // cheap rung, tiny score
        h.push(record(1, 5.0, 0.7, 10.0, 10.0));
        h.push(record(2, 7.0, 0.9, 20.0, 20.0)); // top budget, higher raw score
        assert_eq!(h.best().unwrap().id, 0, "raw best is the cheap trial");
        assert_eq!(h.winner().unwrap().id, 2, "winner comes from the top rung");
        assert!(History::new().winner().is_none());
    }

    #[test]
    fn winner_picks_lowest_score_within_the_top_rung() {
        let mut h = History::new();
        let mut top = |id: u64, score: f64| {
            let mut r = record(id, score, 0.8, 1.0, 1.0);
            r.budget = TrialBudget::new(10.0, 1.0);
            h.push(r);
        };
        top(0, 3.0);
        top(1, 1.0);
        top(2, 2.0);
        assert_eq!(h.winner().unwrap().id, 1);
    }

    #[test]
    fn totals_accumulate() {
        let mut h = History::new();
        h.push(record(0, 1.0, 0.5, 10.0, 100.0));
        h.push(record(1, 1.0, 0.5, 20.0, 300.0));
        assert_eq!(h.total_runtime(), Seconds::new(30.0));
        assert_eq!(h.total_energy(), Joules::new(400.0));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn observations_sorted_by_budget_desc() {
        let mut h = History::new();
        h.push(record(0, 1.0, 0.5, 1.0, 1.0)); // budget 1 epoch
        h.push(record(3, 2.0, 0.5, 1.0, 1.0)); // budget 4 epochs
        h.push(record(1, 3.0, 0.5, 1.0, 1.0)); // budget 2 epochs
        let obs = h.observations();
        assert_eq!(obs.len(), 3);
        assert_eq!(obs[0].1, 2.0, "highest budget first");
    }

    #[test]
    fn observations_keep_completion_order_within_a_budget() {
        let mut h = History::new();
        for (id, score) in [(0, 5.0), (1, 4.0), (2, 3.0)] {
            let mut r = record(id, score, 0.5, 1.0, 1.0);
            r.budget = TrialBudget::new(8.0, 1.0);
            h.push(r);
        }
        h.push(record(1, 9.0, 0.5, 1.0, 1.0)); // budget 2 epochs: last
        let scores: Vec<f64> = h.observations().iter().map(|(_, s)| *s).collect();
        assert_eq!(scores, vec![5.0, 4.0, 3.0, 9.0], "oldest first, not newest");
    }

    #[test]
    fn first_reaching_accuracy_finds_earliest() {
        let mut h = History::new();
        h.push(record(0, 1.0, 0.3, 1.0, 1.0));
        h.push(record(1, 1.0, 0.85, 1.0, 1.0));
        h.push(record(2, 1.0, 0.9, 1.0, 1.0));
        assert_eq!(h.first_reaching_accuracy(0.8), Some(1));
        assert_eq!(h.first_reaching_accuracy(0.99), None);
    }

    #[test]
    fn empty_history() {
        let h = History::new();
        assert!(h.is_empty());
        assert!(h.best().is_none());
        assert_eq!(h.total_runtime(), Seconds::ZERO);
    }

    #[test]
    fn infinite_score_marks_failed_trials_but_nan_is_rejected() {
        let r = TrialOutcome::new(f64::INFINITY, 0.0, Seconds::ZERO, Joules::ZERO);
        assert!(r.score.is_infinite());
        let caught = std::panic::catch_unwind(|| {
            TrialOutcome::new(f64::NAN, 0.0, Seconds::ZERO, Joules::ZERO)
        });
        assert!(caught.is_err());
    }

    #[test]
    fn failure_marker_is_absent_from_healthy_json() {
        let healthy = TrialOutcome::new(1.0, 0.9, Seconds::new(5.0), Joules::new(2.0));
        assert!(!healthy.is_failed());
        let json = serde_json::to_string(&healthy).unwrap();
        assert!(
            !json.contains("failure"),
            "healthy outcomes must serialize exactly as before: {json}"
        );
        let back: TrialOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(healthy, back);
    }

    #[test]
    fn vector_is_absent_from_scalar_json() {
        let scalar = TrialOutcome::new(1.0, 0.9, Seconds::new(5.0), Joules::new(2.0));
        let json = serde_json::to_string(&scalar).unwrap();
        assert!(
            !json.contains("vector"),
            "scalar outcomes must serialize exactly as before: {json}"
        );
        let vectored = scalar.with_vector(ObjectiveVector::new(0.9, 5.0, 0.1));
        let json = serde_json::to_string(&vectored).unwrap();
        assert!(json.contains("\"vector\""));
        let back: TrialOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(vectored, back);
    }

    #[test]
    fn failed_outcome_carries_penalty_and_marker() {
        let failed =
            TrialOutcome::failed(TrialFailure::Crash, Seconds::new(40.0), Joules::new(9.0));
        assert!(failed.is_failed());
        assert!(failed.score.is_infinite());
        assert_eq!(failed.accuracy, 0.0);
        let json = serde_json::to_string(&failed).unwrap();
        assert!(json.contains("\"failure\":\"crash\""));
        // The infinite score is written as `null` and reads back infinite.
        assert!(json.contains("\"score\":null"), "{json}");
        let back: TrialOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(back, failed);
    }

    #[test]
    fn outcome_deserialization_still_rejects_malformed_input() {
        let parse = |json: &str| serde_json::from_str::<TrialOutcome>(json);
        // A missing score is not an infinite one.
        let err = parse(r#"{"accuracy":0.0,"runtime":1.0,"energy":1.0}"#).unwrap_err();
        assert!(err.to_string().contains("score"), "{err}");
        assert!(parse(r#"{"score":"x","accuracy":0.0,"runtime":1.0,"energy":1.0}"#).is_err());
        assert!(parse(r#"{"score":1.0,"accuracy":null,"runtime":1.0,"energy":1.0}"#).is_err());
        assert!(parse("[1.0]").is_err());
    }

    #[test]
    fn extend_appends() {
        let mut h = History::new();
        h.extend(vec![
            record(0, 1.0, 0.1, 1.0, 1.0),
            record(1, 2.0, 0.2, 1.0, 1.0),
        ]);
        assert_eq!(h.len(), 2);
    }
}
