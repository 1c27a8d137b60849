//! Objective functions and metrics (§4.4 of the paper).
//!
//! The Model Tuning Server minimises a performance-to-accuracy ratio:
//!
//! ```text
//! ratio = training_time   · inference_time   / accuracy     (runtime)
//! ratio = training_energy · inference_energy / accuracy     (energy)
//! ```
//!
//! while the Inference Tuning Server minimises inference runtime or
//! energy alone. Inference-unaware baselines (Tune, HyperPower) drop the
//! inference factor.

use edgetune_util::units::{Joules, JoulesPerItem, Seconds};
use serde::{Deserialize, Serialize};

/// Which physical metric an objective optimises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Metric {
    /// Wall-clock time.
    Runtime,
    /// Energy consumption.
    Energy,
}

impl Metric {
    /// The metric's name: `runtime` or `energy`.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Metric::Runtime => "runtime",
            Metric::Energy => "energy",
        }
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parses a metric name, case-insensitively: `runtime` or `energy`.
impl std::str::FromStr for Metric {
    type Err = String;

    fn from_str(name: &str) -> Result<Self, String> {
        match name.to_lowercase().as_str() {
            "runtime" => Ok(Metric::Runtime),
            "energy" => Ok(Metric::Energy),
            other => Err(format!("unknown metric '{other}' (runtime|energy)")),
        }
    }
}

/// Everything a training trial measured, handed to the objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainMeasurement {
    /// Accuracy the trial reached.
    pub accuracy: f64,
    /// Training wall-clock time of the trial.
    pub train_time: Seconds,
    /// Training energy of the trial.
    pub train_energy: Joules,
    /// Estimated per-item inference latency on the target device, if the
    /// inference server has reported one.
    pub inference_time: Option<Seconds>,
    /// Estimated per-item inference energy, if reported.
    pub inference_energy: Option<JoulesPerItem>,
}

/// The Model Tuning Server's objective function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainObjective {
    metric: Metric,
    inference_aware: bool,
    accuracy_only: bool,
}

impl TrainObjective {
    /// The paper's inference-aware ratio objective.
    #[must_use]
    pub fn inference_aware(metric: Metric) -> Self {
        TrainObjective {
            metric,
            inference_aware: true,
            accuracy_only: false,
        }
    }

    /// An inference-unaware variant: `train_metric / accuracy`.
    #[must_use]
    pub fn training_only(metric: Metric) -> Self {
        TrainObjective {
            metric,
            inference_aware: false,
            accuracy_only: false,
        }
    }

    /// Pure accuracy maximisation (`score = 1 − accuracy`) — how
    /// conventional tuning services such as the Tune baseline define
    /// success ("assist users to achieve the target model accuracy",
    /// §1).
    #[must_use]
    pub fn accuracy_only() -> Self {
        TrainObjective {
            metric: Metric::Runtime,
            inference_aware: false,
            accuracy_only: true,
        }
    }

    /// The metric being optimised.
    #[must_use]
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Scores a measurement; **lower is better**. Returns `+∞` for
    /// infeasible trials (zero/negative accuracy, or —
    /// for inference-aware scoring — a missing inference estimate).
    #[must_use]
    pub fn score(&self, m: &TrainMeasurement) -> f64 {
        if m.accuracy <= 0.0 {
            return f64::INFINITY;
        }
        if self.accuracy_only {
            return 1.0 - m.accuracy;
        }
        let train_factor = match self.metric {
            Metric::Runtime => m.train_time.value(),
            Metric::Energy => m.train_energy.value(),
        };
        let inference_factor = if self.inference_aware {
            match self.metric {
                Metric::Runtime => match m.inference_time {
                    Some(t) => t.value(),
                    None => return f64::INFINITY,
                },
                Metric::Energy => match m.inference_energy {
                    Some(e) => e.value(),
                    None => return f64::INFINITY,
                },
            }
        } else {
            1.0
        };
        train_factor * inference_factor / m.accuracy
    }
}

/// The Inference Tuning Server's objective: minimise per-item inference
/// runtime or energy (§4.4: "defined only in terms of inference
/// performance").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferenceObjective {
    metric: Metric,
}

impl InferenceObjective {
    /// Creates the objective for a metric.
    #[must_use]
    pub fn new(metric: Metric) -> Self {
        InferenceObjective { metric }
    }

    /// Scores a per-item latency/energy pair; lower is better.
    #[must_use]
    pub fn score(&self, latency_per_item: Seconds, energy_per_item: JoulesPerItem) -> f64 {
        match self.metric {
            Metric::Runtime => latency_per_item.value(),
            Metric::Energy => energy_per_item.value(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measurement(accuracy: f64) -> TrainMeasurement {
        TrainMeasurement {
            accuracy,
            train_time: Seconds::new(100.0),
            train_energy: Joules::new(5000.0),
            inference_time: Some(Seconds::new(0.05)),
            inference_energy: Some(JoulesPerItem::new(0.4)),
        }
    }

    #[test]
    fn runtime_ratio_matches_paper_formula() {
        let obj = TrainObjective::inference_aware(Metric::Runtime);
        let m = measurement(0.8);
        assert!((obj.score(&m) - 100.0 * 0.05 / 0.8).abs() < 1e-12);
    }

    #[test]
    fn energy_ratio_matches_paper_formula() {
        let obj = TrainObjective::inference_aware(Metric::Energy);
        let m = measurement(0.8);
        assert!((obj.score(&m) - 5000.0 * 0.4 / 0.8).abs() < 1e-9);
    }

    #[test]
    fn higher_accuracy_scores_better() {
        let obj = TrainObjective::inference_aware(Metric::Runtime);
        assert!(obj.score(&measurement(0.9)) < obj.score(&measurement(0.5)));
    }

    #[test]
    fn training_only_ignores_inference() {
        let obj = TrainObjective::training_only(Metric::Runtime);
        let mut m = measurement(0.8);
        let with = obj.score(&m);
        m.inference_time = None;
        m.inference_energy = None;
        assert_eq!(obj.score(&m), with, "inference factors must not matter");
        assert!((with - 100.0 / 0.8).abs() < 1e-12);
    }

    #[test]
    fn inference_aware_without_estimate_is_infeasible() {
        let obj = TrainObjective::inference_aware(Metric::Runtime);
        let mut m = measurement(0.8);
        m.inference_time = None;
        assert!(obj.score(&m).is_infinite());
    }

    #[test]
    fn zero_accuracy_is_infeasible() {
        let obj = TrainObjective::training_only(Metric::Energy);
        assert!(obj.score(&measurement(0.0)).is_infinite());
    }

    #[test]
    fn inference_objective_picks_metric() {
        let t = InferenceObjective::new(Metric::Runtime);
        let e = InferenceObjective::new(Metric::Energy);
        let lat = Seconds::new(0.02);
        let en = JoulesPerItem::new(0.6);
        assert_eq!(t.score(lat, en), 0.02);
        assert_eq!(e.score(lat, en), 0.6);
        assert_eq!(t.metric, Metric::Runtime);
    }

    #[test]
    fn accuracy_only_ranks_by_accuracy_alone() {
        let obj = TrainObjective::accuracy_only();
        let fast_inaccurate = TrainMeasurement {
            accuracy: 0.6,
            train_time: Seconds::new(1.0),
            train_energy: Joules::new(1.0),
            inference_time: None,
            inference_energy: None,
        };
        let slow_accurate = TrainMeasurement {
            accuracy: 0.9,
            train_time: Seconds::new(1e6),
            train_energy: Joules::new(1e9),
            inference_time: None,
            inference_energy: None,
        };
        assert!(obj.score(&slow_accurate) < obj.score(&fast_inaccurate));
        assert!((obj.score(&slow_accurate) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn metric_display() {
        assert_eq!(Metric::Runtime.to_string(), "runtime");
        assert_eq!(Metric::Energy.to_string(), "energy");
    }
}
