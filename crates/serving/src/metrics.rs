//! The serving report: what a deployment actually delivered.
//!
//! Mirrors the tuning-side report (`TuningReport`) in spirit and
//! serialisation: one JSON artefact with the measured throughput,
//! response-time percentiles, SLO violation accounting, queue behaviour,
//! energy, and every configuration switch the drift loop performed.

use edgetune_util::stats::quantiles;
use edgetune_util::units::{Hertz, ItemsPerSecond, Joules, JoulesPerItem, Seconds};
use edgetune_util::{Error, Result};
use serde::Serialize;

/// How a drift-triggered configuration switch was decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SwitchSource {
    /// Stage two: a full online re-tune produced the new configuration.
    Retune,
    /// Stage one: the new configuration was looked up on a pre-computed
    /// Pareto frontier — no tuning trials were spent.
    Frontier,
}

/// True for the re-tune source — the serde skip predicate that
/// keeps re-tune switches byte-identical to pre-frontier reports.
fn is_retune(source: &SwitchSource) -> bool {
    matches!(source, SwitchSource::Retune)
}

/// One drift-triggered configuration hot-swap.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ConfigSwitch {
    /// Serving-clock time of the swap.
    pub at: Seconds,
    /// Arrival-rate estimate that triggered the re-tune.
    pub estimated_rate: f64,
    /// Batch cap before the swap.
    pub from_batch: u32,
    /// Batch cap after the swap.
    pub to_batch: u32,
    /// Cores before the swap.
    pub from_cores: u32,
    /// Cores after the swap.
    pub to_cores: u32,
    /// Frequency before the swap.
    pub from_freq: Hertz,
    /// Frequency after the swap.
    pub to_freq: Hertz,
    /// The re-tuner's predicted mean response under the new
    /// configuration, when it reported one.
    pub predicted_mean_response: Option<Seconds>,
    /// How the switch was decided. Not written for
    /// [`SwitchSource::Retune`], so reports from runs without a frontier
    /// selector keep their exact pre-frontier bytes.
    #[serde(skip_serializing_if = "is_retune")]
    pub source: SwitchSource,
}

/// Everything one serving run measured.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServingReport {
    /// Edge device the traffic was served on.
    pub device: String,
    /// Name of the traffic profile driven.
    pub trace: String,
    /// Root seed of the run.
    pub seed: u64,
    /// Requests that arrived.
    pub requests: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// `shed / requests`.
    pub shed_fraction: f64,
    /// Completion time of the last batch.
    pub makespan: Seconds,
    /// `served / makespan`.
    pub throughput: ItemsPerSecond,
    /// Mean response time over served requests.
    pub mean_response: Seconds,
    /// Median response time.
    pub p50_response: Seconds,
    /// 95th-percentile response time.
    pub p95_response: Seconds,
    /// 99th-percentile response time.
    pub p99_response: Seconds,
    /// The SLO response-time target the run served under.
    pub slo_target: Seconds,
    /// Served requests that completed after the target.
    pub late: u64,
    /// `(late + shed) / requests`: the fraction of all requests that
    /// missed the SLO, whether served late or never served.
    pub slo_violation_rate: f64,
    /// Batches executed.
    pub batches: u64,
    /// `served / batches`.
    pub mean_batch_size: f64,
    /// Mean backlog observed at batch completions.
    pub mean_queue_depth: f64,
    /// Deepest backlog observed.
    pub max_queue_depth: u64,
    /// Energy drawn by batch executions.
    pub energy: Joules,
    /// `energy / served`.
    pub energy_per_item: JoulesPerItem,
    /// Batch cap in force when the run ended.
    pub final_batch_cap: u32,
    /// Every drift-triggered configuration swap, in order.
    pub switches: Vec<ConfigSwitch>,
}

impl ServingReport {
    /// Serialises the report to pretty JSON, like the tuning reports.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Storage`] if serialisation fails.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string_pretty(self)
            .map_err(|e| Error::storage(format!("serialising serving report: {e}")))
    }

    /// A one-paragraph human summary (the JSON carries the detail).
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "served {}/{} requests ({} shed) at {:.1} items/s; \
             response p50/p95/p99 = {:.3}/{:.3}/{:.3} s (target {:.3} s); \
             SLO violation rate {:.1}%; {} batches (mean size {:.1}); \
             {:.3} J/item; {} config switch(es)",
            self.served,
            self.requests,
            self.shed,
            self.throughput.value(),
            self.p50_response.value(),
            self.p95_response.value(),
            self.p99_response.value(),
            self.slo_target.value(),
            self.slo_violation_rate * 100.0,
            self.batches,
            self.mean_batch_size,
            self.energy_per_item.value(),
            self.switches.len(),
        )
    }
}

/// Computes the mean and the p50/p95/p99 of a served sample; zeros when
/// nothing was served (fully shed runs). The mean is summed in the
/// sample's order first; the percentiles are then selected in place, so
/// `responses` is left reordered.
#[must_use]
pub fn response_percentiles(responses: &mut [f64]) -> (Seconds, Seconds, Seconds, Seconds) {
    if responses.is_empty() {
        return (Seconds::ZERO, Seconds::ZERO, Seconds::ZERO, Seconds::ZERO);
    }
    let mean = responses.iter().sum::<f64>() / responses.len() as f64;
    let [p50, p95, p99] = quantiles(responses, [0.50, 0.95, 0.99])
        .expect("non-empty sample")
        .map(Seconds::new);
    (Seconds::new(mean), p50, p95, p99)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ServingReport {
        ServingReport {
            device: "Raspberry Pi 3B+".to_string(),
            trace: "poisson".to_string(),
            seed: 42,
            requests: 100,
            served: 95,
            shed: 5,
            shed_fraction: 0.05,
            makespan: Seconds::new(10.0),
            throughput: ItemsPerSecond::new(9.5),
            mean_response: Seconds::new(0.2),
            p50_response: Seconds::new(0.15),
            p95_response: Seconds::new(0.6),
            p99_response: Seconds::new(0.9),
            slo_target: Seconds::new(1.0),
            late: 2,
            slo_violation_rate: 0.07,
            batches: 20,
            mean_batch_size: 4.75,
            mean_queue_depth: 3.0,
            max_queue_depth: 12,
            energy: Joules::new(50.0),
            energy_per_item: JoulesPerItem::new(50.0 / 95.0),
            final_batch_cap: 8,
            switches: vec![ConfigSwitch {
                at: Seconds::new(5.0),
                estimated_rate: 40.0,
                from_batch: 4,
                to_batch: 16,
                from_cores: 2,
                to_cores: 4,
                from_freq: Hertz::from_ghz(1.0),
                to_freq: Hertz::from_ghz(1.4),
                predicted_mean_response: Some(Seconds::new(0.3)),
                source: SwitchSource::Retune,
            }],
        }
    }

    #[test]
    fn summary_mentions_the_key_numbers() {
        let s = report().summary();
        assert!(s.contains("95/100"));
        assert!(s.contains("7.0%"));
        assert!(s.contains("1 config switch"));
    }

    #[test]
    fn percentiles_of_empty_sample_are_zero() {
        let (mean, p50, p95, p99) = response_percentiles(&mut []);
        assert_eq!(mean, Seconds::ZERO);
        assert_eq!(p50, Seconds::ZERO);
        assert_eq!(p95, Seconds::ZERO);
        assert_eq!(p99, Seconds::ZERO);
    }

    #[test]
    fn percentiles_are_ordered() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (mean, p50, p95, p99) = response_percentiles(&mut xs);
        assert!((mean.value() - 50.5).abs() < 1e-9);
        assert!(p50 < p95 && p95 < p99);
    }

    #[test]
    fn retune_switches_serialise_without_a_source_key() {
        let json = report().to_json().unwrap();
        assert!(
            !json.contains("\"source\""),
            "re-tune switches keep the pre-frontier shape"
        );
    }

    #[test]
    fn frontier_switches_round_trip_their_source() {
        let mut r = report();
        r.switches[0].source = SwitchSource::Frontier;
        let json = r.to_json().unwrap();
        let back: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(back["switches"][0]["source"].as_str(), Some("Frontier"));
        assert_eq!(serde_json::to_string_pretty(&back).unwrap(), json);
    }
}
