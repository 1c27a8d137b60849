//! Glue between the scenario tuner and the serving runtime.
//!
//! `edgetune-serving` is deliberately ignorant of the tuner: its runtime
//! asks an [`OnlineTuner`] for a fresh configuration when traffic drifts.
//! This module provides that implementation — [`ScenarioRetuner`]
//! runs the sweep of
//! [`tune_for_scenario`](crate::scenario::tune_for_scenario) against
//! the estimated arrival rate, reading latencies from a table it builds
//! once, and converts the [`ScenarioRecommendation`] into a deployable
//! [`ServingConfig`] — plus the conversion helper the CLI and examples use
//! to deploy an offline recommendation.

use edgetune_device::latency::{simulate_inference, CpuAllocation};
use edgetune_device::profile::WorkProfile;
use edgetune_device::spec::DeviceSpec;
use edgetune_serving::{ConfigSelector, FrontierEntry, OnlineTuner, ServingConfig};
use edgetune_util::rng::SeedStream;
use edgetune_util::units::JoulesPerItem;
use edgetune_util::Result;

use crate::batching::MultiStreamScenario;
use crate::inference::InferenceSpace;
use crate::scenario::{latency_table, sweep, LatencyTable, Scenario, ScenarioRecommendation};

/// Arrivals simulated per online re-tune: enough to average the queueing
/// behaviour without stalling the serving loop.
const RETUNE_ARRIVALS: usize = 400;

/// Converts an offline scenario recommendation into a deployable serving
/// configuration, recording the arrival rate it was tuned for (0 disables
/// drift detection) and the tuner's predicted mean response.
#[must_use]
pub fn config_from_recommendation(rec: &ScenarioRecommendation, tuned_rate: f64) -> ServingConfig {
    ServingConfig::new(rec.batch, rec.cores, rec.freq)
        .with_tuned_rate(tuned_rate)
        .with_prediction(rec.mean_response)
}

/// The arrival rate implied by a scenario: the Poisson rate of the
/// multi-stream pattern, or samples-per-query over the period for the
/// server pattern.
#[must_use]
pub fn scenario_rate(scenario: &Scenario) -> f64 {
    match scenario {
        Scenario::Server(s) => f64::from(s.samples_per_query) / s.period.value(),
        Scenario::MultiStream(s) => s.rate,
    }
}

/// Re-tunes serving configurations by sweeping the inference space with
/// the core scenario tuner.
#[derive(Debug, Clone)]
pub struct ScenarioRetuner {
    device: DeviceSpec,
    space: InferenceSpace,
    profile: WorkProfile,
    /// The latencies its sweeps read, built once.
    latencies: LatencyTable,
}

impl ScenarioRetuner {
    /// Creates a re-tuner sweeping `space` for `profile` on `device`, and
    /// tables the latencies its sweeps read.
    #[must_use]
    pub fn new(device: DeviceSpec, space: InferenceSpace, profile: WorkProfile) -> Self {
        let latencies = latency_table(&device, &space, &profile, RETUNE_ARRIVALS);
        ScenarioRetuner {
            device,
            space,
            profile,
            latencies,
        }
    }

    /// Tunes a deployable configuration for an explicit scenario (the
    /// offline path: produce the initial configuration before serving).
    ///
    /// # Errors
    ///
    /// Propagates the errors of
    /// [`tune_for_scenario`](crate::scenario::tune_for_scenario) (invalid
    /// space, or no stable configuration for a server scenario).
    pub fn recommend(&self, scenario: &Scenario, seed: SeedStream) -> Result<ServingConfig> {
        let rec = sweep(
            &self.device,
            &self.space,
            &self.profile,
            scenario,
            seed,
            &self.latencies,
        )?;
        Ok(config_from_recommendation(&rec, scenario_rate(scenario)))
    }

    /// Pre-tunes one configuration per rate in `rates` and packs them
    /// into a [`ConfigSelector`]: the frontier the serving runtime
    /// consults *before* paying for a live re-tune. Each rung gets its
    /// own derived seed, a capacity equal to the rate it was tuned for,
    /// and a per-item energy read off the device model at its batch
    /// size; untunable rates (sweep finds nothing stable) are skipped.
    #[must_use]
    pub fn precompute_frontier(&self, rates: &[f64], seed: SeedStream) -> ConfigSelector {
        let mut entries = Vec::new();
        for (i, &rate) in rates.iter().enumerate() {
            if !(rate > 0.0 && rate.is_finite()) {
                continue;
            }
            let scenario = Scenario::MultiStream(MultiStreamScenario::new(rate, RETUNE_ARRIVALS));
            let Ok(config) = self.recommend(&scenario, seed.child_indexed("frontier", i as u64))
            else {
                continue;
            };
            let Ok(alloc) = CpuAllocation::new(&self.device, config.cores, config.freq) else {
                continue;
            };
            let exec = simulate_inference(&self.device, &alloc, &self.profile, config.batch_cap);
            entries.push(FrontierEntry {
                config,
                capacity: rate,
                energy_per_item: JoulesPerItem::new(
                    exec.energy.value() / f64::from(config.batch_cap),
                ),
            });
        }
        ConfigSelector::new(entries)
    }
}

/// A geometric ladder of arrival rates around `base_rate` for frontier
/// pre-computation: `n` points spanning `base_rate / 2` to
/// `base_rate * 8`, wide enough to cover the multi-x upward drifts the
/// drift experiments inject while keeping a cheap point for lulls.
#[must_use]
pub fn frontier_rates(base_rate: f64, n: usize) -> Vec<f64> {
    assert!(base_rate > 0.0, "rate ladder needs a positive base");
    if n <= 1 {
        return vec![base_rate];
    }
    let lo = base_rate * 0.5;
    let hi = base_rate * 8.0;
    (0..n)
        .map(|i| lo * (hi / lo).powf(i as f64 / (n - 1) as f64))
        .collect()
}

impl OnlineTuner for ScenarioRetuner {
    /// Re-tunes for Poisson traffic at the drift-estimated rate; `None`
    /// when the estimate is unusable or the sweep finds no configuration.
    fn retune(&self, estimated_rate: f64, seed: SeedStream) -> Option<ServingConfig> {
        if !(estimated_rate > 0.0 && estimated_rate.is_finite()) {
            return None;
        }
        let scenario =
            Scenario::MultiStream(MultiStreamScenario::new(estimated_rate, RETUNE_ARRIVALS));
        self.recommend(&scenario, seed).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::tune_for_scenario;
    use edgetune_util::units::Seconds;
    use edgetune_workloads::catalog::Workload;
    use edgetune_workloads::WorkloadId;

    fn retuner() -> ScenarioRetuner {
        let device = DeviceSpec::raspberry_pi_3b();
        let space = InferenceSpace::for_device(&device);
        let profile = Workload::by_id(WorkloadId::Ic).profile(18.0);
        ScenarioRetuner::new(device, space, profile)
    }

    #[test]
    fn retune_produces_a_deployable_config() {
        let config = retuner().retune(10.0, SeedStream::new(1)).expect("tunable");
        assert!(config.batch_cap >= 1);
        assert!(config.tuned_rate > 0.0);
        assert!(config.predicted_mean_response.is_some());
    }

    #[test]
    fn retune_tracks_the_load() {
        let r = retuner();
        let light = r.retune(0.2, SeedStream::new(2)).unwrap();
        let heavy = r.retune(30.0, SeedStream::new(2)).unwrap();
        assert!(
            heavy.batch_cap > light.batch_cap,
            "30/s needs aggregation: light={} heavy={}",
            light.batch_cap,
            heavy.batch_cap
        );
    }

    #[test]
    fn degenerate_estimates_are_rejected() {
        let r = retuner();
        assert!(r.retune(0.0, SeedStream::new(3)).is_none());
        assert!(r.retune(-5.0, SeedStream::new(3)).is_none());
        assert!(r.retune(f64::NAN, SeedStream::new(3)).is_none());
        assert!(r.retune(f64::INFINITY, SeedStream::new(3)).is_none());
    }

    #[test]
    fn retune_is_deterministic() {
        let r = retuner();
        assert_eq!(
            r.retune(12.0, SeedStream::new(4)),
            r.retune(12.0, SeedStream::new(4))
        );
    }

    #[test]
    fn batches_past_the_table_are_simulated() {
        // Two thousand arrivals at 200/s form batches of more than a
        // re-tune's 400 samples, which the table does not hold.
        let r = retuner();
        let space = InferenceSpace {
            batches: vec![1, 1_000],
            ..r.space
        };
        let r = ScenarioRetuner::new(r.device, space, r.profile);
        let scenario = Scenario::MultiStream(MultiStreamScenario::new(200.0, 2_000));
        let seed = SeedStream::new(9);
        let rec = tune_for_scenario(&r.device, &r.space, &r.profile, &scenario, seed).unwrap();
        assert_eq!(rec.batch, 1_000);
        assert_eq!(
            r.recommend(&scenario, seed).unwrap(),
            config_from_recommendation(&rec, 200.0)
        );
    }

    #[test]
    fn precomputed_frontier_covers_its_rate_ladder() {
        let r = retuner();
        let rates = frontier_rates(5.0, 4);
        let selector = r.precompute_frontier(&rates, SeedStream::new(6));
        assert_eq!(selector.len(), 4, "every rung in the ladder is tunable");
        for &rate in &rates {
            let entry = selector
                .select(rate, Seconds::new(f64::INFINITY), None)
                .expect("a point tuned for this rate exists");
            assert!(entry.capacity >= rate);
            assert!(entry.energy_per_item.value() > 0.0);
        }
        // Determinism: same seed, same frontier.
        let again = r.precompute_frontier(&rates, SeedStream::new(6));
        assert_eq!(selector, again);
    }

    #[test]
    fn frontier_rates_span_the_drift_envelope() {
        let rates = frontier_rates(5.0, 6);
        assert_eq!(rates.len(), 6);
        assert!((rates[0] - 2.5).abs() < 1e-9);
        assert!((rates[5] - 40.0).abs() < 1e-9);
        assert!(rates.windows(2).all(|w| w[0] < w[1]), "ladder ascends");
        assert_eq!(frontier_rates(5.0, 1), vec![5.0]);
    }

    #[test]
    fn scenario_rate_covers_both_patterns() {
        use crate::batching::ServerScenario;
        let server = Scenario::Server(ServerScenario::new(16, Seconds::new(4.0)));
        assert!((scenario_rate(&server) - 4.0).abs() < 1e-12);
        let multi = Scenario::MultiStream(MultiStreamScenario::new(7.5, 100));
        assert!((scenario_rate(&multi) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn recommendation_conversion_preserves_the_operating_point() {
        let r = retuner();
        let scenario = Scenario::MultiStream(MultiStreamScenario::new(10.0, 300));
        let seed = SeedStream::new(5);
        let rec = tune_for_scenario(&r.device, &r.space, &r.profile, &scenario, seed).unwrap();
        let config = r.recommend(&scenario, seed).unwrap();
        assert_eq!(config.batch_cap, rec.batch);
        assert_eq!(config.cores, rec.cores);
        assert_eq!(config.freq, rec.freq);
        assert_eq!(config.predicted_mean_response, Some(rec.mean_response));
        assert!((config.tuned_rate - 10.0).abs() < 1e-12);
    }
}
