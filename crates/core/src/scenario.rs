//! Scenario-aware inference tuning: the Batching subcomponent applied
//! end to end.
//!
//! §3.4 describes Batching as part of the Inference Tuning Server: when
//! the deployment's traffic pattern is known (the Fig. 8 *server* or
//! *multi-stream* scenarios), the batch size should be chosen for that
//! pattern's **mean response time**, not for raw steady-state throughput.
//! A [`ScenarioRetuner`] sweeps the device's system parameters jointly
//! with the batch size under the scenario's queueing model and returns a
//! deployable [`ServingConfig`]. It is also the serving runtime's
//! [`OnlineTuner`]: `edgetune-serving` is deliberately ignorant of the
//! tuner, and asks it for a fresh configuration when the live arrival
//! rate drifts.

use edgetune_device::latency::{simulate_inference, CpuAllocation};
use edgetune_device::profile::WorkProfile;
use edgetune_device::spec::DeviceSpec;
use edgetune_serving::{ConfigSelector, FrontierEntry, OnlineTuner, ServingConfig};
use edgetune_util::rng::SeedStream;
use edgetune_util::units::{Hertz, JoulesPerItem, Seconds};
use edgetune_util::{Error, Result};

use crate::batching::{replay, MultiStreamScenario, ServerScenario};
use crate::inference::InferenceSpace;

/// Arrivals simulated per online re-tune: enough to average the queueing
/// behaviour without stalling the serving loop. The latency table is as
/// wide as the batches they can form.
const RETUNE_ARRIVALS: usize = 400;

/// A deployment traffic pattern (Fig. 8).
///
/// `Eq` is not derived: both variants carry `f64` timing fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scenario {
    /// Fixed-frequency queries of N samples each.
    Server(ServerScenario),
    /// Poisson single-sample arrivals.
    MultiStream(MultiStreamScenario),
}

/// The arrival rate implied by a scenario: the Poisson rate of the
/// multi-stream pattern, or samples-per-query over the period for the
/// server pattern.
fn scenario_rate(scenario: &Scenario) -> f64 {
    match scenario {
        Scenario::Server(s) => f64::from(s.samples_per_query) / s.period.value(),
        Scenario::MultiStream(s) => s.rate,
    }
}

/// The `simulate_inference` latency of batch sizes 1..=`width` on every
/// (cores, freq) allocation of a space, one row per allocation in sweep
/// order.
#[derive(Debug, Clone)]
struct LatencyTable {
    width: usize,
    rows: Vec<f64>,
}

/// Tables the latencies a sweep of `space` over [`RETUNE_ARRIVALS`]
/// multi-stream arrivals reads: no batch outgrows its cap or the
/// arrivals it is drawn from. An invalid space gets an empty table, as
/// the sweep rejects it before reading.
fn latency_table(
    device: &DeviceSpec,
    space: &InferenceSpace,
    profile: &WorkProfile,
) -> LatencyTable {
    if space.validate(device).is_err() {
        return LatencyTable {
            width: 0,
            rows: Vec::new(),
        };
    }
    let max_cap = space.batches.iter().max().map_or(0, |&cap| cap as usize);
    let width = max_cap.min(RETUNE_ARRIVALS);
    let mut rows = Vec::with_capacity(space.cores.len() * space.freqs.len() * width);
    for &cores in &space.cores {
        for &freq in &space.freqs {
            let alloc = CpuAllocation::new(device, cores, freq)
                .expect("a validated space has valid allocations");
            rows.extend((1..=width as u32).map(|size| {
                simulate_inference(device, &alloc, profile, size)
                    .latency
                    .value()
            }));
        }
    }
    LatencyTable { width, rows }
}

/// The sweep behind [`ScenarioRetuner::recommend`]: every (cores, freq)
/// allocation in order, every batch size under it, with latencies read
/// from `table` (a batch past it, which only a scenario with more
/// arrivals than a re-tune's forms, is simulated on the spot).
///
/// A multi-stream candidate whose cap never bound ties with every larger
/// cap on its allocation, and the strict `<` never picks a tie, so those
/// are skipped.
fn sweep(
    device: &DeviceSpec,
    space: &InferenceSpace,
    profile: &WorkProfile,
    scenario: &Scenario,
    seed: SeedStream,
    table: &LatencyTable,
) -> Result<ServingConfig> {
    space.validate(device)?;
    // Every multi-stream candidate replays the same arrivals, so they are
    // drawn once per sweep.
    let arrivals = match scenario {
        Scenario::Server(_) => Vec::new(),
        Scenario::MultiStream(s) => s.draw_arrivals(seed),
    };
    // (batch, cores, freq, response) of the best candidate so far.
    let mut best: Option<(u32, u32, Hertz, Seconds)> = None;
    let mut index = 0;
    for &cores in &space.cores {
        for &freq in &space.freqs {
            let alloc = CpuAllocation::new(device, cores, freq)?;
            // The smallest cap on this allocation that never bound: every
            // cap above it ties with it.
            let mut unbound: Option<u32> = None;
            for &batch in &space.batches {
                let response = match scenario {
                    Scenario::Server(s) => s.response_time(device, &alloc, profile, batch),
                    Scenario::MultiStream(_) => {
                        if unbound.is_some_and(|cap| batch > cap) {
                            continue;
                        }
                        let row = &table.rows[index * table.width..][..table.width];
                        let service = &mut |size: u32| match row.get(size as usize - 1) {
                            Some(&latency) => latency,
                            None => simulate_inference(device, &alloc, profile, size)
                                .latency
                                .value(),
                        };
                        let (stats, bound) = replay(&arrivals, batch, service);
                        if !bound {
                            unbound = Some(batch);
                        }
                        Some(stats.mean_response)
                    }
                };
                let Some(response) = response else { continue };
                if best.is_none_or(|(.., b)| response < b) {
                    best = Some((batch, cores, freq, response));
                }
            }
            index += 1;
        }
    }
    let (batch, cores, freq, mean_response) = best.ok_or_else(|| {
        Error::numerical("no stable configuration for the scenario's arrival rate")
    })?;
    Ok(ServingConfig::new(batch, cores, freq)
        .with_tuned_rate(scenario_rate(scenario))
        .with_prediction(mean_response))
}

/// The scenario tuner: sweeps an inference space for a traffic
/// pattern's mean response, reading latencies from a table it builds
/// once.
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
        let latencies = latency_table(&device, &space, &profile);
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
    /// The configuration is tuned for the scenario's arrival rate and
    /// predicts its mean response there.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for an invalid space and
    /// [`Error::Numerical`] when no configuration is stable (the server
    /// scenario's arrival rate exceeds every configuration's capacity).
    pub fn recommend(&self, scenario: &Scenario, seed: SeedStream) -> Result<ServingConfig> {
        sweep(
            &self.device,
            &self.space,
            &self.profile,
            scenario,
            seed,
            &self.latencies,
        )
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
    use edgetune_workloads::catalog::Workload;
    use edgetune_workloads::WorkloadId;

    fn retuner() -> ScenarioRetuner {
        let device = DeviceSpec::raspberry_pi_3b();
        let space = InferenceSpace::for_device(&device);
        let profile = Workload::by_id(WorkloadId::Ic).profile(18.0);
        ScenarioRetuner::new(device, space, profile)
    }

    #[test]
    fn server_scenario_recommendation_is_stable_and_batched() {
        let scenario = Scenario::Server(ServerScenario::new(64, Seconds::new(30.0)));
        let config = retuner().recommend(&scenario, SeedStream::new(1)).unwrap();
        assert!(
            config.batch_cap > 1,
            "splitting 64 samples one-by-one cannot be optimal"
        );
        let response = config.predicted_mean_response.unwrap();
        assert!(response.value() < 30.0, "stable by construction");
        assert!((config.tuned_rate - 64.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn impossible_server_scenario_is_rejected() {
        // 64 heavy samples every 50 ms cannot be served on a Pi.
        let scenario = Scenario::Server(ServerScenario::new(64, Seconds::new(0.05)));
        let err = retuner()
            .recommend(&scenario, SeedStream::new(1))
            .unwrap_err();
        assert!(matches!(err, Error::Numerical(_)));
    }

    #[test]
    fn multi_stream_recommendation_prefers_aggregation_under_load() {
        let scenario = Scenario::MultiStream(MultiStreamScenario::new(30.0, 400));
        let config = retuner().recommend(&scenario, SeedStream::new(2)).unwrap();
        assert!(
            config.batch_cap >= 8,
            "30 arrivals/s on a Pi needs aggregation: batch={}",
            config.batch_cap
        );
        assert!(config.predicted_mean_response.unwrap().value().is_finite());
    }

    #[test]
    fn scenario_and_throughput_optima_can_differ() {
        // The §3.4 point: the best steady-state-throughput configuration
        // is not automatically the best mean-response configuration for a
        // specific traffic pattern.
        let light = Scenario::MultiStream(MultiStreamScenario::new(0.2, 200));
        let config = retuner().recommend(&light, SeedStream::new(3)).unwrap();
        // Under very light load there is nothing to aggregate: waiting
        // for big batches cannot pay off, so the optimum is a small batch
        // — unlike the throughput optimum (batch 100).
        assert!(
            config.batch_cap <= 4,
            "light load favours immediate service: {}",
            config.batch_cap
        );
    }

    #[test]
    fn deterministic_for_a_seed() {
        let r = retuner();
        let scenario = Scenario::MultiStream(MultiStreamScenario::new(10.0, 300));
        assert_eq!(
            r.recommend(&scenario, SeedStream::new(7)).unwrap(),
            r.recommend(&scenario, SeedStream::new(7)).unwrap()
        );
    }

    #[test]
    fn retune_produces_a_deployable_config() {
        let config = retuner().retune(10.0, SeedStream::new(1)).expect("tunable");
        assert!(config.batch_cap >= 1);
        assert!((config.tuned_rate - 10.0).abs() < 1e-12);
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
        // re-tune's 400 samples, which the table does not hold: the cap
        // of 1 000 is scored on latencies simulated on the spot.
        let r = retuner();
        let alloc = CpuAllocation::full(&r.device);
        let space = InferenceSpace {
            batches: vec![1, 1_000],
            cores: vec![r.device.cores],
            freqs: vec![r.device.max_freq],
        };
        let r = ScenarioRetuner::new(r.device, space, r.profile);
        assert_eq!(r.latencies.width, RETUNE_ARRIVALS);
        let scenario = MultiStreamScenario::new(200.0, 2_000);
        let seed = SeedStream::new(9);
        let config = r.recommend(&Scenario::MultiStream(scenario), seed).unwrap();
        assert_eq!(config.batch_cap, 1_000);
        let service = &mut |size| {
            simulate_inference(&r.device, &alloc, &r.profile, size)
                .latency
                .value()
        };
        let (stats, _) = replay(&scenario.draw_arrivals(seed), 1_000, service);
        assert_eq!(config.predicted_mean_response, Some(stats.mean_response));
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
        let server = Scenario::Server(ServerScenario::new(16, Seconds::new(4.0)));
        assert!((scenario_rate(&server) - 4.0).abs() < 1e-12);
        let multi = Scenario::MultiStream(MultiStreamScenario::new(7.5, 100));
        assert!((scenario_rate(&multi) - 7.5).abs() < 1e-12);
    }
}
