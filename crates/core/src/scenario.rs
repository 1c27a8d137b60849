//! Scenario-aware inference tuning: the Batching subcomponent applied
//! end to end.
//!
//! §3.4 describes Batching as part of the Inference Tuning Server: when
//! the deployment's traffic pattern is known (the Fig. 8 *server* or
//! *multi-stream* scenarios), the batch size should be chosen for that
//! pattern's **mean response time**, not for raw steady-state throughput.
//! This module sweeps the device's system parameters jointly with the
//! batch size under the scenario's queueing model and returns a
//! [`ScenarioRecommendation`].

use edgetune_device::latency::{simulate_inference, CpuAllocation};
use edgetune_device::profile::WorkProfile;
use edgetune_device::spec::DeviceSpec;
use edgetune_util::rng::SeedStream;
use edgetune_util::units::{Hertz, Seconds};
use edgetune_util::{Error, Result};
use serde::{Deserialize, Serialize};

use crate::batching::{replay, MultiStreamScenario, ServerScenario};
use crate::inference::InferenceSpace;

/// A deployment traffic pattern (Fig. 8).
///
/// Serialisable so that tuning requests and recommendations can carry
/// the scenario they were produced for (CLI `--scenario`, serving
/// reports). `Eq` is not derived: both variants carry `f64` timing
/// fields.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Scenario {
    /// Fixed-frequency queries of N samples each.
    Server(ServerScenario),
    /// Poisson single-sample arrivals.
    MultiStream(MultiStreamScenario),
}

/// The scenario-aware deployment recommendation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioRecommendation {
    /// Edge device the recommendation targets.
    pub device: String,
    /// Batch size (sub-batch split for the server scenario; aggregation
    /// cap for the multi-stream scenario).
    pub batch: u32,
    /// CPU cores.
    pub cores: u32,
    /// DVFS frequency.
    pub freq: Hertz,
    /// Predicted mean response time under the scenario.
    pub mean_response: Seconds,
}

/// Sweeps batch × cores × frequency for the scenario's mean response
/// time and returns the optimum; `Err` when *no* configuration is stable
/// (the server scenario's arrival rate exceeds every configuration's
/// capacity).
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for an invalid space and
/// [`Error::Numerical`] when no stable configuration exists.
pub fn tune_for_scenario(
    device: &DeviceSpec,
    space: &InferenceSpace,
    profile: &WorkProfile,
    scenario: &Scenario,
    seed: SeedStream,
) -> Result<ScenarioRecommendation> {
    let arrivals = match scenario {
        Scenario::Server(_) => 0,
        Scenario::MultiStream(s) => s.arrivals,
    };
    let table = latency_table(device, space, profile, arrivals);
    sweep(device, space, profile, scenario, seed, &table)
}

/// The `simulate_inference` latency of batch sizes 1..=`width` on every
/// (cores, freq) allocation of a space, one row per allocation in sweep
/// order.
#[derive(Debug, Clone)]
pub(crate) struct LatencyTable {
    width: usize,
    rows: Vec<f64>,
}

/// Tables the latencies a sweep of `space` over `arrivals` multi-stream
/// arrivals reads: no batch outgrows its cap or the arrivals it is drawn
/// from. An invalid space gets an empty table, as the sweep rejects it
/// before reading.
pub(crate) fn latency_table(
    device: &DeviceSpec,
    space: &InferenceSpace,
    profile: &WorkProfile,
    arrivals: usize,
) -> LatencyTable {
    if space.validate(device).is_err() {
        return LatencyTable {
            width: 0,
            rows: Vec::new(),
        };
    }
    let max_cap = space.batches.iter().max().map_or(0, |&cap| cap as usize);
    let width = max_cap.min(arrivals);
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

/// The sweep behind [`tune_for_scenario`] and the
/// [`ScenarioRetuner`](crate::serve::ScenarioRetuner): every
/// (cores, freq) allocation in order, every batch size under it, with
/// latencies read from `table` (a batch past it, which only a scenario
/// with more arrivals than the table was built for forms, is simulated
/// on the spot).
///
/// A multi-stream candidate whose cap never bound ties with every larger
/// cap on its allocation, and the strict `<` never picks a tie, so those
/// are skipped.
pub(crate) fn sweep(
    device: &DeviceSpec,
    space: &InferenceSpace,
    profile: &WorkProfile,
    scenario: &Scenario,
    seed: SeedStream,
    table: &LatencyTable,
) -> Result<ScenarioRecommendation> {
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
    Ok(ScenarioRecommendation {
        device: device.name.clone(),
        batch,
        cores,
        freq,
        mean_response,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgetune_workloads::catalog::Workload;
    use edgetune_workloads::WorkloadId;

    fn setup() -> (DeviceSpec, InferenceSpace, WorkProfile) {
        let device = DeviceSpec::raspberry_pi_3b();
        let space = InferenceSpace::for_device(&device);
        let profile = Workload::by_id(WorkloadId::Ic).profile(18.0);
        (device, space, profile)
    }

    #[test]
    fn server_scenario_recommendation_is_stable_and_batched() {
        let (device, space, profile) = setup();
        let scenario = Scenario::Server(ServerScenario::new(64, Seconds::new(30.0)));
        let rec =
            tune_for_scenario(&device, &space, &profile, &scenario, SeedStream::new(1)).unwrap();
        assert!(
            rec.batch > 1,
            "splitting 64 samples one-by-one cannot be optimal"
        );
        assert!(rec.mean_response.value() < 30.0, "stable by construction");
        assert_eq!(rec.device, device.name);
    }

    #[test]
    fn impossible_server_scenario_is_rejected() {
        let (device, space, profile) = setup();
        // 64 heavy samples every 50 ms cannot be served on a Pi.
        let scenario = Scenario::Server(ServerScenario::new(64, Seconds::new(0.05)));
        let err = tune_for_scenario(&device, &space, &profile, &scenario, SeedStream::new(1))
            .unwrap_err();
        assert!(matches!(err, Error::Numerical(_)));
    }

    #[test]
    fn multi_stream_recommendation_prefers_aggregation_under_load() {
        let (device, space, profile) = setup();
        let scenario = Scenario::MultiStream(MultiStreamScenario::new(30.0, 400));
        let rec =
            tune_for_scenario(&device, &space, &profile, &scenario, SeedStream::new(2)).unwrap();
        assert!(
            rec.batch >= 8,
            "30 arrivals/s on a Pi needs aggregation: batch={}",
            rec.batch
        );
        assert!(rec.mean_response.value().is_finite());
    }

    #[test]
    fn scenario_and_throughput_optima_can_differ() {
        // The §3.4 point: the best steady-state-throughput configuration
        // is not automatically the best mean-response configuration for a
        // specific traffic pattern.
        let (device, space, profile) = setup();
        let light = Scenario::MultiStream(MultiStreamScenario::new(0.2, 200));
        let rec = tune_for_scenario(&device, &space, &profile, &light, SeedStream::new(3)).unwrap();
        // Under very light load there is nothing to aggregate: waiting
        // for big batches cannot pay off, so the optimum is a small batch
        // — unlike the throughput optimum (batch 100).
        assert!(
            rec.batch <= 4,
            "light load favours immediate service: {}",
            rec.batch
        );
    }

    #[test]
    fn scenario_serialises_round_trip() {
        for scenario in [
            Scenario::Server(ServerScenario::new(64, Seconds::new(30.0))),
            Scenario::MultiStream(MultiStreamScenario::new(12.5, 400)),
        ] {
            let json = serde_json::to_string(&scenario).unwrap();
            let back: Scenario = serde_json::from_str(&json).unwrap();
            assert_eq!(scenario, back);
        }
    }

    #[test]
    fn deterministic_for_a_seed() {
        let (device, space, profile) = setup();
        let scenario = Scenario::MultiStream(MultiStreamScenario::new(10.0, 300));
        let a =
            tune_for_scenario(&device, &space, &profile, &scenario, SeedStream::new(7)).unwrap();
        let b =
            tune_for_scenario(&device, &space, &profile, &scenario, SeedStream::new(7)).unwrap();
        assert_eq!(a, b);
    }
}
