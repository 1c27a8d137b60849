//! Both queue models held to queueing theory instead of their own
//! output. With batch cap 1, one server and Poisson arrivals, the §3.4
//! multi-stream simulator and the serving runtime are each an M/D/1
//! queue: the service time is the device model's batch-1 latency, a
//! constant. Pollaczek–Khinchine gives its mean response in closed form,
//! W = s + ρs / (2(1 − ρ)).
//!
//! Each load is run under several seeds. The bound is a number of
//! standard errors of the mean over those runs, so it tightens where the
//! queue is calm and widens only as far as its own variance does.

use edgetune::batching::MultiStreamScenario;
use edgetune_device::latency::{simulate_inference, CpuAllocation};
use edgetune_device::profile::WorkProfile;
use edgetune_device::spec::DeviceSpec;
use edgetune_serving::{RuntimeOptions, ServingConfig, ServingRuntime, SloPolicy, TrafficProfile};
use edgetune_util::rng::SeedStream;
use edgetune_util::stats::{mean, std_dev};
use edgetune_util::units::Seconds;

/// Utilisations ρ = λs the oracle is checked at.
const LOADS: [f64; 3] = [0.3, 0.6, 0.9];
/// Independent runs per load.
const SEEDS: u64 = 20;
/// Arrivals per run.
const ARRIVALS: usize = 20_000;
/// Allowed distance from the closed form, in standard errors.
const STANDARD_ERRORS: f64 = 4.0;

/// A ResNet-18 on a Raspberry Pi at every core and top frequency, and
/// its batch-1 service time in seconds.
fn setup() -> (DeviceSpec, WorkProfile, f64) {
    let device = DeviceSpec::raspberry_pi_3b();
    let profile = WorkProfile::new(0.56e9, 3.0e6, 44.8e6);
    let alloc = CpuAllocation::full(&device);
    let service = simulate_inference(&device, &alloc, &profile, 1)
        .latency
        .value();
    (device, profile, service)
}

/// Asserts the mean of `runs` (one mean response per seed) lies within
/// [`STANDARD_ERRORS`] standard errors of the M/D/1 mean response.
fn assert_pollaczek_khinchine(path: &str, service: f64, rho: f64, runs: &[f64]) {
    let want = service + rho * service / (2.0 * (1.0 - rho));
    let got = mean(runs).expect("one run per seed");
    // `std_dev` is the population form: divide by n − 1, not n, for the
    // standard error of the mean.
    let standard_error =
        std_dev(runs).expect("one run per seed") / (runs.len() as f64 - 1.0).sqrt();
    assert!(
        (got - want).abs() <= STANDARD_ERRORS * standard_error,
        "{path} at rho {rho}: mean response {got} s, Pollaczek-Khinchine {want} s, \
         standard error {standard_error} s"
    );
}

#[test]
fn multi_stream_scenario_is_an_md1_queue() {
    let (device, profile, service) = setup();
    let alloc = CpuAllocation::full(&device);
    for rho in LOADS {
        let scenario = MultiStreamScenario::new(rho / service, ARRIVALS);
        let runs: Vec<f64> = (0..SEEDS)
            .map(|seed| {
                scenario
                    .mean_response_time(&device, &alloc, &profile, 1, SeedStream::new(seed))
                    .value()
            })
            .collect();
        assert_pollaczek_khinchine("MultiStreamScenario", service, rho, &runs);
    }
}

#[test]
fn serving_runtime_is_an_md1_queue() {
    let (device, profile, service) = setup();
    let config = ServingConfig::new(1, device.cores, device.max_freq);
    // Pinned cap, no drift re-tunes, no shedding, one worker: nothing
    // but the queue.
    let options = RuntimeOptions::new(SloPolicy::new(Seconds::new(60.0)).without_shedding())
        .static_serving()
        .with_workers(1);
    let runtime = ServingRuntime::new(device, profile, config, options).unwrap();
    for rho in LOADS {
        let rate = rho / service;
        let horizon = Seconds::new(ARRIVALS as f64 / rate);
        let runs: Vec<f64> = (0..SEEDS)
            .map(|seed| {
                let report = runtime
                    .serve(
                        &TrafficProfile::Poisson { rate },
                        horizon,
                        None,
                        SeedStream::new(seed),
                    )
                    .unwrap();
                assert_eq!(report.served, report.requests, "nothing is shed");
                report.mean_response.value()
            })
            .collect();
        assert_pollaczek_khinchine("ServingRuntime", service, rho, &runs);
    }
}
