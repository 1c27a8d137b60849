//! The Batching component's two serving scenarios (paper §3.4, Fig. 8),
//! and the deployment each one plans:
//!
//! * a **server** receiving queries of N samples at a fixed frequency —
//!   how should each query be split into sub-batches?
//! * a **multi-stream** of single-sample queries arriving as a Poisson
//!   process — up to which size should samples be aggregated?
//!
//! For each scenario the example prints the mean response of every
//! candidate batch size on the device's full allocation (a one-point
//! space per candidate), then the joint batch × cores × frequency optimum
//! a `ScenarioRetuner` picks for the deployment.
//!
//! Run with: `cargo run --release --example multi_stream_batching`

use edgetune::batching::{MultiStreamScenario, ServerScenario};
use edgetune::inference::InferenceSpace;
use edgetune::scenario::{Scenario, ScenarioRetuner};
use edgetune_device::spec::DeviceSpec;
use edgetune_serving::ServingConfig;
use edgetune_util::rng::SeedStream;
use edgetune_util::units::Seconds;
use edgetune_workloads::catalog::Workload;
use edgetune_workloads::WorkloadId;

/// The mean response a recommendation predicts, in seconds.
fn mean_response(config: &ServingConfig) -> f64 {
    config
        .predicted_mean_response
        .map_or(f64::NAN, |s| s.value())
}

fn main() {
    let device = DeviceSpec::raspberry_pi_3b();
    let profile = Workload::by_id(WorkloadId::Ic).profile(18.0);
    let retuner =
        ScenarioRetuner::new(device.clone(), InferenceSpace::for_device(&device), profile);
    let seed = SeedStream::new(42);
    let points: Vec<(u32, ScenarioRetuner)> = [1u32, 2, 4, 8, 16, 32, 64]
        .into_iter()
        .map(|batch| {
            let point = InferenceSpace {
                batches: vec![batch],
                cores: vec![device.cores],
                freqs: vec![device.max_freq],
            };
            (batch, ScenarioRetuner::new(device.clone(), point, profile))
        })
        .collect();

    let server = ServerScenario::new(64, Seconds::new(30.0));
    let mut scenarios = vec![(
        "server: 64-sample queries every 30 s".to_string(),
        Scenario::Server(server),
    )];
    for rate in [0.2f64, 2.0, 10.0, 25.0] {
        scenarios.push((
            format!("multi-stream: Poisson arrivals at {rate} samples/s"),
            Scenario::MultiStream(MultiStreamScenario::new(rate, 600)),
        ));
    }

    for (label, scenario) in &scenarios {
        println!("== {label} ==");
        for (batch, point) in &points {
            match point.recommend(scenario, seed) {
                Ok(config) => println!(
                    "  batch {batch:>3}: mean response {:>8.3} s",
                    mean_response(&config)
                ),
                Err(_) => println!("  batch {batch:>3}: UNSTABLE (backlog grows)"),
            }
        }
        match retuner.recommend(scenario, seed) {
            Ok(config) => println!(
                "  -> deploy batch {}, {} cores @ {:.2} GHz: mean response {:.3} s\n",
                config.batch_cap,
                config.cores,
                config.freq.as_ghz(),
                mean_response(&config)
            ),
            Err(err) => println!("  -> infeasible ({err})\n"),
        }
    }
    println!("the optimal batch size depends on the traffic pattern — higher arrival");
    println!("rates need larger aggregation caps, the sweet spot the Inference Tuning");
    println!("Server's Batching subcomponent finds automatically.");
}
