//! Deploy a tuned configuration into the serving runtime and drive it
//! with three traffic patterns — steady Poisson, a bursty on/off trace
//! and a drifting rate shift — comparing the frozen offline optimum
//! against SLO-aware adaptive serving with online re-tuning.
//!
//! Run with: `cargo run --release --example serve_traffic`

use edgetune::batching::MultiStreamScenario;
use edgetune::scenario::{Scenario, ScenarioRetuner};
use edgetune::InferenceSpace;
use edgetune_device::spec::DeviceSpec;
use edgetune_serving::{OnlineTuner, RuntimeOptions, ServingRuntime, SloPolicy, TrafficProfile};
use edgetune_util::rng::SeedStream;
use edgetune_util::units::Seconds;
use edgetune_workloads::catalog::Workload;
use edgetune_workloads::WorkloadId;

fn main() -> Result<(), edgetune_util::Error> {
    let device = DeviceSpec::raspberry_pi_3b();
    let workload = Workload::by_id(WorkloadId::Ic);
    let profile = workload.profile(workload.model_hp_values[0]);
    let retuner =
        ScenarioRetuner::new(device.clone(), InferenceSpace::for_device(&device), profile);
    let seed = SeedStream::new(42);
    let horizon = Seconds::new(240.0);
    let slo = SloPolicy::new(Seconds::new(4.0));

    // Tune the offline optimum for the design rate of 10 items/s.
    let design = Scenario::MultiStream(MultiStreamScenario::new(10.0, 400));
    let config = retuner.recommend(&design, seed.child("offline"))?;
    println!(
        "offline optimum on {}: batch={} cores={} freq={:.2} GHz",
        device.name,
        config.batch_cap,
        config.cores,
        config.freq.as_ghz()
    );

    let traces = [
        TrafficProfile::Poisson { rate: 10.0 },
        TrafficProfile::OnOff {
            on_rate: 30.0,
            off_rate: 3.0,
            mean_on: Seconds::new(15.0),
            mean_off: Seconds::new(30.0),
        },
        TrafficProfile::RateShift {
            initial_rate: 10.0,
            shifted_rate: 40.0,
            at: Seconds::new(80.0),
        },
    ];

    println!(
        "\n{:<8} {:<9} {:>9} {:>8} {:>9} {:>12} {:>9}",
        "trace", "policy", "served", "shed %", "p99 (s)", "SLO viol. %", "switches"
    );
    for traffic in &traces {
        for adaptive in [false, true] {
            let mut options = RuntimeOptions::new(slo);
            if !adaptive {
                options = options.static_serving();
            }
            let runtime = ServingRuntime::new(device.clone(), profile, config, options)?;
            let tuner = adaptive.then_some(&retuner as &dyn OnlineTuner);
            let report = runtime.serve(traffic, horizon, tuner, seed)?;
            println!(
                "{:<8} {:<9} {:>9} {:>8.1} {:>9.3} {:>12.1} {:>9}",
                traffic.name(),
                if adaptive { "adaptive" } else { "static" },
                format!("{}/{}", report.served, report.requests),
                report.shed_fraction * 100.0,
                report.p99_response.value(),
                report.slo_violation_rate * 100.0,
                report.switches.len(),
            );
        }
    }

    println!(
        "\nadaptive serving grows batches under pressure, sheds hopeless \
         requests, and re-tunes through the scenario tuner when the rate drifts."
    );
    Ok(())
}
