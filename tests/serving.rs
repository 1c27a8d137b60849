//! Cross-crate integration tests of the serving runtime: the tuner's
//! predicted mean response must match what the deployed runtime actually
//! measures, serving must be deterministic, and online re-tuning must pay
//! off under drift.

use edgetune::batching::MultiStreamScenario;
use edgetune::scenario::{Scenario, ScenarioRetuner};
use edgetune::InferenceSpace;
use edgetune_device::spec::DeviceSpec;
use edgetune_serving::{OnlineTuner, RuntimeOptions, ServingRuntime, SloPolicy, TrafficProfile};
use edgetune_util::rng::SeedStream;
use edgetune_util::units::Seconds;
use edgetune_workloads::catalog::Workload;
use edgetune_workloads::WorkloadId;

/// Relative tolerance between the tuner's predicted mean response and the
/// mean response the serving runtime measures under an independent
/// arrival realization of the same Poisson process. Queueing means over
/// thousands of arrivals converge well within this.
const FIDELITY_TOLERANCE: f64 = 0.25;

fn setup() -> (DeviceSpec, ScenarioRetuner) {
    let device = DeviceSpec::raspberry_pi_3b();
    let workload = Workload::by_id(WorkloadId::Ic);
    let profile = workload.profile(workload.model_hp_values[0]);
    let retuner =
        ScenarioRetuner::new(device.clone(), InferenceSpace::for_device(&device), profile);
    (device, retuner)
}

fn profile() -> edgetune_device::profile::WorkProfile {
    let workload = Workload::by_id(WorkloadId::Ic);
    workload.profile(workload.model_hp_values[0])
}

#[test]
fn serving_matches_the_tuner_prediction_under_poisson_traffic() {
    let (device, retuner) = setup();
    let rate = 10.0;
    let scenario = Scenario::MultiStream(MultiStreamScenario::new(rate, 2000));
    let config = retuner
        .recommend(&scenario, SeedStream::new(11))
        .expect("10 items/s is tunable on a Pi");

    // Deploy exactly the recommended configuration with every serving-side
    // behaviour that the tuning-time simulator does not model disabled:
    // pinned batch cap, no shedding, no drift, a single worker.
    let options =
        RuntimeOptions::new(SloPolicy::new(Seconds::new(60.0)).without_shedding()).static_serving();
    let runtime = ServingRuntime::new(device, profile(), config, options).unwrap();
    let report = runtime
        .serve(
            &TrafficProfile::Poisson { rate },
            Seconds::new(300.0),
            None,
            SeedStream::new(12),
        )
        .unwrap();

    assert_eq!(report.shed, 0);
    let predicted = config.predicted_mean_response.unwrap().value();
    let measured = report.mean_response.value();
    let rel = (measured - predicted).abs() / predicted;
    assert!(
        rel < FIDELITY_TOLERANCE,
        "measured mean response {measured:.4} s deviates {:.0}% from the tuner's \
         prediction {predicted:.4} s (tolerance {:.0}%)",
        rel * 100.0,
        FIDELITY_TOLERANCE * 100.0
    );
}

#[test]
fn serving_reports_are_deterministic_and_round_trip() {
    let (device, retuner) = setup();
    let traffic = TrafficProfile::OnOff {
        on_rate: 30.0,
        off_rate: 3.0,
        mean_on: Seconds::new(15.0),
        mean_off: Seconds::new(30.0),
    };
    let seed = SeedStream::new(42);
    let config = retuner
        .recommend(
            &Scenario::MultiStream(MultiStreamScenario::new(traffic.design_rate(), 400)),
            seed.child("offline"),
        )
        .unwrap();
    let options = RuntimeOptions::new(SloPolicy::new(Seconds::new(2.0)));
    let serve = || {
        ServingRuntime::new(device.clone(), profile(), config, options)
            .unwrap()
            .serve(
                &traffic,
                Seconds::new(120.0),
                Some(&retuner as &dyn OnlineTuner),
                seed,
            )
            .unwrap()
    };
    let a = serve();
    let b = serve();
    assert_eq!(a, b, "same seed must reproduce the serving run exactly");
    let json = a.to_json().unwrap();
    assert_eq!(json, b.to_json().unwrap());
    // No program reads a serving report back: the round trip is of its
    // text, which must parse and print again unchanged.
    let back: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(serde_json::to_string_pretty(&back).unwrap(), json);
}

#[test]
fn online_retuning_beats_the_frozen_optimum_under_drift() {
    let (device, retuner) = setup();
    let traffic = TrafficProfile::RateShift {
        initial_rate: 5.0,
        shifted_rate: 20.0,
        at: Seconds::new(60.0),
    };
    let seed = SeedStream::new(9);
    let config = retuner
        .recommend(
            &Scenario::MultiStream(MultiStreamScenario::new(5.0, 400)),
            seed.child("offline"),
        )
        .unwrap();
    let slo = SloPolicy::new(Seconds::new(4.0));

    let frozen = ServingRuntime::new(
        device.clone(),
        profile(),
        config,
        RuntimeOptions::new(slo).static_serving(),
    )
    .unwrap()
    .serve(&traffic, Seconds::new(300.0), None, seed)
    .unwrap();
    let adaptive = ServingRuntime::new(device, profile(), config, RuntimeOptions::new(slo))
        .unwrap()
        .serve(
            &traffic,
            Seconds::new(300.0),
            Some(&retuner as &dyn OnlineTuner),
            seed,
        )
        .unwrap();

    assert!(
        adaptive.slo_violation_rate < frozen.slo_violation_rate,
        "adaptive violation rate {} must beat frozen {}",
        adaptive.slo_violation_rate,
        frozen.slo_violation_rate
    );
    assert!(
        !adaptive.switches.is_empty(),
        "the sustained 4x shift must trigger at least one re-tune"
    );
    assert!(adaptive.switches[0].at.value() > 60.0);
}
