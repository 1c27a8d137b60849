//! Golden bytes of serving: the CRC-32 of `ServingReport::to_json()` for
//! four serving runs, two seeds each, and the JSON of `ScenarioRetuner`
//! recommendations for one server and three multi-stream scenarios.
//!
//! The runs cover every path a report's numbers come through: the pure
//! event loop (Poisson), drift-triggered live re-tunes (on/off), shedding
//! after a rate shift, and stage-one frontier switches.
//! Each run asserts that it exercised its path, so a pinned CRC cannot
//! silently stop covering it. The expected values were captured before
//! scenario sweeps shared their arrivals and batch latencies and before
//! response percentiles were selected in place; they must never be edited
//! to make a change pass.

use edgetune::batching::{MultiStreamScenario, ServerScenario};
use edgetune::scenario::{frontier_rates, Scenario, ScenarioRetuner};
use edgetune::InferenceSpace;
use edgetune_device::profile::WorkProfile;
use edgetune_device::spec::DeviceSpec;
use edgetune_runtime::frame::crc32;
use edgetune_serving::{
    RuntimeOptions, ServingReport, ServingRuntime, SloPolicy, SwitchSource, TrafficProfile,
};
use edgetune_util::rng::SeedStream;
use edgetune_util::units::{Hertz, Seconds};
use edgetune_workloads::catalog::Workload;
use edgetune_workloads::WorkloadId;
use serde::Serialize;

/// The four serving runs.
#[derive(Debug, Clone, Copy)]
enum Run {
    /// Steady Poisson traffic at the tuned rate.
    Poisson,
    /// Bursty on/off traffic: the drift detector fires and the
    /// `ScenarioRetuner` re-tunes live.
    OnOff,
    /// A 4× rate shift the deployment sheds through.
    Shift,
    /// A shift answered from a pre-computed frontier.
    Frontier,
}

fn setup() -> (DeviceSpec, WorkProfile, ScenarioRetuner) {
    let device = DeviceSpec::raspberry_pi_3b();
    let workload = Workload::by_id(WorkloadId::Ic);
    let profile = workload.profile(workload.model_hp_values[0]);
    let retuner =
        ScenarioRetuner::new(device.clone(), InferenceSpace::for_device(&device), profile);
    (device, profile, retuner)
}

fn serve(run: Run, seed: u64) -> ServingReport {
    let (device, profile, retuner) = setup();
    let seed = SeedStream::new(seed);
    let on_off = TrafficProfile::OnOff {
        on_rate: 30.0,
        off_rate: 3.0,
        mean_on: Seconds::new(15.0),
        mean_off: Seconds::new(30.0),
    };
    let shift = TrafficProfile::RateShift {
        initial_rate: 10.0,
        shifted_rate: 40.0,
        at: Seconds::new(100.0),
    };
    let (traffic, horizon) = match run {
        Run::Poisson => (TrafficProfile::Poisson { rate: 10.0 }, 300.0),
        Run::OnOff => (on_off, 200.0),
        Run::Shift => (shift, 150.0),
        // A milder shift, so a frontier point meets the deadline at the
        // new rate.
        Run::Frontier => (
            TrafficProfile::RateShift {
                initial_rate: 5.0,
                shifted_rate: 20.0,
                at: Seconds::new(60.0),
            },
            200.0,
        ),
    };
    let scenario = Scenario::MultiStream(MultiStreamScenario::new(traffic.design_rate(), 400));
    let config = retuner
        .recommend(&scenario, seed.child("offline"))
        .expect("the design rate is tunable");
    let options = RuntimeOptions::new(SloPolicy::new(Seconds::new(4.0)));
    let mut runtime = ServingRuntime::new(device, profile, config, options).expect("deployable");
    if let Run::Frontier = run {
        let rates = frontier_rates(traffic.design_rate(), 6);
        runtime =
            runtime.with_selector(retuner.precompute_frontier(&rates, seed.child("frontier")));
    }
    let report = runtime
        .serve(&traffic, Seconds::new(horizon), Some(&retuner), seed)
        .expect("the run serves");
    let retunes = report
        .switches
        .iter()
        .filter(|s| s.source == SwitchSource::Retune)
        .count();
    let covered = match run {
        Run::Poisson => report.requests > 2_000,
        Run::OnOff => retunes > 0,
        Run::Shift => report.shed > 0,
        Run::Frontier => report
            .switches
            .iter()
            .any(|s| s.source == SwitchSource::Frontier),
    };
    assert!(covered, "{run:?} did not exercise its path: {report:?}");
    report
}

#[test]
fn serving_reports_are_pinned() {
    let pinned = [
        (Run::Poisson, 42, 106_646_988),
        (Run::Poisson, 7, 3_244_608_436),
        (Run::OnOff, 42, 249_261_567),
        (Run::OnOff, 7, 3_155_282_562),
        (Run::Shift, 42, 1_493_912_240),
        (Run::Shift, 7, 1_026_095_446),
        (Run::Frontier, 42, 53_908_692),
        (Run::Frontier, 7, 4_217_848),
    ];
    let mut moved = Vec::new();
    for (run, seed, want) in pinned {
        let json = serve(run, seed).to_json().expect("report serialises");
        let got = crc32(json.as_bytes());
        if got != want {
            moved.push(format!("{run:?}, seed {seed}: CRC {got}, pinned {want}"));
        }
    }
    assert!(
        moved.is_empty(),
        "serving report bytes moved:\n{}",
        moved.join("\n")
    );
}

/// A scenario recommendation spelled as the pinned strings spell it: the
/// device, then the operating point and its predicted mean response.
#[derive(Serialize)]
struct Recommendation {
    device: String,
    batch: u32,
    cores: u32,
    freq: Hertz,
    mean_response: Seconds,
}

#[test]
fn scenario_recommendations_are_pinned() {
    let (device, _, retuner) = setup();
    let scenarios = [
        Scenario::Server(ServerScenario::new(64, Seconds::new(30.0))),
        Scenario::MultiStream(MultiStreamScenario::new(0.2, 400)),
        Scenario::MultiStream(MultiStreamScenario::new(10.0, 400)),
        Scenario::MultiStream(MultiStreamScenario::new(30.0, 1_000)),
    ];
    let pinned = [
        (
            42,
            [
                r#"{"device":"Raspberry Pi 3B+","batch":64,"cores":4,"freq":1400000000.0,"mean_response":2.626039392977771}"#,
                r#"{"device":"Raspberry Pi 3B+","batch":1,"cores":2,"freq":1400000000.0,"mean_response":0.21167230521064156}"#,
                r#"{"device":"Raspberry Pi 3B+","batch":8,"cores":4,"freq":1400000000.0,"mean_response":0.5488373861497023}"#,
                r#"{"device":"Raspberry Pi 3B+","batch":100,"cores":4,"freq":1400000000.0,"mean_response":5.6088903482829044}"#,
            ],
        ),
        (
            7,
            [
                r#"{"device":"Raspberry Pi 3B+","batch":64,"cores":4,"freq":1400000000.0,"mean_response":2.626039392977771}"#,
                r#"{"device":"Raspberry Pi 3B+","batch":2,"cores":2,"freq":1400000000.0,"mean_response":0.21218785988383698}"#,
                r#"{"device":"Raspberry Pi 3B+","batch":16,"cores":4,"freq":1400000000.0,"mean_response":0.5969893705115882}"#,
                r#"{"device":"Raspberry Pi 3B+","batch":100,"cores":4,"freq":1400000000.0,"mean_response":6.570378804924878}"#,
            ],
        ),
    ];
    let mut moved = Vec::new();
    for (seed, wants) in pinned {
        for (scenario, want) in scenarios.iter().zip(wants) {
            let config = retuner
                .recommend(scenario, SeedStream::new(seed))
                .expect("every pinned scenario is tunable");
            let rec = Recommendation {
                device: device.name.clone(),
                batch: config.batch_cap,
                cores: config.cores,
                freq: config.freq,
                mean_response: config.predicted_mean_response.expect("a sweep predicts"),
            };
            let got = serde_json::to_string(&rec).expect("recommendation serialises");
            if got != want {
                moved.push(format!(
                    "{scenario:?}, seed {seed}:\n  got    {got}\n  pinned {want}"
                ));
            }
        }
    }
    assert!(
        moved.is_empty(),
        "recommendations moved:\n{}",
        moved.join("\n")
    );
}
