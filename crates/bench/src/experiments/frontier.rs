//! Serving under drift: a frozen optimum, a full online re-tune, and a
//! frontier lookup.
//!
//! The serving-runtime counterpart of the paper's thesis: a
//! configuration that is optimal for the scenario it was tuned for stops
//! being optimal when the deployment's traffic drifts. All three arms
//! deploy the same offline optimum (tuned for the pre-shift rate) and
//! serve the same 4x rate-shift trace, but they answer the drift
//! differently. The `static` arm freezes the configuration; the `retune`
//! arm keeps the AIMD batch controller and the drift detector live and
//! pays a full scenario sweep when the detector fires, and must end with
//! a lower SLO violation rate than `static`; the `frontier` arm consults
//! a pre-computed [`ConfigSelector`] first — resolving the drift by
//! instant lookup and only escalating to the tuner when no frontier
//! point is feasible. The experiment counts online re-tunes per arm: the
//! frontier arm must absorb the shift with zero.

use std::cell::Cell;

use edgetune::batching::MultiStreamScenario;
use edgetune::scenario::Scenario;
use edgetune::scenario::{frontier_rates, ScenarioRetuner};
use edgetune::InferenceSpace;
use edgetune_device::spec::DeviceSpec;
use edgetune_serving::{
    OnlineTuner, RuntimeOptions, ServingConfig, ServingReport, ServingRuntime, SloPolicy,
    SwitchSource, TrafficProfile,
};
use edgetune_util::rng::SeedStream;
use edgetune_util::units::Seconds;
use edgetune_workloads::catalog::Workload;
use edgetune_workloads::WorkloadId;

use crate::table::{num, Table};

/// Pre-shift arrival rate the offline optimum is tuned for.
const INITIAL_RATE: f64 = 5.0;
/// Post-shift arrival rate (4x the tuned rate).
const SHIFTED_RATE: f64 = 20.0;
/// Serving-clock time of the rate shift.
const SHIFT_AT: f64 = 60.0;
/// Trace horizon.
const HORIZON: f64 = 300.0;
/// Response-time SLO target.
const SLO_TARGET: f64 = 4.0;
/// Rate rungs pre-tuned into the frontier selector.
const FRONTIER_POINTS: usize = 6;

/// Counts how often the serving runtime escalated to a live re-tune.
struct CountingTuner<'a> {
    inner: &'a ScenarioRetuner,
    calls: Cell<u64>,
}

impl OnlineTuner for CountingTuner<'_> {
    fn retune(&self, estimated_rate: f64, seed: SeedStream) -> Option<ServingConfig> {
        self.calls.set(self.calls.get() + 1);
        self.inner.retune(estimated_rate, seed)
    }
}

/// How one arm answers drift.
#[derive(Clone, Copy, PartialEq)]
enum Policy {
    Static,
    Retune,
    Frontier,
}

fn serve_arm(
    retuner: &ScenarioRetuner,
    device: &DeviceSpec,
    policy: Policy,
    seed: SeedStream,
) -> (ServingReport, u64) {
    let workload = Workload::by_id(WorkloadId::Ic);
    let profile = workload.profile(workload.model_hp_values[0]);
    let scenario = Scenario::MultiStream(MultiStreamScenario::new(INITIAL_RATE, 400));
    let config = retuner
        .recommend(&scenario, seed.child("offline"))
        .expect("the pre-shift rate is tunable");
    let mut options = RuntimeOptions::new(SloPolicy::new(Seconds::new(SLO_TARGET)));
    if policy == Policy::Static {
        options = options.static_serving();
    }
    let mut runtime = ServingRuntime::new(device.clone(), profile, config, options)
        .expect("tuned config is deployable");
    if policy == Policy::Frontier {
        let rates = frontier_rates(INITIAL_RATE, FRONTIER_POINTS);
        runtime =
            runtime.with_selector(retuner.precompute_frontier(&rates, seed.child("frontier")));
    }
    let traffic = TrafficProfile::RateShift {
        initial_rate: INITIAL_RATE,
        shifted_rate: SHIFTED_RATE,
        at: Seconds::new(SHIFT_AT),
    };
    let counting = CountingTuner {
        inner: retuner,
        calls: Cell::new(0),
    };
    let tuner = (policy != Policy::Static).then_some(&counting as &dyn OnlineTuner);
    let report = runtime
        .serve(&traffic, Seconds::new(HORIZON), tuner, seed)
        .expect("non-empty trace");
    (report, counting.calls.get())
}

/// Runs the experiment and renders the comparison table.
#[must_use]
pub fn run(seed: u64) -> String {
    let device = DeviceSpec::raspberry_pi_3b();
    let workload = Workload::by_id(WorkloadId::Ic);
    let profile = workload.profile(workload.model_hp_values[0]);
    let retuner =
        ScenarioRetuner::new(device.clone(), InferenceSpace::for_device(&device), profile);
    let seed = SeedStream::new(seed).child("serving-drift");
    let arms = [
        ("static", Policy::Static),
        ("retune", Policy::Retune),
        ("frontier", Policy::Frontier),
    ];

    let mut table = Table::new(format!(
        "Two-stage drift response: {INITIAL_RATE:.0}->{SHIFTED_RATE:.0} items/s at \
         t={SHIFT_AT:.0} s (ic on {}, SLO {SLO_TARGET:.1} s, {FRONTIER_POINTS}-point frontier)",
        device.name
    ))
    .headers([
        "policy",
        "served",
        "shed %",
        "switches",
        "via frontier",
        "re-tunes",
        "SLO viol. %",
        "p99 (s)",
        "J/item",
    ]);
    let mut frontier_switches = 0;
    let mut frontier_retunes = 0;
    let mut retune_calls = 0;
    for (label, policy) in arms {
        let (report, calls) = serve_arm(&retuner, &device, policy, seed);
        let via_frontier = report
            .switches
            .iter()
            .filter(|s| s.source == SwitchSource::Frontier)
            .count();
        if policy == Policy::Frontier {
            frontier_switches = via_frontier;
            frontier_retunes = calls;
        }
        if policy == Policy::Retune {
            retune_calls = calls;
        }
        table.row([
            label.to_string(),
            format!("{}/{}", report.served, report.requests),
            num(report.shed_fraction * 100.0, 1),
            report.switches.len().to_string(),
            via_frontier.to_string(),
            calls.to_string(),
            num(report.slo_violation_rate * 100.0, 1),
            num(report.p99_response.value(), 3),
            num(report.energy_per_item.value(), 3),
        ]);
    }
    table.note(format!(
        "frontier arm answered {frontier_switches} drift event(s) by lookup with \
         {frontier_retunes} live re-tune(s); the no-frontier arm paid {retune_calls}",
    ));
    if frontier_switches == 0 || frontier_retunes > 0 {
        table.note("WARNING: the frontier did not absorb the drift on this seed");
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_frontier_absorbs_the_shift_without_retuning() {
        let device = DeviceSpec::raspberry_pi_3b();
        let workload = Workload::by_id(WorkloadId::Ic);
        let profile = workload.profile(workload.model_hp_values[0]);
        let retuner =
            ScenarioRetuner::new(device.clone(), InferenceSpace::for_device(&device), profile);
        let seed = SeedStream::new(42).child("serving-drift");
        let (report, calls) = serve_arm(&retuner, &device, Policy::Frontier, seed);
        assert_eq!(
            calls, 0,
            "stage one must answer the drift without the tuner"
        );
        assert!(
            report
                .switches
                .iter()
                .any(|s| s.source == SwitchSource::Frontier),
            "the 4x shift must be resolved by a frontier switch"
        );
    }

    #[test]
    fn retune_beats_static_under_drift() {
        let device = DeviceSpec::raspberry_pi_3b();
        let workload = Workload::by_id(WorkloadId::Ic);
        let profile = workload.profile(workload.model_hp_values[0]);
        let retuner =
            ScenarioRetuner::new(device.clone(), InferenceSpace::for_device(&device), profile);
        let seed = SeedStream::new(42).child("serving-drift");
        let (static_report, _) = serve_arm(&retuner, &device, Policy::Static, seed);
        let (retune_report, _) = serve_arm(&retuner, &device, Policy::Retune, seed);
        assert!(
            retune_report.slo_violation_rate < static_report.slo_violation_rate,
            "retune {} must beat static {}",
            retune_report.slo_violation_rate,
            static_report.slo_violation_rate
        );
        assert!(
            !retune_report.switches.is_empty(),
            "the 4x shift must trigger a re-tune"
        );
    }

    #[test]
    fn the_baseline_pays_a_live_retune() {
        let device = DeviceSpec::raspberry_pi_3b();
        let workload = Workload::by_id(WorkloadId::Ic);
        let profile = workload.profile(workload.model_hp_values[0]);
        let retuner =
            ScenarioRetuner::new(device.clone(), InferenceSpace::for_device(&device), profile);
        let seed = SeedStream::new(42).child("serving-drift");
        let (report, calls) = serve_arm(&retuner, &device, Policy::Retune, seed);
        assert!(
            calls >= 1,
            "without a frontier, drift costs a scenario sweep"
        );
        assert!(report
            .switches
            .iter()
            .all(|s| s.source == SwitchSource::Retune));
    }

    #[test]
    fn rendered_table_is_deterministic() {
        assert_eq!(run(7), run(7));
    }
}
