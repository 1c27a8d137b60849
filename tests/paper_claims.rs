//! The paper's headline quantitative claims, checked as integration
//! tests over the full reproduction stack. Absolute numbers differ from
//! the authors' testbed; these tests pin the *relations* the paper
//! reports (who wins, in which direction, by a material margin).

use edgetune::prelude::*;
use edgetune_baselines::{HyperPower, TuneBaseline};
use edgetune_tuner::budget::BudgetPolicy;

fn edgetune(workload: WorkloadId, budget: BudgetPolicy) -> TuningReport {
    EdgeTune::new(
        EdgeTuneConfig::for_workload(workload)
            .with_budget(budget)
            .with_scheduler(SchedulerConfig::new(8, 2.0, 10))
            .with_seed(42),
    )
    .run()
    .expect("run succeeds")
}

// §1 / Fig. 14: "reduces tuning runtime by 20% and energy by 50% if
// compared to Tune" (abstract: "by at least 18% and 53%").
#[test]
fn claim_tuning_gains_over_tune() {
    for workload in WorkloadId::all() {
        let tune = TuneBaseline::new(workload)
            .with_scheduler(SchedulerConfig::new(8, 2.0, 8))
            .with_seed(42)
            .run();
        let et = edgetune(workload, BudgetPolicy::multi_default());
        let runtime_gain = 1.0 - et.tuning_runtime() / tune.tuning_runtime();
        let energy_gain = 1.0 - et.tuning_energy() / tune.tuning_energy();
        assert!(
            runtime_gain >= 0.18,
            "{workload}: runtime gain {runtime_gain:.2} below the paper's 18%"
        );
        assert!(
            energy_gain >= 0.50,
            "{workload}: energy gain {energy_gain:.2} below the paper's ~50%"
        );
    }
}

// §5.2 / Fig. 13: multi-budget beats both single-dimension budgets on
// tuning cost while reaching comparable inference outcomes; for OD the
// reduction vs. the epoch budget is "roughly 50%".
#[test]
fn claim_multi_budget_efficiency() {
    let epoch = edgetune(WorkloadId::Od, BudgetPolicy::epoch_default());
    let multi = edgetune(WorkloadId::Od, BudgetPolicy::multi_default());
    let runtime_cut = 1.0 - multi.tuning_runtime() / epoch.tuning_runtime();
    let energy_cut = 1.0 - multi.tuning_energy() / epoch.tuning_energy();
    assert!(
        runtime_cut >= 0.35,
        "OD multi-budget runtime cut should approach ~50%: {runtime_cut:.2}"
    );
    assert!(
        energy_cut >= 0.35,
        "OD multi-budget energy cut should approach ~50%: {energy_cut:.2}"
    );
    // And the deployments are equivalent ("there are different possible
    // optimal solutions, and we run enough trials").
    let ratio =
        multi.recommendation().throughput.value() / epoch.recommendation().throughput.value();
    assert!(
        (0.5..=2.0).contains(&ratio),
        "deployments comparable: {ratio}"
    );
}

// §5.5 / Fig. 17: HyperPower tunes up to 39%/33% cheaper, but EdgeTune's
// deployment achieves at least 12% more throughput and ~29% less energy.
#[test]
fn claim_hyperpower_tradeoff() {
    use edgetune_baselines::deploy::deploy_with;
    use edgetune_device::spec::DeviceSpec;

    let mut cheaper_count = 0;
    for workload in WorkloadId::all() {
        let hp = HyperPower::new(workload).with_seed(42);
        let hp_report = hp.run();
        let et = edgetune(workload, BudgetPolicy::multi_default());
        if hp_report.tuning_runtime() < et.tuning_runtime() {
            cheaper_count += 1;
        }
        // Deploy both winners with EdgeTune's recommended parameters.
        let device = DeviceSpec::raspberry_pi_3b();
        let (_, hp_profile) = hp.winning_architecture(&hp_report);
        let hp_deploy =
            deploy_with(&device, &hp_profile, et.recommendation()).expect("valid deployment");
        assert!(
            et.recommendation().throughput.value() >= hp_deploy.throughput.value() * 0.999,
            "{workload}: EdgeTune deployment must not lose on throughput"
        );
    }
    assert_eq!(
        cheaper_count, 4,
        "HyperPower should tune cheaper on every workload"
    );

    // The 'at least 12% more throughput' margin holds on IC, where the
    // architecture choice matters most.
    let hp = HyperPower::new(WorkloadId::Ic).with_seed(42);
    let hp_report = hp.run();
    let et = edgetune(WorkloadId::Ic, BudgetPolicy::multi_default());
    let device = edgetune_device::spec::DeviceSpec::raspberry_pi_3b();
    let (_, hp_profile) = hp.winning_architecture(&hp_report);
    let hp_deploy =
        edgetune_baselines::deploy::deploy_with(&device, &hp_profile, et.recommendation())
            .expect("valid deployment");
    let throughput_gain =
        et.recommendation().throughput.value() / hp_deploy.throughput.value() - 1.0;
    assert!(
        throughput_gain >= 0.12,
        "IC throughput gain {throughput_gain:.2} below the paper's 12%"
    );
}

// §2.1 / Fig. 15: "the error of the simulation results on inference with
// respect to the actual measurement in edge devices is small (at most
// 20% in our experiments)" — we check the median, as the figure's box
// plot shows outliers well above that.
#[test]
fn claim_simulation_error_is_small() {
    use edgetune_device::fidelity::precision_study;
    use edgetune_util::rng::SeedStream;
    use edgetune_util::stats::quantiles;
    use edgetune_workloads::catalog::Workload;

    let device = edgetune_device::spec::DeviceSpec::raspberry_pi_3b();
    let profiles: Vec<_> = Workload::all()
        .iter()
        .flat_map(|w| {
            w.model_hp_values
                .iter()
                .map(|&hp| w.profile(hp))
                .collect::<Vec<_>>()
        })
        .collect();
    let (mut thpt, mut energy) =
        precision_study(&device, &profiles, &[1, 4, 16, 64], SeedStream::new(42));
    assert!(quantiles(&mut thpt, [0.5]).expect("non-empty")[0] <= 20.0);
    assert!(quantiles(&mut energy, [0.5]).expect("non-empty")[0] <= 20.0);
}

// §5.4 / Fig. 16: each objective wins on its own metric.
#[test]
fn claim_objectives_pull_in_their_direction() {
    let runtime = EdgeTune::new(
        EdgeTuneConfig::for_workload(WorkloadId::Ic)
            .with_metric(Metric::Runtime)
            .with_scheduler(SchedulerConfig::new(8, 2.0, 10))
            .with_seed(42),
    )
    .run()
    .expect("runtime run");
    let energy = EdgeTune::new(
        EdgeTuneConfig::for_workload(WorkloadId::Ic)
            .with_metric(Metric::Energy)
            .with_scheduler(SchedulerConfig::new(8, 2.0, 10))
            .with_seed(42),
    )
    .run()
    .expect("energy run");
    assert!(
        energy.recommendation().energy_per_item.value()
            <= runtime.recommendation().energy_per_item.value() + 1e-9
    );
    assert!(
        runtime.recommendation().throughput.value()
            >= energy.recommendation().throughput.value() - 1e-9
    );
}
