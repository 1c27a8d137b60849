//! Cross-crate integration tests: full EdgeTune runs against the
//! simulated and real training backends, exercising the middleware stack
//! end to end (scheduler → backend → async inference server → cache →
//! report).

use edgetune::backend::{NnTrainingBackend, SimTrainingBackend, TrainingBackend, PARAM_MODEL_HP};
use edgetune::prelude::*;
use edgetune_device::latency::{simulate_inference, CpuAllocation};
use edgetune_device::spec::DeviceSpec;
use edgetune_nn::data::Dataset;
use edgetune_nn::tensor::Tensor;
use edgetune_tuner::budget::TrialBudget;
use edgetune_util::rng::SeedStream;
use edgetune_util::units::Seconds;
use edgetune_workloads::catalog::Workload;

fn quick(workload: WorkloadId) -> EdgeTuneConfig {
    EdgeTuneConfig::for_workload(workload)
        .with_scheduler(SchedulerConfig::new(6, 2.0, 8))
        .with_seed(2026)
}

#[test]
fn every_workload_tunes_end_to_end() {
    for workload in WorkloadId::all() {
        let report = EdgeTune::new(quick(workload)).run().expect("run succeeds");
        assert!(
            !report.history().records().is_empty(),
            "{workload}: no trials"
        );
        assert!(
            report.best_accuracy() > 0.1,
            "{workload}: implausible accuracy"
        );
        assert!(report.tuning_runtime().value() > 0.0);
        assert!(
            report.recommendation().throughput.value() > 0.0,
            "{workload}: no usable recommendation"
        );
    }
}

#[test]
fn recommendation_is_executable_on_the_edge_device() {
    let report = EdgeTune::new(quick(WorkloadId::Ic))
        .run()
        .expect("run succeeds");
    let rec = report.recommendation();
    // Re-execute the recommended configuration on the actual device model
    // and confirm the promised throughput/energy are reproduced.
    let device = DeviceSpec::by_name(&rec.device).expect("recommended device exists");
    let alloc = CpuAllocation::new(&device, rec.cores, rec.freq).expect("valid allocation");
    let hp = report
        .best_config()
        .get(PARAM_MODEL_HP)
        .expect("model hp set");
    let profile = Workload::by_id(WorkloadId::Ic).profile(hp);
    let exec = simulate_inference(&device, &alloc, &profile, rec.batch);
    let throughput = f64::from(rec.batch) / exec.latency.value();
    assert!(
        (throughput - rec.throughput.value()).abs() / rec.throughput.value() < 1e-9,
        "promised {} img/s, reproduced {throughput}",
        rec.throughput
    );
}

#[test]
fn winner_comes_from_the_final_rung() {
    let report = EdgeTune::new(quick(WorkloadId::Sr))
        .run()
        .expect("run succeeds");
    let max_budget = report
        .history()
        .records()
        .iter()
        .map(|r| r.budget.effective_epochs())
        .fold(0.0f64, f64::max);
    assert!(
        report.best().budget.effective_epochs() >= max_budget - 1e-9,
        "winner must be a top-budget trial"
    );
}

#[test]
fn pipelining_overhead_is_negligible_on_the_paper_workloads() {
    // §3.3's claim is that inference tuning "does not add any overhead to
    // the main process". For IC/SR/NLP the sweep always hides inside its
    // trial; for OD (YOLO's sweep emulates hundreds of seconds of Pi
    // inference) the very first, cheapest trial can leak a little — but
    // never more than a fraction of a percent of the tuning makespan.
    for workload in WorkloadId::all() {
        let report = EdgeTune::new(quick(workload)).run().expect("run succeeds");
        let stall_fraction = report.stall_time() / report.tuning_runtime();
        assert!(
            stall_fraction <= 0.01,
            "{workload}: stall {} is {:.3}% of the {} tuning run",
            report.stall_time(),
            stall_fraction * 100.0,
            report.tuning_runtime()
        );
        if workload != WorkloadId::Od {
            assert_eq!(
                report.stall_time(),
                Seconds::ZERO,
                "{workload} must fully hide"
            );
        }
    }
}

#[test]
fn architecture_cache_bounds_the_number_of_sweeps() {
    for workload in WorkloadId::all() {
        let report = EdgeTune::new(quick(workload)).run().expect("run succeeds");
        let archs = Workload::by_id(workload).model_hp_values.len() as u64;
        assert!(
            report.cache_stats().misses <= archs,
            "{workload}: {} misses for {archs} possible architectures",
            report.cache_stats().misses
        );
    }
}

#[test]
fn shared_cache_file_carries_across_jobs() {
    let dir = std::env::temp_dir().join("edgetune-e2e-cache");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("shared.json");
    std::fs::remove_file(&path).ok();

    let first = EdgeTune::new(quick(WorkloadId::Nlp).with_cache_path(&path))
        .run()
        .expect("first run");
    assert!(
        first.cache_stats().misses > 0,
        "cold start must compute something"
    );
    let second = EdgeTune::new(quick(WorkloadId::Nlp).with_cache_path(&path))
        .run()
        .expect("second run");
    assert_eq!(
        second.cache_stats().misses,
        0,
        "warm start must be all hits"
    );
    assert_eq!(
        second.recommendation(),
        first.recommendation(),
        "cached recommendations must be identical"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn custom_backend_runs_real_training_under_the_same_middleware() {
    let mut backend = NnTrainingBackend::new(SeedStream::new(11));
    let report = EdgeTune::new(
        quick(WorkloadId::Ic), // workload id ignored with a custom backend
    )
    .run_with_backend(&mut backend)
    .expect("real-training run");
    assert!(
        report.best_accuracy() > 0.5,
        "real SGD should learn the blobs: {}",
        report.best_accuracy()
    );
    assert!(report.recommendation().batch >= 1);
}

#[test]
fn sim_backend_trials_are_pure_functions_of_config_and_budget() {
    let workload = Workload::by_id(WorkloadId::Od);
    let mut a = SimTrainingBackend::new(workload.clone(), SeedStream::new(5));
    let mut b = SimTrainingBackend::new(workload, SeedStream::new(5));
    let space = a.search_space();
    let mut rng = SeedStream::new(6).rng("cfg");
    for _ in 0..10 {
        let config = space.sample(&mut rng);
        let budget = TrialBudget::new(3.0, 0.4);
        assert_eq!(a.run_trial(&config, budget), b.run_trial(&config, budget));
    }
}

#[test]
fn nn_backend_trials_are_pure_functions_of_config_and_budget() {
    // The real-training backend's twin of the law above: a trial on a
    // backend that has already run others equals, field for field, the
    // same trial on a fresh backend — the modelled cost reads no state an
    // earlier trial wrote.
    let mut seasoned = NnTrainingBackend::new(SeedStream::new(5));
    let space = seasoned.search_space();
    let mut rng = SeedStream::new(6).rng("cfg");
    for _ in 0..10 {
        let config = space.sample(&mut rng);
        let budget = TrialBudget::new(3.0, 0.4);
        let fresh = NnTrainingBackend::new(SeedStream::new(5)).run_trial(&config, budget);
        assert_eq!(seasoned.run_trial(&config, budget), fresh);
    }
}

#[test]
fn nn_backend_reports_do_not_depend_on_the_shard_count() {
    // Shard-count invariance at study level on the real-training
    // backends: every shard measures on its own snapshot, and a snapshot
    // that has measured before must not report different bytes.
    let backends: [fn(SeedStream) -> NnTrainingBackend; 2] =
        [NnTrainingBackend::new, NnTrainingBackend::convnet];
    for make in backends {
        let report_under = |shards: usize| {
            let config = EdgeTuneConfig::for_workload(WorkloadId::Ic)
                .with_scheduler(SchedulerConfig::new(6, 2.0, 4))
                .with_seed(42)
                .with_study_shards(shards);
            EdgeTune::new(config)
                .run_with_backend(&mut make(SeedStream::new(42)))
                .expect("real-training run")
                .to_json()
                .expect("serialises")
        };
        let unsharded = report_under(1);
        for shards in [2, 4] {
            assert_eq!(report_under(shards), unsharded, "{shards} shards");
        }
    }
}

#[test]
fn a_diverged_nn_trial_scores_low_instead_of_failing_the_study() {
    // Features scaled by 1e30 make the first SGD step overflow the
    // weights, so every later forward pass yields NaN logits. Such a
    // model predicts nothing: its trials score as wrong on every
    // validation sample, and the study still reports.
    let seed = SeedStream::new(3);
    let blobs = Dataset::gaussian_blobs(200, 8, 4, 0.35, seed.child("data"));
    let features = blobs.features();
    let scaled = Dataset::new(
        Tensor::from_vec(
            features.data().iter().map(|x| x * 1e30).collect(),
            features.shape(),
        ),
        blobs.labels().to_vec(),
        blobs.classes(),
    );
    let (train, val) = scaled.split(0.8);
    let mut backend = NnTrainingBackend::with_dataset(train, val, seed);
    let report = EdgeTune::new(quick(WorkloadId::Ic))
        .run_with_backend(&mut backend)
        .expect("a diverged trial must not fail the study");
    let records = report.history().records();
    assert!(!records.is_empty());
    assert!(
        records.iter().all(|r| r.outcome.accuracy == 0.0),
        "NaN logits predict nothing, so no validation sample is right"
    );
}

#[test]
fn different_edge_devices_yield_different_recommendations() {
    let pi = EdgeTune::new(quick(WorkloadId::Ic)).run().expect("pi run");
    let i7 = EdgeTune::new(quick(WorkloadId::Ic).with_edge_device(DeviceSpec::intel_i7_7567u()))
        .run()
        .expect("i7 run");
    assert_ne!(pi.recommendation().device, i7.recommendation().device);
    assert!(
        i7.recommendation().throughput.value() > pi.recommendation().throughput.value(),
        "the laptop CPU should out-run the Pi"
    );
}

#[test]
fn report_json_round_trips() {
    let report = EdgeTune::new(quick(WorkloadId::Ic))
        .run()
        .expect("run succeeds");
    let json = report.to_json().expect("serialises");
    let restored = edgetune::TuningReport::from_json(&json).expect("parses");
    assert_eq!(restored.best_config(), report.best_config());
    assert_eq!(restored.recommendation(), report.recommendation());
    assert_eq!(restored.tuning_runtime(), report.tuning_runtime());
    assert_eq!(restored.history().len(), report.history().len());
}

#[test]
fn data_structures_serde_round_trip() {
    // The cross-crate data structures a tuning service would persist or
    // ship over RPC must survive serialisation unchanged.
    let device = DeviceSpec::titan_rtx_node();
    let json = serde_json::to_string(&device).expect("device serialises");
    let device2: DeviceSpec = serde_json::from_str(&json).expect("device parses");
    assert_eq!(device, device2);

    let workload = Workload::by_id(WorkloadId::Od);
    let json = serde_json::to_string(&workload).expect("workload serialises");
    let workload2: Workload = serde_json::from_str(&json).expect("workload parses");
    assert_eq!(workload, workload2);

    let report = EdgeTune::new(quick(WorkloadId::Ic))
        .run()
        .expect("run succeeds");
    let json = serde_json::to_string(report.history()).expect("history serialises");
    let history: edgetune_tuner::trial::History =
        serde_json::from_str(&json).expect("history parses");
    assert_eq!(&history, report.history());
    let json = serde_json::to_string(report.timeline()).expect("timeline serialises");
    let timeline: edgetune::timeline::Timeline =
        serde_json::from_str(&json).expect("timeline parses");
    assert_eq!(&timeline, report.timeline());
}
