//! Allocation ceilings: the heap allocations a study costs per trial
//! must not creep back up. The global allocator below counts every
//! `alloc` and `realloc` made by the thread that enabled counting; the
//! test harness's own threads and every other test's thread keep their
//! counters off, so each figure is its study's alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use edgetune::backend::{SimTrainingBackend, TrainingBackend};
use edgetune::prelude::*;
use edgetune::ScenarioRetuner;
use edgetune_device::spec::DeviceSpec;
use edgetune_serving::OnlineTuner;
use edgetune_tuner::sampler::{Sampler, TpeSampler};
use edgetune_tuner::space::Config;
use edgetune_util::rng::SeedStream;
use edgetune_workloads::catalog::Workload;

struct CountingAllocator;

thread_local! {
    /// `Some(n)` while the thread counts; `const` so reading it never
    /// allocates (which would recurse into the allocator).
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn bump() {
    // `try_with` so the allocator can never panic, even while a thread's
    // locals are being torn down.
    let _ = COUNT.try_with(|count| {
        if let Some(n) = count.get() {
            count.set(Some(n + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations `f` makes on the calling thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT.with(|count| count.set(Some(0)));
    let value = f();
    let counted = COUNT.with(|count| count.replace(None)).unwrap_or(0);
    (value, counted)
}

/// When this ceiling was set the traced IC study measured 40.7
/// allocations per trial (2114 over 52 trials), in debug and release
/// builds alike; the ceiling leaves 10 % headroom on that, rounded up.
/// Before a TPE suggestion built only its winning `Config` it measured
/// 65.3.
const ALLOCS_PER_TRIAL_CEILING: u64 = 45;

/// Suggestions of the TPE cohort row.
const TPE_COHORT: usize = 1000;

/// Allocations per TPE suggestion on the IC space (3 dimensions). When
/// this ceiling was set a suggestion measured 4.05, in debug and release
/// builds alike: its one `Config` (a map node and a name per dimension),
/// plus the model fit spread over the cohort. Before the candidates were
/// drawn as rows of numbers it measured 96.05, a `Config` per candidate.
const TPE_ALLOCS_PER_SUGGESTION_CEILING: u64 = 5;

/// When this ceiling was set the BOHB study below (96 trials a bracket,
/// η = 3, max-iter 27, where TPE engages after the first bracket)
/// measured 7.2 allocations per trial (10 058 over 1392 trials), in debug
/// and release builds alike; the ceiling leaves 10 % headroom on that,
/// rounded up. Before a TPE suggestion built only its winning `Config` it
/// measured 27.8.
const BOHB_ALLOCS_PER_TRIAL_CEILING: u64 = 8;

/// Initial configurations of the sweep study.
const SWEEP_CONFIGS: usize = 729;

/// When this ceiling was set the sweep study measured 7.1 allocations per
/// trial (7677 over 1080 trials), in debug and release builds alike; the
/// ceiling leaves 10 % headroom on that, rounded up.
const SWEEP_ALLOCS_PER_TRIAL_CEILING: u64 = 8;

/// Allocations `report.to_json()` may make on the sweep study's report
/// (668 549 bytes of pretty JSON). When this ceiling was set it measured
/// 18, all of them the output `String` growing, in debug and release
/// builds alike; the ceiling leaves 10 % headroom on that, rounded up.
/// One allocation per number or key written would be thousands.
const SWEEP_REPORT_JSON_ALLOCS_CEILING: u64 = 20;

/// Allocations one `ScenarioRetuner::retune` may make on the Pi's full
/// inference space (72 candidates). When this ceiling was set a re-tune
/// measured 1 at every rate, in debug and release builds alike: the
/// arrival draw is the one allocation left, whatever the size of the
/// space, since the sweep returns the `ServingConfig` itself instead of a
/// recommendation naming its device. Before the retuner tabled its
/// latencies a re-tune made 16, 61 and 76 at the rates below (a latency
/// memo grown per allocation, a device name per improvement).
const RETUNE_ALLOCS_CEILING: u64 = 1;

/// The plain single-bracket sweep: the simulated backend's per-trial
/// path with little else around it (the shape of the benchmark's
/// `study-sweep`, sized for a debug build).
fn sweep_config() -> EdgeTuneConfig {
    EdgeTuneConfig::for_workload(WorkloadId::Ic)
        .with_metric(Metric::Runtime)
        .with_scheduler(SchedulerConfig::new(SWEEP_CONFIGS, 3.0, 16))
        .without_hyperband()
        .with_seed(42)
}

/// Allocations per trial of a study, run traced or not, and the totals.
fn allocations_per_trial(config: EdgeTuneConfig, traced: bool) -> (u64, u64, u64) {
    let (report, allocs) = allocations_of(|| {
        let study = EdgeTune::new(config);
        if traced {
            study.run_traced().map(|(report, _trace)| report)
        } else {
            study.run()
        }
        .expect("study completes")
    });
    let trials = report.history().len() as u64;
    assert!(trials > 0, "the study ran no trials");
    (allocs / trials, allocs, trials)
}

#[test]
fn a_traced_study_stays_under_its_allocation_ceiling() {
    let config = EdgeTuneConfig::for_workload(WorkloadId::Ic)
        .with_metric(Metric::Runtime)
        .with_scheduler(SchedulerConfig::new(8, 2.0, 8))
        .with_seed(42);
    let (per_trial, allocs, trials) = allocations_per_trial(config, true);
    assert!(
        per_trial <= ALLOCS_PER_TRIAL_CEILING,
        "{per_trial} allocations per trial ({allocs} over {trials} trials), \
         ceiling {ALLOCS_PER_TRIAL_CEILING}"
    );
}

#[test]
fn a_bohb_study_stays_under_its_allocation_ceiling() {
    let config = EdgeTuneConfig::for_workload(WorkloadId::Ic)
        .with_metric(Metric::Runtime)
        .with_scheduler(SchedulerConfig::new(96, 3.0, 27))
        .with_seed(42);
    let (per_trial, allocs, trials) = allocations_per_trial(config, false);
    assert!(
        per_trial <= BOHB_ALLOCS_PER_TRIAL_CEILING,
        "{per_trial} allocations per trial ({allocs} over {trials} trials), \
         ceiling {BOHB_ALLOCS_PER_TRIAL_CEILING}"
    );
}

/// A TPE suggestion draws its candidates as numbers and builds one
/// `Config`, the winner's.
#[test]
fn a_tpe_suggestion_builds_one_config() {
    let workload = Workload::by_id(WorkloadId::Ic);
    let space = SimTrainingBackend::new(workload, SeedStream::new(42)).search_space();
    let mut rng = SeedStream::new(42).rng("observations");
    let observed: Vec<Config> = (0..128).map(|_| space.sample(&mut rng)).collect();
    let observations: Vec<(&Config, f64)> = observed
        .iter()
        .map(|c| (c, c.keys().filter_map(|k| c.get(k)).map(f64::ln).sum()))
        .collect();
    let mut tpe = TpeSampler::new(SeedStream::new(42));
    let (cohort, allocs) = allocations_of(|| tpe.suggest_cohort(&space, &observations, TPE_COHORT));
    assert_eq!(cohort.len(), TPE_COHORT);
    let per_suggestion = allocs / TPE_COHORT as u64;
    assert!(
        per_suggestion <= TPE_ALLOCS_PER_SUGGESTION_CEILING,
        "{per_suggestion} allocations per suggestion ({allocs} over {TPE_COHORT}), \
         ceiling {TPE_ALLOCS_PER_SUGGESTION_CEILING}"
    );
}

#[test]
fn a_sweep_study_stays_under_its_allocation_ceiling() {
    let (per_trial, allocs, trials) = allocations_per_trial(sweep_config(), false);
    assert!(
        per_trial <= SWEEP_ALLOCS_PER_TRIAL_CEILING,
        "{per_trial} allocations per trial ({allocs} over {trials} trials), \
         ceiling {SWEEP_ALLOCS_PER_TRIAL_CEILING}"
    );
}

/// The writer spells every number and key into the output `String`
/// directly: serialising a report allocates only as that `String` grows.
#[test]
fn a_sweep_report_serialises_without_an_allocation_per_value() {
    let report = EdgeTune::new(sweep_config())
        .run()
        .expect("study completes");
    let (json, allocs) = allocations_of(|| report.to_json().expect("report serialises"));
    assert!(
        allocs <= SWEEP_REPORT_JSON_ALLOCS_CEILING,
        "{allocs} allocations for {} bytes of report JSON, ceiling {SWEEP_REPORT_JSON_ALLOCS_CEILING}",
        json.len()
    );
}

/// A re-tune reads its latencies from the retuner's table and draws its
/// arrivals once: it allocates a constant, not per allocation or
/// candidate.
#[test]
fn a_retune_stays_under_its_allocation_ceiling() {
    let device = DeviceSpec::raspberry_pi_3b();
    let workload = Workload::by_id(WorkloadId::Ic);
    let profile = workload.profile(workload.model_hp_values[0]);
    let space = InferenceSpace::for_device(&device);
    let retuner = ScenarioRetuner::new(device, space, profile);
    for rate in [0.5, 10.0, 40.0] {
        let (config, allocs) = allocations_of(|| retuner.retune(rate, SeedStream::new(42)));
        assert!(config.is_some(), "{rate}/s is tunable");
        assert!(
            allocs <= RETUNE_ALLOCS_CEILING,
            "{allocs} allocations re-tuning for {rate}/s, ceiling {RETUNE_ALLOCS_CEILING}"
        );
    }
}
