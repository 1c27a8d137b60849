//! Property-based tests (proptest) over the core invariants of the
//! substrate crates, exercised through their public APIs.

use edgetune::prelude::{EdgeTune, EdgeTuneConfig, SchedulerConfig};
use edgetune_device::latency::{simulate_inference, CpuAllocation};
use edgetune_device::multi_gpu::{simulate_gpu_epoch, GpuAllocation};
use edgetune_device::profile::{Phase, WorkProfile};
use edgetune_device::spec::DeviceSpec;
use edgetune_faults::RetryPolicy;
use edgetune_serving::{RuntimeOptions, ServingConfig, ServingRuntime, SloPolicy, TrafficProfile};
use edgetune_trace::{monotone_per_track, well_nested, Tracer};
use edgetune_tuner::budget::{BudgetPolicy, TrialBudget};
use edgetune_tuner::merge::{HistoryMerge, ShardHistory, StampedTrial};
use edgetune_tuner::pareto::{FrontPoint, ObjectiveVector, ParetoFront};
use edgetune_tuner::space::{Config, Domain, SearchSpace};
use edgetune_tuner::trial::{TrialOutcome, TrialRecord};
use edgetune_util::rng::SeedStream;
use edgetune_util::stats::{percentile, BoxPlot};
use edgetune_util::units::Seconds;
use edgetune_workloads::catalog::Workload;
use edgetune_workloads::curve::TrainingQuality;
use edgetune_workloads::WorkloadId;
use proptest::prelude::*;

fn workload_strategy() -> impl Strategy<Value = WorkloadId> {
    prop_oneof![
        Just(WorkloadId::Ic),
        Just(WorkloadId::Sr),
        Just(WorkloadId::Nlp),
        Just(WorkloadId::Od),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // --- device models ---

    #[test]
    fn inference_latency_and_energy_are_positive_and_finite(
        cores in 1u32..=4,
        batch in 1u32..=128,
        flops in 1.0e7f64..1.0e10,
        act in 1.0e4f64..1.0e8,
        params in 1.0e5f64..5.0e8,
    ) {
        let device = DeviceSpec::raspberry_pi_3b();
        let alloc = CpuAllocation::new(&device, cores, device.max_freq).expect("valid cores");
        let profile = WorkProfile::new(flops, act, params);
        let exec = simulate_inference(&device, &alloc, &profile, batch);
        prop_assert!(exec.latency.value() > 0.0 && exec.latency.is_finite());
        prop_assert!(exec.energy.value() > 0.0 && exec.energy.is_finite());
        prop_assert!((0.0..=1.0).contains(&exec.utilization));
        // Energy is power integrated over latency.
        let p = exec.energy.value() / exec.latency.value();
        prop_assert!((p - exec.avg_power.value()).abs() / p < 1e-9);
    }

    #[test]
    fn more_flops_never_run_faster(
        batch in 1u32..=64,
        flops in 1.0e8f64..5.0e9,
        factor in 1.1f64..8.0,
    ) {
        let device = DeviceSpec::intel_i7_7567u();
        let alloc = CpuAllocation::full(&device);
        let light = WorkProfile::new(flops, 2.0e6, 40.0e6);
        let heavy = WorkProfile::new(flops * factor, 2.0e6, 40.0e6);
        let t_light = simulate_inference(&device, &alloc, &light, batch).latency;
        let t_heavy = simulate_inference(&device, &alloc, &heavy, batch).latency;
        prop_assert!(t_heavy >= t_light);
    }

    #[test]
    fn higher_frequency_is_never_slower(
        cores in 1u32..=4,
        batch in 1u32..=64,
    ) {
        let device = DeviceSpec::armv7_board();
        let profile = WorkProfile::new(0.5e9, 3.0e6, 40.0e6);
        let slow = CpuAllocation::new(&device, cores, device.min_freq).expect("valid");
        let fast = CpuAllocation::new(&device, cores, device.max_freq).expect("valid");
        let t_slow = simulate_inference(&device, &slow, &profile, batch).latency;
        let t_fast = simulate_inference(&device, &fast, &profile, batch).latency;
        prop_assert!(t_fast <= t_slow);
    }

    #[test]
    fn gpu_epoch_scales_linearly_in_samples(
        gpus in 1u32..=8,
        batch in 32u32..=1024,
        samples in 1_000u64..100_000,
    ) {
        let node = DeviceSpec::titan_rtx_node();
        let alloc = GpuAllocation::new(&node, gpus).expect("valid");
        let profile = WorkProfile::new(1.0e9, 4.0e6, 90.0e6);
        let one = simulate_gpu_epoch(&node, &alloc, &profile, batch, samples);
        let two = simulate_gpu_epoch(&node, &alloc, &profile, batch, samples * 2);
        let ratio = two.latency.value() / one.latency.value();
        // Epoch time is exactly proportional to the iteration count
        // (which is ceil-quantised in the batch size).
        let iters = |s: u64| (s as f64 / f64::from(batch)).ceil();
        let expected = iters(samples * 2) / iters(samples);
        prop_assert!((ratio - expected).abs() < 1e-9, "ratio={ratio}, expected={expected}");
    }

    #[test]
    fn training_phases_cost_more_than_inference(
        batch in 1u32..=64,
    ) {
        let profile = WorkProfile::new(1.0e9, 4.0e6, 90.0e6);
        prop_assert!(profile.bytes(batch, Phase::Backward) >
            profile.bytes(batch, Phase::Inference));
        prop_assert!(profile.flops(batch, Phase::Backward) >
            profile.flops(batch, Phase::Inference));
        prop_assert!(profile.working_set(batch, Phase::ForwardTraining) >
            profile.working_set(batch, Phase::Inference));
    }

    // --- learning curves ---

    #[test]
    fn accuracy_is_monotone_in_epochs_up_to_noise(
        workload in workload_strategy(),
        hp_idx in 0usize..3,
        batch in 32u32..=512,
        epochs in 1.0f64..30.0,
        frac in 0.1f64..=1.0,
    ) {
        let w = Workload::by_id(workload);
        let hp = w.model_hp_values[hp_idx.min(w.model_hp_values.len() - 1)];
        let quality = TrainingQuality::from_batch(batch);
        let seed = SeedStream::new(1);
        let a1 = w.simulated_accuracy(hp, &quality, epochs, frac, seed);
        let a2 = w.simulated_accuracy(hp, &quality, epochs * 2.0, frac, seed);
        // Each call draws independent N(0, 1%) noise, so the
        // difference has σ√2 ≈ 1.41%; allow 4σ of the difference.
        prop_assert!(a2 >= a1 - 0.06, "acc fell: {a1} -> {a2}");
        prop_assert!((0.0..=1.0).contains(&a1));
    }

    #[test]
    fn more_data_never_hurts_converged_accuracy(
        workload in workload_strategy(),
        frac in 0.1f64..0.9,
    ) {
        let w = Workload::by_id(workload);
        let hp = w.model_hp_values[0];
        let quality = TrainingQuality::from_batch(128);
        let seed = SeedStream::new(2);
        let partial = w.simulated_accuracy(hp, &quality, 200.0, frac, seed);
        let full = w.simulated_accuracy(hp, &quality, 200.0, 1.0, seed);
        prop_assert!(full >= partial - 0.04, "{partial} vs {full}");
    }

    #[test]
    fn epochs_to_accuracy_round_trips(
        workload in workload_strategy(),
        target in 0.2f64..0.75,
    ) {
        let w = Workload::by_id(workload);
        let hp = w.model_hp_values[0];
        let quality = TrainingQuality::from_batch(96);
        if let Some(epochs) = w.epochs_to_accuracy(hp, &quality, 1.0, target) {
            let acc = w.simulated_accuracy(hp, &quality, epochs, 1.0, SeedStream::new(3));
            prop_assert!((acc - target).abs() < 0.05, "target {target}, got {acc}");
        }
    }

    // --- budgets ---

    #[test]
    fn budgets_are_valid_and_monotone(
        policy_idx in 0usize..3,
        iteration in 1u32..=20,
    ) {
        let policy = [
            BudgetPolicy::epoch_default(),
            BudgetPolicy::dataset_default(),
            BudgetPolicy::multi_default(),
        ][policy_idx];
        let b = policy.budget(iteration);
        prop_assert!(b.epochs > 0.0);
        prop_assert!(b.data_fraction > 0.0 && b.data_fraction <= 1.0);
        let next = policy.budget(iteration + 1);
        prop_assert!(next.effective_epochs() >= b.effective_epochs());
    }

    // --- search spaces ---

    #[test]
    fn samples_validate_and_clamp_is_idempotent(
        seed in 0u64..1_000,
        lo in 1i64..100,
        width in 1i64..1000,
        value in -1.0e4f64..1.0e4,
    ) {
        let space = SearchSpace::new()
            .with("a", Domain::int(lo, lo + width))
            .with("b", Domain::float(0.0, 1.0))
            .with("c", Domain::choice(vec![1.0, 2.0, 5.0]))
            .with("d", Domain::int_log(1, 1024));
        let mut rng = SeedStream::new(seed).rng("prop");
        let config = space.sample(&mut rng);
        prop_assert!(space.validate(&config).is_ok(), "{config}");
        for (_, domain) in space.iter() {
            let snapped = domain.clamp(value);
            prop_assert!(domain.contains(snapped), "{domain:?} clamp({value}) = {snapped}");
            prop_assert_eq!(domain.clamp(snapped), snapped);
        }
    }

    #[test]
    fn config_keys_are_canonical(
        a in -100.0f64..100.0,
        b in -100.0f64..100.0,
    ) {
        let c1 = Config::new().with("x", a).with("y", b);
        let c2 = Config::new().with("y", b).with("x", a);
        prop_assert_eq!(c1.key(), c2.key());
    }

    // --- fault tolerance ---

    #[test]
    fn backoff_delays_are_bounded_monotone_and_deterministic(
        seed in 0u64..10_000,
        draw in 0u64..64,
        max_attempts in 1u32..=10,
        base in 0.01f64..10.0,
        multiplier in 1.0f64..4.0,
        cap in 0.01f64..60.0,
        jitter in 0.0f64..=1.0,
    ) {
        let policy = RetryPolicy {
            max_attempts,
            base_delay: Seconds::new(base),
            multiplier,
            max_delay: Seconds::new(cap),
            jitter,
        };
        let stream = SeedStream::new(seed);
        let mut previous = Seconds::ZERO;
        for attempt in 1..=12u32 {
            let schedule = policy.base_delay_for(attempt);
            // The jitter-free schedule is monotone and saturates at the cap.
            prop_assert!(schedule >= previous, "attempt {attempt}: schedule fell");
            prop_assert!(schedule <= policy.max_delay);
            previous = schedule;

            let delay = policy.delay(attempt, stream, draw);
            // Jitter only ever shortens: every delay sits inside
            // [0, schedule], hence inside [0, cap].
            prop_assert!(delay.value() >= 0.0);
            prop_assert!(delay <= schedule, "jitter lengthened a delay");
            // Deterministic per (seed, draw, attempt).
            prop_assert_eq!(delay, policy.delay(attempt, stream, draw));
        }
    }

    // --- shard history merge ---

    #[test]
    fn merging_any_shard_assignment_and_order_restores_execution_order(
        n in 1usize..40,
        shards in 1usize..6,
        assignment_seed in 0u64..10_000,
        shuffle_seed in 0u64..10_000,
        brackets in prop::collection::vec(0u32..4, 40),
    ) {
        // Build a global execution order: strictly increasing start times,
        // ids in completion order — exactly what the evaluator stamps.
        let trials: Vec<StampedTrial> = (0..n)
            .map(|i| StampedTrial {
                record: TrialRecord {
                    id: i as u64,
                    config: Config::new().with("x", i as f64),
                    budget: TrialBudget::new(1.0, 1.0),
                    outcome: TrialOutcome::new(
                        i as f64,
                        0.5,
                        edgetune_util::units::Seconds::new(1.0),
                        edgetune_util::units::Joules::new(1.0),
                    ),
                },
                start: edgetune_util::units::Seconds::new(10.0 * i as f64),
                bracket: brackets[i],
            })
            .collect();

        // Deal the trials to shards by an arbitrary assignment, then
        // shuffle the shard list itself: the merge must not care how the
        // work was split or in which order shard histories arrive.
        let mut lcg = assignment_seed.wrapping_mul(2).wrapping_add(1);
        let mut next = move || {
            lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            lcg >> 33
        };
        let mut shard_histories: Vec<ShardHistory> = (0..shards)
            .map(|shard| ShardHistory { shard, trials: Vec::new() })
            .collect();
        for trial in trials.iter().cloned() {
            let shard = (next() as usize) % shards;
            shard_histories[shard].trials.push(trial);
        }
        let mut lcg2 = shuffle_seed.wrapping_mul(2).wrapping_add(1);
        let mut next2 = move || {
            lcg2 = lcg2.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            lcg2 >> 33
        };
        // Fisher–Yates over the shard order.
        for i in (1..shard_histories.len()).rev() {
            let j = (next2() as usize) % (i + 1);
            shard_histories.swap(i, j);
        }

        let merged = HistoryMerge::merge(shard_histories);
        let ids: Vec<u64> = merged.records().iter().map(|r| r.id).collect();
        let expected: Vec<u64> = (0..n as u64).collect();
        prop_assert_eq!(ids, expected, "merge must restore the global execution order");
    }

    // --- pareto fronts ---

    #[test]
    fn pareto_fronts_are_mutually_non_dominated_and_order_invariant(
        coords in prop::collection::vec((0.0f64..=1.0, 0.0f64..=100.0, 0.0f64..=10.0), 1..40),
        shuffle_seed in 0u64..10_000,
    ) {
        let points: Vec<FrontPoint> = coords
            .iter()
            .enumerate()
            .map(|(i, &(acc, train, infer))| FrontPoint {
                config: Config::new().with("x", i as f64),
                vector: ObjectiveVector::new(acc, train, infer),
                trial: i as u64,
            })
            .collect();

        let mut forward = ParetoFront::new();
        for p in points.iter().cloned() {
            forward.insert(p);
        }

        // Every surviving pair is mutually non-dominated.
        for (i, a) in forward.points().iter().enumerate() {
            for (j, b) in forward.points().iter().enumerate() {
                if i != j {
                    prop_assert!(!a.vector.dominates(&b.vector),
                        "front point {i} dominates {j}");
                }
            }
        }
        // Every dropped candidate is dominated by some survivor.
        for p in &points {
            let survived = forward.points().iter().any(|q| q.trial == p.trial);
            if !survived {
                prop_assert!(
                    forward.points().iter().any(|q| q.vector.dominates(&p.vector)),
                    "trial {} was dropped but nothing dominates it", p.trial
                );
            }
        }

        // Insertion order must not matter: shuffle and re-insert.
        let mut shuffled = points;
        let mut lcg = shuffle_seed.wrapping_mul(2).wrapping_add(1);
        let mut next = move || {
            lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            lcg >> 33
        };
        for i in (1..shuffled.len()).rev() {
            let j = (next() as usize) % (i + 1);
            shuffled.swap(i, j);
        }
        let mut backward = ParetoFront::new();
        for p in shuffled {
            backward.insert(p);
        }
        prop_assert_eq!(forward.points(), backward.points(),
            "insertion order changed the canonical front");
    }

    #[test]
    fn pareto_top_k_is_a_prefix_of_the_canonical_front(
        coords in prop::collection::vec((0.0f64..=1.0, 0.0f64..=100.0, 0.0f64..=10.0), 1..30),
        k in 1usize..8,
    ) {
        let mut front = ParetoFront::new();
        for (i, &(acc, train, infer)) in coords.iter().enumerate() {
            front.insert(FrontPoint {
                config: Config::new().with("x", i as f64),
                vector: ObjectiveVector::new(acc, train, infer),
                trial: i as u64,
            });
        }
        let top = front.top(k);
        prop_assert!(top.len() <= k);
        prop_assert_eq!(top, &front.points()[..top.len()]);
        // Hypervolume against a reference dominating every sample range
        // is finite and non-negative.
        let hv = front.hypervolume([1.0, 101.0, 11.0]);
        prop_assert!(hv >= 0.0 && hv.is_finite());
    }

    // --- statistics ---

    #[test]
    fn boxplot_orders_quartiles(samples in prop::collection::vec(-1.0e3f64..1.0e3, 4..64)) {
        let bp = BoxPlot::of(&samples).expect("non-empty");
        prop_assert!(bp.q1 <= bp.median && bp.median <= bp.q3);
        // Whiskers are the extreme *samples* inside the Tukey fences;
        // because quartiles are interpolated, a whisker may legitimately
        // sit inside the box when the adjacent sample lies beyond its
        // fence — but both always stay within the fences and the sample
        // range.
        let lo_fence = bp.q1 - 1.5 * bp.iqr();
        let hi_fence = bp.q3 + 1.5 * bp.iqr();
        prop_assert!(bp.whisker_low >= lo_fence - 1e-9);
        prop_assert!(bp.whisker_high <= hi_fence + 1e-9);
        prop_assert!(bp.whisker_low <= bp.whisker_high);
        for o in &bp.outliers {
            prop_assert!(*o < lo_fence || *o > hi_fence, "outlier {o} inside fences");
        }
        let n_in = samples.len() - bp.outliers.len();
        prop_assert!(n_in >= samples.len() / 2, "at least half the data is inside");
    }

    #[test]
    fn percentiles_are_monotone(
        samples in prop::collection::vec(-1.0e3f64..1.0e3, 1..64),
        q1 in 0.0f64..=1.0,
        q2 in 0.0f64..=1.0,
    ) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let p_lo = percentile(&samples, lo).expect("non-empty");
        let p_hi = percentile(&samples, hi).expect("non-empty");
        prop_assert!(p_lo <= p_hi);
    }
}

// --- tracing ---
//
// A smaller case count: each case runs a full (if tiny) discrete-event
// simulation rather than a single function.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn serving_traces_are_well_nested_monotone_and_invisible_in_the_report(
        seed in 0u64..10_000,
        rate in 1.0f64..20.0,
        workers in 1u32..=4,
        batch in 1u32..=32,
    ) {
        let device = DeviceSpec::raspberry_pi_3b();
        let profile = WorkProfile::new(0.56e9, 3.0e6, 44.8e6);
        let config =
            ServingConfig::new(batch, device.cores, device.max_freq).with_tuned_rate(rate);
        let options = RuntimeOptions::new(SloPolicy::new(Seconds::new(2.0))).with_workers(workers);
        let runtime = ServingRuntime::new(device, profile, config, options).expect("valid runtime");
        let traffic = TrafficProfile::Poisson { rate };

        let plain = runtime
            .serve(&traffic, Seconds::new(30.0), None, SeedStream::new(seed))
            .expect("serving completes");
        let tracer = Tracer::new();
        let traced = runtime
            .serve_traced(&traffic, Seconds::new(30.0), None, SeedStream::new(seed), Some(&tracer))
            .expect("serving completes");
        prop_assert_eq!(plain, traced, "tracing changed the serving report");

        let events = tracer.snapshot();
        prop_assert!(well_nested(&events).is_ok(), "{:?}", well_nested(&events));
        prop_assert!(
            monotone_per_track(&events).is_ok(),
            "{:?}",
            monotone_per_track(&events)
        );
    }

    #[test]
    fn pareto_frontiers_are_identical_across_workers_and_shards(
        seed in 0u64..10_000,
    ) {
        let base = || EdgeTuneConfig::for_workload(WorkloadId::Ic)
            .with_scheduler(SchedulerConfig::new(3, 2.0, 3))
            .without_hyperband()
            .with_seed(seed)
            .with_pareto(4);
        let solo = EdgeTune::new(base()).run().expect("study completes");
        prop_assert!(!solo.frontier().is_empty(), "pareto studies report a frontier");
        for shards in [2, 4] {
            let sharded = EdgeTune::new(base().with_study_shards(shards))
                .run()
                .expect("study completes");
            prop_assert_eq!(solo.frontier(), sharded.frontier(),
                "{} shard workers changed the frontier", shards);
        }
    }

    #[test]
    fn study_traces_are_valid_chrome_json_for_any_seed(
        seed in 0u64..10_000,
        slots in 1usize..=2,
    ) {
        let config = EdgeTuneConfig::for_workload(WorkloadId::Ic)
            .with_scheduler(SchedulerConfig::new(3, 2.0, 3))
            .without_hyperband()
            .with_trial_slots(slots)
            .with_seed(seed);
        let (_report, trace) = EdgeTune::new(config).run_traced().expect("study completes");
        prop_assert!(trace.validate().is_ok(), "{:?}", trace.validate());
        prop_assert!(!trace.trace_events.is_empty());
    }
}
