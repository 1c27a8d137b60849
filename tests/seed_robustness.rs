//! Seed robustness: the paper's qualitative relations must not be
//! artefacts of one lucky seed. Each claim is re-checked for several
//! independent seeds (a compressed version of the claims in
//! `paper_claims.rs`).

use edgetune::prelude::*;
use edgetune_baselines::TuneBaseline;
use edgetune_tuner::budget::BudgetPolicy;

const SEEDS: [u64; 3] = [7, 1234, 987_654];

fn edgetune(seed: u64, budget: BudgetPolicy) -> TuningReport {
    EdgeTune::new(
        EdgeTuneConfig::for_workload(WorkloadId::Ic)
            .with_budget(budget)
            .with_scheduler(SchedulerConfig::new(8, 2.0, 10))
            .with_seed(seed),
    )
    .run()
    .expect("run succeeds")
}

#[test]
fn edgetune_beats_tune_for_every_seed() {
    for seed in SEEDS {
        let tune = TuneBaseline::new(WorkloadId::Ic)
            .with_scheduler(SchedulerConfig::new(8, 2.0, 8))
            .with_seed(seed)
            .run();
        let et = edgetune(seed, BudgetPolicy::multi_default());
        assert!(
            et.tuning_runtime() < tune.tuning_runtime(),
            "seed {seed}: {} vs {}",
            et.tuning_runtime(),
            tune.tuning_runtime()
        );
        assert!(
            et.tuning_energy() < tune.tuning_energy() * 0.7,
            "seed {seed}: energy gain must be substantial"
        );
    }
}

#[test]
fn multi_budget_beats_epoch_budget_for_every_seed() {
    for seed in SEEDS {
        let epoch = edgetune(seed, BudgetPolicy::epoch_default());
        let multi = edgetune(seed, BudgetPolicy::multi_default());
        assert!(
            multi.tuning_runtime() < epoch.tuning_runtime(),
            "seed {seed}: {} vs {}",
            multi.tuning_runtime(),
            epoch.tuning_runtime()
        );
    }
}

#[test]
fn pipelining_holds_for_every_seed() {
    use edgetune_util::units::Seconds;
    for seed in SEEDS {
        let report = edgetune(seed, BudgetPolicy::multi_default());
        assert_eq!(report.stall_time(), Seconds::ZERO, "seed {seed}");
    }
}

// --- chaos robustness ---
//
// CI runs this file twice with different EDGETUNE_CHAOS_SEED values, so
// the fault-tolerance claims are not artefacts of one lucky seed either.

fn chaos_seed() -> u64 {
    std::env::var("EDGETUNE_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn chaos_config(seed: u64, rate: f64) -> EdgeTuneConfig {
    let mut config = EdgeTuneConfig::for_workload(WorkloadId::Ic)
        .with_scheduler(SchedulerConfig::new(8, 2.0, 8))
        .without_hyperband()
        .with_seed(seed);
    if rate > 0.0 {
        config = config.with_fault_plan(FaultPlan::uniform(rate));
    }
    config
}

#[test]
fn chaos_runs_are_deterministic_per_seed() {
    let seed = chaos_seed();
    let a = EdgeTune::new(chaos_config(seed, 0.3)).run().expect("run a");
    let b = EdgeTune::new(chaos_config(seed, 0.3)).run().expect("run b");
    assert_eq!(
        a.to_json().unwrap(),
        b.to_json().unwrap(),
        "seed {seed}: same seed and plan must reproduce the identical report"
    );
    assert!(
        a.faults().is_some(),
        "an active plan reports its injections"
    );
}

#[test]
fn ten_percent_failures_still_produce_a_valid_winner() {
    let seed = chaos_seed();
    let clean = EdgeTune::new(chaos_config(seed, 0.0))
        .run()
        .expect("fault-free run");
    let chaos = EdgeTune::new(chaos_config(seed, 0.1))
        .run()
        .expect("chaos degrades, it must not fail");
    assert!(
        chaos.best().outcome.score.is_finite(),
        "seed {seed}: the winner must be a real, non-penalised trial"
    );
    assert!(
        chaos.best_accuracy() >= clean.best_accuracy() * 0.5,
        "seed {seed}: degradation stays bounded: {} vs fault-free {}",
        chaos.best_accuracy(),
        clean.best_accuracy()
    );
}

#[test]
fn a_disabled_fault_plan_is_a_strict_no_op() {
    let seed = chaos_seed();
    let plain = EdgeTune::new(chaos_config(seed, 0.0)).run().expect("plain");
    let noop = EdgeTune::new(chaos_config(seed, 0.0).with_fault_plan(FaultPlan::none()))
        .run()
        .expect("no-op plan");
    let json = plain.to_json().unwrap();
    assert_eq!(
        json,
        noop.to_json().unwrap(),
        "seed {seed}: FaultPlan::none() must leave the report byte-identical"
    );
    assert!(!json.contains("\"faults\""));
    assert!(!json.contains("\"failure\""));
}

#[test]
fn checkpoint_resume_reproduces_the_uninterrupted_history() {
    let seed = chaos_seed();
    let dir = std::env::temp_dir().join(format!("edgetune-resume-robustness-{seed}"));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("study.ckpt.json");

    // Four simulated slots advance the clock by each rung's makespan,
    // not by the sum of its trial runtimes: the resumed clock must be
    // the stored reading, not a re-derivation.
    for slots in [1, 4] {
        std::fs::remove_file(&path).ok();
        let config = || chaos_config(seed, 0.2).with_trial_slots(slots);
        let full = EdgeTune::new(config()).run().expect("uninterrupted run");
        let halted = EdgeTune::new(
            config()
                .with_checkpoint_path(&path)
                .with_halt_after_rungs(2),
        )
        .run()
        .expect("interrupted run");
        assert!(
            halted.history().len() < full.history().len(),
            "seed {seed}: the interruption must actually cut the study short"
        );
        assert!(path.exists(), "the halted run left a checkpoint behind");
        let resumed = EdgeTune::new(config().with_checkpoint_path(&path).resuming())
            .run()
            .expect("resumed run");
        assert_eq!(
            resumed.history(),
            full.history(),
            "seed {seed}: resume must reproduce the exact uninterrupted history"
        );
        assert_eq!(
            resumed.to_json().unwrap(),
            full.to_json().unwrap(),
            "seed {seed}, {slots} slots: resume must reproduce the uninterrupted report bytes"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// A multi-bracket study (more than five rungs) under `seed`.
fn bracketed_config(seed: u64) -> EdgeTuneConfig {
    EdgeTuneConfig::for_workload(WorkloadId::Ic)
        .with_scheduler(SchedulerConfig::new(8, 2.0, 8))
        .with_seed(seed)
}

#[test]
fn a_resume_interrupted_inside_the_checkpointed_prefix_changes_nothing() {
    // Rungs answered from the checkpoint's log are inert: a resume that
    // stops (killed, or halted) before it runs anything live must leave
    // the checkpoint exactly as it found it, so the next resume still
    // reproduces the uninterrupted bytes.
    let seed = chaos_seed();
    let dir = std::env::temp_dir().join(format!("edgetune-interrupted-replay-{seed}"));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("study.ckpt.json");

    let scalar = || bracketed_config(seed).with_fault_plan(FaultPlan::uniform(0.2));
    let pareto = || bracketed_config(seed).with_pareto(5);
    let studies: [(&str, &dyn Fn() -> EdgeTuneConfig); 2] =
        [("scalar", &scalar), ("pareto", &pareto)];
    for (what, study) in studies {
        let full = EdgeTune::new(study()).run().expect("uninterrupted run");
        for shards in [1, 4] {
            std::fs::remove_file(&path).ok();
            let config = || {
                study()
                    .with_study_shards(shards)
                    .with_checkpoint_path(&path)
            };
            let _ = EdgeTune::new(config().with_halt_after_rungs(5))
                .run()
                .expect("halted at rung 5");
            let at_rung_5 = std::fs::read(&path).expect("checkpoint written");
            let inside = EdgeTune::new(config().resuming().with_halt_after_rungs(2))
                .run()
                .expect("resumed, halted at rung 2");
            assert!(inside.halted());
            assert_eq!(
                std::fs::read(&path).unwrap(),
                at_rung_5,
                "seed {seed}, {what}, {shards} shards: a resume that only replays \
                 must not rewrite the checkpoint"
            );
            // One live rung on top of the log writes the state of rung 6
            // — the bytes a study that never stopped wrote there.
            let _ = EdgeTune::new(config().resuming().with_halt_after_rungs(6))
                .run()
                .expect("resumed, halted at rung 6");
            let resumed_to_6 = std::fs::read(&path).unwrap();
            let resumed = EdgeTune::new(config().resuming())
                .run()
                .expect("resumed to the end");
            assert_eq!(
                resumed.to_json().unwrap(),
                full.to_json().unwrap(),
                "seed {seed}, {what}, {shards} shards: the third resume must still \
                 reproduce the uninterrupted report bytes"
            );
            std::fs::remove_file(&path).ok();
            let _ = EdgeTune::new(config().with_halt_after_rungs(6))
                .run()
                .expect("halted at rung 6");
            assert!(
                std::fs::read(&path).unwrap() == resumed_to_6,
                "seed {seed}, {what}, {shards} shards: a checkpoint's bytes must not \
                 depend on how often the study was resumed before it"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_checkpoint_of_a_different_study_is_rejected_not_resumed() {
    // The seed guard cannot tell two studies under one seed apart; the
    // trial log can. Resuming on another study's checkpoint must be a
    // structured error — never a live run on top of the foreign cache,
    // timeline and cursors — and must leave the file alone.
    let seed = chaos_seed();
    let dir = std::env::temp_dir().join(format!("edgetune-foreign-checkpoint-{seed}"));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("study.ckpt.json");

    let ours = || bracketed_config(seed).with_checkpoint_path(&path);
    let foreign = [
        (
            "another workload",
            EdgeTuneConfig::for_workload(WorkloadId::Od)
                .with_scheduler(SchedulerConfig::new(8, 2.0, 8))
                .with_seed(seed),
        ),
        (
            "another scheduler shape",
            bracketed_config(seed).with_scheduler(SchedulerConfig::new(6, 3.0, 9)),
        ),
        (
            "another budget policy",
            bracketed_config(seed).with_budget(BudgetPolicy::epoch_default()),
        ),
    ];
    for (what, theirs) in foreign {
        std::fs::remove_file(&path).ok();
        let _ = EdgeTune::new(theirs.with_checkpoint_path(&path).with_halt_after_rungs(3))
            .run()
            .expect("the other study halts");
        let written = std::fs::read(&path).expect("checkpoint written");
        for (ladder, config) in [
            ("armed", ours().resuming()),
            (
                "off",
                ours()
                    .with_degradation(DegradationLadder::new(Vec::new()))
                    .resuming(),
            ),
        ] {
            let outcome = EdgeTune::new(config).run();
            assert!(
                matches!(outcome, Err(edgetune_util::Error::InvalidConfig(_))),
                "seed {seed}: resuming on a checkpoint of {what} (ladder {ladder}) must be \
                 an invalid-config error, got {:?}",
                outcome.map(|report| report.history().len())
            );
            assert_eq!(
                std::fs::read(&path).unwrap(),
                written,
                "seed {seed}: the rejected checkpoint of {what} must not be modified"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn torn_shard_checkpoints_degrade_instead_of_panicking() {
    // A power cut mid-write can leave a truncated checkpoint, and an
    // older build's sharded study left a shard manifest at the path
    // (its trials lived in sibling files). With the degradation ladder
    // armed (the default) resume restarts fresh, and the deterministic
    // engine still reproduces the exact uninterrupted artefact; with
    // the ladder off it is a structured error. Never a panic, never a
    // resume from partial state.
    let seed = chaos_seed();
    let dir = std::env::temp_dir().join(format!("edgetune-torn-shard-{seed}"));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("study.ckpt.json");
    std::fs::remove_file(&path).ok();
    let config = || {
        chaos_config(seed, 0.0)
            .with_study_shards(4)
            .with_checkpoint_path(&path)
    };

    let full = EdgeTune::new(chaos_config(seed, 0.0).with_study_shards(4))
        .run()
        .expect("uninterrupted run")
        .to_json()
        .unwrap();

    let _ = EdgeTune::new(config().with_halt_after_rungs(2))
        .run()
        .expect("halted run");
    let intact = std::fs::read_to_string(&path).expect("checkpoint written");
    let torn = intact.as_bytes()[..intact.len() / 2].to_vec();
    let mut manifest: serde_json::Value = serde_json::from_str(&intact).expect("valid JSON");
    let keys = manifest.as_object_mut().expect("an object");
    keys.remove("trials");
    keys.insert("shards", serde_json::Value::from(2_u64));
    let files = r#"["study.ckpt.json.shard0", "study.ckpt.json.shard1"]"#;
    keys.insert("shard_files", serde_json::from_str(files).unwrap());
    let manifest = serde_json::to_string_pretty(&manifest)
        .unwrap()
        .into_bytes();

    for (what, bytes) in [
        ("torn checkpoint", torn),
        ("stale shard manifest", manifest),
    ] {
        std::fs::write(&path, &bytes).expect("plant the corrupt state");
        let strict = EdgeTune::new(
            config()
                .with_degradation(DegradationLadder::new(Vec::new()))
                .resuming(),
        )
        .run();
        assert!(
            matches!(strict, Err(edgetune_util::Error::Storage(_))),
            "seed {seed}: a {what} with the ladder off must be a storage error"
        );
        let resumed = EdgeTune::new(config().resuming())
            .run()
            .unwrap_or_else(|e| panic!("a {what} must degrade to a fresh run: {e}"));
        assert_eq!(
            resumed.to_json().unwrap(),
            full,
            "seed {seed}: the restart after a {what} must still reproduce the artefact"
        );
    }
    std::fs::remove_file(&path).ok();
}
