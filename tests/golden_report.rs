//! Golden-report snapshot tests: the `TuningReport` JSON artefact is a
//! stability contract. For a fixed seed and configuration it must be
//! byte-identical across repeated runs, across study shard counts
//! (`study_shards`), and across checkpoint resume — the determinism
//! floor every engine refactor has to clear.
//!
//! CI runs this file under a matrix of `EDGETUNE_STUDY_SHARDS` and
//! `EDGETUNE_GOLDEN_SEED` values, so the byte-identity claims are
//! checked for more than one lucky seed.

use edgetune::prelude::*;

fn golden_seed() -> u64 {
    std::env::var("EDGETUNE_GOLDEN_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1234)
}

fn matrix_shards() -> usize {
    std::env::var("EDGETUNE_STUDY_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

fn golden_config() -> EdgeTuneConfig {
    EdgeTuneConfig::for_workload(WorkloadId::Ic)
        .with_scheduler(SchedulerConfig::new(6, 2.0, 6))
        .without_hyperband()
        .with_seed(golden_seed())
}

fn json_of(config: EdgeTuneConfig) -> String {
    EdgeTune::new(config)
        .run()
        .expect("golden run completes")
        .to_json()
        .expect("report serialises")
}

#[test]
fn report_json_is_byte_identical_across_repeated_runs() {
    assert_eq!(json_of(golden_config()), json_of(golden_config()));
}

#[test]
fn report_json_is_byte_identical_across_study_shard_counts() {
    // `study_shards` partitions each rung across engine shards on real
    // threads; the report must be indistinguishable from the
    // single-shard run for every shard count.
    let baseline = json_of(golden_config().with_study_shards(1));
    for shards in [2, 4] {
        let sharded = json_of(golden_config().with_study_shards(shards));
        assert_eq!(
            baseline, sharded,
            "{shards} study shards changed the report artefact"
        );
    }
}

#[test]
fn matrix_shard_count_reproduces_the_single_shard_bytes() {
    // The CI matrix entry point: whatever EDGETUNE_STUDY_SHARDS and
    // EDGETUNE_GOLDEN_SEED say, the artefact must match shards = 1.
    let baseline = json_of(golden_config());
    let sharded = json_of(golden_config().with_study_shards(matrix_shards()));
    assert_eq!(baseline, sharded);
}

#[test]
fn shards_layer_under_simulated_slots_without_changing_json() {
    // Slots change the makespan by design; sharding the measurement
    // underneath must not perturb it by a byte.
    let slots_only = json_of(golden_config().with_trial_slots(4));
    let slots_and_shards = json_of(golden_config().with_trial_slots(4).with_study_shards(2));
    assert_eq!(slots_only, slots_and_shards);

    // And the slot scheduler really is doing something.
    let sequential = json_of(golden_config());
    assert_ne!(
        sequential, slots_only,
        "4 simulated slots must shrink the reported makespan"
    );
}

#[test]
fn resume_from_shard_checkpoints_is_byte_identical() {
    // Halt a study mid-flight and resume it: the final artefact must
    // equal the uninterrupted bytes. The shards only measure, so the
    // checkpoint's bytes are the same whatever count wrote it, and a
    // study halted under one count resumes under another.
    let dir = std::env::temp_dir().join(format!("edgetune-golden-shard-resume-{}", golden_seed()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("study.ckpt.json");

    let full = json_of(golden_config());
    let mut checkpoints = Vec::new();
    for (halt_shards, resume_shards) in [(4, 4), (4, 1), (1, 4)] {
        std::fs::remove_file(&path).ok();
        let _halted = json_of(
            golden_config()
                .with_study_shards(halt_shards)
                .with_checkpoint_path(&path)
                .with_halt_after_rungs(2),
        );
        checkpoints.push(std::fs::read(&path).expect("the halted run left a checkpoint"));
        let resumed = json_of(
            golden_config()
                .with_study_shards(resume_shards)
                .with_checkpoint_path(&path)
                .resuming(),
        );
        assert_eq!(
            full, resumed,
            "halted under {halt_shards} shards, resumed under {resume_shards}: \
             diverged from the uninterrupted run"
        );
    }
    assert!(
        checkpoints.windows(2).all(|pair| pair[0] == pair[1]),
        "the rung-2 checkpoint's bytes depend on the shard count"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn facade_reexports_preserve_the_public_paths() {
    // The job and its report live in `engine`; the crate-root paths
    // users import must keep resolving and round-tripping.
    let report = edgetune::EdgeTune::new(golden_config()).run().unwrap();
    let json = report.to_json().unwrap();
    let restored = edgetune::TuningReport::from_json(&json).expect("parses");
    assert_eq!(restored.best_config(), report.best_config());
    assert_eq!(restored.to_json().unwrap(), json);
    let _ = edgetune::config::SamplerKind::Tpe;
}
