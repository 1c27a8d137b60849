//! Golden tests for Pareto mode: the frontier is part of the report
//! artefact, so it inherits the byte-identity contract — deterministic
//! across repeated runs and study shards — and
//! scalar-mode reports must not change by a byte just because the
//! feature exists.

use edgetune::prelude::*;

fn pareto_config() -> EdgeTuneConfig {
    EdgeTuneConfig::for_workload(WorkloadId::Ic)
        .with_scheduler(SchedulerConfig::new(6, 2.0, 6))
        .without_hyperband()
        .with_seed(1234)
        .with_pareto(5)
}

fn scalar_config() -> EdgeTuneConfig {
    EdgeTuneConfig::for_workload(WorkloadId::Ic)
        .with_scheduler(SchedulerConfig::new(6, 2.0, 6))
        .without_hyperband()
        .with_seed(1234)
}

fn report_of(config: EdgeTuneConfig) -> TuningReport {
    EdgeTune::new(config).run().expect("golden run completes")
}

fn json_of(config: EdgeTuneConfig) -> String {
    report_of(config).to_json().expect("report serialises")
}

#[test]
fn pareto_report_is_byte_identical_across_study_shard_counts() {
    let baseline = json_of(pareto_config().with_study_shards(1));
    for shards in [2, 4] {
        let sharded = json_of(pareto_config().with_study_shards(shards));
        assert_eq!(
            baseline, sharded,
            "{shards} study shards changed the pareto artefact"
        );
    }
}

#[test]
fn pareto_report_is_byte_identical_across_repeated_runs() {
    assert_eq!(json_of(pareto_config()), json_of(pareto_config()));
}

#[test]
fn the_frontier_is_mutually_non_dominated_and_bounded() {
    let report = report_of(pareto_config());
    let frontier = report.frontier();
    assert!(
        !frontier.is_empty(),
        "a completed pareto study reports a frontier"
    );
    assert!(frontier.len() <= 5, "the frontier respects its k cap");
    for (i, a) in frontier.iter().enumerate() {
        for (j, b) in frontier.iter().enumerate() {
            if i != j {
                assert!(
                    !a.vector.dominates(&b.vector),
                    "frontier point {i} dominates point {j}"
                );
            }
        }
    }
    // The scalar winner's accuracy is attainable on the frontier: the
    // frontier covers the best trade-offs, not a worse subset.
    let best_accuracy = report.best_accuracy();
    let frontier_max = frontier
        .iter()
        .map(|p| p.vector.accuracy)
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        frontier_max >= best_accuracy - 1e-12,
        "frontier max accuracy {frontier_max} lags the scalar winner {best_accuracy}"
    );
}

#[test]
fn pareto_mode_round_trips_through_json() {
    let report = report_of(pareto_config());
    let json = report.to_json().unwrap();
    assert!(json.contains("\"frontier\""));
    let restored = TuningReport::from_json(&json).expect("parses");
    assert_eq!(restored.frontier(), report.frontier());
    assert_eq!(restored.to_json().unwrap(), json);
}

#[test]
fn scalar_reports_do_not_mention_the_feature() {
    // The scalar artefact is a frozen byte contract: no frontier, no
    // per-trial objective vectors, whether or not pareto mode exists.
    let json = json_of(scalar_config());
    assert!(
        !json.contains("\"frontier\""),
        "scalar reports must not grow a frontier key"
    );
    assert!(
        !json.contains("\"vector\""),
        "scalar trial records must not grow a vector key"
    );
}

#[test]
fn pareto_resume_reproduces_the_uninterrupted_bytes() {
    // Halting a pareto study and resuming from the checkpoint must not
    // lose the objective vectors of the replayed prefix — under the
    // shard count it halted with or any other.
    let dir = std::env::temp_dir().join("edgetune-golden-pareto-resume");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("study.ckpt.json");

    let full = json_of(pareto_config());
    for (halt_shards, resume_shards) in [(1, 1), (4, 1), (1, 4)] {
        std::fs::remove_file(&path).ok();
        let _halted = json_of(
            pareto_config()
                .with_study_shards(halt_shards)
                .with_checkpoint_path(&path)
                .with_halt_after_rungs(2),
        );
        assert!(path.exists(), "the halted run left a checkpoint");
        let resumed = json_of(
            pareto_config()
                .with_study_shards(resume_shards)
                .with_checkpoint_path(&path)
                .resuming(),
        );
        assert_eq!(
            full, resumed,
            "halted under {halt_shards} shards, resumed under {resume_shards}: \
             resume dropped frontier data from the replayed prefix"
        );
    }
    std::fs::remove_file(&path).ok();
}
