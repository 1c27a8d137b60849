//! End-to-end service laws:
//!
//! 1. **Isolation by byte-identity** — a cold study driven by the
//!    service (sliced, parked, resumed, interleaved with other tenants'
//!    studies) produces a report byte-identical to a solo `edgetune`
//!    run of the same submission.
//! 2. **Interleaving-invariance** — changing the schedule (weights,
//!    rung quanta) changes the grant sequence but never a study's
//!    bytes.
//! 3. **Warm starts save trials** — a study with a matching
//!    `TransferKey` donor reports `trials_saved > 0` and evaluates
//!    fewer trials than its cold twin.
//! 4. **Crash containment** — an injected crash fails one study and
//!    leaves every other study's bytes untouched.

use std::path::PathBuf;

use edgetune::{EdgeTune, EdgeTuneConfig};
use edgetune_service::{ServiceOptions, StudyService, SubmissionFile};
use edgetune_tuner::scheduler::SchedulerConfig;
use edgetune_tuner::Metric;
use edgetune_workloads::catalog::WorkloadId;

fn work_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("edgetune-service-{name}"));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The report JSON of a solo `edgetune` run, constructed exactly as the
/// CLI (and the service) construct it.
fn solo_json(
    workload: WorkloadId,
    metric: Metric,
    seed: u64,
    trials: usize,
    max_iter: u32,
) -> String {
    let config = EdgeTuneConfig::for_workload(workload)
        .with_metric(metric)
        .with_scheduler(SchedulerConfig::new(trials, 2.0, max_iter))
        .with_seed(seed);
    EdgeTune::new(config)
        .run()
        .expect("solo run")
        .to_json()
        .expect("solo json")
}

fn submissions(alpha_weight: u32, quantum: u32) -> SubmissionFile {
    SubmissionFile::from_json(&format!(
        r#"{{
            "tenants": [
                {{"name": "alpha", "weight": {alpha_weight}}},
                {{"name": "beta"}}
            ],
            "studies": [
                {{"tenant": "alpha", "name": "ic-a", "workload": "ic", "seed": 41,
                  "trials": 4, "max_iter": 4, "rung_quantum": {quantum}}},
                {{"tenant": "alpha", "name": "sr-a", "workload": "sr", "seed": 43,
                  "trials": 4, "max_iter": 4, "rung_quantum": {quantum}}},
                {{"tenant": "beta", "name": "ic-b", "workload": "ic", "seed": 7,
                  "metric": "energy", "trials": 4, "max_iter": 4,
                  "rung_quantum": {quantum}}}
            ]
        }}"#
    ))
    .expect("valid submission file")
}

#[test]
fn interleaved_studies_match_solo_runs_byte_for_byte() {
    let dir = work_dir("solo-identity");
    let mut service = StudyService::new(ServiceOptions::new(&dir)).unwrap();
    let report = service.run(&submissions(1, 2)).unwrap();

    assert!(report.rejected.is_empty());
    assert_eq!(report.outcomes.len(), 3);
    // The studies genuinely interleaved: more grants than studies means
    // at least one study parked mid-run and resumed later.
    assert!(
        report.schedule.len() > 3,
        "expected parked slices, got schedule {:?}",
        report.schedule
    );

    let expect = [
        (
            "alpha",
            "ic-a",
            solo_json(WorkloadId::Ic, Metric::Runtime, 41, 4, 4),
        ),
        (
            "alpha",
            "sr-a",
            solo_json(WorkloadId::Sr, Metric::Runtime, 43, 4, 4),
        ),
        (
            "beta",
            "ic-b",
            solo_json(WorkloadId::Ic, Metric::Energy, 7, 4, 4),
        ),
    ];
    for (tenant, study, solo) in &expect {
        let outcome = report.outcome(tenant, study).expect("admitted");
        let served = outcome
            .report
            .as_ref()
            .expect("completed")
            .to_json()
            .unwrap();
        assert_eq!(&served, solo, "{tenant}/{study} diverged from its solo run");
        // The on-disk per-study report is the same bytes.
        let on_disk =
            std::fs::read_to_string(dir.join(format!("{tenant}.{study}.report.json"))).unwrap();
        assert_eq!(&on_disk, solo);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn different_interleavings_change_the_schedule_but_not_the_bytes() {
    let dir_a = work_dir("interleave-a");
    let dir_b = work_dir("interleave-b");
    // Interleaving A: equal weights, quantum 2. Interleaving B: alpha
    // triple-weighted, quantum 1 — different grant order, smaller
    // slices, more park/resume cycles.
    let report_a = StudyService::new(ServiceOptions::new(&dir_a))
        .unwrap()
        .run(&submissions(1, 2))
        .unwrap();
    let report_b = StudyService::new(ServiceOptions::new(&dir_b))
        .unwrap()
        .run(&submissions(3, 1))
        .unwrap();

    assert_ne!(
        report_a.schedule, report_b.schedule,
        "the two interleavings must actually differ for this test to bite"
    );
    for (a, b) in report_a.outcomes.iter().zip(&report_b.outcomes) {
        assert!(b.slices > a.slices, "quantum 1 must park more often");
        let json_a = a.report.as_ref().unwrap().to_json().unwrap();
        let json_b = b.report.as_ref().unwrap().to_json().unwrap();
        assert_eq!(
            json_a, json_b,
            "{}/{}: interleaving leaked into the report",
            a.tenant, a.study
        );
    }
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

#[test]
fn warm_start_saves_trials_against_the_cold_twin() {
    let dir = work_dir("warm-start");
    let donor = SubmissionFile::from_json(
        r#"{
            "tenants": [{"name": "lab"}],
            "studies": [
                {"tenant": "lab", "name": "donor", "workload": "ic", "seed": 42,
                 "trials": 8, "max_iter": 8, "rung_quantum": 4}
            ]
        }"#,
    )
    .unwrap();
    let warm = SubmissionFile::from_json(
        r#"{
            "tenants": [{"name": "lab"}],
            "studies": [
                {"tenant": "lab", "name": "warm", "workload": "ic", "seed": 43,
                 "trials": 8, "max_iter": 8, "rung_quantum": 4, "warm_start": true}
            ]
        }"#,
    )
    .unwrap();

    // Run 1 populates the transfer index; run 2 (same work dir, fresh
    // service instance) proves the index persists and transfers.
    let donor_report = StudyService::new(ServiceOptions::new(&dir))
        .unwrap()
        .run(&donor)
        .unwrap();
    let cold = donor_report.outcome("lab", "donor").unwrap();
    assert_eq!(cold.warm_hits, 0);
    assert_eq!(cold.trials_saved, 0);

    let warm_report = StudyService::new(ServiceOptions::new(&dir))
        .unwrap()
        .run(&warm)
        .unwrap();
    let warmed = warm_report.outcome("lab", "warm").unwrap();
    assert!(
        warmed.report.is_some(),
        "warm study must complete: {:?}",
        warmed.error
    );
    assert!(
        warmed.warm_hits > 0,
        "matching TransferKey must transfer configs"
    );
    assert!(
        warmed.trials_saved > 0,
        "warm start must shrink the planned schedule"
    );
    assert!(
        warmed.evaluated_trials < cold.evaluated_trials,
        "warm ({}) must evaluate fewer trials than cold twin ({})",
        warmed.evaluated_trials,
        cold.evaluated_trials
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_injected_crash_fails_one_study_and_spares_the_rest() {
    let dir = work_dir("crash-isolation");
    let mut service = StudyService::new(ServiceOptions::new(&dir)).unwrap();
    // Crash alpha's second study mid-flight, on its second slice.
    service.inject_crash("alpha", "sr-a", 1);
    let report = service.run(&submissions(1, 2)).unwrap();

    let crashed = report.outcome("alpha", "sr-a").unwrap();
    assert!(crashed.report.is_none());
    assert_eq!(
        crashed.error.as_deref(),
        Some("invalid configuration: injected crash")
    );

    for (tenant, study, workload, metric, seed) in [
        ("alpha", "ic-a", WorkloadId::Ic, Metric::Runtime, 41),
        ("beta", "ic-b", WorkloadId::Ic, Metric::Energy, 7),
    ] {
        let outcome = report.outcome(tenant, study).unwrap();
        let served = outcome
            .report
            .as_ref()
            .expect("survivor completed")
            .to_json()
            .unwrap();
        assert_eq!(
            served,
            solo_json(workload, metric, seed, 4, 4),
            "{tenant}/{study} was disturbed by the crash"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_study_runs_alongside_clean_studies_without_contamination() {
    let dir = work_dir("chaos-neighbour");
    let file = SubmissionFile::from_json(
        r#"{
            "tenants": [{"name": "alpha"}, {"name": "beta"}],
            "studies": [
                {"tenant": "alpha", "name": "chaotic", "workload": "ic", "seed": 9,
                 "trials": 4, "max_iter": 4, "rung_quantum": 2, "chaos_rate": 0.3},
                {"tenant": "beta", "name": "clean", "workload": "sr", "seed": 43,
                 "trials": 4, "max_iter": 4, "rung_quantum": 2}
            ]
        }"#,
    )
    .unwrap();
    let report = StudyService::new(ServiceOptions::new(&dir))
        .unwrap()
        .run(&file)
        .unwrap();

    let chaotic = report.outcome("alpha", "chaotic").unwrap();
    let chaotic_report = chaotic
        .report
        .as_ref()
        .expect("chaos study completes via retries");
    assert!(
        chaotic_report.faults().is_some(),
        "fault digest must be recorded"
    );

    let clean = report.outcome("beta", "clean").unwrap();
    assert_eq!(
        clean.report.as_ref().unwrap().to_json().unwrap(),
        solo_json(WorkloadId::Sr, Metric::Runtime, 43, 4, 4),
        "fault injection in a neighbour leaked into the clean study"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn invalid_studies_are_rejected_without_sinking_their_siblings() {
    let dir = work_dir("invalid-sibling");
    // One typo'd workload, one typo'd metric, one good study — under a
    // queue limit of 1, so the test also proves rejected studies
    // consume no queue room.
    let file = SubmissionFile::from_json(
        r#"{
            "tenants": [{"name": "alpha", "queue_limit": 1}],
            "studies": [
                {"tenant": "alpha", "name": "typo-w", "workload": "vision", "seed": 1,
                 "trials": 2, "max_iter": 2},
                {"tenant": "alpha", "name": "typo-m", "workload": "ic", "metric": "latency",
                 "seed": 2, "trials": 2, "max_iter": 2},
                {"tenant": "alpha", "name": "good", "workload": "ic", "seed": 41,
                 "trials": 4, "max_iter": 4}
            ]
        }"#,
    )
    .unwrap();
    let report = StudyService::new(ServiceOptions::new(&dir))
        .unwrap()
        .run(&file)
        .expect("one bad study must not abort the submission file");

    assert_eq!(report.rejected.len(), 2);
    let reason = |study: &str| {
        report
            .rejected
            .iter()
            .find(|r| r.study == study)
            .unwrap_or_else(|| panic!("{study} not rejected"))
            .reason
            .clone()
    };
    assert!(
        reason("typo-w").contains("unknown workload"),
        "{}",
        reason("typo-w")
    );
    assert!(
        reason("typo-m").contains("unknown metric"),
        "{}",
        reason("typo-m")
    );

    assert_eq!(report.outcomes.len(), 1);
    let good = report.outcome("alpha", "good").unwrap();
    assert_eq!(
        good.report
            .as_ref()
            .expect("sibling completed")
            .to_json()
            .unwrap(),
        solo_json(WorkloadId::Ic, Metric::Runtime, 41, 4, 4),
        "rejections disturbed the surviving study"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unwritable_report_path_fails_the_study_not_the_run() {
    let dir = work_dir("harvest-failure");
    let file = SubmissionFile::from_json(
        r#"{
            "tenants": [{"name": "alpha"}, {"name": "beta"}],
            "studies": [
                {"tenant": "alpha", "name": "blocked", "workload": "ic", "seed": 9,
                 "trials": 2, "max_iter": 2},
                {"tenant": "beta", "name": "fine", "workload": "ic", "seed": 41,
                 "trials": 4, "max_iter": 4}
            ]
        }"#,
    )
    .unwrap();
    let mut service = StudyService::new(ServiceOptions::new(&dir)).unwrap();
    // Squat on the blocked study's report path with a directory so the
    // harvest write fails deterministically.
    std::fs::create_dir_all(dir.join("alpha.blocked.report.json")).unwrap();
    let report = service
        .run(&file)
        .expect("a failed harvest must not abort the submission file");

    let blocked = report.outcome("alpha", "blocked").unwrap();
    assert!(blocked.report.is_none());
    let error = blocked.error.as_deref().expect("harvest error recorded");
    assert!(error.contains("harvest failed"), "{error}");

    let fine = report.outcome("beta", "fine").unwrap();
    assert_eq!(
        fine.report
            .as_ref()
            .expect("sibling completed")
            .to_json()
            .unwrap(),
        solo_json(WorkloadId::Ic, Metric::Runtime, 41, 4, 4),
        "the harvest failure disturbed the sibling study"
    );
    // Reports are harvested through a `.tmp` sibling renamed into
    // place; neither the successful nor the failed harvest leaves one.
    assert!(dir.join("beta.fine.report.json").is_file());
    let litter: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".tmp"))
        .collect();
    assert!(litter.is_empty(), "stray temp files: {litter:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn queue_limit_rejects_overflow_without_failing_the_run() {
    let dir = work_dir("queue-limit");
    let file = SubmissionFile::from_json(
        r#"{
            "tenants": [{"name": "alpha", "queue_limit": 1}],
            "studies": [
                {"tenant": "alpha", "name": "first", "workload": "ic", "seed": 1,
                 "trials": 2, "max_iter": 2},
                {"tenant": "alpha", "name": "second", "workload": "ic", "seed": 2,
                 "trials": 2, "max_iter": 2}
            ]
        }"#,
    )
    .unwrap();
    let report = StudyService::new(ServiceOptions::new(&dir))
        .unwrap()
        .run(&file)
        .unwrap();
    assert_eq!(report.outcomes.len(), 1);
    assert_eq!(report.rejected.len(), 1);
    assert_eq!(report.rejected[0].study, "second");
    assert_eq!(report.rejected[0].reason, "tenant queue full");
    std::fs::remove_dir_all(&dir).ok();
}
