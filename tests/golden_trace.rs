//! Golden-trace snapshot tests: the Chrome trace JSON artefact obeys the
//! same determinism contract as the report. For a fixed seed the exported
//! bytes must be identical across repeated runs and across study shard
//! counts (`study_shards`) — tracing observes the simulated execution,
//! never the real one. Turning tracing on must not change a single byte
//! of the report artefact, and the trace itself must show the paper's
//! Fig. 6 pipelining: inference sweeps overlapping the training trials
//! that spawned them.

use edgetune::prelude::*;
use edgetune_trace::{ChromeEvent, ChromeTrace};

fn golden_seed() -> u64 {
    std::env::var("EDGETUNE_GOLDEN_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1234)
}

fn golden_config() -> EdgeTuneConfig {
    EdgeTuneConfig::for_workload(WorkloadId::Ic)
        .with_scheduler(SchedulerConfig::new(6, 2.0, 6))
        .without_hyperband()
        .with_seed(golden_seed())
}

fn trace_json_of(config: EdgeTuneConfig) -> String {
    let (_report, trace) = EdgeTune::new(config)
        .run_traced()
        .expect("traced golden run completes");
    trace.to_json_pretty()
}

#[test]
fn trace_json_is_byte_identical_across_repeated_runs() {
    assert_eq!(
        trace_json_of(golden_config()),
        trace_json_of(golden_config())
    );
}

#[test]
fn trace_json_is_byte_identical_across_study_shard_counts() {
    // Engine shards only speed up how fast the simulation is computed;
    // the trace records the simulation, so the bytes must not move.
    let baseline = trace_json_of(golden_config().with_study_shards(1));
    for shards in [2, 4] {
        let sharded = trace_json_of(golden_config().with_study_shards(shards));
        assert_eq!(
            baseline, sharded,
            "{shards} study shards changed the trace artefact"
        );
    }
}

#[test]
fn tracing_does_not_change_the_report_bytes() {
    let plain = EdgeTune::new(golden_config())
        .run()
        .expect("plain run completes")
        .to_json()
        .expect("report serialises");
    let (report, _trace) = EdgeTune::new(golden_config())
        .run_traced()
        .expect("traced run completes");
    assert_eq!(
        plain,
        report.to_json().expect("report serialises"),
        "collecting a trace perturbed the report artefact"
    );
}

#[test]
fn golden_trace_validates_and_round_trips() {
    let (_report, trace) = EdgeTune::new(golden_config()).run_traced().unwrap();
    trace.validate().expect("exported trace is well-formed");
    let json = trace.to_json_pretty();
    let back = ChromeTrace::from_json(&json).expect("parses back");
    assert_eq!(back, trace, "serde round trip is lossless");
    assert_eq!(
        back.to_json_pretty(),
        json,
        "re-export reproduces the bytes"
    );
    // The summary is self-describing and consistent with the stream.
    let spans: usize = trace
        .trace_events
        .iter()
        .filter(|event| event.ph == "X")
        .count();
    assert_eq!(trace.other_data["spans"], spans.to_string());
    assert_eq!(trace.other_data["format"], "edgetune-trace");
}

/// Half-open interval overlap on the viewer's microsecond timeline.
///
/// Reconstructing a span's end as `ts + dur` after the export converted
/// both to microseconds reintroduces float rounding: two spans that
/// touch exactly on the simulated clock can disagree by an ulp here.
/// Overlaps smaller than a few ulps are serialisation dust, not
/// simulation facts, so they do not count.
fn overlaps(a: &ChromeEvent, b: &ChromeEvent) -> bool {
    let (a0, a1) = (a.ts, a.ts + a.dur.unwrap_or(0.0));
    let (b0, b1) = (b.ts, b.ts + b.dur.unwrap_or(0.0));
    let eps = 4.0 * f64::EPSILON * a1.abs().max(b1.abs()).max(1.0);
    a0 + eps < b1 && b0 + eps < a1
}

#[test]
fn the_trace_shows_an_inference_sweep_overlapping_a_training_trial() {
    // The paper's Fig. 6 claim, read straight off the export: at least
    // one inference-sweep span runs concurrently with a training-trial
    // span on the simulated clock.
    let (_report, trace) = EdgeTune::new(golden_config()).run_traced().unwrap();
    let spans_in = |category: &str| -> Vec<&ChromeEvent> {
        trace
            .trace_events
            .iter()
            .filter(|event| event.ph == "X" && event.cat.as_deref() == Some(category))
            .collect()
    };
    let trials = spans_in("model");
    let sweeps = spans_in("inference");
    assert!(
        !trials.is_empty(),
        "the trace contains training-trial spans"
    );
    assert!(
        !sweeps.is_empty(),
        "the trace contains inference-sweep spans"
    );
    assert!(
        sweeps
            .iter()
            .any(|sweep| trials.iter().any(|trial| overlaps(sweep, trial))),
        "no inference sweep overlapped a training trial — pipelining is not visible"
    );
}

#[test]
fn disabling_pipelining_serialises_the_sweeps() {
    // The negative control: without pipelining every sweep waits for its
    // trial, so no sweep may overlap the trial that spawned it... or any
    // other, since the study is sequential.
    let (_report, trace) = EdgeTune::new(golden_config().without_pipelining())
        .run_traced()
        .unwrap();
    let trials: Vec<&ChromeEvent> = trace
        .trace_events
        .iter()
        .filter(|event| event.ph == "X" && event.cat.as_deref() == Some("model"))
        .collect();
    let sweeps: Vec<&ChromeEvent> = trace
        .trace_events
        .iter()
        .filter(|event| event.ph == "X" && event.cat.as_deref() == Some("inference"))
        .collect();
    assert!(
        sweeps
            .iter()
            .all(|sweep| trials.iter().all(|trial| !overlaps(sweep, trial))),
        "a sweep overlapped a trial even with pipelining disabled"
    );
}

#[test]
fn fault_free_runs_emit_no_fault_events() {
    let (_report, trace) = EdgeTune::new(golden_config()).run_traced().unwrap();
    assert!(
        trace
            .trace_events
            .iter()
            .all(|event| event.cat.as_deref() != Some("fault")),
        "a clean study must not carry fault-category events"
    );
}
