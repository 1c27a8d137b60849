//! Glue between the study engine and the `edgetune-trace` crate: the
//! category and process names the engine emits under, and the resume
//! path's `restored` tracks.
//!
//! The tracer is an **observer**: the engine emits its time accounting
//! as trace events — trial and sweep spans, rung and bracket spans,
//! cache counters, fault instants — and reads nothing back. The
//! report's [`Timeline`] is recorded by the evaluator beside the spans
//! it emits; the engine's tests hold the two against each other.
//!
//! Determinism contract: tracks are keyed to **simulated** structure
//! (trial slots, the scheduler, the fault plan), never to real threads
//! or engine shards. `study_shards` and `shard_exec` are wall-clock
//! engineering that must not change a reported byte, and the trace is a
//! reported artifact — `tests/golden_trace.rs` pins its bytes across
//! shard counts the same way `tests/golden_report.rs` pins the report.

use edgetune_trace::Tracer;

use crate::timeline::{Lane, Timeline};

/// Span category of Model Tuning Server trials ([`Lane::ModelServer`]).
pub const CAT_MODEL: &str = "model";
/// Span category of Inference Tuning Server sweeps
/// ([`Lane::InferenceServer`]).
pub const CAT_INFERENCE: &str = "inference";
/// Category of scheduler rung spans.
pub const CAT_RUNG: &str = "rung";
/// Category of HyperBand bracket spans.
pub const CAT_BRACKET: &str = "bracket";
/// Category of historical-cache counters and hit/miss instants.
pub const CAT_CACHE: &str = "cache";
/// Category of fault-injection and fallback events.
pub const CAT_FAULT: &str = "fault";
/// Category of shard-fabric supervision instants
/// (spawn/heartbeat/crash/retry), recorded on the fabric's own tracer.
pub const CAT_FABRIC: &str = "fabric";

/// Process grouping for Model Tuning Server tracks.
pub const PROCESS_MODEL: &str = "model-server";
/// Process grouping for Inference Tuning Server tracks.
pub const PROCESS_INFERENCE: &str = "inference-server";
/// Process grouping for scheduler tracks (rungs, brackets).
pub const PROCESS_SCHEDULER: &str = "scheduler";
/// Process grouping for fault/degradation tracks.
pub const PROCESS_FAULTS: &str = "faults";
/// Process grouping for shard-fabric supervision tracks (one per
/// shard), on the fabric's own tracer.
pub const PROCESS_FABRIC: &str = "fabric";

/// Shows a resumed run's logged trials in its trace: every span of the
/// checkpointed timeline, on dedicated `restored` tracks (the original
/// slot is not stored).
///
/// Purely a view for whoever opens the trace — the resumed study's
/// timeline is `StudyGlobals::timeline`, reinstated with the rest of
/// the checkpoint, and does not depend on this call.
pub fn seed_tracer_from_timeline(tracer: &Tracer, timeline: &Timeline) {
    for span in timeline.spans() {
        let (process, category) = match span.lane {
            Lane::ModelServer => (PROCESS_MODEL, CAT_MODEL),
            Lane::InferenceServer => (PROCESS_INFERENCE, CAT_INFERENCE),
        };
        let track = tracer.track(process, "restored");
        tracer.span(track, span.label.clone(), category, span.start, span.end);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use edgetune_trace::EventKind;
    use edgetune_tuner::scheduler::SchedulerConfig;
    use edgetune_util::units::Seconds;
    use edgetune_workloads::catalog::WorkloadId;

    use super::*;
    use crate::config::EdgeTuneConfig;
    use crate::engine::EdgeTune;

    /// Test reference: the timeline as a trace *shows* it — its `model` /
    /// `inference` spans in emission order, not timestamp order (a
    /// non-pipelined sweep is emitted right after its trial but starts
    /// later). Rung, bracket and every other span stay out. This is how the
    /// report's timeline used to be computed; the tests hold what the
    /// evaluator records against it.
    pub(crate) fn timeline_shown_by(tracer: &Tracer) -> Timeline {
        let mut timeline = Timeline::new();
        for event in tracer.snapshot() {
            let lane = match event.category.as_str() {
                CAT_MODEL => Lane::ModelServer,
                CAT_INFERENCE => Lane::InferenceServer,
                _ => continue,
            };
            if let EventKind::Span { end } = event.kind {
                timeline.record(lane, event.name, event.ts, end);
            }
        }
        timeline
    }

    #[test]
    fn seeding_shows_a_timeline_on_the_restored_tracks_exactly() {
        let mut original = Timeline::new();
        original.record(
            Lane::ModelServer,
            "trial-0",
            Seconds::new(0.0),
            Seconds::new(5.0),
        );
        original.record(
            Lane::InferenceServer,
            "arch-a",
            Seconds::new(5.0),
            Seconds::new(7.5),
        );
        original.record(
            Lane::ModelServer,
            "trial-1",
            Seconds::new(7.5),
            Seconds::new(9.0),
        );
        let tracer = Tracer::new();
        seed_tracer_from_timeline(&tracer, &original);
        assert_eq!(timeline_shown_by(&tracer), original);
        let tracks = tracer.tracks();
        assert_eq!(tracks.len(), 2, "one restored track per server");
        assert!(tracks.iter().all(|track| track.name == "restored"));
    }

    #[test]
    fn a_resumed_trace_carries_every_logged_trial_on_the_restored_tracks() {
        let config = || {
            EdgeTuneConfig::for_workload(WorkloadId::Ic)
                .with_scheduler(SchedulerConfig::new(6, 2.0, 6))
                .without_hyperband()
                .with_seed(42)
        };
        let dir = std::env::temp_dir().join("edgetune-restored-tracks-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("study.ckpt.json");
        std::fs::remove_file(&path).ok();

        let full = EdgeTune::new(config()).run().unwrap();
        let halted = EdgeTune::new(
            config()
                .with_checkpoint_path(&path)
                .with_halt_after_rungs(2),
        )
        .run()
        .unwrap();
        assert!(halted.history().len() < full.history().len());
        let (resumed, trace) = EdgeTune::new(config().with_checkpoint_path(&path).resuming())
            .run_traced()
            .unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(
            resumed.to_json().unwrap(),
            full.to_json().unwrap(),
            "the resumed report reproduces the uninterrupted bytes"
        );

        // The trace splits the study: logged spans on the `restored`
        // tracks, live ones on the slot tracks — together the report's
        // timeline, the restored share exactly the halted run's.
        let restored_tids: Vec<u32> = trace
            .trace_events
            .iter()
            .filter(|event| {
                event.name == "thread_name"
                    && event.args.as_ref().unwrap()["name"].as_str() == Some("restored")
            })
            .map(|event| event.tid)
            .collect();
        assert_eq!(restored_tids.len(), 2, "one restored track per server");
        let shown = |restored: bool| -> Vec<&str> {
            trace
                .trace_events
                .iter()
                .filter(|event| {
                    matches!(event.cat.as_deref(), Some(CAT_MODEL | CAT_INFERENCE))
                        && restored_tids.contains(&event.tid) == restored
                })
                .map(|event| event.name.as_str())
                .collect()
        };
        let labels = |timeline: &Timeline| -> Vec<String> {
            let mut spans: Vec<_> = timeline.spans().iter().collect();
            spans.sort_by(|a, b| a.start.value().total_cmp(&b.start.value()));
            spans.iter().map(|span| span.label.clone()).collect()
        };
        assert_eq!(shown(true), labels(halted.timeline()));
        for record in halted.history().records() {
            assert!(shown(true).contains(&format!("trial-{}", record.id).as_str()));
        }
        assert_eq!(
            shown(true).len() + shown(false).len(),
            resumed.timeline().spans().len()
        );
    }
}
