//! Glue between the study engine and the `edgetune-trace` crate.
//!
//! The engine emits every piece of time accounting as trace events —
//! trial and sweep spans, rung and bracket spans, cache counters, fault
//! instants — and the report's [`Timeline`] is *derived* from that
//! trace, not recorded separately, so the two views can never disagree.
//!
//! Determinism contract: tracks are keyed to **simulated** structure
//! (trial slots, the scheduler, the fault plan), never to real threads
//! or engine shards. `study_shards` and `shard_exec` are wall-clock
//! engineering that must not change a reported byte, and the trace is a
//! reported artifact — `tests/golden_trace.rs` pins its bytes across
//! shard counts the same way `tests/golden_report.rs` pins the report.

use edgetune_trace::{EventKind, TraceEvent, Tracer};

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
/// Category of fault-injection and degradation-ladder events.
pub const CAT_FAULT: &str = "fault";
/// Category of serving-runtime batch spans and shed/outage instants.
pub const CAT_SERVING: &str = "serving";
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

/// Rebuilds the report's [`Timeline`] from a tracer's event stream.
///
/// Only span events in the [`CAT_MODEL`] / [`CAT_INFERENCE`] categories
/// participate, visited in **emission order** — not timestamp order.
/// The pre-trace `Timeline` pushed a trial's sweep span immediately
/// after its trial span even when the sweep starts later (the
/// non-pipelined ablation), so a timestamp sort would reorder the spans
/// and break the report's byte-stable JSON contract.
#[must_use]
pub fn timeline_from_trace(tracer: &Tracer) -> Timeline {
    let mut timeline = Timeline::new();
    for event in tracer.snapshot() {
        if let EventKind::Span { end } = event.kind {
            let lane = match event.category.as_str() {
                CAT_MODEL => Lane::ModelServer,
                CAT_INFERENCE => Lane::InferenceServer,
                _ => continue,
            };
            timeline.record(lane, event.name, event.ts, end);
        }
    }
    timeline
}

/// Replays a restored timeline into a tracer — the resume path.
///
/// A study checkpoint persists the exact recorded timeline; on resume the
/// orchestrator seeds the fresh tracer with those spans (on dedicated
/// "restored" tracks) before any live trial runs, so
/// [`timeline_from_trace`] reproduces the uninterrupted run's span
/// sequence byte for byte.
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

/// True when at least one inference-sweep span overlaps (strictly, in
/// open intervals) a training-trial span — the paper's Fig. 6
/// pipelining, read off the trace instead of eyeballed.
#[must_use]
pub fn has_pipelined_overlap(events: &[TraceEvent]) -> bool {
    let spans_of = |category: &str| -> Vec<(f64, f64)> {
        events
            .iter()
            .filter(|event| event.category == category)
            .filter_map(|event| event.span_end().map(|end| (event.ts.value(), end.value())))
            .collect()
    };
    let trials = spans_of(CAT_MODEL);
    let sweeps = spans_of(CAT_INFERENCE);
    sweeps.iter().any(|&(s_start, s_end)| {
        trials
            .iter()
            .any(|&(t_start, t_end)| s_start.max(t_start) < s_end.min(t_end))
    })
}

#[cfg(test)]
mod tests {
    use edgetune_util::units::Seconds;

    use super::*;

    #[test]
    fn timeline_round_trips_through_the_trace_in_emission_order() {
        let tracer = Tracer::new();
        let model = tracer.track(PROCESS_MODEL, "trial-slot-0");
        let sweep = tracer.track(PROCESS_INFERENCE, "sweep-slot-0");
        let rung = tracer.track(PROCESS_SCHEDULER, "rungs");
        // A non-pipelined sweep is emitted right after its trial but
        // *starts later* — emission order must survive the round trip.
        tracer.span(
            model,
            "trial-0",
            CAT_MODEL,
            Seconds::new(0.0),
            Seconds::new(4.0),
        );
        tracer.span(
            sweep,
            "ResNet/layers=18",
            CAT_INFERENCE,
            Seconds::new(4.0),
            Seconds::new(6.0),
        );
        tracer.span(
            model,
            "trial-1",
            CAT_MODEL,
            Seconds::new(6.0),
            Seconds::new(9.0),
        );
        tracer.span(
            rung,
            "rung-0",
            CAT_RUNG,
            Seconds::new(0.0),
            Seconds::new(9.0),
        );

        let timeline = timeline_from_trace(&tracer);
        let spans = timeline.spans();
        assert_eq!(spans.len(), 3, "rung spans stay out of the timeline");
        assert_eq!(spans[0].label, "trial-0");
        assert_eq!(spans[0].lane, Lane::ModelServer);
        assert_eq!(spans[1].label, "ResNet/layers=18");
        assert_eq!(spans[1].lane, Lane::InferenceServer);
        assert_eq!(spans[1].start, Seconds::new(4.0));
        assert_eq!(spans[2].label, "trial-1");
    }

    #[test]
    fn seeding_then_deriving_reproduces_a_timeline_exactly() {
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
        assert_eq!(timeline_from_trace(&tracer), original);
    }

    #[test]
    fn overlap_detector_requires_cross_lane_overlap() {
        let tracer = Tracer::new();
        let model = tracer.track(PROCESS_MODEL, "trial-slot-0");
        let sweep = tracer.track(PROCESS_INFERENCE, "sweep-slot-0");
        tracer.span(
            model,
            "trial-0",
            CAT_MODEL,
            Seconds::new(0.0),
            Seconds::new(4.0),
        );
        tracer.span(
            sweep,
            "arch",
            CAT_INFERENCE,
            Seconds::new(4.0),
            Seconds::new(6.0),
        );
        assert!(
            !has_pipelined_overlap(&tracer.snapshot()),
            "touching endpoints are not overlap"
        );
        tracer.span(
            sweep,
            "arch2",
            CAT_INFERENCE,
            Seconds::new(1.0),
            Seconds::new(2.0),
        );
        assert!(has_pipelined_overlap(&tracer.snapshot()));
    }
}
