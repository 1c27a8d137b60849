//! Pipelining timeline (Fig. 6).
//!
//! Records when, in *simulated* time, each training trial and each
//! inference-tuning job started and ended, so the overlap between the
//! Model and Inference servers can be inspected and rendered — the
//! paper's Fig. 6 illustration of the onefold pipeline.
//!
//! The evaluator records it: each trial's span, then its sweep's, go
//! into the `StudyGlobals::timeline` the study accumulates, the
//! checkpoint stores and the report receives. The same spans are also
//! emitted to the `edgetune-trace` tracer, but that is an observer —
//! nothing here is read back from it. Recording order is the byte-stable
//! JSON contract.

use edgetune_util::units::Seconds;
use serde::{Deserialize, Serialize};

/// Which server a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Lane {
    /// The Model Tuning Server (training trials).
    ModelServer,
    /// The Inference Tuning Server (inference sweeps).
    InferenceServer,
}

impl std::fmt::Display for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Lane::ModelServer => write!(f, "model"),
            Lane::InferenceServer => write!(f, "inference"),
        }
    }
}

/// One span of activity on a lane.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Which server was busy.
    pub lane: Lane,
    /// Human-readable label (trial id / architecture).
    pub label: String,
    /// Simulated start time.
    pub start: Seconds,
    /// Simulated end time.
    pub end: Seconds,
}

impl Span {
    /// Span duration.
    #[must_use]
    pub fn duration(&self) -> Seconds {
        self.end - self.start
    }
}

/// The recorded timeline of one tuning run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    spans: Vec<Span>,
}

impl Timeline {
    /// An empty timeline.
    #[must_use]
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Records a span.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn record(&mut self, lane: Lane, label: impl Into<String>, start: Seconds, end: Seconds) {
        assert!(end >= start, "span must not end before it starts");
        self.spans.push(Span {
            lane,
            label: label.into(),
            start,
            end,
        });
    }

    /// All spans in recording order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans on one lane.
    #[must_use]
    pub fn lane(&self, lane: Lane) -> Vec<&Span> {
        self.spans.iter().filter(|s| s.lane == lane).collect()
    }

    /// End of the latest span (total simulated makespan).
    #[must_use]
    pub fn makespan(&self) -> Seconds {
        self.spans
            .iter()
            .map(|s| s.end)
            .fold(Seconds::ZERO, Seconds::max)
    }

    /// Total busy time of a lane.
    #[must_use]
    pub fn busy_time(&self, lane: Lane) -> Seconds {
        self.lane(lane).iter().map(|s| s.duration()).sum()
    }

    /// Fraction of inference-server busy time that overlaps model-server
    /// busy time — the degree of pipelining (1.0 = fully hidden behind
    /// training, the paper's design goal).
    #[must_use]
    pub fn overlap_fraction(&self) -> f64 {
        let inference = self.lane(Lane::InferenceServer);
        let total: f64 = inference.iter().map(|s| s.duration().value()).sum();
        if total == 0.0 {
            return 1.0;
        }
        // The model server is busy over the *union* of its spans: with
        // several trial slots they overlap each other, and time two
        // trials share counts once, not once per trial.
        let mut model: Vec<(f64, f64)> = self
            .lane(Lane::ModelServer)
            .iter()
            .map(|s| (s.start.value(), s.end.value()))
            .collect();
        model.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut busy: Vec<(f64, f64)> = Vec::with_capacity(model.len());
        for (start, end) in model {
            match busy.last_mut() {
                Some(open) if start < open.1 => open.1 = open.1.max(end),
                _ => busy.push((start, end)),
            }
        }
        // `busy` is disjoint and sorted, so a sweep meets one contiguous
        // run of it.
        let mut overlapped = 0.0;
        for sweep in inference {
            let (start, end) = (sweep.start.value(), sweep.end.value());
            let first = busy.partition_point(|&(_, hi)| hi <= start);
            for &(lo, hi) in busy[first..].iter().take_while(|&&(lo, _)| lo < end) {
                overlapped += hi.min(end) - lo.max(start);
            }
        }
        (overlapped / total).min(1.0)
    }

    /// Renders a coarse ASCII Gantt chart (Fig. 6 style), `width`
    /// characters wide.
    #[must_use]
    pub fn render_ascii(&self, width: usize) -> String {
        let span = self.makespan().value();
        if span <= 0.0 || width == 0 {
            return String::new();
        }
        let mut out = String::new();
        for lane in [Lane::ModelServer, Lane::InferenceServer] {
            let mut row = vec![b'.'; width];
            for s in self.lane(lane) {
                let lo = ((s.start.value() / span) * width as f64) as usize;
                let hi = (((s.end.value() / span) * width as f64).ceil() as usize).min(width);
                let mark = if lane == Lane::ModelServer {
                    b'#'
                } else {
                    b'='
                };
                for c in row.iter_mut().take(hi).skip(lo) {
                    *c = mark;
                }
            }
            out.push_str(&format!(
                "{:>9} |{}|\n",
                lane.to_string(),
                String::from_utf8(row).expect("ascii")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: f64) -> Seconds {
        Seconds::new(v)
    }

    #[test]
    fn records_and_measures_spans() {
        let mut t = Timeline::new();
        t.record(Lane::ModelServer, "trial-0", s(0.0), s(10.0));
        t.record(Lane::InferenceServer, "arch-a", s(0.0), s(4.0));
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.makespan(), s(10.0));
        assert_eq!(t.busy_time(Lane::ModelServer), s(10.0));
        assert_eq!(t.busy_time(Lane::InferenceServer), s(4.0));
        assert_eq!(t.spans()[0].duration(), s(10.0));
    }

    #[test]
    fn full_overlap_when_inference_hides_behind_training() {
        let mut t = Timeline::new();
        t.record(Lane::ModelServer, "trial-0", s(0.0), s(10.0));
        t.record(Lane::InferenceServer, "arch-a", s(1.0), s(5.0));
        assert!((t.overlap_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_overlap_is_measured() {
        let mut t = Timeline::new();
        t.record(Lane::ModelServer, "trial-0", s(0.0), s(4.0));
        t.record(Lane::InferenceServer, "arch-a", s(2.0), s(6.0));
        assert!((t.overlap_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn concurrent_trials_count_model_busy_time_once() {
        // Two trial slots busy over the same [0, 2]: the model server is
        // busy for 2 of the sweep's 4 seconds, not 2 + 2.
        let mut t = Timeline::new();
        t.record(Lane::ModelServer, "trial-0", s(0.0), s(2.0));
        t.record(Lane::ModelServer, "trial-1", s(0.0), s(2.0));
        t.record(Lane::InferenceServer, "arch-a", s(0.0), s(4.0));
        assert!((t.overlap_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_sweep_spanning_several_trials_collects_each_share() {
        let mut t = Timeline::new();
        t.record(Lane::ModelServer, "trial-0", s(0.0), s(1.0));
        t.record(Lane::ModelServer, "trial-1", s(2.0), s(3.0));
        t.record(Lane::ModelServer, "trial-2", s(6.0), s(7.0));
        t.record(Lane::InferenceServer, "arch-a", s(0.5), s(4.5));
        assert!((t.overlap_fraction() - 1.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inference_lane_counts_as_fully_overlapped() {
        let mut t = Timeline::new();
        t.record(Lane::ModelServer, "trial-0", s(0.0), s(4.0));
        assert_eq!(t.overlap_fraction(), 1.0);
    }

    #[test]
    fn ascii_render_shows_both_lanes() {
        let mut t = Timeline::new();
        t.record(Lane::ModelServer, "trial-0", s(0.0), s(10.0));
        t.record(Lane::InferenceServer, "arch-a", s(0.0), s(5.0));
        let art = t.render_ascii(20);
        assert!(art.contains("model"));
        assert!(art.contains("inference"));
        assert!(art.contains('#'));
        assert!(art.contains('='));
    }

    #[test]
    #[should_panic(expected = "end before it starts")]
    fn rejects_negative_spans() {
        let mut t = Timeline::new();
        t.record(Lane::ModelServer, "bad", s(5.0), s(1.0));
    }
}
