//! The trace event model: tracks, spans, instants and counters.

use edgetune_util::units::Seconds;

/// Identifies one track — a horizontal row in a trace viewer. Tracks are
/// registered on the [`Tracer`](crate::Tracer) in a deterministic order;
/// the id is the registration index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TrackId(pub(crate) u32);

impl TrackId {
    /// The track's registration index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What kind of event happened at a timestamp.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A duration beginning at the event's `ts` and ending at `end`.
    ///
    /// The *end time* is stored rather than a duration: in IEEE-754,
    /// `start + (end - start)` is not guaranteed to equal `end`, and a
    /// span must show the simulation's exact `Seconds` values (the
    /// same ones the core crate's `Timeline` records).
    Span {
        /// When the span closed, on the same clock as `ts`.
        end: Seconds,
    },
    /// A point-in-time marker (a fault injection, a shed request, …).
    Instant,
    /// A sample of one or more named counter values (cache hits/misses,
    /// degradation tallies, queue depths).
    Counter {
        /// Counter name/value pairs, in a deterministic emission order.
        values: Vec<(String, f64)>,
    },
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// The track the event belongs to.
    pub track: TrackId,
    /// Event name (span label, instant label, counter group).
    pub name: String,
    /// Coarse category for filtering in trace viewers ("model",
    /// "inference", "fault", …).
    pub category: String,
    /// Timestamp on the run's clock (span start for spans).
    pub ts: Seconds,
    /// Span/instant/counter payload.
    pub kind: EventKind,
    /// Free-form string arguments rendered in the viewer's detail pane.
    pub args: Vec<(String, String)>,
}

/// Checks that the spans of every track are *well nested*: any two spans
/// on one track are either disjoint or one contains the other. Returns
/// the first violation as a human-readable message.
///
/// Nesting is checked per track — overlap *across* tracks is the whole
/// point of the pipelined architecture and is perfectly legal.
pub fn well_nested(events: &[TraceEvent]) -> Result<(), String> {
    type TrackSpans<'a> = Vec<(Seconds, Seconds, &'a str)>;
    let mut by_track: Vec<(TrackId, TrackSpans)> = Vec::new();
    for event in events {
        if let EventKind::Span { end } = event.kind {
            match by_track.iter_mut().find(|(track, _)| *track == event.track) {
                Some((_, spans)) => spans.push((event.ts, end, &event.name)),
                None => by_track.push((event.track, vec![(event.ts, end, &event.name)])),
            }
        }
    }
    for (track, mut spans) in by_track {
        // Sort by (start asc, end desc) so a container sorts before its
        // contents; a stack then verifies containment.
        spans.sort_by(|a, b| {
            a.0.value()
                .total_cmp(&b.0.value())
                .then(b.1.value().total_cmp(&a.1.value()))
        });
        let mut stack: Vec<(Seconds, Seconds)> = Vec::new();
        for (start, end, name) in spans {
            while let Some(&(_, open_end)) = stack.last() {
                if open_end.value() <= start.value() {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(open_start, open_end)) = stack.last() {
                if end.value() > open_end.value() {
                    return Err(format!(
                        "span \"{name}\" [{}, {}] on track {} straddles the \
                         enclosing span [{}, {}]",
                        start.value(),
                        end.value(),
                        track.index(),
                        open_start.value(),
                        open_end.value(),
                    ));
                }
            }
            stack.push((start, end));
        }
    }
    Ok(())
}

/// Checks that span start times never move backwards within one track
/// when `events` is visited in order — a tracer's log is in emission
/// order.
pub fn monotone_per_track(events: &[TraceEvent]) -> Result<(), String> {
    let mut last_start: Vec<(TrackId, Seconds)> = Vec::new();
    for event in events {
        if !matches!(event.kind, EventKind::Span { .. }) {
            continue;
        }
        match last_start
            .iter_mut()
            .find(|(track, _)| *track == event.track)
        {
            Some((_, last)) => {
                if event.ts.value() < last.value() {
                    return Err(format!(
                        "span \"{}\" starts at {} after a span starting at {} \
                         on track {}",
                        event.name,
                        event.ts.value(),
                        last.value(),
                        event.track.index(),
                    ));
                }
                *last = event.ts;
            }
            None => last_start.push((event.track, event.ts)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(track: u32, n: u64, start: f64, end: f64) -> TraceEvent {
        TraceEvent {
            track: TrackId(track),
            name: format!("s{n}"),
            category: "test".to_string(),
            ts: Seconds::new(start),
            kind: EventKind::Span {
                end: Seconds::new(end),
            },
            args: Vec::new(),
        }
    }

    #[test]
    fn nested_and_disjoint_spans_are_well_nested() {
        let events = vec![
            span(0, 0, 0.0, 10.0),
            span(0, 1, 1.0, 4.0),
            span(0, 2, 4.0, 9.0),
            span(0, 3, 12.0, 15.0),
        ];
        assert!(well_nested(&events).is_ok());
    }

    #[test]
    fn straddling_spans_are_rejected() {
        let events = vec![span(0, 0, 0.0, 5.0), span(0, 1, 3.0, 8.0)];
        let err = well_nested(&events).unwrap_err();
        assert!(err.contains("straddles"), "unexpected message: {err}");
    }

    #[test]
    fn overlap_across_tracks_is_legal() {
        let events = vec![span(0, 0, 0.0, 5.0), span(1, 1, 3.0, 8.0)];
        assert!(well_nested(&events).is_ok());
    }

    #[test]
    fn monotonicity_is_per_track_in_emission_order() {
        let ok = vec![
            span(0, 0, 0.0, 1.0),
            span(1, 1, 0.0, 2.0),
            span(0, 2, 1.0, 3.0),
        ];
        assert!(monotone_per_track(&ok).is_ok());
        let bad = vec![span(0, 0, 5.0, 6.0), span(0, 1, 1.0, 2.0)];
        assert!(monotone_per_track(&bad).is_err());
    }
}
