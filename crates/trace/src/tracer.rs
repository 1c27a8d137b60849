//! The [`Tracer`]: a collector of clock-stamped events.

use std::sync::{Mutex, MutexGuard, PoisonError};

use edgetune_util::units::Seconds;
use serde::{Deserialize, Serialize};

use crate::event::{EventKind, TraceEvent, TrackId};

/// One named track, grouped under a named process in the exported trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Track {
    /// Process (top-level group) the track renders under.
    pub process: String,
    /// Track (thread row) name.
    pub name: String,
}

#[derive(Debug, Default)]
struct TracerInner {
    tracks: Vec<Track>,
    events: Vec<TraceEvent>,
    next_seq: u64,
}

/// Collects trace events behind one mutex.
///
/// Every producer (phase B accounting, the serving DES loop, the shard
/// fabric's supervisor) emits from a single thread, so the lock is
/// uncontended; it exists so emission takes `&self`.
#[derive(Debug, Default)]
pub struct Tracer {
    inner: Mutex<TracerInner>,
}

impl Tracer {
    /// An empty tracer.
    #[must_use]
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Every update below leaves `TracerInner` valid at every step, so a
    /// poisoned lock is recovered: an emitter that panicked must not
    /// turn every later emission into a panic.
    fn lock(&self) -> MutexGuard<'_, TracerInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers (or finds) the track named `name` under `process`.
    ///
    /// Registration order is the track's id and its sort order in the
    /// exported trace, so callers must register tracks in a
    /// deterministic order — which they get for free by registering
    /// lazily from deterministic emission sites.
    pub fn track(&self, process: &str, name: &str) -> TrackId {
        let mut inner = self.lock();
        if let Some(index) = inner
            .tracks
            .iter()
            .position(|track| track.process == process && track.name == name)
        {
            return TrackId(index as u32);
        }
        inner.tracks.push(Track {
            process: process.to_string(),
            name: name.to_string(),
        });
        TrackId((inner.tracks.len() - 1) as u32)
    }

    /// Records a span covering `[start, end]` on `track`.
    ///
    /// # Panics
    /// If `end < start` — a span must not end before it starts.
    pub fn span(
        &self,
        track: TrackId,
        name: impl Into<String>,
        category: &str,
        start: Seconds,
        end: Seconds,
    ) {
        self.span_with_args(track, name, category, start, end, Vec::new());
    }

    /// Records a span with viewer-visible string arguments.
    pub fn span_with_args(
        &self,
        track: TrackId,
        name: impl Into<String>,
        category: &str,
        start: Seconds,
        end: Seconds,
        args: Vec<(String, String)>,
    ) {
        assert!(
            end.value() >= start.value(),
            "span must not end before it starts"
        );
        self.push(TraceEvent {
            track,
            name: name.into(),
            category: category.to_string(),
            ts: start,
            kind: EventKind::Span { end },
            args,
            seq: 0,
        });
    }

    /// Records an instant event at `ts`.
    pub fn instant(&self, track: TrackId, name: impl Into<String>, category: &str, ts: Seconds) {
        self.instant_with_args(track, name, category, ts, Vec::new());
    }

    /// Records an instant event with viewer-visible string arguments.
    pub fn instant_with_args(
        &self,
        track: TrackId,
        name: impl Into<String>,
        category: &str,
        ts: Seconds,
        args: Vec<(String, String)>,
    ) {
        self.push(TraceEvent {
            track,
            name: name.into(),
            category: category.to_string(),
            ts,
            kind: EventKind::Instant,
            args,
            seq: 0,
        });
    }

    /// Records a counter sample at `ts`.
    pub fn counter(
        &self,
        track: TrackId,
        name: impl Into<String>,
        category: &str,
        ts: Seconds,
        values: Vec<(String, f64)>,
    ) {
        self.push(TraceEvent {
            track,
            name: name.into(),
            category: category.to_string(),
            ts,
            kind: EventKind::Counter { values },
            args: Vec::new(),
            seq: 0,
        });
    }

    fn push(&self, mut event: TraceEvent) {
        let mut inner = self.lock();
        event.seq = inner.next_seq;
        inner.next_seq += 1;
        inner.events.push(event);
    }

    /// Runs `read` over the registered tracks (registration order) and
    /// the recorded events (emission order) without copying either.
    ///
    /// Not re-entrant: the tracer's lock is held while `read` runs, so
    /// `read` must not call back into this tracer.
    pub fn with<R>(&self, read: impl FnOnce(&[Track], &[TraceEvent]) -> R) -> R {
        let inner = self.lock();
        read(&inner.tracks, &inner.events)
    }

    /// A snapshot of every recorded event, in emission order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.with(|_, events| events.to_vec())
    }

    /// A snapshot of the registered tracks, in registration order.
    #[must_use]
    pub fn tracks(&self) -> Vec<Track> {
        self.with(|tracks, _| tracks.to_vec())
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.with(|_, events| events.len())
    }

    /// Whether nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn track_registration_deduplicates_and_preserves_order() {
        let tracer = Tracer::new();
        let a = tracer.track("engine", "trial-slot-0");
        let b = tracer.track("inference", "sweeps");
        let again = tracer.track("engine", "trial-slot-0");
        assert_eq!(a, again);
        assert_ne!(a, b);
        let tracks = tracer.tracks();
        assert_eq!(tracks.len(), 2);
        assert_eq!(tracks[a.index()].name, "trial-slot-0");
        assert_eq!(tracks[b.index()].process, "inference");
    }

    #[test]
    fn sequence_numbers_follow_emission_order() {
        let tracer = Tracer::new();
        let track = tracer.track("engine", "t");
        tracer.span(track, "a", "test", Seconds::new(5.0), Seconds::new(6.0));
        tracer.instant(track, "b", "test", Seconds::new(1.0));
        let events = tracer.snapshot();
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[0].name, "a");
        assert_eq!(events[1].seq, 1);
        assert_eq!(events[1].name, "b");
    }

    #[test]
    #[should_panic(expected = "span must not end before it starts")]
    fn backwards_spans_are_rejected() {
        let tracer = Tracer::new();
        let track = tracer.track("engine", "t");
        tracer.span(track, "bad", "test", Seconds::new(2.0), Seconds::new(1.0));
    }

    #[test]
    fn a_panic_under_the_lock_does_not_stop_later_emission() {
        let tracer = Tracer::new();
        let track = tracer.track("engine", "t");
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tracer.with(|_, _| panic!("reader panics while holding the lock"))
        }));
        assert!(panicked.is_err());
        tracer.instant(track, "after", "test", Seconds::new(1.0));
        assert_eq!(tracer.len(), 1);
    }
}
