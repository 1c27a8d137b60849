//! Structured tracing for the EdgeTune workspace.
//!
//! EdgeTune's central claim is *pipelined* architecture — training trials
//! overlap with asynchronous inference sweeps (Algorithm 1, Fig. 6) — and
//! this crate makes that overlap observable instead of merely asserted.
//! A [`Tracer`] collects spans, instant events and counter samples, every
//! one stamped with the `Seconds` its emitter passes — the emitter's
//! time domain: a simulated study traces in the simulated seconds its
//! evaluator adds up, the shard fabric's own trace in host seconds it
//! measured with `Instant`, through the same API.
//!
//! Determinism is the design constraint. Trace bytes must be identical
//! for a fixed seed regardless of how many real measurement threads or
//! engine shards the run used, so:
//!
//! * events carry a global sequence number assigned at emission, and the
//!   exporter's only reordering is a *stable* sort by timestamp — ties
//!   keep emission order;
//! * spans store their **end time**, not a duration, so a span carries
//!   the exact `Seconds` values the simulation produced with no float
//!   round-trip.
//!
//! The tracer is an observer: producers write to it and the exporter
//! reads it, but nothing a study reports is computed from it.
//!
//! [`ChromeTrace`] exports the collected events as Chrome
//! `chrome://tracing` / Perfetto trace-event JSON plus a compact
//! self-describing summary in `otherData`.

pub mod event;
pub mod export;
pub mod summary;
pub mod tracer;

pub use event::{monotone_per_track, well_nested, EventKind, TraceEvent, TrackId};
pub use export::{ChromeEvent, ChromeTrace};
pub use summary::{span_summary, SpanStat};
pub use tracer::{Tracer, Track};
