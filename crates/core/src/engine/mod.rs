//! The tuning engine: orchestration, trial evaluation, and report
//! assembly behind the [`EdgeTune`] job.
//!
//! The engine is split along Algorithm 1's seams:
//!
//! * [`orchestrator`] — [`StudyRun`] is one study as a value: `start`
//!   builds it (inference server, sampler, scheduler, checkpoint/resume
//!   wiring), each `step` runs one rung on a borrowed backend, and
//!   `finish` assembles the [`TuningReport`]. [`EdgeTune`] steps a
//!   study to its end (or its `halt_after_rungs` bound); [`Engine`] is
//!   the same traced run over a borrowed configuration.
//! * [`shard`] — the shard side of a sharded study: the
//!   [`ShardPlan`]s a rung is partitioned into. A shard is a plan plus a
//!   backend snapshot and only measures; the study's one history (and
//!   its one checkpoint file) stays with the [`StudyRun`].
//! * [`evaluator`] — the onefold evaluator couples each training trial
//!   to its pipelined inference request, owns simulated time (a
//!   `Seconds` it adds up in `StudyGlobals`) and rung accounting, and layers real worker threads *under* the
//!   simulated trial-slot scheduler.
//! * [`report`] — the user-facing result types ([`TuningReport`],
//!   [`FaultReport`]) with their serialisation contract.

pub(crate) mod evaluator;
pub mod orchestrator;
pub mod report;
pub mod shard;

pub use orchestrator::{EdgeTune, Engine, StudyRun};
pub use report::{FaultReport, TuningReport};
pub use shard::ShardPlan;
