//! The tuning engine: orchestration, trial evaluation, and report
//! assembly behind the [`EdgeTune`] job.
//!
//! The engine is split along Algorithm 1's seams:
//!
//! * [`orchestrator`] — [`Engine`] builds the study (backend, inference
//!   server, sampler, scheduler, checkpoint/resume wiring), runs it, and
//!   assembles the final [`TuningReport`]; [`EdgeTune`] is the owned-
//!   configuration job over it.
//! * [`shard`] — the shard side of a sharded study: the
//!   [`ShardPlan`]s a rung is partitioned into. A shard is a plan plus a
//!   backend snapshot and only measures; the study's one history (and
//!   its one checkpoint file) stays with the evaluator.
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

pub use orchestrator::{EdgeTune, Engine};
pub use report::{FaultReport, TuningReport};
pub use shard::ShardPlan;
