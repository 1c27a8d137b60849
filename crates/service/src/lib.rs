//! # edgetune-service — multi-tenant tuning as a service
//!
//! A long-lived [`StudyService`] accepts [`StudySubmission`]s from
//! named tenants and drives them all to completion on a shared engine,
//! three guarantees at a time:
//!
//! - **Fairness without preemption.** Every admitted study stays
//!   resident as a running [`StudyRun`](edgetune::StudyRun) next to its
//!   backend, and a grant steps it one rung-quantum slice. The
//!   [`FairScheduler`] grants slices by credit-based weighted
//!   round-robin over tenants, longest-remaining-budget first within a
//!   tenant — all integer arithmetic, so the grant sequence is a pure
//!   function of the submission file.
//! - **Isolation by byte-identity.** A resident study takes exactly the
//!   steps a solo run takes, so its final report (and trace) is
//!   independent of what interleaved with it: a cold study's JSON
//!   equals a solo `edgetune` run of the same seed. A tenant's study
//!   failing (say, a rung too large to hold in memory) is recorded and
//!   removed without touching anyone else's bytes.
//! - **Cross-study warm starts.** Completed studies donate their best
//!   configurations to a [`TransferIndex`](edgetune::transfer::TransferIndex)
//!   keyed by [`TransferKey`](edgetune::transfer::TransferKey)
//!   (device × workload family × architecture × metric × scenario).
//!   A study submitted with `warm_start: true` seeds its sampler with
//!   the top-k transferred configurations and shrinks its exploration
//!   cohort, reporting `warm_hits` and `trials_saved` in its
//!   [`StudyOutcome`].

pub mod report;
pub mod scheduler;
pub mod service;
pub mod submission;

pub use report::{RejectedStudy, ScheduleGrant, ServiceReport, StudyOutcome};
pub use scheduler::FairScheduler;
pub use service::{ServiceOptions, StudyService};
pub use submission::{StudySubmission, SubmissionFile, TenantSpec};
