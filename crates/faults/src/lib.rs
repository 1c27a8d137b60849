//! Deterministic fault injection and fault-tolerance policies.
//!
//! Real edge fleets are not the happy path the paper benchmarks: trials
//! crash or straggle under co-location interference, inference workers
//! die, and devices blink out for seconds at a time. This crate provides
//! the two halves needed to engineer (and test) survival of all of that:
//!
//! * **Injection** — a [`FaultInjector`] turns one fault rate into
//!   concrete, *reproducible* decisions for every fault kind. Every
//!   decision is drawn from an independent
//!   [`SeedStream`](edgetune_util::rng::SeedStream) child keyed by a
//!   stable index (trial counter, request sequence number), never by
//!   wall-clock time or arrival order, so the same seed and rate replay
//!   the same chaos regardless of thread interleaving. A rate of zero
//!   draws nothing at all: with injection disabled the layer is a
//!   strict no-op and every report stays byte-identical.
//! * **Tolerance** — a [`RetryPolicy`] (exponential backoff with
//!   deterministic jitter, capped) is the retry half of the study's one
//!   built-in policy and of the shard fabric's supervision;
//!   [`DegradationStats`] counts every fault observed and every fallback
//!   taken so chaos runs are observable.

pub mod degrade;
pub mod plan;
pub mod retry;

pub use degrade::DegradationStats;
pub use plan::{FaultInjector, TrialFault, OUTAGE_S, STRAGGLER_SLOWDOWN};
pub use retry::RetryPolicy;
