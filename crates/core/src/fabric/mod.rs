//! The shard fabric: how a rung's trials are measured side by side on
//! the host, and where.
//!
//! [`ShardFabric`] is the study's one rung executor. It partitions every
//! rung into `study_shards` contiguous
//! [`ShardPlan`](crate::engine::ShardPlan)s, pairs each plan with a
//! backend snapshot on a scoped thread — a shard is that pair, nothing
//! more — and hands the measurements back in input order to the
//! sequential accounting path every execution mode shares. *Where* a
//! plan's slice is measured is the [`ShardExec`](crate::config::ShardExec)
//! placement:
//!
//! * **thread** — directly on the shard's own thread. No frames, no
//!   serde.
//! * **process** — in a **shard worker**: the `edgetune` binary
//!   re-executing itself with the hidden `__shard-worker` subcommand,
//!   which receives the plan plus a
//!   [`BackendSpec`](crate::backend::BackendSpec) backend snapshot over
//!   its stdin as length-prefixed, CRC-checksummed
//!   [frames](edgetune_runtime::frame) and streams heartbeats and the
//!   measured [`TrialMeasurement`](crate::backend::TrialMeasurement)s
//!   back over its stdout.
//! * **remote** — on a standing [`ShardHost`] daemon
//!   (`edgetune shard-host --listen ADDR`) over TCP: the coordinator
//!   dials one host per shard, opens a versioned session with an
//!   [`edgetune_net`] handshake, and ships the identical task.
//!
//! Process and remote placement are one code path. The supervisor opens
//! a link (the two adapters live in `link`), runs one attempt function
//! over it, and wraps every attempt in the `faults` crate's vocabulary:
//! a heartbeat [`Deadline`](edgetune_faults::Deadline), a
//! capped-jittered-backoff [`RetryPolicy`](edgetune_faults::RetryPolicy)
//! on crash or timeout, post-hoc straggler detection, and — once the
//! retry budget is spent — measuring the slice in-process exactly as
//! thread placement would have. On the serving side a worker process
//! and a host session run one task loop: decode, replay if the task's
//! [`RungKey`] and content were already answered, measure under
//! `catch_unwind`, reply. The payoff is crash containment: a worker
//! that is SIGKILL'd, panics, or hangs cannot take the orchestrator or
//! a sibling shard with it, and a study *cannot* fail because isolation
//! failed.
//!
//! The invariant the whole module is built around: a worker rebuilt from
//! a `BackendSpec` measures bit-identically to the orchestrator's own
//! backend (JSON `f64` round-trips exactly via shortest-roundtrip
//! formatting), and measurements are replayed through the same
//! sequential phase-B accounting path whatever produced them — so report
//! and trace bytes are identical across
//! `--shard-exec thread|process|remote`, across shard counts, and across
//! a mid-rung kill (of a worker or of a whole shard host) followed by a
//! retry or the in-process fallback. Fabric telemetry
//! (spawn/heartbeat/crash/retry events) goes to a **separate** tracer
//! for exactly that reason.

#[cfg(test)]
mod fixtures;
pub mod host;
mod link;
pub mod protocol;
pub mod supervisor;
pub mod worker;

pub use host::{HostHandle, HostStats, ShardHost, HOST_SUBCOMMAND};
pub use protocol::{
    ChaosAction, RungKey, RungScope, ShardHeartbeat, ShardResultMsg, ShardTask, TaskTrial,
};
pub use supervisor::{FabricChaos, FabricPolicy, FabricStats, ShardFabric};
pub use worker::{worker_main, WORKER_SUBCOMMAND};
