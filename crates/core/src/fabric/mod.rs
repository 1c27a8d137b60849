//! The shard fabric: how a rung's trials are measured side by side on
//! the host, and where.
//!
//! [`ShardFabric`] is the study's one rung executor, and the one place
//! that decides whether a rung is measured side by side: only a rung
//! that splits into at least two plans, on a backend that snapshots
//! itself for each, is (a backend under fault injection declines, so
//! chaos runs stay sequential). It partitions such a rung into
//! `study_shards` contiguous [`ShardPlan`](crate::engine::ShardPlan)s,
//! pairs each plan with a backend snapshot — a shard is that pair,
//! nothing more — and hands the measurements back in input order to the
//! one accounting loop every execution mode shares. *Where* a plan's slice is measured
//! is the [`ShardExec`](crate::config::ShardExec) placement:
//!
//! * **thread** — directly, each shard on a scoped thread of its own.
//!   No frames, no serde.
//! * **process** — in a **shard worker**: the `edgetune` binary
//!   re-executing itself with the hidden `__shard-worker` subcommand,
//!   whose stdin and stdout are one end of a Unix socket pair. It
//!   receives the plan plus a
//!   [`BackendSpec`](crate::backend::BackendSpec) backend snapshot as
//!   length-prefixed, CRC-checksummed [frames](edgetune_runtime::frame)
//!   and answers with the measured
//!   [`TrialMeasurement`](crate::backend::TrialMeasurement)s — preceded
//!   by a heartbeat per [`HEARTBEAT_EVERY`] of measuring, so a fast
//!   rung's answer is its result frame alone.
//! * **remote** — on a standing [`ShardHost`] daemon
//!   (`edgetune shard-host --listen ADDR`) over TCP: the coordinator
//!   dials one host per shard, opens a versioned session with an
//!   [`edgetune_net`] handshake, and ships the identical task.
//!
//! Process and remote placement are one code path, and it runs on the
//! calling thread: no thread is started per rung or per link. The
//! supervisor keeps one link per shard per study (the two adapters live
//! in `link`), reopened only after an attempt on it failed. Per rung it
//! sends every shard's task, then reads each link in shard order under
//! that shard's heartbeat deadline (bounding one trial plus
//! [`HEARTBEAT_EVERY`] of silence); failed shards are retried in rounds
//! under a built-in capped-jittered-backoff
//! [`RetryPolicy`](edgetune_faults::RetryPolicy) no program configures,
//! and a shard that spends the budget is measured in-process exactly as
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
//! phase-B accounting loop whatever produced them — so report
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
pub use worker::{worker_main, HEARTBEAT_EVERY, WORKER_SUBCOMMAND};
