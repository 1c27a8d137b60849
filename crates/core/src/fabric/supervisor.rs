//! The rung executor: partition, place, supervise, degrade.
//!
//! [`ShardFabric::measure_rung`] is the one way a rung's trials are
//! measured side by side on the host: it partitions the rung into
//! [`ShardPlan`]s, pairs each plan with a backend snapshot on its own
//! scoped thread — that pair is all a shard is — and returns the
//! measurements in input order. *How many* plans is `study_shards`;
//! *where* a plan's slice is measured is [`ShardExec`]:
//!
//! * `Thread` — the shard measures its slice directly, right there on
//!   its thread. No frames, no serde, nothing to supervise.
//! * `Process` / `Remote` — the thread first tries to have the slice
//!   measured elsewhere: it ships the task over the shard's link (a
//!   `__shard-worker` child's pipes, or a TCP session with a shard
//!   host) and watches the frame stream under a heartbeat deadline,
//!   retrying a failed attempt under a capped-jittered-backoff
//!   [`RetryPolicy`].
//!   Once the retry budget is spent it falls back to exactly what
//!   thread placement does. Whatever a worker does — SIGKILL, panic,
//!   hang, garbage on the wire — `measure_rung` returns the exact
//!   measurements direct execution would have produced.
//!
//! A shard keeps one link per study: the fabric opens it on the shard's
//! first attempt, hands it every later rung, and reopens it only after
//! an attempt on it failed — a failed link is torn down, never reused.
//! Dropping the fabric closes whatever links are still open.
//!
//! Telemetry (spawn/heartbeat/crash/retry/fallback/straggler events,
//! stamped with wall-clock offsets from the fabric's epoch) accumulates
//! on the fabric's **own** tracer, never the study tracer: study trace
//! bytes must stay identical across `--shard-exec thread|process|remote`.

use std::path::PathBuf;
use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use edgetune_faults::RetryPolicy;
use edgetune_runtime::frame::{read_frame, write_frame, Frame, FrameKind};
use edgetune_runtime::parallel_map_ordered;
use edgetune_trace::Tracer;
use edgetune_tuner::budget::TrialBudget;
use edgetune_tuner::space::Config;
use edgetune_util::rng::SeedStream;
use edgetune_util::units::Seconds;
use edgetune_util::Error;
use serde::{Deserialize, Serialize};

use crate::backend::{BackendSpec, TrainingBackend, TrialMeasurement};
use crate::config::{EdgeTuneConfig, ShardExec};
use crate::engine::shard::ShardPlan;
use crate::fabric::link::{Dial, Link};
use crate::fabric::protocol::{
    decode, encode, ChaosAction, RungScope, ShardHeartbeat, ShardResultMsg, ShardTask, TaskTrial,
    WorkerFailure,
};
use crate::fabric::worker::HEARTBEAT_EVERY;
use crate::trace::{CAT_FABRIC, PROCESS_FABRIC};

/// A shard slower than this multiple of the median sibling wall time is
/// flagged as a straggler (telemetry only — its result is still used).
const STRAGGLER_GRACE: f64 = 4.0;

/// A planted fault for chaos-testing the fabric's own containment: the
/// targeted shard executes `action` mid-rung on its **first** attempt,
/// so the run exercises crash → retry → clean completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FabricChaos {
    /// Shard index the fault is planted in.
    pub shard: usize,
    /// What the worker does to itself.
    pub action: ChaosAction,
}

/// How the fabric supervises the workers of a `Process` or `Remote`
/// placement. Thread placement has nothing to supervise and ignores it.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricPolicy {
    /// Retry budget (capped jittered backoff) for failed attempts. A
    /// shard that spends it is measured in-process.
    /// [`StudyRun::start`](crate::engine::StudyRun::start) rejects retry
    /// delays that are not finite and ≥ 0.
    pub retry: RetryPolicy,
    /// The per-frame heartbeat deadline: a worker silent for longer is
    /// treated as hung, killed, and retried. A worker heartbeats at most
    /// every [`HEARTBEAT_EVERY`] (a faster slice answers with its result
    /// alone), so the deadline bounds one trial plus that interval:
    /// [`StudyRun::start`](crate::engine::StudyRun::start) rejects a
    /// deadline that is not finite or not longer than it.
    pub deadline: Seconds,
    /// Worker executable override. `None` self-execs
    /// `std::env::current_exe()` — correct for the `edgetune` binary;
    /// tests point it at the real CLI binary or at impostors.
    pub worker_exe: Option<PathBuf>,
    /// Planted chaos, if the run is testing containment.
    pub chaos: Option<FabricChaos>,
}

impl Default for FabricPolicy {
    fn default() -> Self {
        FabricPolicy {
            retry: RetryPolicy {
                max_attempts: 3,
                base_delay: Seconds::new(0.05),
                multiplier: 2.0,
                max_delay: Seconds::new(0.5),
                jitter: 0.5,
            },
            deadline: Seconds::new(30.0),
            worker_exe: None,
            chaos: None,
        }
    }
}

impl FabricPolicy {
    /// Checks what the fabric turns into sleeps and timeouts, so a
    /// study with a policy the fabric cannot honour fails before it
    /// starts instead of panicking on a shard's thread.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] naming the offending field.
    pub(crate) fn validate(&self) -> edgetune_util::Result<()> {
        let limit = self.deadline.value();
        if !(limit.is_finite() && limit > HEARTBEAT_EVERY.as_secs_f64()) {
            return Err(Error::invalid_config(format!(
                "fabric.deadline must be finite and longer than the \
                 {HEARTBEAT_EVERY:?} heartbeat interval, got {limit} s"
            )));
        }
        for (field, delay) in [
            ("base_delay", self.retry.base_delay),
            ("max_delay", self.retry.max_delay),
        ] {
            let delay = delay.value();
            if !(delay.is_finite() && delay >= 0.0) {
                return Err(Error::invalid_config(format!(
                    "fabric.retry.{field} must be finite and ≥ 0, got {delay} s"
                )));
            }
        }
        Ok(())
    }
}

/// What the fabric did, over the whole study. All zeros when every
/// worker behaved on its first attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FabricStats {
    /// Shard attempts dispatched: every attempt that reached an open
    /// link, pooled or freshly opened. (The name predates pooled links.)
    pub spawns: u64,
    /// Links opened: worker processes spawned or host sessions accepted.
    /// One per shard for a clean study: a link serves its shard until
    /// an attempt on it fails, and the shard's next attempt opens anew.
    pub links: u64,
    /// Heartbeat frames received.
    pub heartbeats: u64,
    /// Worker failures observed (crash, dead pipe, error frame).
    pub crashes: u64,
    /// Heartbeat deadlines that fired (a subset of `crashes`).
    pub timeouts: u64,
    /// Respawns performed under the retry budget.
    pub retries: u64,
    /// Shards that exhausted the budget and ran in-process.
    pub fallbacks: u64,
    /// Shards flagged as stragglers.
    pub stragglers: u64,
}

/// One telemetry event, recorded off-thread and emitted onto the fabric
/// tracer in deterministic shard order afterwards. Instants mark what
/// happened; spans (`until` set) additionally cover how long an RPC leg
/// took.
struct FabricEvent {
    name: String,
    offset: Seconds,
    until: Option<Seconds>,
    args: Vec<(String, String)>,
}

impl FabricEvent {
    fn instant(name: &str, offset: Seconds, args: Vec<(String, String)>) -> Self {
        FabricEvent {
            name: name.to_string(),
            offset,
            until: None,
            args,
        }
    }

    fn span(name: &str, offset: Seconds, until: Seconds, args: Vec<(String, String)>) -> Self {
        FabricEvent {
            name: name.to_string(),
            offset,
            until: Some(until),
            args,
        }
    }
}

/// One supervised shard's outcome.
struct ShardRun {
    measurements: Vec<TrialMeasurement>,
    events: Vec<FabricEvent>,
    stats: FabricStats,
    wall: f64,
}

/// Everything a worker attempt can end as.
enum AttemptEnd {
    Done(Vec<TrialMeasurement>),
    Failed { reason: String, timed_out: bool },
}

impl AttemptEnd {
    /// A failure other than the heartbeat deadline firing.
    fn failed(reason: impl Into<String>) -> Self {
        AttemptEnd::Failed {
            reason: reason.into(),
            timed_out: false,
        }
    }
}

/// A shard's open link plus the reader thread pumping its frames into
/// `rx`, so the supervisor can wait with a timeout. The pump starts when
/// the link opens and ends with it: the sender dropping (EOF, torn frame,
/// killed worker) surfaces as a disconnect.
struct Session {
    link: Box<dyn Link>,
    rx: mpsc::Receiver<Frame>,
    pump: JoinHandle<()>,
}

impl Session {
    fn start(mut link: Box<dyn Link>) -> Result<Self, String> {
        let mut reader = match link.reader() {
            Ok(reader) => reader,
            Err(reason) => {
                link.close(true);
                return Err(reason);
            }
        };
        let (tx, rx) = mpsc::channel::<Frame>();
        let pump = std::thread::spawn(move || {
            while let Ok(Some(frame)) = read_frame(&mut reader) {
                if tx.send(frame).is_err() {
                    break;
                }
            }
        });
        Ok(Session { link, rx, pump })
    }

    /// Closing ends the read half's stream, so the pump can be joined
    /// without waiting on the peer.
    fn close(self, failed: bool) {
        self.link.close(failed);
        let _ = self.pump.join();
    }
}

/// The rung executor. One instance measures every rung of a study,
/// accumulating supervision stats and telemetry across rungs.
pub struct ShardFabric {
    shards: usize,
    /// How supervised attempts reach their executor; `None` is thread
    /// placement, where a shard's only step is the direct measurement.
    dial: Option<Dial>,
    /// One slot per shard index: the shard's open session between its
    /// attempts, empty before the first and after a failed one.
    sessions: Vec<Mutex<Option<Session>>>,
    retry: RetryPolicy,
    /// The heartbeat deadline (`StudyRun::start` validated it finite).
    deadline: Duration,
    chaos: Option<FabricChaos>,
    seed: SeedStream,
    tracer: Tracer,
    epoch: Instant,
    stats: FabricStats,
}

impl std::fmt::Debug for ShardFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardFabric")
            .field("shards", &self.shards)
            .field("retry", &self.retry)
            .field("deadline", &self.deadline)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl ShardFabric {
    /// Creates the executor a study's configuration asks for:
    /// `study_shards` plans per rung, placed per `shard_exec`, supervised
    /// per the `fabric` policy. The study seed's `fabric` child derives
    /// the deterministic backoff jitter streams.
    #[must_use]
    pub fn new(config: &EdgeTuneConfig) -> Self {
        let policy = &config.fabric;
        let dial = match config.shard_exec {
            ShardExec::Thread => None,
            ShardExec::Process => Some(Dial::Process {
                exe: policy
                    .worker_exe
                    .clone()
                    .or_else(|| std::env::current_exe().ok()),
            }),
            ShardExec::Remote => Some(Dial::Remote {
                hosts: config.shard_hosts.clone(),
            }),
        };
        ShardFabric {
            shards: config.study_shards,
            dial,
            sessions: (0..config.study_shards).map(|_| Mutex::new(None)).collect(),
            retry: policy.retry,
            deadline: Duration::try_from_secs_f64(policy.deadline.value().max(0.0))
                .unwrap_or(Duration::MAX),
            chaos: policy.chaos,
            seed: SeedStream::new(config.seed).child("fabric"),
            tracer: Tracer::new(),
            epoch: Instant::now(),
            stats: FabricStats::default(),
        }
    }

    /// Cumulative supervision counters, or `None` when the placement
    /// leaves nothing to supervise: thread placement, or a single shard
    /// (which the study measures sequentially).
    #[must_use]
    pub fn stats(&self) -> Option<FabricStats> {
        (self.dial.is_some() && self.shards > 1).then_some(self.stats)
    }

    /// The fabric's own telemetry trace (spawn/heartbeat/crash/retry
    /// events on wall-clock offsets) — separate from the study trace
    /// by design.
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Measures one rung, one backend snapshot per [`ShardPlan`] on its
    /// own scoped thread. The returned measurements are always the full
    /// rung, in input order, bit-identical to sequential execution: a
    /// supervised shard whose workers exhaust the retry budget is
    /// measured by its own thread after all.
    ///
    /// Returns `None` — the caller measures sequentially — for a single
    /// shard, and when the backend cannot snapshot itself (e.g. under
    /// fault injection, where the injector's draw cursor must stay
    /// strictly sequential), which keeps chaos runs shard-count-invariant.
    /// A backend that snapshots but has no
    /// [`process_spec`](TrainingBackend::process_spec) cannot cross a
    /// process boundary; its shards are measured in-process under every
    /// placement — same bytes either way.
    ///
    /// `now` is the study time of the dispatch. No measurement depends
    /// on it; it travels as [`ShardTask::now`] into a shard host's
    /// replay digest.
    #[must_use]
    pub fn measure_rung(
        &mut self,
        scope: RungScope,
        backend: &dyn TrainingBackend,
        now: Seconds,
        trials: &[(u64, Config, TrialBudget)],
    ) -> Option<Vec<TrialMeasurement>> {
        if self.shards <= 1 {
            return None;
        }
        let plans = ShardPlan::partition(trials.len(), self.shards);
        let snapshots = plans
            .iter()
            .map(|_| backend.parallel_snapshot())
            .collect::<Option<Vec<_>>>()?;
        let spec = self.dial.as_ref().and_then(|_| backend.process_spec());
        let runs = parallel_map_ordered(&plans, snapshots, |snapshot, _index, plan| {
            let slice = plan.slice(trials);
            self.run_shard(scope, *plan, spec.as_ref(), now, slice, &mut **snapshot)
        });

        // Post-hoc straggler detection against the median sibling.
        let mut walls: Vec<f64> = runs.iter().map(|run| run.wall).collect();
        walls.sort_by(f64::total_cmp);
        let median = walls[walls.len() / 2];

        let mut measurements = Vec::with_capacity(trials.len());
        for (shard, mut run) in runs.into_iter().enumerate() {
            if run.wall > median * STRAGGLER_GRACE && run.wall - median > 0.05 {
                run.stats.stragglers += 1;
                run.events.push(FabricEvent::instant(
                    "straggler",
                    self.offset(),
                    vec![
                        ("wall_s".to_string(), format!("{:.3}", run.wall)),
                        ("median_s".to_string(), format!("{median:.3}")),
                    ],
                ));
            }
            let track = self.tracer.track(PROCESS_FABRIC, &format!("shard-{shard}"));
            for event in run.events {
                match event.until {
                    Some(until) => self.tracer.span_with_args(
                        track,
                        event.name,
                        CAT_FABRIC,
                        event.offset,
                        until,
                        event.args,
                    ),
                    None => self.tracer.instant_with_args(
                        track,
                        event.name,
                        CAT_FABRIC,
                        event.offset,
                        event.args,
                    ),
                }
            }
            self.stats.spawns += run.stats.spawns;
            self.stats.links += run.stats.links;
            self.stats.heartbeats += run.stats.heartbeats;
            self.stats.crashes += run.stats.crashes;
            self.stats.timeouts += run.stats.timeouts;
            self.stats.retries += run.stats.retries;
            self.stats.fallbacks += run.stats.fallbacks;
            self.stats.stragglers += run.stats.stragglers;
            measurements.extend(run.measurements);
        }
        Some(measurements)
    }

    /// Wall-clock offset since the fabric was created, the timestamp
    /// domain of its telemetry.
    fn offset(&self) -> Seconds {
        Seconds::new(self.epoch.elapsed().as_secs_f64())
    }

    /// Runs one shard to completion. A supervised placement (a dial and
    /// a spec to ship) goes attempt → watch → retry under the budget
    /// first; `run_trial` over the slice on `snapshot` is thread
    /// placement's whole job and every supervised shard's last resort.
    /// Runs on a pool thread; must not touch `self.tracer` or
    /// `self.stats` (events and counters are returned and merged on the
    /// calling thread).
    fn run_shard(
        &self,
        scope: RungScope,
        plan: ShardPlan,
        spec: Option<&BackendSpec>,
        now: Seconds,
        slice: &[(u64, Config, TrialBudget)],
        snapshot: &mut dyn TrainingBackend,
    ) -> ShardRun {
        let started = Instant::now();
        let mut events = Vec::new();
        let mut stats = FabricStats::default();
        if let (Some(dial), Some(spec)) = (&self.dial, spec) {
            // The backoff jitter stream is fabric-local by
            // construction: it derives from the fabric's own seed child,
            // never from the study's trial streams, so however many
            // reconnects happen the study bytes cannot move.
            let shard_seed = self.seed.child_indexed("shard", plan.shard as u64);
            let mut task = ShardTask {
                attempt: 1,
                plan,
                spec: spec.clone(),
                now,
                trials: slice
                    .iter()
                    .map(|(id, config, budget)| TaskTrial {
                        id: *id,
                        config: config.clone(),
                        budget: *budget,
                    })
                    .collect(),
                // Planted chaos fires on the first attempt only, so the
                // run exercises crash → retry → clean completion.
                chaos: self
                    .chaos
                    .filter(|c| c.shard == plan.shard)
                    .map(|c| c.action),
                key: dial.outlives_attempts().then(|| scope.key_for(plan.shard)),
            };
            let mut draw: u64 = 0;
            loop {
                let attempt = task.attempt;
                match self.run_attempt(dial, scope.study, &task, &mut events, &mut stats) {
                    AttemptEnd::Done(measurements) => {
                        events.push(FabricEvent::instant(
                            "result",
                            self.offset(),
                            vec![("attempt".to_string(), attempt.to_string())],
                        ));
                        return ShardRun {
                            measurements,
                            events,
                            stats,
                            wall: started.elapsed().as_secs_f64(),
                        };
                    }
                    AttemptEnd::Failed { reason, timed_out } => {
                        stats.crashes += 1;
                        if timed_out {
                            stats.timeouts += 1;
                        }
                        events.push(FabricEvent::instant(
                            "crash",
                            self.offset(),
                            vec![
                                ("attempt".to_string(), attempt.to_string()),
                                ("reason".to_string(), reason),
                            ],
                        ));
                        if self.retry.exhausted(attempt) {
                            stats.fallbacks += 1;
                            events.push(FabricEvent::instant(
                                "in_process",
                                self.offset(),
                                vec![("after_attempts".to_string(), attempt.to_string())],
                            ));
                            break;
                        }
                        stats.retries += 1;
                        let delay = self.retry.delay(attempt, shard_seed, draw);
                        draw += 1;
                        events.push(FabricEvent::instant(
                            "retry",
                            self.offset(),
                            vec![
                                ("attempt".to_string(), attempt.to_string()),
                                ("backoff_s".to_string(), format!("{:.3}", delay.value())),
                            ],
                        ));
                        std::thread::sleep(Duration::from_secs_f64(delay.value().max(0.0)));
                        task.attempt += 1;
                        task.chaos = None;
                    }
                }
            }
        }
        ShardRun {
            measurements: slice
                .iter()
                .map(|(_, config, budget)| snapshot.run_trial(config, *budget))
                .collect(),
            events,
            stats,
            wall: started.elapsed().as_secs_f64(),
        }
    }

    /// The session slot of shard index `shard`.
    fn slot(&self, shard: usize) -> MutexGuard<'_, Option<Session>> {
        self.sessions[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// One supervised attempt, the same for every link: take the shard's
    /// session (opening one if it has none), ship the task, and
    /// [`watch`](Self::watch) its frames. A finished attempt puts the
    /// session back for the shard's next rung; a failed one tears it
    /// down, so a retry always starts on a fresh link. The legs (open,
    /// send, wait for the result) are recorded as spans on the fabric
    /// tracer.
    fn run_attempt(
        &self,
        dial: &Dial,
        study: u64,
        task: &ShardTask,
        events: &mut Vec<FabricEvent>,
        stats: &mut FabricStats,
    ) -> AttemptEnd {
        let attempt_arg = || vec![("attempt".to_string(), task.attempt.to_string())];
        let pooled = self.slot(task.plan.shard).take();
        let mut session = match pooled {
            Some(session) => session,
            None => {
                // A dead address must fail within the heartbeat
                // deadline's order of magnitude, not hang the rung.
                let connect_timeout = self
                    .deadline
                    .clamp(Duration::from_millis(100), Duration::from_secs(30));
                let open_from = self.offset();
                let session = match dial
                    .open(task.plan.shard, study, &task.spec, connect_timeout)
                    .and_then(Session::start)
                {
                    Ok(session) => session,
                    Err(reason) => return AttemptEnd::failed(reason),
                };
                stats.links += 1;
                events.push(FabricEvent::span(
                    "spawn",
                    open_from,
                    self.offset(),
                    attempt_arg(),
                ));
                session
            }
        };
        stats.spawns += 1;

        let send_from = self.offset();
        if let Err(e) = write_frame(&mut session.link.writer(), FrameKind::Task, &encode(task)) {
            session.close(true);
            return AttemptEnd::failed(format!("sending task: {e}"));
        }
        events.push(FabricEvent::span(
            "send",
            send_from,
            self.offset(),
            vec![("trials".to_string(), task.trials.len().to_string())],
        ));

        let recv_from = self.offset();
        let end = self.watch(&session.rx, task.trials.len(), events, stats);
        events.push(FabricEvent::span(
            "recv",
            recv_from,
            self.offset(),
            attempt_arg(),
        ));
        match end {
            AttemptEnd::Done(_) => *self.slot(task.plan.shard) = Some(session),
            AttemptEnd::Failed { .. } => session.close(true),
        }
        end
    }

    /// Watches one attempt's frame stream under the heartbeat deadline.
    /// Link-agnostic: every session pumps its frames into a channel and
    /// each attempt waits here, so a hung host and a hung worker are
    /// classified identically.
    fn watch(
        &self,
        rx: &mpsc::Receiver<Frame>,
        expected: usize,
        events: &mut Vec<FabricEvent>,
        stats: &mut FabricStats,
    ) -> AttemptEnd {
        loop {
            match rx.recv_timeout(self.deadline) {
                Ok(frame) => match frame.kind {
                    FrameKind::Heartbeat => {
                        if let Ok(heartbeat) = decode::<ShardHeartbeat>(&frame.payload) {
                            stats.heartbeats += 1;
                            events.push(FabricEvent::instant(
                                "heartbeat",
                                self.offset(),
                                vec![("completed".to_string(), heartbeat.completed.to_string())],
                            ));
                        }
                    }
                    FrameKind::Result => match decode::<ShardResultMsg>(&frame.payload) {
                        Ok(result) if result.measurements.len() == expected => {
                            return AttemptEnd::Done(result.measurements);
                        }
                        Ok(result) => {
                            return AttemptEnd::failed(format!(
                                "short result: {} of {} measurements",
                                result.measurements.len(),
                                expected
                            ));
                        }
                        Err(e) => {
                            return AttemptEnd::failed(format!("undecodable result: {e}"));
                        }
                    },
                    FrameKind::Error => {
                        let reason = decode::<WorkerFailure>(&frame.payload).map_or_else(
                            |e| format!("undecodable error frame: {e}"),
                            |f| f.message,
                        );
                        return AttemptEnd::failed(reason);
                    }
                    FrameKind::Task | FrameKind::Hello | FrameKind::HelloAck => {
                        return AttemptEnd::failed(format!(
                            "worker sent an unexpected {:?} frame",
                            frame.kind
                        ));
                    }
                },
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    return AttemptEnd::Failed {
                        reason: "heartbeat deadline exceeded".to_string(),
                        timed_out: true,
                    };
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return AttemptEnd::failed("worker pipe closed before result");
                }
            }
        }
    }
}

impl Drop for ShardFabric {
    /// Closes every session still open, however the study ended: a
    /// worker sees its stdin end, exits and is reaped; a host session is
    /// shut down. No worker outlives the study.
    fn drop(&mut self) {
        for slot in &mut self.sessions {
            let pooled = slot
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            if let Some(session) = pooled {
                session.close(false);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::fixtures::{backend, expected_measurements, sample_trials, task_for};
    use edgetune_runtime::frame::encode_frame;
    use edgetune_workloads::catalog::WorkloadId;
    use std::io::{Cursor, Read, Write};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    fn fabric(shards: usize, exec: ShardExec, policy: FabricPolicy) -> ShardFabric {
        let mut config = EdgeTuneConfig::for_workload(WorkloadId::Ic)
            .with_study_shards(shards)
            .with_shard_exec(exec)
            .with_seed(9);
        config.fabric = policy;
        ShardFabric::new(&config)
    }

    fn fast_policy(max_attempts: u32, deadline_s: f64) -> FabricPolicy {
        FabricPolicy {
            retry: RetryPolicy {
                max_attempts,
                base_delay: Seconds::new(0.005),
                multiplier: 1.0,
                max_delay: Seconds::new(0.01),
                jitter: 0.0,
            },
            deadline: Seconds::new(deadline_s),
            ..FabricPolicy::default()
        }
    }

    /// An in-memory link: whatever is written collects in `sink`, and
    /// the read half yields pre-encoded frame bytes, then either ends
    /// (`hold` false — the peer hung up) or stays silent until the link
    /// is closed (`hold` true — the peer hung). A logged link reports its
    /// close to `log`.
    struct ScriptedLink {
        sink: Vec<u8>,
        script: Option<Vec<u8>>,
        hold: bool,
        open: Option<mpsc::Sender<()>>,
        log: Option<(LinkId, CloseLog)>,
    }

    /// (shard, how many links that shard had opened before this one).
    type LinkId = (usize, usize);

    /// Every close of a logged link, in order.
    type CloseLog = Arc<Mutex<Vec<Closed>>>;

    #[derive(Debug, PartialEq)]
    struct Closed {
        link: LinkId,
        /// Task frames written to the link over its life.
        tasks: usize,
        failed: bool,
    }

    struct ScriptedReader {
        script: Cursor<Vec<u8>>,
        closed: Option<mpsc::Receiver<()>>,
    }

    impl Read for ScriptedReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.script.read(buf)?;
            if n == 0 {
                if let Some(closed) = self.closed.take() {
                    // Blocks until `close` drops the sender.
                    let _ = closed.recv();
                }
            }
            Ok(n)
        }
    }

    impl Link for ScriptedLink {
        fn writer(&mut self) -> &mut dyn Write {
            &mut self.sink
        }

        fn reader(&mut self) -> Result<Box<dyn Read + Send>, String> {
            let (open, closed) = mpsc::channel();
            self.open = Some(open);
            Ok(Box::new(ScriptedReader {
                script: Cursor::new(self.script.take().ok_or("reader already taken")?),
                closed: self.hold.then_some(closed),
            }))
        }

        fn close(self: Box<Self>, failed: bool) {
            if let Some((link, log)) = &self.log {
                let mut written = self.sink.as_slice();
                let mut tasks = 0;
                while let Ok(Some(frame)) = read_frame(&mut written) {
                    assert_eq!(frame.kind, FrameKind::Task);
                    tasks += 1;
                }
                log.lock().unwrap().push(Closed {
                    link: *link,
                    tasks,
                    failed,
                });
            }
        }
    }

    fn scripted(script: Vec<u8>, hold: bool) -> Box<dyn Link> {
        Box::new(ScriptedLink {
            sink: Vec::new(),
            script: Some(script),
            hold,
            open: None,
            log: None,
        })
    }

    /// A dial whose shard `s` hands out the links `links[s]` scripts, in
    /// order, each logging its close; a shard that runs out cannot open.
    fn logged_dial(links: Vec<Vec<(Vec<u8>, bool)>>) -> (Dial, CloseLog) {
        let log = CloseLog::default();
        let opened = Mutex::new(vec![0; links.len()]);
        let handed_out = Arc::clone(&log);
        let dial = Dial::Scripted(Box::new(move |shard| {
            let mut opened = opened.lock().unwrap();
            let nth = opened[shard];
            opened[shard] += 1;
            let (script, hold) = links[shard]
                .get(nth)
                .cloned()
                .ok_or("no more scripted links")?;
            Ok(Box::new(ScriptedLink {
                sink: Vec::new(),
                script: Some(script),
                hold,
                open: None,
                log: Some(((shard, nth), Arc::clone(&handed_out))),
            }) as Box<dyn Link>)
        }));
        (dial, log)
    }

    /// The result frame shard `shard` of a `shards`-way split answers
    /// `trials` with.
    fn slice_result(trials: &[(u64, Config, TrialBudget)], shards: usize, shard: usize) -> Vec<u8> {
        let plan = ShardPlan::partition(trials.len(), shards)[shard];
        result_frame(expected_measurements(plan.slice(trials), 1))
    }

    /// The closes logged since the last call, by link.
    fn closes(log: &CloseLog) -> Vec<Closed> {
        let mut closes = std::mem::take(&mut *log.lock().unwrap());
        closes.sort_by_key(|closed| closed.link);
        closes
    }

    fn heartbeat_frame(completed: usize) -> Vec<u8> {
        let heartbeat = ShardHeartbeat {
            shard: 0,
            completed,
        };
        encode_frame(FrameKind::Heartbeat, &encode(&heartbeat))
    }

    fn result_frame(measurements: Vec<TrialMeasurement>) -> Vec<u8> {
        let result = ShardResultMsg {
            shard: 0,
            measurements,
        };
        encode_frame(FrameKind::Result, &encode(&result))
    }

    /// Runs one attempt of a three-trial task over a link scripted with
    /// `script`, returning how it ended and the stats it left.
    fn attempt_over(script: Vec<u8>, hold: bool, deadline_s: f64) -> (AttemptEnd, FabricStats) {
        let fabric = fabric(2, ShardExec::Process, fast_policy(1, deadline_s));
        let script = std::sync::Mutex::new(Some(script));
        let dial = Dial::Scripted(Box::new(move |_shard| {
            Ok(scripted(script.lock().unwrap().take().unwrap(), hold))
        }));
        let task = task_for(&sample_trials(3), Seconds::ZERO, None);
        let mut stats = FabricStats::default();
        let end = fabric.run_attempt(&dial, 11, &task, &mut Vec::new(), &mut stats);
        (end, stats)
    }

    fn failure(end: AttemptEnd) -> (String, bool) {
        match end {
            AttemptEnd::Failed { reason, timed_out } => (reason, timed_out),
            AttemptEnd::Done(_) => panic!("the attempt must fail"),
        }
    }

    #[test]
    fn heartbeats_then_a_full_result_complete_the_attempt() {
        let expected = expected_measurements(&sample_trials(3), 1);
        let script = [
            heartbeat_frame(1),
            heartbeat_frame(2),
            heartbeat_frame(3),
            result_frame(expected.clone()),
        ]
        .concat();
        let (end, stats) = attempt_over(script, true, 5.0);
        assert!(matches!(end, AttemptEnd::Done(got) if got == expected));
        assert_eq!(
            stats,
            FabricStats {
                spawns: 1,
                links: 1,
                heartbeats: 3,
                ..FabricStats::default()
            }
        );
    }

    #[test]
    fn an_error_frame_fails_the_attempt_with_its_reason() {
        let failure_msg = WorkerFailure {
            message: "task execution panicked: boom".to_string(),
        };
        let script = [
            heartbeat_frame(1),
            encode_frame(FrameKind::Error, &encode(&failure_msg)),
        ]
        .concat();
        let (end, stats) = attempt_over(script, true, 5.0);
        assert_eq!(
            failure(end),
            ("task execution panicked: boom".to_string(), false)
        );
        assert_eq!((stats.spawns, stats.heartbeats), (1, 1));
    }

    #[test]
    fn a_short_result_fails_the_attempt() {
        let mut measurements = expected_measurements(&sample_trials(3), 1);
        measurements.pop();
        let (reason, timed_out) = failure(attempt_over(result_frame(measurements), true, 5.0).0);
        assert_eq!(reason, "short result: 2 of 3 measurements");
        assert!(!timed_out);
    }

    #[test]
    fn an_undecodable_result_fails_the_attempt() {
        let script = encode_frame(FrameKind::Result, b"{\"not\": \"a result\"}");
        let (reason, timed_out) = failure(attempt_over(script, true, 5.0).0);
        assert!(reason.starts_with("undecodable result"), "{reason}");
        assert!(!timed_out);
    }

    #[test]
    fn an_unexpected_frame_kind_fails_the_attempt() {
        let script = encode_frame(FrameKind::Task, b"{}");
        let (reason, _) = failure(attempt_over(script, true, 5.0).0);
        assert_eq!(reason, "worker sent an unexpected Task frame");
    }

    #[test]
    fn silence_past_the_deadline_is_a_timeout() {
        let (end, stats) = attempt_over(heartbeat_frame(1), true, 0.05);
        assert_eq!(
            failure(end),
            ("heartbeat deadline exceeded".to_string(), true)
        );
        assert_eq!((stats.spawns, stats.heartbeats), (1, 1));
    }

    #[test]
    fn an_early_disconnect_fails_the_attempt_without_waiting_for_the_deadline() {
        let started = Instant::now();
        let (end, _) = attempt_over(heartbeat_frame(1), false, 30.0);
        assert_eq!(
            failure(end),
            ("worker pipe closed before result".to_string(), false)
        );
        assert!(started.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn a_failed_attempt_is_retried_and_a_spent_budget_falls_back_in_process() {
        let trials = sample_trials(4);
        let now = Seconds::new(7.0);
        // Shard 0's first link dies at once and its second answers;
        // shard 1's links always die, so it spends its two attempts.
        let shard0_result = result_frame(expected_measurements(&trials[..2], 1));
        let shard0_opens = AtomicU32::new(0);
        let mut fabric = fabric(2, ShardExec::Process, fast_policy(2, 5.0));
        fabric.dial = Some(Dial::Scripted(Box::new(move |shard| {
            let answers = shard == 0 && shard0_opens.fetch_add(1, Ordering::Relaxed) == 1;
            Ok(scripted(
                if answers {
                    shard0_result.clone()
                } else {
                    Vec::new()
                },
                false,
            ))
        })));

        let measured = fabric
            .measure_rung(RungScope::default(), &backend(), now, &trials)
            .expect("the sim backend snapshots");
        assert_eq!(measured, expected_measurements(&trials, 2));
        assert_eq!(
            fabric.stats(),
            Some(FabricStats {
                spawns: 4,
                links: 4,
                crashes: 3,
                retries: 2,
                fallbacks: 1,
                ..FabricStats::default()
            })
        );
    }

    /// A `shards`-way process fabric whose links come from `dial`.
    fn scripted_fabric(shards: usize, dial: Dial, deadline_s: f64) -> ShardFabric {
        let mut fabric = fabric(shards, ShardExec::Process, fast_policy(2, deadline_s));
        fabric.dial = Some(dial);
        fabric
    }

    fn measure_exactly(fabric: &mut ShardFabric, trials: &[(u64, Config, TrialBudget)]) {
        let measured = fabric.measure_rung(RungScope::default(), &backend(), Seconds::ZERO, trials);
        assert_eq!(measured, Some(expected_measurements(trials, fabric.shards)));
    }

    fn event_count(fabric: &ShardFabric, name: &str) -> usize {
        fabric
            .tracer()
            .snapshot()
            .iter()
            .filter(|event| event.name == name)
            .count()
    }

    #[test]
    fn a_shard_keeps_one_link_for_every_rung_of_the_study() {
        let rungs = [sample_trials(6), sample_trials(4), sample_trials(2)];
        let answers_every_rung = |shard| {
            let script = rungs.iter().map(|trials| slice_result(trials, 2, shard));
            vec![(script.collect::<Vec<_>>().concat(), true)]
        };
        let (dial, log) = logged_dial(vec![answers_every_rung(0), answers_every_rung(1)]);
        let mut fabric = scripted_fabric(2, dial, 5.0);
        for trials in &rungs {
            measure_exactly(&mut fabric, trials);
        }
        assert_eq!(
            fabric.stats(),
            Some(FabricStats {
                spawns: 6,
                links: 2,
                ..FabricStats::default()
            })
        );
        assert_eq!(event_count(&fabric, "spawn"), 2, "one spawn span per link");
        assert!(closes(&log).is_empty(), "a clean study closes no link");
    }

    #[test]
    fn a_pooled_link_that_hung_up_between_rungs_fails_one_attempt_and_is_replaced() {
        let rungs = [sample_trials(4), sample_trials(2)];
        // Shard 0's first link answers rung 1, then its peer hangs up;
        // rung 2 finds it dead and the retry opens a second link.
        let (dial, log) = logged_dial(vec![
            vec![
                (slice_result(&rungs[0], 2, 0), false),
                (slice_result(&rungs[1], 2, 0), true),
            ],
            vec![(
                [slice_result(&rungs[0], 2, 1), slice_result(&rungs[1], 2, 1)].concat(),
                true,
            )],
        ]);
        let mut fabric = scripted_fabric(2, dial, 5.0);
        for trials in &rungs {
            measure_exactly(&mut fabric, trials);
        }
        assert_eq!(
            fabric.stats(),
            Some(FabricStats {
                spawns: 5,
                links: 3,
                crashes: 1,
                retries: 1,
                ..FabricStats::default()
            })
        );
        assert_eq!(
            closes(&log),
            [Closed {
                link: (0, 0),
                tasks: 2,
                failed: true,
            }]
        );
        let crash = fabric
            .tracer()
            .snapshot()
            .into_iter()
            .find(|event| event.name == "crash")
            .expect("a crash event");
        assert!(crash.args.contains(&(
            "reason".to_string(),
            "worker pipe closed before result".to_string()
        )));
    }

    #[test]
    fn a_link_that_timed_out_is_never_handed_to_a_later_rung() {
        let rungs = [sample_trials(4), sample_trials(4)];
        let answers = |shard: usize| {
            let script = rungs.iter().map(|trials| slice_result(trials, 2, shard));
            (script.collect::<Vec<_>>().concat(), true)
        };
        // Shard 0's first link heartbeats once and goes silent.
        let (dial, log) = logged_dial(vec![
            vec![(heartbeat_frame(1), true), answers(0)],
            vec![answers(1)],
        ]);
        let mut fabric = scripted_fabric(2, dial, 0.1);
        measure_exactly(&mut fabric, &rungs[0]);
        assert_eq!(
            closes(&log),
            [Closed {
                link: (0, 0),
                tasks: 1,
                failed: true,
            }],
            "the timed-out link is closed at once"
        );
        measure_exactly(&mut fabric, &rungs[1]);
        let stats = fabric.stats().unwrap();
        assert_eq!((stats.timeouts, stats.retries, stats.links), (1, 1, 3));
        drop(fabric);
        assert_eq!(
            closes(&log),
            [
                Closed {
                    link: (0, 1),
                    tasks: 2,
                    failed: false,
                },
                Closed {
                    link: (1, 0),
                    tasks: 2,
                    failed: false,
                },
            ],
            "rung 2 went to the replacement link"
        );
    }

    #[test]
    fn dropping_the_fabric_closes_every_pooled_link_exactly_once() {
        let trials = sample_trials(3);
        let (dial, log) = logged_dial(
            (0..3)
                .map(|shard| vec![(slice_result(&trials, 3, shard), true)])
                .collect(),
        );
        let mut fabric = scripted_fabric(3, dial, 5.0);
        measure_exactly(&mut fabric, &trials);
        assert!(closes(&log).is_empty());
        drop(fabric);
        let expected: Vec<Closed> = (0..3)
            .map(|shard| Closed {
                link: (shard, 0),
                tasks: 1,
                failed: false,
            })
            .collect();
        assert_eq!(closes(&log), expected);
    }

    #[test]
    fn thread_placement_matches_the_sequential_backend_and_supervises_nothing() {
        let trials = sample_trials(7);
        let mut sequential = backend();
        let expected: Vec<TrialMeasurement> = trials
            .iter()
            .map(|(_, config, budget)| sequential.run_trial(config, *budget))
            .collect();
        for shards in [2, 3, 7] {
            let mut fabric = fabric(shards, ShardExec::Thread, FabricPolicy::default());
            let measured = fabric
                .measure_rung(RungScope::default(), &backend(), Seconds::ZERO, &trials)
                .expect("fault-free sim backend snapshots");
            assert_eq!(measured, expected, "shards={shards} changed a measurement");
            assert_eq!(fabric.stats(), None);
            assert!(fabric.tracer().snapshot().is_empty());
        }
    }

    #[test]
    fn a_single_shard_and_an_unsnapshottable_backend_decline_the_rung() {
        use edgetune_faults::FaultInjector;
        let trials = sample_trials(4);
        let mut single = fabric(1, ShardExec::Process, FabricPolicy::default());
        assert!(single
            .measure_rung(RungScope::default(), &backend(), Seconds::ZERO, &trials)
            .is_none());
        assert_eq!(single.stats(), None);

        let chaotic = backend().with_fault_injector(FaultInjector::new(0.3, SeedStream::new(1)));
        let mut sharded = fabric(2, ShardExec::Thread, FabricPolicy::default());
        assert!(sharded
            .measure_rung(RungScope::default(), &chaotic, Seconds::ZERO, &trials)
            .is_none());
    }

    #[test]
    fn missing_worker_exe_degrades_to_in_process_execution() {
        let trials = sample_trials(5);
        let now = Seconds::new(7.0);
        let mut policy = fast_policy(2, 5.0);
        policy.worker_exe = Some(PathBuf::from("/nonexistent/edgetune-worker"));
        let mut fabric = fabric(2, ShardExec::Process, policy);

        let measured = fabric
            .measure_rung(RungScope::default(), &backend(), now, &trials)
            .unwrap();
        assert_eq!(measured, expected_measurements(&trials, 2));

        let stats = fabric.stats().unwrap();
        assert_eq!(stats.fallbacks, 2, "every shard fell back");
        assert_eq!(stats.crashes, 4, "two attempts per shard failed");
        assert_eq!(stats.retries, 2, "one retry per shard before giving up");
        assert_eq!(stats.spawns, 0, "spawn never succeeded");

        let names: Vec<String> = fabric
            .tracer()
            .snapshot()
            .into_iter()
            .map(|e| e.name)
            .collect();
        for expected in ["crash", "retry", "in_process"] {
            assert!(names.iter().any(|n| n == expected), "no {expected} event");
        }
    }

    #[test]
    fn crashing_worker_exe_degrades_to_in_process_execution() {
        // `/bin/false` exits immediately without speaking the protocol:
        // the pipe closes before a result, every attempt fails, and the
        // in-process fallback still delivers exact measurements.
        if !std::path::Path::new("/bin/false").exists() {
            return;
        }
        let trials = sample_trials(4);
        let now = Seconds::ZERO;
        let mut policy = fast_policy(2, 5.0);
        policy.worker_exe = Some(PathBuf::from("/bin/false"));
        let mut fabric = fabric(2, ShardExec::Process, policy);

        let measured = fabric
            .measure_rung(RungScope::default(), &backend(), now, &trials)
            .unwrap();
        assert_eq!(measured, expected_measurements(&trials, 2));
        let stats = fabric.stats().unwrap();
        assert_eq!(stats.fallbacks, 2);
        assert_eq!(stats.spawns, 4, "two spawn attempts per shard");
        assert!(stats.crashes >= 4);
    }

    #[test]
    fn default_policy_is_bounded_and_armed() {
        let policy = FabricPolicy::default();
        assert!(policy.retry.max_attempts >= 2);
        assert!(policy.validate().is_ok(), "the default deadline is armed");
    }
}
