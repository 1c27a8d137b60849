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
//!   measured elsewhere: it opens a link (a `__shard-worker` child's
//!   pipes, or a TCP session with a shard host), ships the task, and
//!   watches the frame stream under the `faults` crate's vocabulary — a
//!   [`Supervisor`] combining the heartbeat [`Deadline`] with a
//!   capped-jittered-backoff [`RetryPolicy`].
//!   Once the retry budget is spent it falls back to exactly what
//!   thread placement does. Whatever a worker does — SIGKILL, panic,
//!   hang, garbage on the wire — `measure_rung` returns the exact
//!   measurements direct execution would have produced.
//!
//! Telemetry (spawn/heartbeat/crash/retry/fallback/straggler events,
//! stamped with wall-clock offsets from the fabric's epoch) accumulates
//! on the fabric's **own** tracer, never the study tracer: study trace
//! bytes must stay identical across `--shard-exec thread|process|remote`.

use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use edgetune_faults::{Deadline, Fallback, RetryPolicy, Supervisor};
use edgetune_runtime::frame::{read_frame, write_frame, Frame, FrameKind};
use edgetune_runtime::parallel_map_ordered;
use edgetune_trace::Tracer;
use edgetune_tuner::budget::TrialBudget;
use edgetune_tuner::space::Config;
use edgetune_util::rng::SeedStream;
use edgetune_util::units::Seconds;
use serde::{Deserialize, Serialize};

use crate::backend::{BackendSpec, TrainingBackend, TrialMeasurement};
use crate::config::{EdgeTuneConfig, ShardExec};
use crate::engine::shard::ShardPlan;
use crate::fabric::link::Dial;
use crate::fabric::protocol::{
    decode, encode, ChaosAction, RungScope, ShardHeartbeat, ShardResultMsg, ShardTask, TaskTrial,
    WorkerFailure,
};
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
    /// Retry budget (capped jittered backoff) plus the per-frame
    /// heartbeat deadline — a worker silent for longer is treated as
    /// hung, killed, and retried. A shard that spends the budget is
    /// measured in-process.
    pub supervisor: Supervisor,
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
            supervisor: Supervisor::new(RetryPolicy {
                max_attempts: 3,
                base_delay: Seconds::new(0.05),
                multiplier: 2.0,
                max_delay: Seconds::new(0.5),
                jitter: 0.5,
            })
            .with_deadline(Deadline::new(Seconds::new(30.0))),
            worker_exe: None,
            chaos: None,
        }
    }
}

/// What the fabric did, over the whole study. All zeros when every
/// worker behaved on its first attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FabricStats {
    /// Links opened: worker processes spawned or host sessions accepted
    /// (every attempt counts).
    pub spawns: u64,
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

/// The rung executor. One instance measures every rung of a study,
/// accumulating supervision stats and telemetry across rungs.
pub struct ShardFabric {
    shards: usize,
    /// How supervised attempts reach their executor; `None` is thread
    /// placement, where a shard's only step is the direct measurement.
    dial: Option<Dial>,
    supervisor: Supervisor,
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
            .field("supervisor", &self.supervisor)
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
            supervisor: policy.supervisor,
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
            // The backoff jitter stream is supervisor-local by
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
                        if self.supervisor.give_up(attempt) {
                            stats.fallbacks += 1;
                            events.push(FabricEvent::instant(
                                Fallback::InProcess.trace_label(),
                                self.offset(),
                                vec![("after_attempts".to_string(), attempt.to_string())],
                            ));
                            break;
                        }
                        stats.retries += 1;
                        let delay = self.supervisor.backoff(attempt, shard_seed, draw);
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

    /// One supervised attempt, the same for every link: open it, ship
    /// the task, pump the read half into [`watch`](Self::watch) from a
    /// reader thread, close it. The legs (open, send, wait for the
    /// result) are recorded as spans on the fabric tracer.
    fn run_attempt(
        &self,
        dial: &Dial,
        study: u64,
        task: &ShardTask,
        events: &mut Vec<FabricEvent>,
        stats: &mut FabricStats,
    ) -> AttemptEnd {
        // A dead address must fail within the heartbeat deadline's
        // order of magnitude, not hang the rung.
        let connect_timeout = self
            .supervisor
            .deadline
            .map_or(Duration::from_secs(5), |d| {
                Duration::from_secs_f64(d.limit.value().clamp(0.1, 30.0))
            });
        let attempt_arg = || vec![("attempt".to_string(), task.attempt.to_string())];

        let open_from = self.offset();
        let mut link = match dial.open(task.plan.shard, study, &task.spec, connect_timeout) {
            Ok(link) => link,
            Err(reason) => return AttemptEnd::failed(reason),
        };
        // An opened link is the fabric's unit of spawning: one worker
        // process, or one accepted host session.
        stats.spawns += 1;
        events.push(FabricEvent::span(
            "spawn",
            open_from,
            self.offset(),
            attempt_arg(),
        ));

        let send_from = self.offset();
        let sent = write_frame(&mut link.writer(), FrameKind::Task, &encode(task))
            .map_err(|e| format!("sending task: {e}"))
            .and_then(|()| link.reader());
        let reader = match sent {
            Ok(reader) => reader,
            Err(reason) => {
                link.close(true);
                return AttemptEnd::failed(reason);
            }
        };
        events.push(FabricEvent::span(
            "send",
            send_from,
            self.offset(),
            vec![("trials".to_string(), task.trials.len().to_string())],
        ));

        // Reader thread: pump frames into a channel so the supervisor
        // can wait with a timeout. The sender dropping (EOF, torn frame,
        // killed worker) surfaces as a disconnect.
        let (tx, rx) = mpsc::channel::<Frame>();
        let pump = std::thread::spawn(move || {
            let mut reader = reader;
            while let Ok(Some(frame)) = read_frame(&mut reader) {
                if tx.send(frame).is_err() {
                    break;
                }
            }
        });

        let recv_from = self.offset();
        let end = self.watch(&rx, task.trials.len(), events, stats);
        events.push(FabricEvent::span(
            "recv",
            recv_from,
            self.offset(),
            attempt_arg(),
        ));

        // Closing ends the read half's stream, so the pump can be joined
        // without waiting on the peer.
        link.close(matches!(end, AttemptEnd::Failed { .. }));
        let _ = pump.join();
        end
    }

    /// Watches one attempt's frame stream under the heartbeat deadline.
    /// Link-agnostic: every attempt pumps its frames into a channel and
    /// waits here, so a hung host and a hung worker are classified
    /// identically.
    fn watch(
        &self,
        rx: &mpsc::Receiver<Frame>,
        expected: usize,
        events: &mut Vec<FabricEvent>,
        stats: &mut FabricStats,
    ) -> AttemptEnd {
        let timeout = self
            .supervisor
            .deadline
            .map(|d| Duration::from_secs_f64(d.limit.value().max(0.0)));
        loop {
            let received = match timeout {
                Some(timeout) => rx.recv_timeout(timeout),
                None => rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected),
            };
            match received {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::fixtures::{backend, expected_measurements, sample_trials, task_for};
    use crate::fabric::link::Link;
    use edgetune_runtime::frame::encode_frame;
    use edgetune_workloads::catalog::WorkloadId;
    use std::io::{Cursor, Read, Write};
    use std::sync::atomic::{AtomicU32, Ordering};

    fn fabric(shards: usize, exec: ShardExec, policy: FabricPolicy) -> ShardFabric {
        ShardFabric::new(
            &EdgeTuneConfig::for_workload(WorkloadId::Ic)
                .with_study_shards(shards)
                .with_shard_exec(exec)
                .with_fabric_policy(policy)
                .with_seed(9),
        )
    }

    fn fast_policy(max_attempts: u32, deadline_s: f64) -> FabricPolicy {
        FabricPolicy {
            supervisor: Supervisor::new(RetryPolicy {
                max_attempts,
                base_delay: Seconds::new(0.005),
                multiplier: 1.0,
                max_delay: Seconds::new(0.01),
                jitter: 0.0,
            })
            .with_deadline(Deadline::new(Seconds::new(deadline_s))),
            ..FabricPolicy::default()
        }
    }

    /// An in-memory link: whatever is written disappears, and the read
    /// half yields pre-encoded frame bytes, then either ends (`hold`
    /// false — the peer hung up) or stays silent until the link is
    /// closed (`hold` true — the peer hung).
    struct ScriptedLink {
        sink: Vec<u8>,
        script: Option<Vec<u8>>,
        hold: bool,
        open: Option<mpsc::Sender<()>>,
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

        fn close(self: Box<Self>, _failed: bool) {}
    }

    fn scripted(script: Vec<u8>, hold: bool) -> Box<dyn Link> {
        Box::new(ScriptedLink {
            sink: Vec::new(),
            script: Some(script),
            hold,
            open: None,
        })
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
                crashes: 3,
                retries: 2,
                fallbacks: 1,
                ..FabricStats::default()
            })
        );
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
        use edgetune_faults::{FaultInjector, FaultPlan};
        let trials = sample_trials(4);
        let mut single = fabric(1, ShardExec::Process, FabricPolicy::default());
        assert!(single
            .measure_rung(RungScope::default(), &backend(), Seconds::ZERO, &trials)
            .is_none());
        assert_eq!(single.stats(), None);

        let chaotic = backend().with_fault_injector(FaultInjector::new(
            FaultPlan::uniform(0.3),
            SeedStream::new(1),
        ));
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
        assert!(policy.supervisor.retry.max_attempts >= 2);
        assert!(policy.supervisor.deadline.is_some());
    }
}
