//! The rung executor: partition, place, supervise, degrade.
//!
//! [`ShardFabric::measure_rung`] is the one way a rung's trials are
//! measured side by side on the host, and the one place that decides
//! whether they are: it partitions the rung into [`ShardPlan`]s, pairs
//! each plan with a backend snapshot — that pair is all a shard is — and
//! returns the measurements in input order, or declines the rung.
//! *How many* plans is `study_shards`; *where* a plan's slice is
//! measured is [`ShardExec`]:
//!
//! * `Thread` — each shard measures its slice directly on a scoped
//!   thread of its own. No frames, no serde, nothing to supervise.
//! * `Process` / `Remote` — the slices are measured elsewhere and the
//!   calling thread supervises them all: it sends every shard's task
//!   over the shard's link (a `__shard-worker` child's socket, or a TCP
//!   session with a shard host), then reads the links in shard order,
//!   each under its shard's heartbeat deadline. Failed shards are
//!   retried in rounds under a built-in capped-jittered-backoff
//!   [`RetryPolicy`] (three attempts, 50 ms then 100 ms apart before
//!   jitter); a shard that spends the budget falls back to exactly what
//!   thread placement does, on the calling thread. Whatever a worker does —
//!   SIGKILL, panic, hang, garbage on the wire — `measure_rung` returns
//!   the exact measurements direct execution would have produced.
//!
//! A shard's deadline runs from its send, or from the last frame read
//! off its link if that is later, and a read waits only for what is
//! left of it (at least 1 ms). What a worker sent while a
//! sibling was being read waits in its socket and is read at once, so
//! shards that hang together time out together: reading the links in
//! turn never adds their deadlines up.
//!
//! A shard keeps one link per study: the fabric opens it on the shard's
//! first attempt, hands it every later rung, and reopens it only after
//! an attempt on it failed — a failed link is torn down, never reused.
//! Dropping the fabric closes whatever links are still open.
//!
//! Telemetry (spawn/send/recv spans and heartbeat/result/crash/retry/
//! fallback instants, stamped with wall-clock offsets from the fabric's
//! epoch) goes to the fabric's **own** tracer, never the study tracer:
//! study trace bytes must stay identical across
//! `--shard-exec thread|process|remote`.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use edgetune_faults::RetryPolicy;
use edgetune_runtime::frame::FrameKind;
use edgetune_trace::Tracer;
use edgetune_tuner::budget::TrialBudget;
use edgetune_tuner::space::Config;
use edgetune_util::rng::SeedStream;
use edgetune_util::units::Seconds;
use edgetune_util::Error;

use crate::backend::{BackendSpec, TrainingBackend, TrialMeasurement};
use crate::config::{EdgeTuneConfig, ShardExec};
use crate::engine::shard::ShardPlan;
use crate::fabric::link::{Dial, Link, Recv};
use crate::fabric::protocol::{
    decode, encode, ChaosAction, RungScope, ShardHeartbeat, ShardResultMsg, ShardTask, TaskTrial,
    WorkerFailure,
};
use crate::fabric::worker::HEARTBEAT_EVERY;
use crate::trace::{CAT_FABRIC, PROCESS_FABRIC};

/// The shortest wait a link read is given. What is left of a deadline
/// may be nothing, and a socket read timeout cannot be zero; a frame
/// that has already arrived is read within it.
const MIN_WAIT: Duration = Duration::from_millis(1);

/// A planted fault for chaos-testing the fabric's own containment: the
/// targeted shard executes `action` mid-rung on its **first** attempt,
/// so the run exercises crash → retry → clean completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricChaos {
    /// Shard index the fault is planted in.
    pub shard: usize,
    /// What the worker does to itself.
    pub action: ChaosAction,
}

/// The built-in retry budget (capped jittered backoff) for a failed
/// shard attempt: three attempts, the retries 50 ms then 100 ms apart
/// before jitter. A shard that spends it is measured in-process. No
/// program chooses another; unit tests shorten it on the fabric.
const FABRIC_RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 3,
    base_delay: Seconds::new(0.05),
    multiplier: 2.0,
    max_delay: Seconds::new(0.5),
    jitter: 0.5,
};

/// How the fabric supervises the workers of a `Process` or `Remote`
/// placement. Thread placement has nothing to supervise and ignores it.
/// Failed attempts are retried under a built-in budget (see the module
/// docs).
#[derive(Debug, Clone, PartialEq)]
pub struct FabricPolicy {
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
            deadline: Seconds::new(30.0),
            worker_exe: None,
            chaos: None,
        }
    }
}

impl FabricPolicy {
    /// Checks the deadline the fabric turns into timeouts, so a study
    /// with a policy the fabric cannot honour fails before it starts.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] naming `fabric.deadline`.
    pub(crate) fn validate(&self) -> edgetune_util::Result<()> {
        let limit = self.deadline.value();
        if !(limit.is_finite() && limit > HEARTBEAT_EVERY.as_secs_f64()) {
            return Err(Error::invalid_config(format!(
                "fabric.deadline must be finite and longer than the \
                 {HEARTBEAT_EVERY:?} heartbeat interval, got {limit} s"
            )));
        }
        Ok(())
    }
}

/// What the fabric did, over the whole study. All zeros when every
/// worker behaved on its first attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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
    /// Worker failures observed (crash, dead link, error frame).
    pub crashes: u64,
    /// Heartbeat deadlines that fired (a subset of `crashes`).
    pub timeouts: u64,
    /// Respawns performed under the retry budget.
    pub retries: u64,
    /// Shards that exhausted the budget and ran in-process.
    pub fallbacks: u64,
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
    /// One slot per shard index a rung has used: the shard's open link
    /// between its attempts, empty before the first and after a failed
    /// one. A rung never has more plans than trials, so the slots grow
    /// with the rungs, not with `shards`.
    links: Vec<Option<Box<dyn Link>>>,
    /// `FABRIC_RETRY`; a field only so unit tests can shorten it.
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
            links: Vec::new(),
            retry: FABRIC_RETRY,
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

    /// Measures one rung, one backend snapshot per [`ShardPlan`]. The
    /// returned measurements are always the full rung, in input order,
    /// bit-identical to sequential execution: a supervised shard whose
    /// workers exhaust the retry budget is measured on its snapshot after
    /// all.
    ///
    /// Returns `None` — the caller measures sequentially — unless the
    /// rung splits into at least two plans (two shards and two trials)
    /// and the backend snapshots itself once per plan. A backend under
    /// fault injection declines (its injector's draw cursor must stay
    /// strictly sequential), which keeps chaos runs shard-count-invariant.
    /// A backend that snapshots but has no
    /// [`process_spec`](TrainingBackend::process_spec) cannot cross a
    /// process boundary; its shards are measured on threads under every
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
        if self.shards.min(trials.len()) < 2 {
            return None;
        }
        let plans = ShardPlan::partition(trials.len(), self.shards);
        let snapshots = plans
            .iter()
            .map(|_| backend.parallel_snapshot())
            .collect::<Option<Vec<_>>>()?;
        if let Some(spec) = self.dial.as_ref().and_then(|_| backend.process_spec()) {
            return Some(self.supervise(scope, &plans, spec, now, trials, snapshots));
        }
        // One scoped thread per plan, each on its own snapshot, joined
        // in plan order: the measurements come back in input order.
        Some(std::thread::scope(|threads| {
            let shards: Vec<_> = plans
                .iter()
                .zip(snapshots)
                .map(|(plan, mut snapshot)| {
                    threads.spawn(move || measure_directly(&mut *snapshot, plan.slice(trials)))
                })
                .collect();
            shards
                .into_iter()
                .flat_map(|shard| {
                    shard
                        .join()
                        .unwrap_or_else(|e| std::panic::resume_unwind(e))
                })
                .collect()
        }))
    }

    /// Has `plans` measured elsewhere, supervised from the calling
    /// thread. Each round sends the task of every shard still pending,
    /// then reads their answers in shard order; the shards that failed
    /// sleep the longest backoff any of them drew and go again, until
    /// each has answered or spent the retry budget. A spent shard is
    /// measured on its snapshot, as thread placement would have.
    fn supervise(
        &mut self,
        scope: RungScope,
        plans: &[ShardPlan],
        spec: BackendSpec,
        now: Seconds,
        trials: &[(u64, Config, TrialBudget)],
        mut snapshots: Vec<Box<dyn TrainingBackend + Send>>,
    ) -> Vec<TrialMeasurement> {
        let keyed = self.dial.as_ref().is_some_and(Dial::outlives_attempts);
        let mut tasks: Vec<ShardTask> = plans
            .iter()
            .map(|&plan| ShardTask {
                attempt: 1,
                plan,
                spec: spec.clone(),
                now,
                trials: plan
                    .slice(trials)
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
                key: keyed.then(|| scope.key_for(plan.shard)),
            })
            .collect();
        let mut measured: Vec<Vec<TrialMeasurement>> = plans.iter().map(|_| Vec::new()).collect();
        let mut pending: Vec<usize> = (0..plans.len()).collect();
        let mut spent = Vec::new();
        let mut attempt = 1;
        loop {
            let sent: Vec<_> = pending
                .iter()
                .map(|&shard| self.send(scope.study, &tasks[shard]))
                .collect();
            let mut failed = Vec::new();
            let mut backoff: f64 = 0.0;
            for (&shard, sent) in pending.iter().zip(sent) {
                let end = match sent {
                    Ok((link, sent_at)) => self.collect(&tasks[shard], link, sent_at),
                    Err(reason) => AttemptEnd::failed(reason),
                };
                let attempt_arg = ("attempt".to_string(), attempt.to_string());
                match end {
                    AttemptEnd::Done(measurements) => {
                        self.instant(shard, "result", vec![attempt_arg]);
                        measured[shard] = measurements;
                    }
                    AttemptEnd::Failed { reason, timed_out } => {
                        self.stats.crashes += 1;
                        self.stats.timeouts += u64::from(timed_out);
                        self.instant(
                            shard,
                            "crash",
                            vec![attempt_arg.clone(), ("reason".to_string(), reason)],
                        );
                        if self.retry.exhausted(attempt) {
                            spent.push(shard);
                            continue;
                        }
                        self.stats.retries += 1;
                        // The backoff jitter stream is fabric-local by
                        // construction: it derives from the fabric's own
                        // seed child, never from the study's trial
                        // streams, so however many reconnects happen the
                        // study bytes cannot move.
                        let shard_seed = self.seed.child_indexed("shard", shard as u64);
                        let delay = self
                            .retry
                            .delay(attempt, shard_seed, u64::from(attempt - 1))
                            .value();
                        self.instant(
                            shard,
                            "retry",
                            vec![
                                attempt_arg,
                                ("backoff_s".to_string(), format!("{delay:.3}")),
                            ],
                        );
                        backoff = backoff.max(delay);
                        failed.push(shard);
                    }
                }
            }
            if failed.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_secs_f64(backoff.max(0.0)));
            attempt += 1;
            for &shard in &failed {
                tasks[shard].attempt = attempt;
                tasks[shard].chaos = None;
            }
            pending = failed;
        }
        for shard in spent {
            self.stats.fallbacks += 1;
            self.instant(
                shard,
                "in_process",
                vec![(
                    "after_attempts".to_string(),
                    tasks[shard].attempt.to_string(),
                )],
            );
            measured[shard] = measure_directly(&mut *snapshots[shard], plans[shard].slice(trials));
        }
        measured.into_iter().flatten().collect()
    }

    /// Sends `task` over its shard's link, opening one if the shard has
    /// none: the link and when the task left it, or why it could not
    /// leave (a link the send failed on is torn down). Opening and
    /// sending are recorded as spans.
    fn send(&mut self, study: u64, task: &ShardTask) -> Result<(Box<dyn Link>, Instant), String> {
        let shard = task.plan.shard;
        if self.links.len() <= shard {
            self.links.resize_with(shard + 1, || None);
        }
        let mut link = match self.links[shard].take() {
            Some(link) => link,
            None => {
                let dial = self.dial.as_ref().ok_or("thread placement has no links")?;
                // A dead address must fail within the heartbeat
                // deadline's order of magnitude, not hang the rung.
                let connect_timeout = self
                    .deadline
                    .clamp(Duration::from_millis(100), Duration::from_secs(30));
                let open_from = self.offset();
                let link = dial.open(shard, study, &task.spec, connect_timeout)?;
                self.stats.links += 1;
                self.span(shard, "spawn", open_from, attempt_arg(task));
                link
            }
        };
        self.stats.spawns += 1;
        let send_from = self.offset();
        if let Err(e) = link.send(FrameKind::Task, &encode(task)) {
            link.close(true);
            return Err(format!("sending task: {e}"));
        }
        self.span(
            shard,
            "send",
            send_from,
            vec![("trials".to_string(), task.trials.len().to_string())],
        );
        Ok((link, Instant::now()))
    }

    /// Reads the answer to `task`, sent on `link` at `since`, one frame
    /// at a time: each read waits for what is left of the heartbeat
    /// deadline, and every frame read restarts it. A finished attempt
    /// puts the link back for the shard's next rung; a failed one tears
    /// it down, so a retry always starts on a fresh link.
    fn collect(
        &mut self,
        task: &ShardTask,
        mut link: Box<dyn Link>,
        mut since: Instant,
    ) -> AttemptEnd {
        let shard = task.plan.shard;
        let recv_from = self.offset();
        let end = loop {
            let wait = self.deadline.saturating_sub(since.elapsed()).max(MIN_WAIT);
            let frame = match link.recv(wait) {
                Recv::Frame(frame) => frame,
                Recv::Silent => {
                    break AttemptEnd::Failed {
                        reason: "heartbeat deadline exceeded".to_string(),
                        timed_out: true,
                    }
                }
                Recv::Ended => break AttemptEnd::failed("worker pipe closed before result"),
                Recv::Refused(reason) => break AttemptEnd::failed(reason),
            };
            since = Instant::now();
            match frame.kind {
                FrameKind::Heartbeat => match decode::<ShardHeartbeat>(&frame.payload) {
                    Ok(heartbeat) => {
                        self.stats.heartbeats += 1;
                        self.instant(
                            shard,
                            "heartbeat",
                            vec![("completed".to_string(), heartbeat.completed.to_string())],
                        );
                    }
                    Err(e) => break AttemptEnd::failed(format!("undecodable heartbeat: {e}")),
                },
                FrameKind::Result => {
                    break match decode::<ShardResultMsg>(&frame.payload) {
                        Ok(result) if result.measurements.len() == task.trials.len() => {
                            AttemptEnd::Done(result.measurements)
                        }
                        Ok(result) => AttemptEnd::failed(format!(
                            "short result: {} of {} measurements",
                            result.measurements.len(),
                            task.trials.len()
                        )),
                        Err(e) => AttemptEnd::failed(format!("undecodable result: {e}")),
                    };
                }
                FrameKind::Error => {
                    break AttemptEnd::failed(
                        decode::<WorkerFailure>(&frame.payload).map_or_else(
                            |e| format!("undecodable error frame: {e}"),
                            |f| f.message,
                        ),
                    );
                }
                FrameKind::Task | FrameKind::Hello | FrameKind::HelloAck => {
                    break AttemptEnd::failed(format!(
                        "worker sent an unexpected {:?} frame",
                        frame.kind
                    ));
                }
            }
        };
        self.span(shard, "recv", recv_from, attempt_arg(task));
        match end {
            AttemptEnd::Done(_) => self.links[shard] = Some(link),
            AttemptEnd::Failed { .. } => link.close(true),
        }
        end
    }

    /// Wall-clock offset since the fabric was created, the timestamp
    /// domain of its telemetry.
    fn offset(&self) -> Seconds {
        Seconds::new(self.epoch.elapsed().as_secs_f64())
    }

    /// Records an instant, now, on shard `shard`'s telemetry track.
    fn instant(&self, shard: usize, name: &str, args: Vec<(String, String)>) {
        let track = self.tracer.track(PROCESS_FABRIC, &format!("shard-{shard}"));
        self.tracer
            .instant_with_args(track, name, CAT_FABRIC, self.offset(), args);
    }

    /// Records a span from `from` until now on shard `shard`'s track.
    fn span(&self, shard: usize, name: &str, from: Seconds, args: Vec<(String, String)>) {
        let track = self.tracer.track(PROCESS_FABRIC, &format!("shard-{shard}"));
        self.tracer
            .span_with_args(track, name, CAT_FABRIC, from, self.offset(), args);
    }
}

/// A telemetry argument naming `task`'s attempt.
fn attempt_arg(task: &ShardTask) -> Vec<(String, String)> {
    vec![("attempt".to_string(), task.attempt.to_string())]
}

/// Measures `slice` on `snapshot`, in order: thread placement's whole
/// job and every supervised shard's last resort.
fn measure_directly(
    snapshot: &mut dyn TrainingBackend,
    slice: &[(u64, Config, TrialBudget)],
) -> Vec<TrialMeasurement> {
    slice
        .iter()
        .map(|(_, config, budget)| snapshot.run_trial(config, *budget))
        .collect()
}

impl Drop for ShardFabric {
    /// Closes every link still open, however the study ended: a worker
    /// sees its stdin end, exits and is reaped; a host session is shut
    /// down. No worker outlives the study.
    fn drop(&mut self) {
        for link in self.links.drain(..).flatten() {
            link.close(false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::fixtures::{backend, expected_measurements, sample_trials, task_for};
    use edgetune_runtime::frame::{encode_frame, read_frame, write_frame};
    use edgetune_workloads::catalog::WorkloadId;
    use std::io::Cursor;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;

    fn fabric(shards: usize, exec: ShardExec, policy: FabricPolicy) -> ShardFabric {
        let mut config = EdgeTuneConfig::for_workload(WorkloadId::Ic)
            .with_study_shards(shards)
            .with_shard_exec(exec)
            .with_seed(9);
        config.fabric = policy;
        ShardFabric::new(&config)
    }

    /// The default policy with a `deadline_s` heartbeat deadline.
    fn with_deadline(deadline_s: f64) -> FabricPolicy {
        FabricPolicy {
            deadline: Seconds::new(deadline_s),
            ..FabricPolicy::default()
        }
    }

    /// `fabric`, allowed `max_attempts` per shard, retried 5 ms apart.
    fn fast(mut fabric: ShardFabric, max_attempts: u32) -> ShardFabric {
        fabric.retry = RetryPolicy {
            max_attempts,
            base_delay: Seconds::new(0.005),
            multiplier: 1.0,
            max_delay: Seconds::new(0.01),
            jitter: 0.0,
        };
        fabric
    }

    /// An in-memory link: whatever is sent collects in `sink`, and reads
    /// yield pre-encoded frame bytes at once, then either end (`hold`
    /// false — the peer hung up) or find nothing for the whole wait
    /// (`hold` true — the peer hung). A logged link reports the thread of
    /// every send and read, and its close, to `log`.
    struct ScriptedLink {
        sink: Vec<u8>,
        script: Cursor<Vec<u8>>,
        hold: bool,
        log: Option<(LinkId, SharedLog)>,
    }

    /// (shard, how many links that shard had opened before this one).
    type LinkId = (usize, usize);

    /// What logged links saw, in order.
    #[derive(Default)]
    struct LinkLog {
        closes: Vec<Closed>,
        /// The thread of every send and read.
        threads: Vec<ThreadId>,
    }

    type SharedLog = Arc<Mutex<LinkLog>>;

    #[derive(Debug, PartialEq)]
    struct Closed {
        link: LinkId,
        /// Task frames written to the link over its life.
        tasks: usize,
        failed: bool,
    }

    impl ScriptedLink {
        fn note_thread(&self) {
            if let Some((_, log)) = &self.log {
                log.lock()
                    .unwrap()
                    .threads
                    .push(std::thread::current().id());
            }
        }
    }

    impl Link for ScriptedLink {
        fn send(&mut self, kind: FrameKind, payload: &[u8]) -> Result<(), String> {
            self.note_thread();
            write_frame(&mut self.sink, kind, payload).map_err(|e| e.to_string())
        }

        fn recv(&mut self, wait: Duration) -> Recv {
            self.note_thread();
            match read_frame(&mut self.script) {
                Ok(Some(frame)) => Recv::Frame(frame),
                _ if self.hold => {
                    std::thread::sleep(wait);
                    Recv::Silent
                }
                _ => Recv::Ended,
            }
        }

        fn close(self: Box<Self>, failed: bool) {
            if let Some((link, log)) = &self.log {
                let mut written = self.sink.as_slice();
                let mut tasks = 0;
                while let Ok(Some(frame)) = read_frame(&mut written) {
                    assert_eq!(frame.kind, FrameKind::Task);
                    tasks += 1;
                }
                log.lock().unwrap().closes.push(Closed {
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
            script: Cursor::new(script),
            hold,
            log: None,
        })
    }

    /// A dial whose shard `s` hands out the links `links[s]` scripts, in
    /// order, each logging to the returned log; a shard that runs out
    /// cannot open.
    fn logged_dial(links: Vec<Vec<(Vec<u8>, bool)>>) -> (Dial, SharedLog) {
        let log = SharedLog::default();
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
                script: Cursor::new(script),
                hold,
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
    fn closes(log: &SharedLog) -> Vec<Closed> {
        let mut closes = std::mem::take(&mut log.lock().unwrap().closes);
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
        let mut fabric = fast(fabric(2, ShardExec::Process, with_deadline(deadline_s)), 1);
        let script = Mutex::new(Some(script));
        fabric.dial = Some(Dial::Scripted(Box::new(move |_shard| {
            Ok(scripted(script.lock().unwrap().take().unwrap(), hold))
        })));
        let task = task_for(&sample_trials(3), Seconds::ZERO, None);
        let end = match fabric.send(11, &task) {
            Ok((link, sent_at)) => fabric.collect(&task, link, sent_at),
            Err(reason) => AttemptEnd::failed(reason),
        };
        (end, fabric.stats)
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
        let mut fabric = fast(fabric(2, ShardExec::Process, with_deadline(5.0)), 2);
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
        let mut fabric = fast(
            fabric(shards, ShardExec::Process, with_deadline(deadline_s)),
            2,
        );
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
            .with(|_, events| events.to_vec())
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
            .with(|_, events| events.to_vec())
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
            assert!(fabric.tracer().with(|_, events| events.is_empty()));
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
        // A one-trial rung splits into one plan, however many shards.
        assert!(sharded
            .measure_rung(
                RungScope::default(),
                &backend(),
                Seconds::ZERO,
                &trials[..1]
            )
            .is_none());
    }

    #[test]
    fn missing_worker_exe_degrades_to_in_process_execution() {
        let trials = sample_trials(5);
        let now = Seconds::new(7.0);
        let mut policy = with_deadline(5.0);
        policy.worker_exe = Some(PathBuf::from("/nonexistent/edgetune-worker"));
        let mut fabric = fast(fabric(2, ShardExec::Process, policy), 2);

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
            .with(|_, events| events.to_vec())
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
        let mut policy = with_deadline(5.0);
        policy.worker_exe = Some(PathBuf::from("/bin/false"));
        let mut fabric = fast(fabric(2, ShardExec::Process, policy), 2);

        let measured = fabric
            .measure_rung(RungScope::default(), &backend(), now, &trials)
            .unwrap();
        assert_eq!(measured, expected_measurements(&trials, 2));
        let stats = fabric.stats().unwrap();
        assert_eq!(stats.fallbacks, 2);
        assert_eq!(stats.spawns, 4, "two spawn attempts per shard");
        assert!(stats.crashes >= 4);
        assert_eq!(stats.timeouts, 0, "a dead worker reads as end-of-stream");
    }

    #[test]
    fn an_undecodable_heartbeat_fails_the_attempt() {
        let script = encode_frame(FrameKind::Heartbeat, b"not json");
        let (end, stats) = attempt_over(script, true, 5.0);
        let (reason, timed_out) = failure(end);
        assert!(reason.starts_with("undecodable heartbeat: "), "{reason}");
        assert!(!timed_out);
        assert_eq!(
            stats.heartbeats, 0,
            "a heartbeat that does not decode is no sign of life"
        );
    }

    #[test]
    fn a_supervised_rung_stays_on_the_calling_thread() {
        let trials = sample_trials(8);
        // Every shard's first link hangs up at once; its second answers.
        let (dial, log) = logged_dial(
            (0..4)
                .map(|shard| vec![(Vec::new(), false), (slice_result(&trials, 4, shard), true)])
                .collect(),
        );
        let mut fabric = scripted_fabric(4, dial, 5.0);
        measure_exactly(&mut fabric, &trials);
        let stats = fabric.stats().unwrap();
        assert_eq!((stats.spawns, stats.retries), (8, 4));
        let threads = std::mem::take(&mut log.lock().unwrap().threads);
        // A send and a read per attempt, two attempts per shard.
        assert_eq!(threads.len(), 16);
        let caller = std::thread::current().id();
        assert!(
            threads.iter().all(|&thread| thread == caller),
            "a link was used off the calling thread: {threads:?}"
        );
    }

    #[test]
    fn shards_that_hang_together_time_out_together() {
        let trials = sample_trials(4);
        let deadline = 0.4;
        // Both shards' first links go silent; their second ones answer.
        let (dial, _log) = logged_dial(
            (0..2)
                .map(|shard| vec![(Vec::new(), true), (slice_result(&trials, 2, shard), true)])
                .collect(),
        );
        let mut fabric = scripted_fabric(2, dial, deadline);
        let started = Instant::now();
        measure_exactly(&mut fabric, &trials);
        let took = started.elapsed().as_secs_f64();
        let stats = fabric.stats().unwrap();
        assert_eq!((stats.timeouts, stats.retries, stats.fallbacks), (2, 2, 0));
        assert!(took >= deadline, "the deadline never ran out: {took} s");
        // Read in turn, two deadlines would add up to 0.8 s.
        assert!(took < deadline + 0.2, "the hung shards took {took} s");
    }

    #[test]
    fn shards_dialing_a_silent_host_time_out_together_each_round() {
        // A listener nobody accepts from: the kernel completes every
        // connect, and no hello is ever answered.
        let silent = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let trials = sample_trials(4);
        let deadline = 0.3;
        let mut fabric = fast(fabric(2, ShardExec::Remote, with_deadline(deadline)), 2);
        fabric.dial = Some(Dial::Remote {
            hosts: vec![silent.local_addr().unwrap().to_string()],
        });
        let started = Instant::now();
        measure_exactly(&mut fabric, &trials);
        let took = started.elapsed().as_secs_f64();
        let stats = fabric.stats().unwrap();
        assert_eq!(
            (stats.links, stats.timeouts, stats.fallbacks),
            (4, 4, 2),
            "{stats:?}"
        );
        // Two rounds of one deadline each; waited for shard by shard,
        // the hellos would take four.
        assert!(
            took >= 2.0 * deadline,
            "the deadline never ran out: {took} s"
        );
        assert!(
            took < 2.0 * deadline + 0.25,
            "the silent host took {took} s"
        );
    }

    #[test]
    fn frames_a_shard_sent_while_a_sibling_was_read_are_consumed() {
        let trials = sample_trials(4);
        // Shard 0 hangs for the whole deadline; shard 1 answered at once,
        // so by the time it is read its own deadline has run out too.
        let (dial, _log) = logged_dial(vec![
            vec![(Vec::new(), true)],
            vec![(slice_result(&trials, 2, 1), true)],
        ]);
        let mut fabric = fast(fabric(2, ShardExec::Process, with_deadline(0.2)), 1);
        fabric.dial = Some(dial);
        measure_exactly(&mut fabric, &trials);
        let stats = fabric.stats().unwrap();
        assert_eq!(
            (stats.timeouts, stats.fallbacks),
            (1, 1),
            "only the hung shard timed out"
        );
    }

    #[test]
    fn default_policy_is_bounded_and_armed() {
        const { assert!(FABRIC_RETRY.max_attempts >= 2) };
        assert!(
            FabricPolicy::default().validate().is_ok(),
            "the default deadline is armed"
        );
    }
}
