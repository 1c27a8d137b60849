//! Configuration of an EdgeTune run.
//!
//! [`EdgeTuneConfig`] is the single builder-style knob surface of the
//! whole middleware: workload and edge device, objectives, budget and
//! scheduler shape, sampler choice, the ablation switches (cache,
//! pipelining), parallelism (real engine shards vs. simulated trial
//! slots), fault-injection and fault-tolerance policies, and
//! checkpoint/resume. The [`Engine`](crate::engine::Engine) consumes a
//! finished configuration; nothing here executes anything.

use std::path::PathBuf;

use edgetune_device::spec::DeviceSpec;
use edgetune_faults::{DegradationLadder, FaultPlan, Supervisor};
use edgetune_tuner::budget::BudgetPolicy;
use edgetune_tuner::pareto::ParetoTpeSampler;
use edgetune_tuner::sampler::{GridSampler, RandomSampler, Sampler, TpeSampler, WarmStartSampler};
use edgetune_tuner::scheduler::SchedulerConfig;
use edgetune_tuner::space::Config;
use edgetune_tuner::Metric;
use edgetune_util::rng::SeedStream;
use edgetune_workloads::catalog::WorkloadId;

use crate::fabric::FabricPolicy;

/// Where engine shards measure their slices when `study_shards > 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardExec {
    /// Scoped threads of the orchestrator process — the fastest path,
    /// no isolation.
    #[default]
    Thread,
    /// Supervised child worker processes
    /// ([`ShardFabric`](crate::fabric::ShardFabric)): a crashing
    /// backend kills one worker, never the study. Report and trace
    /// bytes are identical to thread mode.
    Process,
    /// Standing `edgetune shard-host` daemons dialed over TCP
    /// (requires [`shard_hosts`](EdgeTuneConfig::shard_hosts)). Same
    /// supervision, same bytes; a dead host degrades through retries to
    /// in-process execution.
    Remote,
}

impl ShardExec {
    /// Parses the CLI spelling (`thread` | `process` | `remote`).
    ///
    /// # Errors
    ///
    /// Returns the unrecognised input.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "thread" | "threads" => Ok(ShardExec::Thread),
            "process" | "processes" => Ok(ShardExec::Process),
            "remote" => Ok(ShardExec::Remote),
            other => Err(format!(
                "unknown shard executor '{other}' (expected 'thread', 'process' or 'remote')"
            )),
        }
    }
}

/// Which search strategy the Model Tuning Server uses (§4.2; the user
/// can pick per server, the default being BOHB = TPE + HyperBand).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplerKind {
    /// Exhaustive grid with the given per-dimension resolution.
    Grid(usize),
    /// Uniform random search.
    Random,
    /// Model-based TPE (BOHB's sampler).
    Tpe,
}

/// Complete configuration of an EdgeTune run.
#[derive(Debug, Clone)]
pub struct EdgeTuneConfig {
    /// The workload to tune (used by the default simulated backend).
    pub workload: WorkloadId,
    /// The edge device inference is tuned for.
    pub edge_device: DeviceSpec,
    /// Metric of the Model Tuning Server's ratio objective.
    pub train_metric: Metric,
    /// Metric of the Inference Tuning Server's objective.
    pub inference_metric: Metric,
    /// Budget policy for training trials.
    pub budget: BudgetPolicy,
    /// Scheduler shape (cohort size, η, rungs).
    pub scheduler: SchedulerConfig,
    /// Search strategy of the model server.
    pub sampler: SamplerKind,
    /// Use HyperBand brackets (BOHB-style) instead of one
    /// successive-halving bracket.
    pub hyperband: bool,
    /// Trials below this accuracy are infeasible, if set.
    pub accuracy_floor: Option<f64>,
    /// Load/save the historical inference cache at this path, if set.
    pub cache_path: Option<PathBuf>,
    /// Consult the historical cache (§3.4); disabling it is an ablation
    /// that re-tunes every architecture from scratch.
    pub historical_cache: bool,
    /// Pipeline inference tuning with training (Algorithm 1); disabling
    /// it is an ablation that runs every sweep on the critical path.
    pub pipelining: bool,
    /// Concurrent *simulated* training-trial slots on the model server
    /// (§3.1: "the model server can parallelize its tuning process").
    /// Trials of one scheduler rung are independent; with `n` slots the
    /// simulated makespan of a rung is its list-scheduled parallel
    /// length. Unlike [`study_shards`](EdgeTuneConfig::study_shards),
    /// this knob *changes* the reported makespan — it models a bigger
    /// tuning cluster, not a faster simulation.
    pub trial_slots: usize,
    /// *How many* of a rung's trials are measured side by side: the
    /// engine shards every rung is partitioned across. Each shard
    /// measures its contiguous slice on its own backend snapshot
    /// ([`ShardFabric`](crate::fabric::ShardFabric)), and the
    /// measurements are accounted in input order on the one sequential
    /// path. This is pure wall-clock engineering: every
    /// simulated number (makespan, energy, history, report JSON) and
    /// every checkpoint byte is identical whatever the count, so a
    /// study halted under one count resumes under any other. Backends
    /// opt in via
    /// [`TrainingBackend::parallel_snapshot`](crate::backend::TrainingBackend::parallel_snapshot);
    /// rungs fall back to sequential execution otherwise.
    pub study_shards: usize,
    /// *Where* engine shards measure: on scoped threads of this process
    /// (the default), in supervised child worker processes, or on
    /// remote shard hosts. Process and remote placement buy crash
    /// containment — a dying backend kills one worker, not the study —
    /// and never change a reported byte. Ignored unless
    /// `study_shards > 1`; backends without a
    /// [`process_spec`](crate::backend::TrainingBackend::process_spec)
    /// quietly measure on the shard threads.
    pub shard_exec: ShardExec,
    /// Supervision policy of the shard fabric: retry budget, heartbeat
    /// deadline, worker-executable override, and planted chaos. Only
    /// consulted in [`ShardExec::Process`] and [`ShardExec::Remote`]
    /// modes.
    pub fabric: FabricPolicy,
    /// `host:port` addresses of standing shard hosts, for
    /// [`ShardExec::Remote`]. Shard `i` dials
    /// `shard_hosts[i % shard_hosts.len()]`.
    pub shard_hosts: Vec<String>,
    /// Write the fabric's supervision telemetry (spawn/heartbeat/crash/
    /// retry instants, wall-clock offsets) as Chrome trace-event JSON
    /// here after the run, if set. Kept separate from
    /// [`trace_path`](EdgeTuneConfig::trace_path) because the study
    /// trace must stay byte-identical across execution modes.
    pub fabric_trace_path: Option<PathBuf>,
    /// Root randomness seed.
    pub seed: u64,
    /// Fault-injection plan for chaos runs. [`FaultPlan::none`] (the
    /// default) injects nothing and leaves every code path and report
    /// byte-identical to a fault-free build.
    pub fault_plan: FaultPlan,
    /// Retry/backoff/deadline policy the fault-tolerance layer applies to
    /// crashed trials and lost inference replies.
    pub supervisor: Supervisor,
    /// Ordered fallbacks when an inference reply is lost.
    pub degradation: DegradationLadder,
    /// Write a resumable study checkpoint here after every rung the
    /// study executes, if set.
    pub checkpoint_path: Option<PathBuf>,
    /// Resume from `checkpoint_path` when it exists. The checkpoint's
    /// [`StudyGlobals`](crate::checkpoint::StudyGlobals) — clock, cache,
    /// timeline, accounting, fault cursors — are reinstated as stored;
    /// only the scheduler's and sampler's own state is re-derived, by
    /// regenerating the trial stream from the seed and answering every
    /// checkpointed rung from the trial log (checked record by record,
    /// with no other effect). A checkpoint whose log does not match the
    /// regenerated stream belongs to a different study and is an
    /// [`Error::InvalidConfig`](edgetune_util::Error::InvalidConfig).
    pub resume: bool,
    /// Stop tuning after this many completed rungs, if set — the
    /// controlled "interruption" used to exercise checkpoint/resume.
    pub halt_after_rungs: Option<u32>,
    /// Write the study's Chrome trace-event JSON here after the run, if
    /// set. The trace is a reported artifact: byte-identical for a
    /// fixed seed whatever the `study_shards` count and `shard_exec`
    /// placement, and recording it never changes a report byte.
    pub trace_path: Option<PathBuf>,
    /// Configurations replayed by the sampler before its own strategy
    /// engages — the cross-study transfer half of a warm start. Empty
    /// (the default) leaves the sampler stream byte-identical to a
    /// build without this knob.
    pub warm_start: Vec<Config>,
    /// Pareto mode: when set, every trial carries an objective vector
    /// (accuracy, train cost, inference cost), rung promotion runs on
    /// dominance-front membership, TPE upgrades to the multi-objective
    /// hypervolume acquisition, and the report gains a `frontier`
    /// section with up to this many non-dominated configurations.
    /// `None` (the default) is scalar mode, byte-identical to a build
    /// without this knob.
    pub pareto: Option<usize>,
}

impl EdgeTuneConfig {
    /// The paper's default setup for a workload: BOHB (TPE + HyperBand),
    /// multi-budget, runtime objectives, Raspberry Pi 3B+ as the edge
    /// target.
    #[must_use]
    pub fn for_workload(workload: WorkloadId) -> Self {
        EdgeTuneConfig {
            workload,
            edge_device: DeviceSpec::raspberry_pi_3b(),
            train_metric: Metric::Runtime,
            inference_metric: Metric::Runtime,
            budget: BudgetPolicy::multi_default(),
            scheduler: SchedulerConfig::new(8, 2.0, 8),
            sampler: SamplerKind::Tpe,
            hyperband: true,
            accuracy_floor: None,
            cache_path: None,
            historical_cache: true,
            pipelining: true,
            trial_slots: 1,
            study_shards: 1,
            shard_exec: ShardExec::Thread,
            fabric: FabricPolicy::default(),
            shard_hosts: Vec::new(),
            fabric_trace_path: None,
            seed: SeedStream::default().seed(),
            fault_plan: FaultPlan::none(),
            supervisor: Supervisor::default(),
            degradation: DegradationLadder::default(),
            checkpoint_path: None,
            resume: false,
            halt_after_rungs: None,
            trace_path: None,
            warm_start: Vec::new(),
            pareto: None,
        }
    }

    /// Sets the edge device.
    #[must_use]
    pub fn with_edge_device(mut self, device: DeviceSpec) -> Self {
        self.edge_device = device;
        self
    }

    /// Sets both objectives' metric (runtime- vs energy-oriented run,
    /// the §5.4 comparison).
    #[must_use]
    pub fn with_metric(mut self, metric: Metric) -> Self {
        self.train_metric = metric;
        self.inference_metric = metric;
        self
    }

    /// Sets the budget policy.
    #[must_use]
    pub fn with_budget(mut self, budget: BudgetPolicy) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the scheduler shape.
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: SchedulerConfig) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Sets the sampler.
    #[must_use]
    pub fn with_sampler(mut self, sampler: SamplerKind) -> Self {
        self.sampler = sampler;
        self
    }

    /// Single successive-halving bracket instead of HyperBand.
    #[must_use]
    pub fn without_hyperband(mut self) -> Self {
        self.hyperband = false;
        self
    }

    /// Requires trials to reach at least this accuracy.
    #[must_use]
    pub fn with_accuracy_floor(mut self, floor: f64) -> Self {
        self.accuracy_floor = Some(floor);
        self
    }

    /// Persists the historical cache at `path`.
    #[must_use]
    pub fn with_cache_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.cache_path = Some(path.into());
        self
    }

    /// Disables the historical cache (ablation: every architecture is
    /// re-tuned on every trial).
    #[must_use]
    pub fn without_historical_cache(mut self) -> Self {
        self.historical_cache = false;
        self
    }

    /// Disables pipelining (ablation: inference sweeps run synchronously
    /// on the model server's critical path).
    #[must_use]
    pub fn without_pipelining(mut self) -> Self {
        self.pipelining = false;
        self
    }

    /// Sets the number of simulated concurrent trial slots: the modeled
    /// tuning cluster's width, which shrinks the *simulated* makespan of
    /// every rung to its list-scheduled parallel length.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    #[must_use]
    pub fn with_trial_slots(mut self, slots: usize) -> Self {
        assert!(slots >= 1, "need at least one trial slot");
        self.trial_slots = slots;
        self
    }

    /// Sets the number of engine shards the study is partitioned
    /// across — how many trials of a rung are measured at once.
    /// Affects wall-clock tuning speed only: sharding never changes a
    /// reported byte and, unlike
    /// [`with_trial_slots`](EdgeTuneConfig::with_trial_slots), does not
    /// model a wider cluster.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn with_study_shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one study shard");
        self.study_shards = shards;
        self
    }

    /// Selects where engine shards measure (threads, supervised worker
    /// processes, or remote shard hosts). A no-op unless
    /// [`with_study_shards`](EdgeTuneConfig::with_study_shards) asks
    /// for more than one shard.
    #[must_use]
    pub fn with_shard_exec(mut self, exec: ShardExec) -> Self {
        self.shard_exec = exec;
        self
    }

    /// Sets the shard-host addresses for [`ShardExec::Remote`] mode.
    #[must_use]
    pub fn with_shard_hosts(mut self, hosts: Vec<String>) -> Self {
        self.shard_hosts = hosts;
        self
    }

    /// Sets the shard fabric's supervision policy.
    #[must_use]
    pub fn with_fabric_policy(mut self, policy: FabricPolicy) -> Self {
        self.fabric = policy;
        self
    }

    /// Writes the fabric's supervision telemetry trace to `path` after
    /// the run.
    #[must_use]
    pub fn with_fabric_trace_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.fabric_trace_path = Some(path.into());
        self
    }

    /// Sets the root seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables fault injection under `plan` (a chaos run).
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Sets the retry/deadline policy of the fault-tolerance layer.
    #[must_use]
    pub fn with_supervisor(mut self, supervisor: Supervisor) -> Self {
        self.supervisor = supervisor;
        self
    }

    /// Sets the degradation ladder for lost inference replies.
    #[must_use]
    pub fn with_degradation(mut self, ladder: DegradationLadder) -> Self {
        self.degradation = ladder;
        self
    }

    /// Checkpoints the study at `path` after every rung it executes.
    #[must_use]
    pub fn with_checkpoint_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_path = Some(path.into());
        self
    }

    /// Resumes from the configured checkpoint path when it exists.
    #[must_use]
    pub fn resuming(mut self) -> Self {
        self.resume = true;
        self
    }

    /// Halts tuning after `rungs` completed rungs (a controlled
    /// interruption for checkpoint/resume testing).
    #[must_use]
    pub fn with_halt_after_rungs(mut self, rungs: u32) -> Self {
        self.halt_after_rungs = Some(rungs);
        self
    }

    /// Writes the study's Chrome trace-event JSON to `path` after the
    /// run (open it in `chrome://tracing` or Perfetto).
    #[must_use]
    pub fn with_trace_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace_path = Some(path.into());
        self
    }

    /// Seeds the sampler with transferred configurations, replayed
    /// before its own strategy engages (cross-study warm start).
    #[must_use]
    pub fn with_warm_start(mut self, configs: Vec<Config>) -> Self {
        self.warm_start = configs;
        self
    }

    /// Enables Pareto mode: multi-objective search whose report carries a
    /// frontier of up to `k` non-dominated configurations.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    #[must_use]
    pub fn with_pareto(mut self, k: usize) -> Self {
        assert!(k >= 1, "frontier capacity must be >= 1");
        self.pareto = Some(k);
        self
    }

    pub(crate) fn build_sampler(&self) -> Box<dyn Sampler> {
        let seed = SeedStream::new(self.seed).child("sampler");
        let inner: Box<dyn Sampler> = match self.sampler {
            SamplerKind::Grid(resolution) => Box::new(GridSampler::new(resolution)),
            SamplerKind::Random => Box::new(RandomSampler::new(seed)),
            // In Pareto mode the TPE model upgrades to the multi-objective
            // hypervolume acquisition; grid/random enumerate the same way
            // in either mode (the frontier is still assembled from their
            // vectored history).
            SamplerKind::Tpe if self.pareto.is_some() => Box::new(ParetoTpeSampler::new(seed)),
            SamplerKind::Tpe => Box::new(TpeSampler::new(seed)),
        };
        if self.warm_start.is_empty() {
            inner
        } else {
            Box::new(WarmStartSampler::new(self.warm_start.clone(), inner))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper_setup() {
        let config = EdgeTuneConfig::for_workload(WorkloadId::Ic);
        assert_eq!(config.sampler, SamplerKind::Tpe);
        assert!(config.hyperband);
        assert!(config.pipelining);
        assert!(config.historical_cache);
        assert_eq!(config.trial_slots, 1);
        assert_eq!(config.study_shards, 1);
    }

    #[test]
    fn study_shards_and_slots_are_independent_knobs() {
        let config = EdgeTuneConfig::for_workload(WorkloadId::Ic)
            .with_study_shards(4)
            .with_trial_slots(2);
        assert_eq!(config.study_shards, 4);
        assert_eq!(config.trial_slots, 2);
    }

    #[test]
    #[should_panic(expected = "at least one study shard")]
    fn zero_study_shards_are_rejected() {
        let _ = EdgeTuneConfig::for_workload(WorkloadId::Ic).with_study_shards(0);
    }

    #[test]
    #[should_panic(expected = "at least one trial slot")]
    fn zero_trial_slots_are_rejected() {
        let _ = EdgeTuneConfig::for_workload(WorkloadId::Ic).with_trial_slots(0);
    }
}
