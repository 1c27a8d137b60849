//! The onefold evaluator: one training trial coupled to its pipelined
//! inference request, plus all time accounting.
//!
//! Asynchrony is accounted, not threaded: the request is answered at
//! trial start on the evaluator's thread
//! ([`InferenceEndpoint::request`]) and its simulated cost is overlapped
//! with the trial's — only the sweep's excess over its trial stalls the
//! model server.
//!
//! Two orthogonal kinds of parallelism meet here:
//!
//! * **Simulated trial slots** (`trial_slots`) model a tuning cluster:
//!   a rung's trials are list-scheduled onto `n` slots and the study
//!   clock advances by the rung's makespan instead of the sum of trial
//!   durations. This *changes* the reported numbers — that is the point.
//! * **Engine shards** (`study_shards`, placed per `shard_exec`) merely
//!   speed up the measurement itself: when the backend can snapshot, the
//!   [`ShardFabric`] precomputes a rung's raw [`TrialMeasurement`]s
//!   concurrently — each shard measuring a contiguous slice on its own
//!   backend snapshot, on a thread, in a worker process or on a remote
//!   host — and they are then replayed through the exact sequential
//!   accounting path in input order. Cache hits, request sequence
//!   numbers, timeline entries and every clock reading are
//!   byte-identical to an unsharded run, so reports — and the per-rung
//!   checkpoint — never depend on the shard count or placement.
//!
//! All of the study's resumable state is the one [`StudyGlobals`] this
//! evaluator accumulates — simulated time included: it is a `Seconds`
//! (`globals.clock`) this evaluator, its owner, adds up, and no clock
//! object exists beside it. Every sequential trial advances it once, by
//! the exact `outcome.runtime` sum the trial records, and a
//! simulated-slot rung once, by the rung makespan. The Fig. 6 timeline
//! is part of it: each trial's spans are recorded into
//! `globals.timeline` and, when a study trace is being taken, emitted to
//! the tracer — an observer nothing reported reads back. The evaluator
//! only ever sees live rungs: a rung a resumed checkpoint's log answers
//! never reaches it (see [`crate::checkpoint`]). It holds no backend; the
//! running study lends it one per rung.

use edgetune_device::profile::WorkProfile;
use edgetune_faults::{RetryPolicy, TrialFault};
use edgetune_trace::Tracer;
use edgetune_tuner::budget::TrialBudget;
use edgetune_tuner::objective::{TrainMeasurement, TrainObjective};
use edgetune_tuner::pareto::ObjectiveVector;
use edgetune_tuner::scheduler::Rung;
use edgetune_tuner::space::Config;
use edgetune_tuner::trial::{History, TrialFailure, TrialOutcome};
use edgetune_util::rng::SeedStream;
use edgetune_util::units::{Joules, Seconds};

use crate::backend::{TrainingBackend, TrialMeasurement};
use crate::cache::CacheKey;
use crate::checkpoint::{StudyCheckpoint, StudyGlobals};
use crate::config::EdgeTuneConfig;
use crate::fabric::{RungScope, ShardFabric};
use crate::inference::{fallback_recommendation, InferenceEndpoint, InferenceReply};
use crate::timeline::Lane;
use crate::trace::{
    CAT_BRACKET, CAT_CACHE, CAT_FAULT, CAT_INFERENCE, CAT_MODEL, CAT_RUNG, PROCESS_FAULTS,
    PROCESS_INFERENCE, PROCESS_MODEL, PROCESS_SCHEDULER,
};

/// Evaluator wiring one training trial to its pipelined inference request.
#[derive(Debug)]
pub(crate) struct OnefoldEvaluator {
    /// The study's own copy of its configuration.
    pub(crate) config: EdgeTuneConfig,
    pub(crate) inference: InferenceEndpoint,
    pub(crate) objective: TrainObjective,
    /// The observer, present only when someone will read the study
    /// trace: every piece of time accounting is also emitted here as
    /// trace events. Write-only — nothing under `engine/` reads it back,
    /// so the report does not depend on whether it exists.
    pub(crate) tracer: Option<Tracer>,
    /// The rung executor: how many engine shards a rung is partitioned
    /// across and where they run (wall-clock only; see the module docs).
    pub(crate) executor: ShardFabric,
    /// The study's resumable state (see the module docs); its final
    /// `clock` reading is the makespan.
    pub(crate) globals: StudyGlobals,
    /// Whether the fault rate is positive. With `false` every
    /// fault-tolerance branch below is dead code and the evaluator
    /// behaves exactly like the pre-chaos implementation.
    pub(crate) faults_enabled: bool,
    /// The bracket whose span is open, and the span's start: opened by
    /// the bracket's first live rung, closed by the next bracket's or
    /// when the study finishes.
    pub(crate) bracket_open: Option<(u32, Seconds)>,
    /// Recycled per-rung working buffers (see [`RungScratch`]).
    pub(crate) scratch: RungScratch,
}

/// Per-rung working buffers the evaluator recycles across rungs: the
/// phase-A measurement slots and the simulated-slot load table. A rung
/// `mem::take`s a buffer (so `self` stays free to borrow), fills it, and
/// hands it back when done — steady-state rung execution then reuses one
/// allocation per buffer instead of churning a fresh `Vec` per rung.
#[derive(Debug, Default)]
pub(crate) struct RungScratch {
    measured: Vec<Option<TrialMeasurement>>,
    loads: Vec<Seconds>,
}

/// Everything one trial produced, before timeline/clock accounting.
struct TrialRun {
    outcome: TrialOutcome,
    arch: String,
    train_runtime: Seconds,
    sweep_runtime: Seconds,
    sweep_energy: Joules,
    stall: Seconds,
    cache_hit: bool,
}

impl OnefoldEvaluator {
    /// The jittered backoff of a retry under the built-in
    /// [`RetryPolicy::default`]. Draws are counted (in the globals) so
    /// retried operations never share a jitter value.
    fn next_backoff(&mut self, attempt: u32) -> Seconds {
        let draw = self.globals.backoff_draws;
        self.globals.backoff_draws += 1;
        let seed = SeedStream::new(self.config.seed).child("supervisor");
        RetryPolicy::default().delay(attempt, seed, draw)
    }

    /// Records one server-busy span: into the timeline the study
    /// reports, and — same label, same exact `Seconds` — onto the
    /// slot's track of the observing tracer, if any. Tracks are keyed to
    /// *simulated* structure, never to real threads or shards, so the
    /// trace stays byte-identical across `study_shards` and `shard_exec`
    /// (the same law the report obeys).
    fn busy_span(&mut self, lane: Lane, slot: usize, label: String, start: Seconds, end: Seconds) {
        if let Some(tracer) = &self.tracer {
            let (process, track, category) = match lane {
                Lane::ModelServer => (PROCESS_MODEL, format!("trial-slot-{slot}"), CAT_MODEL),
                Lane::InferenceServer => (
                    PROCESS_INFERENCE,
                    format!("sweep-slot-{slot}"),
                    CAT_INFERENCE,
                ),
            };
            let track = tracer.track(process, &track);
            tracer.span(track, label.as_str(), category, start, end);
        }
        self.globals.timeline.record(lane, label, start, end);
    }

    /// Emits a fault-injection / degradation instant on the shared
    /// faults track.
    fn fault_instant(&self, name: &str, ts: Seconds) {
        if let Some(tracer) = &self.tracer {
            let track = tracer.track(PROCESS_FAULTS, "events");
            tracer.instant(track, name, CAT_FAULT, ts);
        }
    }

    /// Samples the degradation counters onto the faults track, once any
    /// fault has fired.
    pub(crate) fn sample_degradation(&self) {
        if let Some(tracer) = &self.tracer {
            if !self.globals.degradation.is_empty() {
                let track = tracer.track(PROCESS_FAULTS, "events");
                tracer.counter(
                    track,
                    "degradation",
                    CAT_FAULT,
                    self.globals.clock,
                    self.globals.degradation.as_counters(),
                );
            }
        }
    }

    /// Closes the currently open bracket span, if any.
    pub(crate) fn close_bracket_span(&mut self) {
        if let (Some((bracket, start)), Some(tracer)) = (self.bracket_open.take(), &self.tracer) {
            let track = tracer.track(PROCESS_SCHEDULER, "brackets");
            tracer.span(
                track,
                format!("bracket-{bracket}"),
                CAT_BRACKET,
                start,
                self.globals.clock,
            );
        }
    }

    /// Recovers a lost inference reply by the built-in policy, in
    /// order: resubmit under [`RetryPolicy::default`], serve a stale
    /// cache entry, or fall back to the device-model default — which
    /// always answers. Returns the reply and the extra stall time the
    /// recovery cost.
    fn degrade(&mut self, key: &CacheKey, profile: WorkProfile) -> (InferenceReply, Seconds) {
        let mut extra = Seconds::ZERO;
        let mut attempt: u32 = 1;
        while !RetryPolicy::default().exhausted(attempt) {
            extra += self.next_backoff(attempt);
            self.globals.degradation.inference_retries += 1;
            self.fault_instant("retry", self.globals.clock);
            if let Some(reply) = self.inference.request(&mut self.globals, key, profile) {
                return (reply, extra);
            }
            self.globals.degradation.worker_losses += 1;
            self.fault_instant("worker-loss", self.globals.clock);
            attempt += 1;
        }
        if let Some(recommendation) = self.globals.cache.peek(key).cloned() {
            self.globals.degradation.stale_cache_served += 1;
            self.fault_instant("stale_cache", self.globals.clock);
            return (InferenceReply::from_history(recommendation), extra);
        }
        self.globals.degradation.default_recommendations += 1;
        self.fault_instant("device_default", self.globals.clock);
        let recommendation = fallback_recommendation(&self.config.edge_device, &profile);
        (InferenceReply::from_history(recommendation), extra)
    }

    /// Runs the training side of one trial under the built-in retry
    /// policy: injected crashes are retried with backoff until success
    /// or retry exhaustion. Returns the successful measurement (with the
    /// wasted time/energy of failed attempts folded in) or the failure to
    /// record. A `precomputed` measurement (from the sharded rung
    /// phase) substitutes for the first backend call.
    fn train_supervised(
        &mut self,
        backend: &mut dyn TrainingBackend,
        config: &Config,
        budget: TrialBudget,
        mut precomputed: Option<TrialMeasurement>,
    ) -> std::result::Result<(Seconds, Joules, f64), (TrialFailure, Seconds, Joules)> {
        let mut attempt: u32 = 1;
        let mut paid_runtime = Seconds::ZERO;
        let mut paid_energy = Joules::ZERO;
        // The trial's own time line: it starts at the study clock and
        // every crashed attempt's runtime and backoff is added to it. The
        // additions keep this order — the fault instants are stamped with
        // these exact partial sums, and `(start + a) + b` is not
        // `start + (a + b)` in `f64`, so regrouping them would move chaos
        // trace bytes.
        let mut now = self.globals.clock;
        loop {
            let trial = match precomputed.take() {
                Some(measurement) => measurement,
                None => backend.run_trial(config, budget),
            };
            match trial.injected {
                Some(TrialFault::Crash) => {
                    self.globals.degradation.trial_crashes += 1;
                    paid_runtime += trial.runtime;
                    paid_energy += trial.energy;
                    now += trial.runtime;
                    self.fault_instant("trial-crash", now);
                    if RetryPolicy::default().exhausted(attempt) {
                        self.globals.degradation.trials_skipped += 1;
                        self.fault_instant("trial-skipped", now);
                        return Err((TrialFailure::Crash, paid_runtime, paid_energy));
                    }
                    let backoff = self.next_backoff(attempt);
                    paid_runtime += backoff;
                    now += backoff;
                    self.globals.degradation.trial_retries += 1;
                    self.fault_instant("trial-retry", now);
                    attempt += 1;
                }
                Some(TrialFault::Straggle) => {
                    self.globals.degradation.trial_stragglers += 1;
                    self.fault_instant("trial-straggle", now);
                    return Ok((
                        paid_runtime + trial.runtime,
                        paid_energy + trial.energy,
                        trial.accuracy,
                    ));
                }
                None => {
                    return Ok((
                        paid_runtime + trial.runtime,
                        paid_energy + trial.energy,
                        trial.accuracy,
                    ));
                }
            }
        }
    }

    /// Runs one trial plus its pipelined inference request, with no
    /// global accounting.
    fn run_one(
        &mut self,
        backend: &mut dyn TrainingBackend,
        config: &Config,
        budget: TrialBudget,
        precomputed: Option<TrialMeasurement>,
    ) -> TrialRun {
        // (1) Fire the inference request as soon as the architecture is
        //     known — before training starts (Algorithm 1, line 6). It is
        //     answered here; the reply is collected after the trial.
        let (arch, profile) = backend.architecture(config);
        let key = CacheKey::new(
            self.config.edge_device.name.clone(),
            arch.clone(),
            self.config.inference_metric,
        );
        let pending = self.inference.request(&mut self.globals, &key, profile);

        // (2) Run the training trial (supervised when faults are active).
        let (train_runtime, train_energy, accuracy) =
            match self.train_supervised(backend, config, budget, precomputed) {
                Ok(success) => success,
                Err((failure, paid_runtime, paid_energy)) => {
                    // The trial is abandoned; still account its pipelined
                    // sweep so the sweep's energy is not silently lost.
                    let (sweep_runtime, sweep_energy, cache_hit) = match pending {
                        Some(reply) => (reply.runtime, reply.energy, reply.cache_hit),
                        None => (Seconds::ZERO, Joules::ZERO, true),
                    };
                    return TrialRun {
                        outcome: TrialOutcome::failed(
                            failure,
                            paid_runtime,
                            paid_energy + sweep_energy,
                        ),
                        arch,
                        train_runtime: paid_runtime,
                        sweep_runtime,
                        sweep_energy,
                        stall: Seconds::ZERO,
                        cache_hit,
                    };
                }
            };

        // (3) Collect the inference reply, degrading when it is lost.
        let (reply, extra_stall) = match pending {
            Some(reply) => (reply, Seconds::ZERO),
            None if self.faults_enabled => {
                self.globals.degradation.worker_losses += 1;
                self.fault_instant("worker-loss", self.globals.clock);
                self.degrade(&key, profile)
            }
            None => {
                // Fault-free: the sweep panicked — mark the trial
                // infeasible rather than crash the job (no marker).
                return TrialRun {
                    outcome: TrialOutcome::new(
                        f64::INFINITY,
                        accuracy,
                        train_runtime,
                        train_energy,
                    ),
                    arch,
                    train_runtime,
                    sweep_runtime: Seconds::ZERO,
                    sweep_energy: Joules::ZERO,
                    stall: Seconds::ZERO,
                    cache_hit: true,
                };
            }
        };
        // Pipelined: only the sweep's excess over its trial stalls the
        // model server. Synchronous (ablation): the whole sweep sits on
        // the critical path after the trial.
        let base_stall = if self.config.pipelining {
            Seconds::new((reply.runtime.value() - train_runtime.value()).max(0.0))
        } else {
            reply.runtime
        };
        let stall = base_stall + extra_stall;

        // (4) Combine both servers' metrics in the ratio objective.
        let measurement = TrainMeasurement {
            accuracy,
            train_time: train_runtime,
            train_energy,
            inference_time: Some(reply.recommendation.latency_per_item),
            inference_energy: Some(reply.recommendation.energy_per_item),
        };
        let score = self.objective.score(&measurement);
        let mut outcome = TrialOutcome::new(
            score,
            accuracy,
            train_runtime + stall,
            train_energy + reply.energy,
        );
        if self.config.pareto.is_some() {
            if let Some(vector) =
                ObjectiveVector::from_measurement(&measurement, self.objective.metric())
            {
                outcome = outcome.with_vector(vector);
            }
        }
        TrialRun {
            outcome,
            arch,
            train_runtime,
            sweep_runtime: reply.runtime,
            sweep_energy: reply.energy,
            stall,
            cache_hit: reply.cache_hit,
        }
    }

    /// Timeline/trace/clock accounting for one trial placed at `start`
    /// on a simulated `slot`. The order of the two `busy_span` calls is
    /// the report contract: the trial span leads and its sweep span
    /// follows immediately — even though a non-pipelined sweep *starts*
    /// later — which is the order the report's timeline JSON has always
    /// serialised.
    fn record(&mut self, id: u64, run: &TrialRun, start: Seconds, slot: usize) {
        let busy_end = start + run.train_runtime;
        self.busy_span(
            Lane::ModelServer,
            slot,
            format!("trial-{id}"),
            start,
            busy_end,
        );
        if !run.cache_hit && run.sweep_runtime.value() > 0.0 {
            // Summation order matters for the serialised end: the clock
            // advances by one `train + stall` sum, so a non-pipelined
            // sweep must end at `start + (train + sweep)` — computing
            // `(start + train) + sweep` instead can land one ulp past
            // the next trial's start and fake an overlap.
            let (sweep_start, sweep_end) = if self.config.pipelining {
                (start, start + run.sweep_runtime)
            } else {
                (busy_end, start + (run.train_runtime + run.sweep_runtime))
            };
            self.busy_span(
                Lane::InferenceServer,
                slot,
                run.arch.clone(),
                sweep_start,
                sweep_end,
            );
        }
        // Cache telemetry rides on its own track: a hit/miss instant per
        // trial plus a counter sample read from the cache's single
        // tally (the same numbers checkpoints persist).
        if let Some(tracer) = &self.tracer {
            let cache_track = tracer.track(PROCESS_INFERENCE, "historical-cache");
            let verdict = if run.cache_hit {
                "cache-hit"
            } else {
                "cache-miss"
            };
            tracer.instant(cache_track, verdict, CAT_CACHE, start);
            tracer.counter(
                cache_track,
                "historical-cache",
                CAT_CACHE,
                start,
                self.globals.cache_stats.as_counters(),
            );
        }
        self.globals.stall += run.stall;
        self.globals.inference_energy += run.sweep_energy;
    }

    /// Phase A of rung execution: have the rung executor measure the
    /// rung's trials side by side. Fills `measured` (a recycled scratch
    /// buffer) in input order, ready to be replayed through the unchanged
    /// sequential accounting path, and leaves it empty — sequential
    /// execution — when parallel measurement cannot help or would change
    /// results (fault injection makes trial fate order-dependent; the
    /// executor declines a single shard and a backend without snapshots).
    fn measure_rung(
        &mut self,
        backend: &dyn TrainingBackend,
        rung: &Rung,
        measured: &mut Vec<Option<TrialMeasurement>>,
    ) {
        measured.clear();
        if rung.trials.len() <= 1 || self.faults_enabled {
            return;
        }
        // The scope names this exact rung execution — a remote host's
        // idempotency key; the rung's ordinal is unique across brackets.
        let scope = RungScope {
            study: self.config.seed,
            bracket: rung.bracket,
            rung: rung.index,
        };
        if let Some(raw) =
            self.executor
                .measure_rung(scope, backend, self.globals.clock, &rung.trials)
        {
            measured.extend(raw.into_iter().map(Some));
        }
    }

    /// Evaluates one live rung, answering in input order, inside a
    /// scheduler-track rung span; a bracket's first live rung opens the
    /// bracket's span and closes the previous bracket's.
    pub(crate) fn evaluate_rung(
        &mut self,
        backend: &mut dyn TrainingBackend,
        rung: &Rung,
    ) -> Vec<TrialOutcome> {
        if self
            .bracket_open
            .is_some_and(|(bracket, _)| bracket != rung.bracket)
        {
            self.close_bracket_span();
        }
        let rung_start = self.globals.clock;
        self.bracket_open.get_or_insert((rung.bracket, rung_start));
        let outcomes = self.run_rung(backend, rung);
        if let Some(tracer) = &self.tracer {
            let rung_track = tracer.track(PROCESS_SCHEDULER, "rungs");
            tracer.span_with_args(
                rung_track,
                format!("rung-{}", rung.index),
                CAT_RUNG,
                rung_start,
                self.globals.clock,
                vec![("trials".to_string(), rung.trials.len().to_string())],
            );
        }
        outcomes
    }

    /// The boundary after a live rung joined `history`: samples the
    /// degradation counters and writes the checkpoint, if one is kept.
    pub(crate) fn rung_completed(&mut self, backend: &dyn TrainingBackend, history: &History) {
        if self.faults_enabled {
            self.sample_degradation();
        }
        if let Some(path) = &self.config.checkpoint_path {
            // The one share of the state held elsewhere: the backend's
            // fault cursor.
            self.globals.fault_cursor = backend.fault_cursor();
            let globals = std::mem::take(&mut self.globals);
            let checkpoint = StudyCheckpoint::new(self.config.seed, history, globals);
            // A failed checkpoint write must never kill the study: the
            // run is still correct, only resumability is lost.
            let _ = checkpoint.save(path);
            self.globals = checkpoint.globals;
        }
    }

    /// Executes one live rung — sequential, or simulated slots.
    fn run_rung(&mut self, backend: &mut dyn TrainingBackend, rung: &Rung) -> Vec<TrialOutcome> {
        // Phase A: engine shards precompute the measurements when that
        // is provably invisible in the results. The buffer is recycled
        // scratch (taken out of `self` so `run_one` stays free to borrow
        // it mutably) and is handed back once the rung is accounted.
        let mut measured = std::mem::take(&mut self.scratch.measured);
        self.measure_rung(backend, rung, &mut measured);
        let trials = &rung.trials;
        if self.config.trial_slots <= 1 || trials.len() <= 1 {
            // Phase B, one slot: the exact sequential accounting path.
            let outcomes = trials
                .iter()
                .enumerate()
                .map(|(index, (id, config, budget))| {
                    let precomputed = measured.get_mut(index).and_then(Option::take);
                    let run = self.run_one(backend, config, *budget, precomputed);
                    self.record(*id, &run, self.globals.clock, 0);
                    // One advance by the recorded runtime (`outcome.runtime`
                    // is computed as `train + stall` on every path).
                    self.globals.clock += run.outcome.runtime;
                    run.outcome
                })
                .collect();
            measured.clear();
            self.scratch.measured = measured;
            return outcomes;
        }
        // Phase B, simulated parallel slots: the rung's trials are
        // list-scheduled onto `trial_slots` slots; the rung advances
        // the clock by its makespan, not by the sum of trial durations.
        let runs: Vec<(u64, TrialRun)> = trials
            .iter()
            .enumerate()
            .map(|(index, (id, config, budget))| {
                let precomputed = measured.get_mut(index).and_then(Option::take);
                let run = self.run_one(backend, config, *budget, precomputed);
                (*id, run)
            })
            .collect();
        measured.clear();
        self.scratch.measured = measured;
        let rung_start = self.globals.clock;
        let mut loads = std::mem::take(&mut self.scratch.loads);
        loads.clear();
        // The scheduler takes the first least-loaded slot, so it never
        // reaches a slot past the rung's size: more would only cost memory.
        loads.resize(self.config.trial_slots.min(runs.len()), Seconds::ZERO);
        let mut outcomes = Vec::with_capacity(runs.len());
        for (id, run) in runs {
            let (slot, _) = loads
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.value().partial_cmp(&b.1.value()).expect("finite loads"))
                .expect("at least one worker");
            let start = rung_start + loads[slot];
            self.record(id, &run, start, slot);
            loads[slot] = (start + run.train_runtime + run.stall) - rung_start;
            outcomes.push(run.outcome);
        }
        let makespan = loads.iter().copied().fold(Seconds::ZERO, Seconds::max);
        self.globals.clock += makespan;
        self.scratch.loads = loads;
        outcomes
    }
}

#[cfg(test)]
mod parallel_tests {
    use edgetune_tuner::scheduler::SchedulerConfig;
    use edgetune_workloads::catalog::WorkloadId;

    use crate::config::EdgeTuneConfig;
    use crate::engine::EdgeTune;

    fn base() -> EdgeTuneConfig {
        EdgeTuneConfig::for_workload(WorkloadId::Ic)
            .with_scheduler(SchedulerConfig::new(8, 2.0, 8))
            .without_hyperband()
            .with_seed(42)
    }

    #[test]
    fn parallel_trials_shrink_the_makespan_not_the_work() {
        let sequential = EdgeTune::new(base()).run().unwrap();
        let parallel = EdgeTune::new(base().with_trial_slots(4)).run().unwrap();
        // Same trials, same evidence, same winner.
        assert_eq!(sequential.history().len(), parallel.history().len());
        assert_eq!(sequential.best_config(), parallel.best_config());
        // Resource time is identical; simulated wall time shrinks.
        assert_eq!(
            sequential.history().total_runtime(),
            parallel.history().total_runtime(),
            "parallelism must not change the work done"
        );
        assert!(
            parallel.tuning_runtime().value() < sequential.tuning_runtime().value() * 0.6,
            "4 slots should cut the makespan substantially: {} vs {}",
            parallel.tuning_runtime(),
            sequential.tuning_runtime()
        );
        // Energy is work, not wall time: unchanged.
        assert_eq!(sequential.tuning_energy(), parallel.tuning_energy());
    }

    #[test]
    fn sequential_makespan_equals_resource_time() {
        let report = EdgeTune::new(base()).run().unwrap();
        assert!(
            (report.tuning_runtime().value() - report.history().total_runtime().value()).abs()
                < 1e-6,
            "one slot: makespan == sum of trial durations"
        );
    }

    #[test]
    fn parallel_makespan_is_bounded_by_theory() {
        // makespan >= resource_time / slots and >= longest trial.
        let report = EdgeTune::new(base().with_trial_slots(3)).run().unwrap();
        let lower_bound = report.history().total_runtime().value() / 3.0;
        assert!(report.tuning_runtime().value() >= lower_bound - 1e-6);
        let longest = report
            .history()
            .records()
            .iter()
            .map(|r| r.outcome.runtime.value())
            .fold(0.0f64, f64::max);
        assert!(report.tuning_runtime().value() >= longest - 1e-6);
        assert!(report.tuning_runtime() <= report.history().total_runtime());
    }

    #[test]
    fn study_shards_change_no_reported_numbers() {
        // Sharded measurement feeds the same phase-B accounting path;
        // the full JSON artefact must be byte-identical for any count.
        let unsharded = EdgeTune::new(base()).run().unwrap();
        for shards in [2, 4] {
            let sharded = EdgeTune::new(base().with_study_shards(shards))
                .run()
                .unwrap();
            assert_eq!(
                unsharded.to_json().unwrap(),
                sharded.to_json().unwrap(),
                "study_shards={shards} must be invisible in the report"
            );
        }
    }

    #[test]
    fn shards_layer_under_simulated_slots() {
        // Shards and slots compose: the slot-scheduled makespan is the
        // same whether the measurements came from one shard or two.
        let unsharded = EdgeTune::new(base().with_trial_slots(4)).run().unwrap();
        let sharded = EdgeTune::new(base().with_trial_slots(4).with_study_shards(2))
            .run()
            .unwrap();
        assert_eq!(
            unsharded.to_json().unwrap(),
            sharded.to_json().unwrap(),
            "shards must not disturb the slot scheduler"
        );
    }

    #[test]
    fn chaos_runs_fall_back_to_sequential_measurement_under_sharding() {
        // Under fault injection the backend declines snapshots, so
        // sharded measurement degrades to the sequential path and chaos
        // runs stay shard-count-invariant.
        let chaos = |shards: usize| {
            EdgeTune::new(base().with_fault_rate(0.3).with_study_shards(shards))
                .run()
                .unwrap()
        };
        assert_eq!(
            chaos(1).to_json().unwrap(),
            chaos(4).to_json().unwrap(),
            "chaos runs must stay deterministic across shard counts"
        );
    }
}
