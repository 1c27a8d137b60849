//! The [`Engine`]: study construction, execution, and report assembly.
//!
//! The engine owns everything between a finished
//! [`EdgeTuneConfig`](crate::config::EdgeTuneConfig) and a
//! [`TuningReport`]: checkpoint restore, cache loading, inference-server
//! startup, sampler/scheduler wiring, the evaluator's lifetime, and the
//! final harvest of history, winner, recommendation, and fault counters.
//! The public [`EdgeTune`](crate::server::EdgeTune) job is a thin façade
//! over this type.

use std::collections::VecDeque;

use edgetune_faults::{DegradationStats, FaultInjector};
use edgetune_runtime::SimClock;
use edgetune_trace::{ChromeTrace, Tracer};
use edgetune_tuner::merge::HistoryMerge;
use edgetune_tuner::objective::{InferenceObjective, TrainObjective};
use edgetune_tuner::scheduler::{HyperBand, PromotionRule, SuccessiveHalving};
use edgetune_tuner::trial::TrialRecord;
use edgetune_util::rng::SeedStream;
use edgetune_util::units::{Joules, Seconds};
use edgetune_util::{Error, Result};
use edgetune_workloads::catalog::Workload;

use crate::async_server::AsyncInferenceServer;
use crate::backend::{SimTrainingBackend, TrainingBackend};
use crate::cache::{CacheKey, HistoricalCache};
use crate::checkpoint::{load_resume_state, StudyResume};
use crate::config::{EdgeTuneConfig, ShardExec};
use crate::engine::coordinator::StudyCoordinator;
use crate::engine::evaluator::OnefoldEvaluator;
use crate::engine::report::{FaultReport, TuningReport};
use crate::fabric::ShardFabric;
use crate::inference::{InferenceSpace, InferenceTuningServer};
use crate::timeline::Timeline;
use crate::trace::{seed_tracer_from_timeline, timeline_from_trace};

/// The tuning engine: runs one study described by a borrowed
/// configuration and assembles its [`TuningReport`].
#[derive(Debug)]
pub struct Engine<'a> {
    config: &'a EdgeTuneConfig,
}

impl<'a> Engine<'a> {
    /// Creates an engine over a configuration.
    #[must_use]
    pub fn new(config: &'a EdgeTuneConfig) -> Self {
        Engine { config }
    }

    /// The default simulated backend for the configured workload.
    fn default_backend(&self) -> SimTrainingBackend {
        let workload = Workload::by_id(self.config.workload);
        let mut backend =
            SimTrainingBackend::new(workload, SeedStream::new(self.config.seed).child("trials"));
        if !self.config.fault_plan.is_none() {
            backend = backend.with_fault_injector(FaultInjector::new(
                self.config.fault_plan,
                SeedStream::new(self.config.seed).child("trial-faults"),
            ));
        }
        backend
    }

    /// Runs the study with the default simulated backend for the
    /// configured workload.
    ///
    /// # Errors
    ///
    /// Propagates configuration and storage errors; see
    /// [`Engine::run_with_backend`].
    pub fn run(&self) -> Result<TuningReport> {
        let mut backend = self.default_backend();
        self.run_with_backend(&mut backend)
    }

    /// Runs the study against any training backend (e.g. the real
    /// `edgetune-nn` one).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for inconsistent configurations,
    /// [`Error::Storage`] if the historical cache cannot be written, and
    /// [`Error::Channel`] if the inference server fails irrecoverably.
    pub fn run_with_backend(&self, backend: &mut dyn TrainingBackend) -> Result<TuningReport> {
        let tracer = Tracer::new();
        let report = self.run_inner(backend, &tracer)?;
        if let Some(path) = &self.config.trace_path {
            ChromeTrace::from_tracer(&tracer).write(path)?;
        }
        Ok(report)
    }

    /// Runs the study with the default backend and returns the report
    /// together with the Chrome trace of everything that happened on
    /// the simulated clock.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Engine::run`].
    pub fn run_traced(&self) -> Result<(TuningReport, ChromeTrace)> {
        let mut backend = self.default_backend();
        self.run_traced_with_backend(&mut backend)
    }

    /// Runs the study against any training backend, returning the
    /// report and the Chrome trace.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Engine::run_with_backend`].
    pub fn run_traced_with_backend(
        &self,
        backend: &mut dyn TrainingBackend,
    ) -> Result<(TuningReport, ChromeTrace)> {
        let tracer = Tracer::new();
        let report = self.run_inner(backend, &tracer)?;
        let trace = ChromeTrace::from_tracer(&tracer);
        if let Some(path) = &self.config.trace_path {
            trace.write(path)?;
        }
        Ok((report, trace))
    }

    /// The study proper: everything between a validated configuration
    /// and an assembled report, emitting every piece of time accounting
    /// into `tracer` along the way.
    fn run_inner(
        &self,
        backend: &mut dyn TrainingBackend,
        tracer: &Tracer,
    ) -> Result<TuningReport> {
        let space = backend.search_space();
        if space.is_empty() {
            return Err(Error::invalid_config("backend search space is empty"));
        }
        if self.config.shard_exec == ShardExec::Remote && self.config.shard_hosts.is_empty() {
            return Err(Error::invalid_config(
                "--shard-exec remote needs at least one --shard-hosts address",
            ));
        }
        let faults_enabled = !self.config.fault_plan.is_none();

        // Resume: restore the trial log, cache, and fault cursors from the
        // checkpoint so the continuation replays the interrupted study.
        // Sharded runs leave a manifest plus per-shard files; a corrupted
        // or partial checkpoint degrades (manifest → plain → fresh) when
        // the degradation ladder has rungs to stand on.
        let mut replay: VecDeque<TrialRecord> = VecDeque::new();
        let mut first_seq: u64 = 0;
        let mut resumed_cache: Option<HistoricalCache> = None;
        // Study-global accounting restored from the checkpoint: the
        // exact timeline spans, accumulated stall/energy, degradation
        // counters, backoff draws, and cache statistics of the
        // completed prefix — the state replaying the trial log alone
        // cannot reproduce. Both layouts carry these fields now; plain
        // checkpoints written before they existed deserialise with an
        // empty timeline and fall back to approximate replay-recorded
        // spans.
        let mut resumed_timeline = Timeline::new();
        let mut resumed_stall = Seconds::ZERO;
        let mut resumed_inference_energy = Joules::ZERO;
        let mut resumed_degradation = DegradationStats::default();
        let mut resumed_backoff_draws: u64 = 0;
        let mut resumed_injected_losses: u64 = 0;
        let mut resumed_injected_outages: u64 = 0;
        let mut replay_records_timeline = true;
        if self.config.resume {
            if let Some(path) = &self.config.checkpoint_path {
                if path.exists() {
                    let allow_degraded = !self.config.degradation.steps().is_empty();
                    let seed_guard = |found: u64| {
                        if found != self.config.seed {
                            Err(Error::invalid_config(format!(
                                "checkpoint was written under seed {}, not {}: resuming would \
                                 silently diverge",
                                found, self.config.seed
                            )))
                        } else {
                            Ok(())
                        }
                    };
                    match load_resume_state(path, allow_degraded)? {
                        StudyResume::Fresh => {}
                        StudyResume::Plain(checkpoint) => {
                            seed_guard(checkpoint.seed)?;
                            backend.set_fault_cursor(checkpoint.fault_cursor);
                            first_seq = checkpoint.inference_cursor;
                            replay = checkpoint.history().records().to_vec().into();
                            let mut cache = checkpoint.cache;
                            cache.restore_stats(checkpoint.cache_stats);
                            resumed_cache = Some(cache);
                            resumed_stall = checkpoint.stall;
                            resumed_inference_energy = checkpoint.inference_energy;
                            resumed_degradation = checkpoint.degradation;
                            resumed_backoff_draws = checkpoint.backoff_draws;
                            resumed_injected_losses = checkpoint.injected_losses;
                            resumed_injected_outages = checkpoint.injected_outages;
                            // A legacy checkpoint (no recorded spans
                            // despite completed trials) keeps the
                            // approximate replay-recorded timeline.
                            if !checkpoint.timeline.spans().is_empty() || replay.is_empty() {
                                resumed_timeline = checkpoint.timeline;
                                replay_records_timeline = false;
                            }
                        }
                        StudyResume::Sharded { manifest, history } => {
                            seed_guard(manifest.seed)?;
                            backend.set_fault_cursor(manifest.fault_cursor);
                            first_seq = manifest.inference_cursor;
                            replay = history.records().to_vec().into();
                            let mut cache = manifest.cache;
                            cache.restore_stats(manifest.cache_stats);
                            resumed_cache = Some(cache);
                            resumed_timeline = manifest.timeline;
                            resumed_stall = manifest.stall;
                            resumed_inference_energy = manifest.inference_energy;
                            resumed_degradation = manifest.degradation;
                            resumed_backoff_draws = manifest.backoff_draws;
                            resumed_injected_losses = manifest.injected_losses;
                            resumed_injected_outages = manifest.injected_outages;
                            replay_records_timeline = false;
                        }
                    }
                }
            }
        }

        // Historical cache: the checkpoint's snapshot wins on resume, then
        // the persistent file, else start fresh.
        let cache = match resumed_cache {
            Some(cache) => cache,
            None => match &self.config.cache_path {
                Some(path) if path.exists() => HistoricalCache::load(path)?,
                _ => HistoricalCache::new(),
            },
        };

        let inference_server = InferenceTuningServer::new(
            self.config.edge_device.clone(),
            InferenceSpace::for_device(&self.config.edge_device),
            InferenceObjective::new(self.config.inference_metric),
        )?;
        let inference_faults = if faults_enabled {
            Some(FaultInjector::new(
                self.config.fault_plan,
                SeedStream::new(self.config.seed).child("inference-faults"),
            ))
        } else {
            None
        };
        let async_server = AsyncInferenceServer::start_supervised(
            inference_server,
            cache,
            self.config.inference_workers,
            self.config.historical_cache,
            inference_faults,
            first_seq,
        );

        let mut objective = TrainObjective::inference_aware(self.config.train_metric);
        if let Some(floor) = self.config.accuracy_floor {
            objective = objective.with_accuracy_floor(floor);
        }

        // A shard manifest restores the exact recorded spans; seed them
        // into the tracer *before* any live trial so the derived
        // timeline reproduces the uninterrupted run's span sequence.
        seed_tracer_from_timeline(tracer, &resumed_timeline);
        let mut sampler = self.config.build_sampler();
        let device_name = self.config.edge_device.name.clone();

        // The evaluator hands each rung to this executor, which measures
        // its shard slices on threads, in supervised child processes or
        // on standing shard hosts, per `shard_exec`. It keeps its own
        // tracer: supervision telemetry (spawns, heartbeats, crashes,
        // retries) is wall-clock-dependent and must never leak into the
        // study trace, whose bytes are an exec-mode-independent contract.
        let mut executor = ShardFabric::new(self.config);

        let (history, stamps, makespan, stall, inference_energy, degradation, rungs_completed) = {
            let mut evaluator = OnefoldEvaluator {
                backend,
                inference: &async_server,
                device: &self.config.edge_device,
                inference_metric: self.config.inference_metric,
                objective,
                tracer,
                pipelining: self.config.pipelining,
                pareto: self.config.pareto.is_some(),
                trial_slots: self.config.trial_slots,
                executor: &mut executor,
                clock: SimClock::new(),
                stall: resumed_stall,
                inference_energy: resumed_inference_energy,
                faults_enabled,
                supervisor: self.config.supervisor,
                ladder: &self.config.degradation,
                reply_timeout: self.config.reply_timeout,
                supervisor_seed: SeedStream::new(self.config.seed).child("supervisor"),
                backoff_draws: resumed_backoff_draws,
                stats: resumed_degradation,
                resumed_injected_losses,
                resumed_injected_outages,
                checkpoint_path: self.config.checkpoint_path.as_ref(),
                root_seed: self.config.seed,
                halt_after_rungs: self.config.halt_after_rungs,
                rungs_completed: 0,
                replay,
                replay_records_timeline,
                current_bracket: 0,
                stamps: Vec::new(),
                rungs_traced: 0,
                bracket_open: None,
                scratch: Default::default(),
            };
            // Pareto mode promotes on front membership (dominance
            // layers) instead of raw scalar rank; scalar mode keeps the
            // default rule, so its reports are untouched.
            let promotion = if self.config.pareto.is_some() {
                PromotionRule::FrontMembership
            } else {
                PromotionRule::ScalarRank
            };
            let history = if self.config.hyperband {
                HyperBand::new(self.config.scheduler)
                    .with_promotion(promotion)
                    .run(
                        sampler.as_mut(),
                        &space,
                        &self.config.budget,
                        &mut evaluator,
                    )
            } else {
                SuccessiveHalving::new(self.config.scheduler)
                    .with_promotion(promotion)
                    .run(
                        sampler.as_mut(),
                        &space,
                        &self.config.budget,
                        &mut evaluator,
                    )
            };
            evaluator.finish_trace();
            let stamps = std::mem::take(&mut evaluator.stamps);
            (
                history,
                stamps,
                evaluator.clock.now(),
                evaluator.stall,
                evaluator.inference_energy,
                evaluator.stats,
                evaluator.rungs_completed,
            )
        };
        // Export the fabric's supervision telemetry to its own trace
        // file — deliberately separate from the study trace so the
        // latter stays byte-identical across `--shard-exec` modes.
        if let Some(path) = &self.config.fabric_trace_path {
            ChromeTrace::from_tracer(executor.tracer()).write(path)?;
        }

        // The report's timeline is a view over the trace — derived, not
        // separately recorded, so the two can never disagree.
        let timeline = timeline_from_trace(tracer);

        // Sharded studies hand the report a *merged* history: split the
        // stamped trial log by the coordinator's plan and interleave it
        // back by (simulated start, bracket, trial id). The merge is the
        // identity for a correct implementation — running it on every
        // sharded study keeps that invariant permanently under test.
        let history = if self.config.study_shards > 1 && stamps.len() == history.len() {
            let coordinator = StudyCoordinator::new(self.config.study_shards);
            HistoryMerge::merge(coordinator.shard_histories(&history, &stamps))
        } else {
            history
        };

        // Harvest the inference server's fault counters before shutdown.
        // The live counters only cover post-resume requests — replayed
        // trials never resubmit — so the checkpointed prefix's tallies
        // are added back in.
        let worker_panics = async_server.worker_panics();
        let injected_losses = resumed_injected_losses + async_server.injected_losses();
        let injected_outages = resumed_injected_outages + async_server.injected_outages();

        // The tuning job's output is the final-rung winner: raw ratio
        // scores are only comparable within one budget level.
        let best = history
            .winner()
            .ok_or_else(|| Error::invalid_config("no trials were executed"))?
            .clone();

        // The winner's recommendation is in the cache by construction.
        let (best_arch, best_profile) = backend.architecture(&best.config);
        let key = CacheKey::new(&device_name, best_arch, self.config.inference_metric);
        let mut final_cache = async_server.shutdown();
        let recommendation = match final_cache.peek(&key) {
            Some(rec) => rec.clone(),
            None => {
                // Only reachable if the worker died mid-run; recompute
                // synchronously.
                let server = InferenceTuningServer::new(
                    self.config.edge_device.clone(),
                    InferenceSpace::for_device(&self.config.edge_device),
                    InferenceObjective::new(self.config.inference_metric),
                )?;
                let (rec, _) = server.tune(&best_profile);
                final_cache.store(&key, rec.clone());
                rec
            }
        };

        if let Some(path) = &self.config.cache_path {
            final_cache.save(path)?;
        }

        let faults = if faults_enabled {
            Some(FaultReport {
                plan: self.config.fault_plan,
                degradation,
                worker_panics,
                injected_losses,
                injected_outages,
                failed_trials: history
                    .records()
                    .iter()
                    .filter(|r| r.outcome.is_failed())
                    .count() as u64,
            })
        } else {
            None
        };

        // The frontier is assembled from the *merged* history, so its
        // contents (like every other reported byte) are invariant to the
        // shard split.
        let frontier = match self.config.pareto {
            Some(k) => crate::engine::report::build_frontier(&history, k),
            None => Vec::new(),
        };

        Ok(TuningReport {
            history,
            best,
            frontier,
            recommendation,
            timeline,
            cache_stats: final_cache.stats(),
            makespan,
            stall_time: stall,
            inference_energy,
            faults,
            fabric: executor.stats(),
            halted: self
                .config
                .halt_after_rungs
                .is_some_and(|rungs| rungs_completed >= rungs),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{PARAM_GPUS, PARAM_MODEL_HP};
    use crate::config::SamplerKind;
    use crate::server::EdgeTune;
    use edgetune_tuner::scheduler::SchedulerConfig;
    use edgetune_tuner::Metric;
    use edgetune_workloads::catalog::WorkloadId;

    fn quick_config() -> EdgeTuneConfig {
        EdgeTuneConfig::for_workload(WorkloadId::Ic)
            .with_scheduler(SchedulerConfig::new(4, 2.0, 4))
            .without_hyperband()
            .with_seed(42)
    }

    #[test]
    fn end_to_end_run_produces_report() {
        let report = EdgeTune::new(quick_config()).run().unwrap();
        assert!(!report.history().is_empty());
        assert!(report.best_accuracy() > 0.0);
        assert!(report.tuning_runtime().value() > 0.0);
        assert!(report.tuning_energy().value() > 0.0);
        assert!(report.recommendation().batch >= 1);
        assert!(report.recommendation().throughput.value() > 0.0);
        assert!(report.best_config().get(PARAM_MODEL_HP).is_some());
        assert!(report.best_config().get(PARAM_GPUS).is_some());
    }

    #[test]
    fn engine_and_facade_agree() {
        let config = quick_config();
        let from_engine = Engine::new(&config).run().unwrap();
        let from_facade = EdgeTune::new(config).run().unwrap();
        assert_eq!(
            from_engine.to_json().unwrap(),
            from_facade.to_json().unwrap(),
            "the façade must add nothing to the engine"
        );
    }

    #[test]
    fn run_is_deterministic_for_a_seed() {
        let a = EdgeTune::new(quick_config()).run().unwrap();
        let b = EdgeTune::new(quick_config()).run().unwrap();
        assert_eq!(a.best_config(), b.best_config());
        assert_eq!(a.tuning_runtime(), b.tuning_runtime());
        assert_eq!(a.recommendation(), b.recommendation());
        let c = EdgeTune::new(quick_config().with_seed(43)).run().unwrap();
        // Different seed explores differently (history differs).
        assert!(
            c.history().records().len() != a.history().records().len()
                || c.tuning_runtime() != a.tuning_runtime()
                || c.best_config() != a.best_config()
        );
    }

    #[test]
    fn inference_tuning_is_pipelined_not_stalling() {
        // The paper's claim: the inference sweep always fits inside its
        // training trial, so the model server never stalls.
        let report = EdgeTune::new(quick_config()).run().unwrap();
        assert_eq!(
            report.stall_time(),
            Seconds::ZERO,
            "inference must hide behind training"
        );
        assert!((report.timeline().overlap_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tracing_changes_no_report_bytes() {
        let plain = EdgeTune::new(quick_config()).run().unwrap();
        let (traced, trace) = EdgeTune::new(quick_config()).run_traced().unwrap();
        assert_eq!(
            plain.to_json().unwrap(),
            traced.to_json().unwrap(),
            "collecting a trace must be invisible in the report"
        );
        trace.validate().expect("exported trace validates");
        assert!(!trace.trace_events.is_empty());
    }

    #[test]
    fn the_trace_shows_inference_sweeps_pipelined_into_trials() {
        // The paper's Fig. 6 claim, read off the trace itself: at least
        // one inference-sweep span strictly overlaps a training-trial
        // span on the simulated clock.
        let config = quick_config();
        let engine = Engine::new(&config);
        let mut backend = engine.default_backend();
        let tracer = Tracer::new();
        let report = engine.run_inner(&mut backend, &tracer).unwrap();
        assert!(
            crate::trace::has_pipelined_overlap(&tracer.snapshot()),
            "a pipelined study must overlap sweeps with trials"
        );
        assert!((report.timeline().overlap_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn a_trace_path_writes_the_chrome_file() {
        let dir = std::env::temp_dir().join("edgetune-trace-path-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("study.trace.json");
        std::fs::remove_file(&path).ok();
        let _ = EdgeTune::new(quick_config().with_trace_path(&path))
            .run()
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let trace = ChromeTrace::from_json(&text).unwrap();
        trace.validate().expect("written trace validates");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn historical_cache_avoids_retuning_architectures() {
        // Only 3 distinct architectures exist for IC, so with >3 trials
        // the cache must hit.
        let report = EdgeTune::new(quick_config()).run().unwrap();
        let stats = report.cache_stats();
        assert!(
            stats.misses <= 3,
            "at most one miss per architecture: {stats:?}"
        );
        assert!(stats.hits > 0, "repeated architectures must hit: {stats:?}");
    }

    #[test]
    fn inference_energy_is_accounted() {
        let report = EdgeTune::new(quick_config()).run().unwrap();
        assert!(report.inference_energy().value() > 0.0);
        assert!(report.tuning_energy().value() > report.inference_energy().value());
    }

    #[test]
    fn cache_persists_across_runs() {
        let dir = std::env::temp_dir().join("edgetune-server-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        std::fs::remove_file(&path).ok();

        let cfg = quick_config().with_cache_path(&path);
        let first = EdgeTune::new(cfg.clone()).run().unwrap();
        assert!(path.exists());
        let second = EdgeTune::new(cfg).run().unwrap();
        // Second run starts warm: no misses at all.
        assert_eq!(second.cache_stats().misses, 0, "warm cache should not miss");
        assert!(second.inference_energy().value() < first.inference_energy().value() + 1e-9);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hyperband_mode_runs_more_trials() {
        let sha = EdgeTune::new(quick_config()).run().unwrap();
        let hb = EdgeTune::new(quick_config().with_scheduler(SchedulerConfig::new(4, 2.0, 4)))
            .run()
            .unwrap();
        // without_hyperband was only applied to `sha`.
        let _ = (sha, hb);
    }

    #[test]
    fn energy_metric_changes_the_objective() {
        let runtime = EdgeTune::new(quick_config()).run().unwrap();
        let energy = EdgeTune::new(quick_config().with_metric(Metric::Energy))
            .run()
            .unwrap();
        // Both must complete; the recommendations may legitimately agree,
        // but the recommendation metric must be populated either way.
        assert!(runtime.recommendation().energy_per_item.value() > 0.0);
        assert!(energy.recommendation().energy_per_item.value() > 0.0);
    }

    #[test]
    fn accuracy_floor_filters_low_budget_winners() {
        let report = EdgeTune::new(quick_config().with_accuracy_floor(0.3))
            .run()
            .unwrap();
        assert!(
            report.best_accuracy() >= 0.3,
            "winner must respect the floor: {}",
            report.best_accuracy()
        );
    }

    #[test]
    fn random_and_grid_samplers_work() {
        for kind in [SamplerKind::Random, SamplerKind::Grid(3)] {
            let report = EdgeTune::new(quick_config().with_sampler(kind))
                .run()
                .unwrap();
            assert!(!report.history().is_empty(), "{kind:?}");
        }
    }
}

#[cfg(test)]
mod ablation_tests {
    use crate::config::EdgeTuneConfig;
    use crate::server::EdgeTune;
    use edgetune_tuner::scheduler::SchedulerConfig;
    use edgetune_util::units::Seconds;
    use edgetune_workloads::catalog::WorkloadId;

    fn quick_config() -> EdgeTuneConfig {
        EdgeTuneConfig::for_workload(WorkloadId::Ic)
            .with_scheduler(SchedulerConfig::new(4, 2.0, 4))
            .without_hyperband()
            .with_seed(42)
    }

    #[test]
    fn cache_ablation_retunes_every_architecture() {
        let with_cache = EdgeTune::new(quick_config()).run().unwrap();
        let without = EdgeTune::new(quick_config().without_historical_cache())
            .run()
            .unwrap();
        assert_eq!(without.cache_stats().hits, 0, "no hits without the cache");
        assert!(
            without.cache_stats().misses > with_cache.cache_stats().misses,
            "every trial pays a sweep: {} vs {}",
            without.cache_stats().misses,
            with_cache.cache_stats().misses
        );
        assert!(
            without.inference_energy() > with_cache.inference_energy(),
            "re-tuning costs energy"
        );
        // The recommendation itself is unchanged — the cache is purely a
        // cost optimisation.
        assert_eq!(without.recommendation(), with_cache.recommendation());
    }

    #[test]
    fn pipelining_ablation_puts_sweeps_on_the_critical_path() {
        let pipelined = EdgeTune::new(quick_config()).run().unwrap();
        let synchronous = EdgeTune::new(quick_config().without_pipelining())
            .run()
            .unwrap();
        assert_eq!(pipelined.stall_time(), Seconds::ZERO);
        assert!(
            synchronous.stall_time().value() > 0.0,
            "synchronous sweeps must stall the model server"
        );
        assert!(synchronous.tuning_runtime() > pipelined.tuning_runtime());
        // Synchronous sweeps start after their trial, so nothing
        // overlaps.
        assert!(synchronous.timeline().overlap_fraction() < 0.01);
    }

    #[test]
    fn worker_pool_accepts_multiple_workers() {
        let report = EdgeTune::new(quick_config().with_inference_workers(4))
            .run()
            .unwrap();
        assert!(!report.history().is_empty());
        assert!(report.recommendation().batch >= 1);
    }
}

#[cfg(test)]
mod chaos_tests {
    use std::time::Duration;

    use crate::config::EdgeTuneConfig;
    use crate::server::{EdgeTune, TuningReport};
    use edgetune_faults::{FaultPlan, Supervisor};
    use edgetune_tuner::scheduler::SchedulerConfig;
    use edgetune_util::units::Seconds;
    use edgetune_util::Error;
    use edgetune_workloads::catalog::WorkloadId;

    fn quick_config() -> EdgeTuneConfig {
        EdgeTuneConfig::for_workload(WorkloadId::Ic)
            .with_scheduler(SchedulerConfig::new(8, 2.0, 8))
            .without_hyperband()
            .with_seed(42)
    }

    #[test]
    fn disabled_plan_leaves_the_report_without_fault_keys() {
        let report = EdgeTune::new(quick_config()).run().unwrap();
        assert!(report.faults().is_none());
        let json = report.to_json().unwrap();
        assert!(
            !json.contains("\"faults\"") && !json.contains("\"failure\""),
            "a fault-free report must serialize exactly as before this feature existed"
        );
    }

    #[test]
    fn chaos_run_reports_what_was_injected_and_how_it_degraded() {
        let report = EdgeTune::new(quick_config().with_fault_plan(FaultPlan::uniform(0.25)))
            .run()
            .unwrap();
        let faults = report.faults().expect("chaos runs carry a fault report");
        assert_eq!(faults.plan, FaultPlan::uniform(0.25));
        let d = &faults.degradation;
        assert!(
            !d.is_empty(),
            "a 25% fault rate over a full study must inject something"
        );
        assert_eq!(
            faults.failed_trials,
            report
                .history()
                .records()
                .iter()
                .filter(|r| r.outcome.is_failed())
                .count() as u64
        );
        // The study still produces a usable answer.
        assert!(report.best_accuracy() > 0.0 || report.best().outcome.is_failed());
        assert!(report.recommendation().batch >= 1);
    }

    #[test]
    fn trial_crashes_are_retried_and_survivors_win() {
        let plan = FaultPlan::none().with_trial_crash(0.2);
        let report = EdgeTune::new(quick_config().with_fault_plan(plan))
            .run()
            .unwrap();
        let d = &report.faults().unwrap().degradation;
        assert!(d.trial_crashes > 0, "20% crash rate must fire: {d:?}");
        assert!(
            d.trial_retries > 0,
            "the supervisor must retry crashed trials: {d:?}"
        );
        assert!(
            report.best().outcome.score.is_finite(),
            "the winner must be a surviving trial"
        );
    }

    #[test]
    fn chaos_is_deterministic_per_seed() {
        let config = || quick_config().with_fault_plan(FaultPlan::uniform(0.3));
        let a = EdgeTune::new(config()).run().unwrap();
        let b = EdgeTune::new(config()).run().unwrap();
        assert_eq!(a.to_json().unwrap(), b.to_json().unwrap());
    }

    #[test]
    fn a_report_with_failed_trials_round_trips_through_json() {
        // A failed trial's infinite score is written as `null`; reading
        // the engine's own output back must restore it, not reject it.
        let report = EdgeTune::new(quick_config().with_fault_plan(FaultPlan::uniform(0.3)))
            .run()
            .unwrap();
        let failed = |r: &TuningReport| {
            let records = r.history().records();
            records.iter().filter(|t| t.outcome.is_failed()).count()
        };
        assert!(failed(&report) > 0, "the fault pattern must fire");
        let json = report.to_json().unwrap();
        assert!(json.contains("\"score\": null"));
        let restored = TuningReport::from_json(&json).expect("own output parses");
        assert_eq!(failed(&restored), failed(&report));
        assert!(restored
            .history()
            .records()
            .iter()
            .all(|t| !t.outcome.is_failed() || t.outcome.score == f64::INFINITY));
        assert_eq!(
            restored.to_json().unwrap(),
            json,
            "and re-serialises to the same bytes"
        );
    }

    #[test]
    fn lost_inference_replies_degrade_instead_of_poisoning_the_study() {
        // Every request's worker dies, so no real recommendation ever
        // arrives: the ladder must fall through to stale-cache/default
        // recommendations and the run must still complete.
        let plan = FaultPlan::none().with_worker_panic(1.0);
        let config = quick_config()
            .with_fault_plan(plan)
            .with_reply_timeout(Duration::from_millis(200))
            .with_supervisor(Supervisor::new(edgetune_faults::RetryPolicy {
                max_attempts: 2,
                base_delay: Seconds::new(1.0),
                multiplier: 2.0,
                max_delay: Seconds::new(10.0),
                jitter: 0.5,
            }));
        let report = EdgeTune::new(config).run().unwrap();
        let faults = report.faults().unwrap();
        assert!(faults.injected_losses > 0);
        let d = &faults.degradation;
        assert!(d.worker_losses > 0);
        assert!(
            d.stale_cache_served + d.default_recommendations + d.trials_skipped > 0,
            "lost replies must walk the ladder: {d:?}"
        );
        assert!(report.recommendation().batch >= 1);
    }

    #[test]
    fn resume_under_a_different_seed_is_rejected() {
        let dir = std::env::temp_dir().join("edgetune-resume-seed-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("study.ckpt.json");
        std::fs::remove_file(&path).ok();
        let _ = EdgeTune::new(quick_config().with_checkpoint_path(&path))
            .run()
            .unwrap();
        assert!(path.exists(), "each rung writes a checkpoint");
        let err = EdgeTune::new(
            quick_config()
                .with_seed(43)
                .with_checkpoint_path(&path)
                .resuming(),
        )
        .run()
        .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)));
        std::fs::remove_file(&path).ok();
    }
}

#[cfg(test)]
mod shard_tests {
    use crate::config::EdgeTuneConfig;
    use crate::server::EdgeTune;
    use edgetune_faults::FaultPlan;
    use edgetune_tuner::scheduler::SchedulerConfig;
    use edgetune_workloads::catalog::WorkloadId;

    fn quick_config() -> EdgeTuneConfig {
        EdgeTuneConfig::for_workload(WorkloadId::Ic)
            .with_scheduler(SchedulerConfig::new(6, 2.0, 6))
            .without_hyperband()
            .with_seed(42)
    }

    #[test]
    fn sharding_never_changes_the_report_bytes() {
        let baseline = EdgeTune::new(quick_config()).run().unwrap();
        for shards in [2, 3, 4, 8] {
            let sharded = EdgeTune::new(quick_config().with_study_shards(shards))
                .run()
                .unwrap();
            assert_eq!(
                baseline.to_json().unwrap(),
                sharded.to_json().unwrap(),
                "{shards} shards must reproduce the single-shard report byte for byte"
            );
        }
    }

    #[test]
    fn sharding_composes_with_hyperband() {
        let config = || {
            EdgeTuneConfig::for_workload(WorkloadId::Ic)
                .with_scheduler(SchedulerConfig::new(6, 2.0, 6))
                .with_seed(42)
        };
        let baseline = EdgeTune::new(config()).run().unwrap();
        let sharded = EdgeTune::new(config().with_study_shards(3)).run().unwrap();
        assert_eq!(
            baseline.to_json().unwrap(),
            sharded.to_json().unwrap(),
            "per-bracket stamps must keep HyperBand runs shard-invariant"
        );
    }

    #[test]
    fn sharded_chaos_falls_back_to_the_sequential_path() {
        let config = |shards| {
            quick_config()
                .with_fault_plan(FaultPlan::uniform(0.3))
                .with_study_shards(shards)
        };
        let unsharded = EdgeTune::new(config(1)).run().unwrap();
        let sharded = EdgeTune::new(config(4)).run().unwrap();
        assert_eq!(
            unsharded.to_json().unwrap(),
            sharded.to_json().unwrap(),
            "fault injection must disable shard-parallel measurement, not diverge"
        );
    }

    #[test]
    fn sharded_runs_checkpoint_a_manifest_with_shard_files() {
        let dir = std::env::temp_dir().join("edgetune-shard-manifest-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("study.ckpt.json");
        std::fs::remove_file(&path).ok();
        let _ = EdgeTune::new(
            quick_config()
                .with_study_shards(2)
                .with_checkpoint_path(&path),
        )
        .run()
        .unwrap();
        assert!(path.exists(), "each rung writes the manifest");
        let manifest = std::fs::read_to_string(&path).unwrap();
        assert!(
            manifest.contains("\"shard_files\""),
            "a sharded study must leave a manifest, not a plain checkpoint"
        );
        for shard in 0..2 {
            let shard_path = dir.join(format!("study.ckpt.json.shard{shard}"));
            assert!(shard_path.exists(), "missing {}", shard_path.display());
            std::fs::remove_file(&shard_path).ok();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_from_shard_checkpoints_reproduces_the_full_run() {
        let dir = std::env::temp_dir().join("edgetune-shard-resume-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("study.ckpt.json");
        std::fs::remove_file(&path).ok();

        let full = EdgeTune::new(quick_config().with_study_shards(4))
            .run()
            .unwrap();
        let halted = EdgeTune::new(
            quick_config()
                .with_study_shards(4)
                .with_checkpoint_path(&path)
                .with_halt_after_rungs(2),
        )
        .run()
        .unwrap();
        assert!(halted.history().len() < full.history().len());
        let resumed = EdgeTune::new(
            quick_config()
                .with_study_shards(4)
                .with_checkpoint_path(&path)
                .resuming(),
        )
        .run()
        .unwrap();
        assert_eq!(
            full.to_json().unwrap(),
            resumed.to_json().unwrap(),
            "resume from per-shard checkpoints must reproduce the uninterrupted bytes"
        );
        for shard in 0..4 {
            std::fs::remove_file(dir.join(format!("study.ckpt.json.shard{shard}"))).ok();
        }
        std::fs::remove_file(&path).ok();
    }
}
