//! The [`Engine`]: study construction, execution, and report assembly.
//!
//! The engine owns everything between a finished
//! [`EdgeTuneConfig`](crate::config::EdgeTuneConfig) and a
//! [`TuningReport`]: checkpoint restore, cache loading, inference-server
//! construction, sampler/scheduler wiring, the evaluator's lifetime, and the
//! final harvest of history, winner, recommendation, and fault counters.
//! [`EdgeTune`] is the same thing owning its configuration.

use edgetune_faults::FaultInjector;
use edgetune_trace::{ChromeTrace, Tracer};
use edgetune_tuner::objective::{InferenceObjective, TrainObjective};
use edgetune_tuner::scheduler::{HyperBand, PromotionRule, SuccessiveHalving};
use edgetune_util::rng::SeedStream;
use edgetune_util::{Error, Result};
use edgetune_workloads::catalog::Workload;

use crate::backend::{SimTrainingBackend, TrainingBackend};
use crate::cache::{CacheKey, HistoricalCache};
use crate::checkpoint::{load_resume_state, StudyCheckpoint, StudyGlobals};
use crate::config::{EdgeTuneConfig, ShardExec};
use crate::engine::evaluator::OnefoldEvaluator;
use crate::engine::report::{FaultReport, TuningReport};
use crate::fabric::ShardFabric;
use crate::inference::{InferenceEndpoint, InferenceSpace, InferenceTuningServer};
use crate::trace::seed_tracer_from_timeline;

/// The EdgeTune tuning job (the paper's Model Tuning Server,
/// Algorithm 1): an [`Engine`] that owns its configuration.
#[derive(Debug, Clone)]
pub struct EdgeTune {
    config: EdgeTuneConfig,
}

impl EdgeTune {
    /// Creates a job from a configuration.
    #[must_use]
    pub fn new(config: EdgeTuneConfig) -> Self {
        EdgeTune { config }
    }

    /// The job's configuration.
    #[must_use]
    pub fn config(&self) -> &EdgeTuneConfig {
        &self.config
    }

    /// Runs the job with the default simulated backend for the configured
    /// workload.
    ///
    /// # Errors
    ///
    /// Propagates configuration and storage errors; see
    /// [`EdgeTune::run_with_backend`].
    pub fn run(&self) -> Result<TuningReport> {
        Engine::new(&self.config).run()
    }

    /// Runs the job against any training backend (e.g. the real
    /// `edgetune-nn` one).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for inconsistent configurations
    /// and [`Error::Storage`] if the historical cache cannot be written.
    pub fn run_with_backend(&self, backend: &mut dyn TrainingBackend) -> Result<TuningReport> {
        Engine::new(&self.config).run_with_backend(backend)
    }

    /// Runs the job and additionally returns the Chrome trace of every
    /// span and event the study emitted on the simulated clock — open it
    /// in `chrome://tracing` or Perfetto to see the Fig. 6 pipelining.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`EdgeTune::run`].
    pub fn run_traced(&self) -> Result<(TuningReport, ChromeTrace)> {
        Engine::new(&self.config).run_traced()
    }
}

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
    /// Returns [`Error::InvalidConfig`] for inconsistent configurations
    /// and [`Error::Storage`] if the historical cache cannot be written.
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

    /// The checkpoint this run resumes from, if it resumes at all.
    /// `None` when resume is off, nothing was written yet, or the file
    /// is corrupt and the degradation ladder has rungs to stand on (a
    /// fresh start is deterministic, so it reproduces the same bytes).
    fn load_checkpoint(&self) -> Result<Option<StudyCheckpoint>> {
        let Some(path) = self.config.checkpoint_path.as_ref() else {
            return Ok(None);
        };
        if !self.config.resume || !path.exists() {
            return Ok(None);
        }
        let allow_degraded = !self.config.degradation.steps().is_empty();
        let checkpoint = load_resume_state(path, allow_degraded)?;
        match checkpoint.as_ref().map(|found| found.seed) {
            Some(seed) if seed != self.config.seed => Err(Error::invalid_config(format!(
                "checkpoint was written under seed {seed}, not {}: resuming would \
                 silently diverge",
                self.config.seed
            ))),
            _ => Ok(checkpoint),
        }
    }

    /// The study proper: everything between a validated configuration
    /// and an assembled report. `tracer` observes: the time accounting
    /// is emitted into it along the way and never read back.
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

        // Resume: the checkpoint's state is reinstated whole, and its
        // trial log answers the rungs it covers. Without one the study
        // starts from nothing but the persistent historical cache.
        let (resumed, globals) = match self.load_checkpoint()? {
            Some(checkpoint) => {
                let (trials, mut globals) = checkpoint.into_parts();
                globals.cache.restore_stats(globals.cache_stats);
                backend.set_fault_cursor(globals.fault_cursor);
                (trials, globals)
            }
            None => {
                let cache = match &self.config.cache_path {
                    Some(path) if path.exists() => HistoricalCache::load(path)?,
                    _ => HistoricalCache::new(),
                };
                let fresh = StudyGlobals {
                    cache,
                    ..StudyGlobals::default()
                };
                (Vec::new(), fresh)
            }
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
        let mut inference = InferenceEndpoint::new(
            inference_server,
            self.config.historical_cache,
            inference_faults,
        );

        let mut objective = TrainObjective::inference_aware(self.config.train_metric);
        if let Some(floor) = self.config.accuracy_floor {
            objective = objective.with_accuracy_floor(floor);
        }

        // Observer only: show the trials a resumed run inherits on the
        // trace's `restored` tracks. The report does not depend on it.
        seed_tracer_from_timeline(tracer, &globals.timeline);
        let mut sampler = self.config.build_sampler();
        let device_name = self.config.edge_device.name.clone();

        // The evaluator hands each rung to this executor, which measures
        // its shard slices on threads, in supervised child processes or
        // on standing shard hosts, per `shard_exec`. It keeps its own
        // tracer: supervision telemetry (spawns, heartbeats, crashes,
        // retries) is wall-clock-dependent and must never leak into the
        // study trace, whose bytes are an exec-mode-independent contract.
        let mut executor = ShardFabric::new(self.config);

        let mut evaluator = OnefoldEvaluator {
            backend,
            inference: &mut inference,
            device: &self.config.edge_device,
            inference_metric: self.config.inference_metric,
            objective,
            tracer,
            pipelining: self.config.pipelining,
            pareto: self.config.pareto.is_some(),
            trial_slots: self.config.trial_slots,
            executor: &mut executor,
            globals,
            faults_enabled,
            supervisor: self.config.supervisor,
            ladder: &self.config.degradation,
            supervisor_seed: SeedStream::new(self.config.seed).child("supervisor"),
            checkpoint_path: self.config.checkpoint_path.as_ref(),
            root_seed: self.config.seed,
            halt_after_rungs: self.config.halt_after_rungs,
            rungs_completed: 0,
            resumed,
            diverged: None,
            current_bracket: 0,
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
        let (mut globals, halted) = evaluator.finish(&history)?;
        // Export the fabric's supervision telemetry to its own trace
        // file — deliberately separate from the study trace so the
        // latter stays byte-identical across `--shard-exec` modes.
        if let Some(path) = &self.config.fabric_trace_path {
            ChromeTrace::from_tracer(executor.tracer()).write(path)?;
        }

        // The tuning job's output is the final-rung winner: raw ratio
        // scores are only comparable within one budget level.
        let best = history
            .winner()
            .ok_or_else(|| Error::invalid_config("no trials were executed"))?
            .clone();

        // The winner's recommendation is normally in the cache. It is not
        // when the study ran `without_historical_cache` (nothing is ever
        // stored) or, under chaos, when every reply for the winning
        // architecture was lost: sweep it now, outside the study's
        // accounting.
        let (best_arch, best_profile) = backend.architecture(&best.config);
        let key = CacheKey::new(&device_name, best_arch, self.config.inference_metric);
        let recommendation = match globals.cache.peek(&key) {
            Some(rec) => rec.clone(),
            None => {
                let (rec, _) = inference.server().tune(&best_profile);
                globals.cache.store(&key, rec.clone());
                rec
            }
        };

        if let Some(path) = &self.config.cache_path {
            globals.cache.save(path)?;
        }

        let faults = if faults_enabled {
            Some(FaultReport {
                plan: self.config.fault_plan,
                degradation: globals.degradation,
                worker_panics: inference.worker_panics(),
                injected_losses: globals.injected_losses,
                injected_outages: globals.injected_outages,
                failed_trials: history
                    .records()
                    .iter()
                    .filter(|r| r.outcome.is_failed())
                    .count() as u64,
            })
        } else {
            None
        };

        // The frontier is assembled from the study's one history, so its
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
            timeline: globals.timeline,
            cache_stats: globals.cache_stats,
            makespan: globals.clock,
            stall_time: globals.stall,
            inference_energy: globals.inference_energy,
            faults,
            fabric: executor.stats(),
            halted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{PARAM_GPUS, PARAM_MODEL_HP};
    use crate::config::SamplerKind;
    use crate::engine::EdgeTune;
    use edgetune_tuner::scheduler::SchedulerConfig;
    use edgetune_tuner::Metric;
    use edgetune_util::units::Seconds;
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
    fn the_recorded_timeline_is_the_one_the_trace_shows() {
        // The evaluator records the timeline and emits the same spans
        // to the observer: what the report holds must equal, field for
        // field and in order, what the old read-back derived from the
        // trace — a late-starting sweep right after its trial included.
        use edgetune_faults::FaultPlan;
        let modes: [(&str, EdgeTuneConfig); 5] = [
            ("default", quick_config()),
            ("no pipelining", quick_config().without_pipelining()),
            ("3 trial slots", quick_config().with_trial_slots(3)),
            ("pareto", quick_config().with_pareto(4)),
            (
                "chaos",
                quick_config().with_fault_plan(FaultPlan::uniform(0.3)),
            ),
        ];
        for (mode, config) in modes {
            for shards in [1, 4] {
                let config = config.clone().with_study_shards(shards);
                let engine = Engine::new(&config);
                let mut backend = engine.default_backend();
                let tracer = Tracer::new();
                let report = engine.run_inner(&mut backend, &tracer).unwrap();
                assert!(!report.timeline().spans().is_empty());
                assert_eq!(
                    report.timeline(),
                    &crate::trace::tests::timeline_shown_by(&tracer),
                    "{mode}, {shards} shard(s)"
                );
            }
        }
        // The non-pipelined order is the contract worth naming: every
        // sweep sits right after the trial it starts behind.
        let synchronous = EdgeTune::new(quick_config().without_pipelining())
            .run()
            .unwrap();
        let spans = synchronous.timeline().spans();
        let sweeps: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].lane == crate::timeline::Lane::InferenceServer)
            .collect();
        assert!(!sweeps.is_empty());
        for i in sweeps {
            assert_eq!(spans[i - 1].lane, crate::timeline::Lane::ModelServer);
            assert_eq!(
                spans[i].start,
                spans[i - 1].end,
                "starts when its trial ends"
            );
        }
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
        // `quick_config` is one successive-halving bracket; the same
        // study with HyperBand left on runs several.
        let sha = EdgeTune::new(quick_config()).run().unwrap();
        let mut config = quick_config();
        config.hyperband = true;
        let hb = EdgeTune::new(config).run().unwrap();
        assert!(
            hb.history().len() > sha.history().len(),
            "{} vs {}",
            hb.history().len(),
            sha.history().len()
        );
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
    use crate::engine::EdgeTune;
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
}

#[cfg(test)]
mod chaos_tests {
    use crate::config::EdgeTuneConfig;
    use crate::engine::{EdgeTune, TuningReport};
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
    use crate::engine::EdgeTune;
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
            "HyperBand runs must stay shard-invariant across brackets"
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
    fn a_sharded_run_leaves_exactly_one_checkpoint_file() {
        let dir = std::env::temp_dir().join("edgetune-shard-one-file-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("study.ckpt.json");
        let _ = EdgeTune::new(
            quick_config()
                .with_study_shards(4)
                .with_checkpoint_path(&path),
        )
        .run()
        .unwrap();
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        assert_eq!(
            left,
            ["study.ckpt.json"],
            "one checkpoint at the path, no `.shardN` or `.tmp` siblings"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_from_shard_checkpoints_reproduces_the_full_run() {
        let dir = std::env::temp_dir().join("edgetune-shard-resume-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("study.ckpt.json");

        let full = EdgeTune::new(quick_config()).run().unwrap();
        // The shards only measure: whatever count halts the study
        // writes the same checkpoint bytes, and any count resumes it.
        let mut checkpoints = Vec::new();
        for (halt_shards, resume_shards) in [(4, 4), (4, 1), (1, 4)] {
            std::fs::remove_file(&path).ok();
            let halted = EdgeTune::new(
                quick_config()
                    .with_study_shards(halt_shards)
                    .with_checkpoint_path(&path)
                    .with_halt_after_rungs(2),
            )
            .run()
            .unwrap();
            assert!(halted.history().len() < full.history().len());
            checkpoints.push(std::fs::read(&path).unwrap());
            let resumed = EdgeTune::new(
                quick_config()
                    .with_study_shards(resume_shards)
                    .with_checkpoint_path(&path)
                    .resuming(),
            )
            .run()
            .unwrap();
            assert_eq!(
                full.to_json().unwrap(),
                resumed.to_json().unwrap(),
                "halted under {halt_shards} shards, resumed under {resume_shards}: \
                 must reproduce the uninterrupted bytes"
            );
        }
        assert!(
            checkpoints.windows(2).all(|pair| pair[0] == pair[1]),
            "the rung-2 checkpoint's bytes depend on the shard count"
        );
        std::fs::remove_file(&path).ok();
    }
}
