//! The [`StudyService`]: admission, fair slicing, warm start, harvest.
//!
//! One service run drives every admitted study to completion on a
//! shared engine, interleaving them at rung granularity: a granted
//! study executes `rung_quantum` rungs under a cumulative
//! `halt_after_rungs` boundary, parks at its per-study checkpoint, and
//! the scheduler picks again. Because checkpoint park/resume is
//! byte-exact (the engine's standing invariant), the interleaving never
//! changes a study's report — a cold study's bytes equal a solo
//! `edgetune` run of the same submission, whatever ran in between its
//! slices.
//!
//! Completed studies donate their best configurations to a
//! [`TransferIndex`] under a [`TransferKey`]; a study submitted with
//! `warm_start` queries the index at its first grant, seeds its sampler
//! with the top-k transferred configurations, and shrinks its
//! exploration cohort accordingly (`warm_hits` / `trials_saved` in the
//! [`ServiceReport`](crate::report::ServiceReport)).

use std::path::PathBuf;

use edgetune::backend::PARAM_MODEL_HP;
use edgetune::transfer::{TransferIndex, TransferKey};
use edgetune::{EdgeTune, EdgeTuneConfig, TuningReport};
use edgetune_faults::FaultPlan;
use edgetune_tuner::scheduler::{HyperBand, SchedulerConfig};
use edgetune_tuner::space::Config;
use edgetune_tuner::Metric;
use edgetune_util::{Error, Result};
use edgetune_workloads::catalog::{Workload, WorkloadId};

use crate::report::{RejectedStudy, ScheduleGrant, ServiceReport, StudyOutcome};
use crate::scheduler::FairScheduler;
use crate::submission::{StudySubmission, SubmissionFile};

/// Service-level knobs (everything study-level lives in the submission
/// file).
#[derive(Debug, Clone)]
pub struct ServiceOptions {
    /// Directory for per-study checkpoints, reports, traces, and the
    /// persistent transfer index.
    pub work_dir: PathBuf,
    /// How many transferred configurations seed a warm-started study.
    pub warm_top_k: usize,
}

impl ServiceOptions {
    /// Options rooted at a work directory, with the default top-k of 3.
    #[must_use]
    pub fn new(work_dir: impl Into<PathBuf>) -> Self {
        ServiceOptions {
            work_dir: work_dir.into(),
            warm_top_k: 3,
        }
    }

    /// Sets how many transferred configurations seed a warm start.
    #[must_use]
    pub fn with_warm_top_k(mut self, k: usize) -> Self {
        self.warm_top_k = k;
        self
    }
}

/// Per-study bookkeeping while the study is live.
#[derive(Debug)]
struct StudyState {
    submission: StudySubmission,
    workload: WorkloadId,
    metric: Metric,
    /// Cold scheduler shape, exactly what a solo run would use.
    cold: SchedulerConfig,
    /// Transferred seed configurations (resolved at first grant).
    warm_seeds: Vec<Config>,
    warm_hits: u64,
    trials_saved: u64,
    slices: u32,
    planned_rungs: u64,
    started: bool,
}

impl StudyState {
    /// The scheduler shape actually run: the cold shape, minus the
    /// cohort slots covered by transferred seeds.
    fn effective_scheduler(&self) -> SchedulerConfig {
        let saved = self.warm_seeds.len().min(self.cold.initial_configs / 2);
        let initial = (self.cold.initial_configs - saved).max(1);
        SchedulerConfig::new(initial, self.cold.eta, self.cold.max_iteration)
    }

    /// The study's final entry in the service report: its bookkeeping
    /// plus the harvested report, or why there is none.
    fn outcome(&self, result: std::result::Result<TuningReport, String>) -> StudyOutcome {
        let (report, error) = match result {
            Ok(report) => (Some(report), None),
            Err(error) => (None, Some(error)),
        };
        StudyOutcome {
            tenant: self.submission.tenant.clone(),
            study: self.submission.name.clone(),
            seed: self.submission.seed,
            slices: self.slices,
            warm_hits: self.warm_hits,
            trials_saved: self.trials_saved,
            evaluated_trials: report.as_ref().map_or(0, |r| r.history().len() as u64),
            report,
            error,
        }
    }
}

/// The long-lived study service.
#[derive(Debug)]
pub struct StudyService {
    options: ServiceOptions,
    transfer: TransferIndex,
    /// Fault-injection hook: `(tenant, study)` → slice index at which
    /// the study's engine run is replaced by a crash.
    crash_points: std::collections::HashMap<(String, String), u32>,
}

/// Planned (trials, rungs) of one successive-halving bracket, assuming
/// no failures and no halt — mirrors `SuccessiveHalving::run_bracket`'s
/// promotion arithmetic.
fn planned_bracket(
    initial: usize,
    eta: f64,
    start_iteration: u32,
    max_iteration: u32,
) -> (u64, u64) {
    let mut n = initial;
    let mut iteration = start_iteration.max(1);
    let mut trials = 0u64;
    let mut rungs = 0u64;
    loop {
        trials += n as u64;
        rungs += 1;
        if n <= 1 || iteration >= max_iteration {
            return (trials, rungs);
        }
        n = ((n as f64 / eta).ceil() as usize).max(1);
        iteration = ((f64::from(iteration) * eta).round() as u32).min(max_iteration);
    }
}

/// Planned (trials, rungs) of a full HyperBand study under `scheduler`.
fn planned_study(scheduler: SchedulerConfig) -> (u64, u64) {
    let mut trials = 0u64;
    let mut rungs = 0u64;
    for spec in HyperBand::new(scheduler).bracket_specs() {
        let (t, r) = planned_bracket(
            spec.initial,
            scheduler.eta,
            spec.start_iteration,
            scheduler.max_iteration,
        );
        trials += t;
        rungs += r;
    }
    (trials, rungs)
}

impl StudyService {
    /// Creates a service over a work directory, loading the persistent
    /// transfer index left by earlier runs if one exists.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Storage`] if the work directory cannot be
    /// created or an existing transfer index cannot be parsed.
    pub fn new(options: ServiceOptions) -> Result<Self> {
        std::fs::create_dir_all(&options.work_dir)?;
        let index_path = options.work_dir.join("transfer.json");
        let transfer = if index_path.exists() {
            TransferIndex::load(&index_path)?
        } else {
            TransferIndex::new()
        };
        Ok(StudyService {
            options,
            transfer,
            crash_points: std::collections::HashMap::new(),
        })
    }

    /// Fault-injection hook: crash `tenant`'s `study` at its
    /// `at_slice`-th scheduling grant (0-based). The crash is recorded
    /// as the study's failure; every other study must be unaffected —
    /// the isolation property the service tests pin.
    pub fn inject_crash(&mut self, tenant: &str, study: &str, at_slice: u32) {
        self.crash_points
            .insert((tenant.to_string(), study.to_string()), at_slice);
    }

    /// The service's transfer index (completed studies donate to it).
    #[must_use]
    pub fn transfer_index(&self) -> &TransferIndex {
        &self.transfer
    }

    fn study_path(&self, submission: &StudySubmission, suffix: &str) -> PathBuf {
        self.options.work_dir.join(format!(
            "{}.{}.{suffix}",
            submission.tenant, submission.name
        ))
    }

    /// The [`TransferKey`] a study queries the index with *before*
    /// running: its workload's default architecture stands in for the
    /// winner it does not know yet.
    fn query_key(&self, state: &StudyState) -> TransferKey {
        let workload = Workload::by_id(state.workload);
        let device = EdgeTuneConfig::for_workload(state.workload)
            .edge_device
            .name;
        let arch = workload.arch_signature(workload.model_hp_values[0]);
        TransferKey::new(
            device,
            workload.model,
            arch,
            state.metric,
            state.submission.scenario.clone(),
        )
    }

    /// The [`TransferKey`] a *completed* study donates under: keyed by
    /// the architecture that actually won.
    fn donor_key(&self, state: &StudyState, report: &TuningReport) -> TransferKey {
        let workload = Workload::by_id(state.workload);
        let hp = report
            .best_config()
            .get(PARAM_MODEL_HP)
            .unwrap_or(workload.model_hp_values[0]);
        let device = EdgeTuneConfig::for_workload(state.workload)
            .edge_device
            .name;
        let arch = workload.arch_signature(hp);
        TransferKey::new(
            device,
            workload.model,
            arch,
            state.metric,
            state.submission.scenario.clone(),
        )
    }

    /// The engine configuration for one slice of a study.
    fn slice_config(&self, state: &StudyState) -> EdgeTuneConfig {
        let s = &state.submission;
        // Exactly the solo CLI construction, so a cold study's report
        // bytes match a solo `edgetune --workload … --seed …` run.
        let mut config = EdgeTuneConfig::for_workload(state.workload)
            .with_metric(state.metric)
            .with_scheduler(state.effective_scheduler())
            .with_seed(s.seed)
            .with_checkpoint_path(self.study_path(s, "ckpt.json"))
            .with_halt_after_rungs(s.rung_quantum * (state.slices + 1));
        if state.slices > 0 {
            config = config.resuming();
        }
        if !state.warm_seeds.is_empty() {
            // Every slice: the resumed sampler re-suggests the whole
            // stream, so the seeds must be in front each time.
            config = config.with_warm_start(state.warm_seeds.clone());
        }
        if s.chaos_rate > 0.0 {
            config = config.with_fault_plan(FaultPlan::uniform(s.chaos_rate));
        }
        if s.trace {
            config = config.with_trace_path(self.study_path(s, "trace.json"));
        }
        config
    }

    /// The donor's best configurations, best-first and deduplicated.
    /// A Pareto study donates its frontier first — every point on the
    /// front is a defensible winner under *some* trade-off, so all of
    /// them are worth seeding a future study with — then pads with the
    /// scalar top-k as before. Scalar studies are unchanged.
    fn donation(&self, report: &TuningReport) -> Vec<Config> {
        let mut seen = std::collections::HashSet::new();
        let mut configs = Vec::new();
        for point in report.frontier() {
            if configs.len() >= self.options.warm_top_k {
                return configs;
            }
            if seen.insert(point.config.key()) {
                configs.push(point.config.clone());
            }
        }
        let mut records: Vec<_> = report
            .history()
            .records()
            .iter()
            .filter(|r| r.outcome.score.is_finite())
            .collect();
        records.sort_by(|a, b| {
            a.outcome
                .score
                .total_cmp(&b.outcome.score)
                .then(a.id.cmp(&b.id))
        });
        for record in records {
            if configs.len() >= self.options.warm_top_k {
                break;
            }
            if seen.insert(record.config.key()) {
                configs.push(record.config.clone());
            }
        }
        configs
    }

    fn cleanup(&self, submission: &StudySubmission) {
        std::fs::remove_file(self.study_path(submission, "ckpt.json")).ok();
    }

    /// Admits and drives every study in `file` to completion, returning
    /// the service report. Studies that fail (e.g. crashed by fault
    /// injection) are recorded and removed without disturbing the rest.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Storage`] when the work directory or the
    /// transfer index cannot be written. Individual study failures do
    /// not fail the run.
    pub fn run(&mut self, file: &SubmissionFile) -> Result<ServiceReport> {
        let mut scheduler = FairScheduler::new();
        let mut queue_room: std::collections::HashMap<&str, usize> =
            std::collections::HashMap::new();
        for tenant in &file.tenants {
            scheduler.add_tenant(&tenant.name, tenant.weight);
            queue_room.insert(&tenant.name, tenant.queue_limit);
        }

        // Admission: bounded per-tenant queues, in submission order.
        let mut states: Vec<StudyState> = Vec::new();
        let mut rejected: Vec<RejectedStudy> = Vec::new();
        for submission in &file.studies {
            // Unresolvable names reject this study alone — never the
            // whole submission file — and consume no queue room.
            let ids = submission
                .workload_id()
                .and_then(|w| submission.metric_id().map(|m| (w, m)));
            let (workload, metric) = match ids {
                Ok(ids) => ids,
                Err(err) => {
                    rejected.push(RejectedStudy {
                        tenant: submission.tenant.clone(),
                        study: submission.name.clone(),
                        reason: err.to_string(),
                    });
                    continue;
                }
            };
            let room = queue_room
                .get_mut(submission.tenant.as_str())
                .expect("validated tenant");
            if *room == 0 {
                rejected.push(RejectedStudy {
                    tenant: submission.tenant.clone(),
                    study: submission.name.clone(),
                    reason: "tenant queue full".to_string(),
                });
                continue;
            }
            *room -= 1;
            let cold = SchedulerConfig::new(submission.trials, 2.0, submission.max_iter);
            let (_, planned_rungs) = planned_study(cold);
            let state = StudyState {
                workload,
                metric,
                submission: submission.clone(),
                cold,
                warm_seeds: Vec::new(),
                warm_hits: 0,
                trials_saved: 0,
                slices: 0,
                planned_rungs,
                started: false,
            };
            scheduler.enqueue(&submission.tenant, states.len(), planned_rungs);
            states.push(state);
        }

        let mut outcomes: Vec<Option<StudyOutcome>> = (0..states.len()).map(|_| None).collect();
        let mut schedule: Vec<ScheduleGrant> = Vec::new();

        while let Some(idx) = scheduler.grant() {
            let state = &mut states[idx];
            schedule.push(ScheduleGrant {
                tenant: state.submission.tenant.clone(),
                study: state.submission.name.clone(),
            });

            // First grant: resolve the warm start against whatever has
            // completed so far.
            if !state.started {
                state.started = true;
                if state.submission.warm_start {
                    let key = self.query_key(state);
                    state.warm_seeds = self.transfer.suggest(&key, self.options.warm_top_k);
                    state.warm_hits = state.warm_seeds.len() as u64;
                    if state.warm_hits > 0 {
                        let (cold_trials, _) = planned_study(state.cold);
                        let (warm_trials, warm_rungs) = planned_study(state.effective_scheduler());
                        state.trials_saved = cold_trials.saturating_sub(warm_trials);
                        state.planned_rungs = warm_rungs;
                    }
                }
            }

            let crash_key = (
                state.submission.tenant.clone(),
                state.submission.name.clone(),
            );
            let outcome = if self.crash_points.get(&crash_key) == Some(&state.slices) {
                Err(Error::invalid_config("injected crash"))
            } else {
                let config = self.slice_config(state);
                EdgeTune::new(config).run()
            };
            state.slices += 1;

            // Backstop against a park/resume that never converges: a
            // study can replay one extra slice past its natural end (a
            // halt boundary coinciding with completion), never more.
            let slice_budget = state.planned_rungs / u64::from(state.submission.rung_quantum) + 2;
            // `Some` once the study is over, one way or another.
            let finished = match outcome {
                Err(err) => Some(Err(err.to_string())),
                Ok(report) if !report.halted() => {
                    // Harvest failures (an unserialisable report, an
                    // unwritable report path) fail *this study*, not the
                    // whole submission file — and a study whose report
                    // could not be persisted donates nothing.
                    let path = self.study_path(&state.submission, "report.json");
                    let harvest = report
                        .to_json()
                        .and_then(|json| edgetune_util::fs::write_atomic(&path, json));
                    Some(match harvest {
                        Ok(()) => {
                            let key = self.donor_key(state, &report);
                            self.transfer.record(
                                key,
                                self.donation(&report),
                                report.best().outcome.score,
                            );
                            Ok(report)
                        }
                        Err(err) => Err(format!("harvest failed: {err}")),
                    })
                }
                Ok(_) if u64::from(state.slices) > slice_budget => Some(Err(
                    "study exceeded its slice budget without completing".into(),
                )),
                Ok(_) => {
                    // Parked at the halt boundary; lower its remaining
                    // budget and let the scheduler pick again.
                    let done = u64::from(state.submission.rung_quantum) * u64::from(state.slices);
                    scheduler.update_remaining(idx, state.planned_rungs.saturating_sub(done));
                    None
                }
            };
            if let Some(result) = finished {
                outcomes[idx] = Some(state.outcome(result));
                scheduler.remove(idx);
                self.cleanup(&state.submission);
            }
        }

        self.transfer
            .save(&self.options.work_dir.join("transfer.json"))?;
        let outcomes = outcomes
            .into_iter()
            .map(|o| o.ok_or_else(|| Error::invalid_config("study neither completed nor failed")))
            .collect::<Result<Vec<_>>>()?;
        Ok(ServiceReport {
            outcomes,
            rejected,
            schedule,
        })
    }
}
