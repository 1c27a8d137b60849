//! The [`StudyService`]: admission, fair slicing, warm start, harvest.
//!
//! One service run drives every admitted study to completion on a
//! shared engine, interleaving them at rung granularity. A study stays
//! resident between grants — its backend next to its [`StudyRun`] — and
//! a grant is `rung_quantum` calls to [`StudyRun::step`], so it takes
//! exactly ⌈rungs / `rung_quantum`⌉ grants and replays nothing: a cold
//! study's report and trace bytes equal a solo `edgetune` run of the
//! same submission, whatever ran in between. A study lives in memory
//! only: the service writes no checkpoint, and a study cut short by the
//! process ending is not resumed.
//!
//! Completed studies donate their best configurations to a
//! [`TransferIndex`] under a [`TransferKey`]; a study submitted with
//! `warm_start` queries the index at its first grant, seeds its sampler
//! with the top [`WARM_TOP_K`] transferred configurations, and shrinks its
//! exploration cohort accordingly (`warm_hits` / `trials_saved` in the
//! [`ServiceReport`](crate::report::ServiceReport)).

use std::path::PathBuf;

use edgetune::backend::{SimTrainingBackend, PARAM_MODEL_HP};
use edgetune::transfer::{TransferIndex, TransferKey};
use edgetune::{EdgeTuneConfig, StudyRun, TuningReport};
use edgetune_tuner::scheduler::{HyperBand, SchedulerConfig};
use edgetune_tuner::space::Config;
use edgetune_tuner::Metric;
use edgetune_util::{Error, Result};
use edgetune_workloads::catalog::{Workload, WorkloadId};

use crate::report::{RejectedStudy, ScheduleGrant, ServiceReport, StudyOutcome};
use crate::scheduler::FairScheduler;
use crate::submission::{StudySubmission, SubmissionFile};

/// How many transferred configurations seed a warm-started study, and how
/// many a completed study donates.
const WARM_TOP_K: usize = 3;

/// Service-level knobs (everything study-level lives in the submission
/// file).
#[derive(Debug, Clone)]
pub struct ServiceOptions {
    /// Directory for per-study reports and traces, and the persistent
    /// transfer index.
    pub work_dir: PathBuf,
}

impl ServiceOptions {
    /// Options rooted at a work directory.
    #[must_use]
    pub fn new(work_dir: impl Into<PathBuf>) -> Self {
        ServiceOptions {
            work_dir: work_dir.into(),
        }
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
    /// Transferred configurations seeded at the first grant.
    warm_hits: u64,
    trials_saved: u64,
    slices: u32,
    planned_rungs: u64,
    /// The study's backend and its running study, resident from the
    /// first grant until the study ends.
    live: Option<(SimTrainingBackend, StudyRun)>,
}

impl StudyState {
    /// The scheduler shape actually run: the cold shape, minus the
    /// cohort slots covered by transferred seeds.
    fn effective_scheduler(&self) -> SchedulerConfig {
        let saved = (self.warm_hits as usize).min(self.cold.initial_configs / 2);
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
        Ok(StudyService { options, transfer })
    }

    /// `{tenant}.{name}.{suffix}` in the work dir. Admission has checked
    /// both names with [`file_name_part`], so the path stays inside it.
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

    /// The engine configuration of a study, seeded with `warm_seeds`.
    fn study_config(&self, state: &StudyState, warm_seeds: Vec<Config>) -> EdgeTuneConfig {
        let s = &state.submission;
        // Exactly the solo CLI construction, so a cold study's report
        // bytes match a solo `edgetune --workload … --seed …` run.
        let mut config = EdgeTuneConfig::for_workload(state.workload)
            .with_metric(state.metric)
            .with_scheduler(state.effective_scheduler())
            .with_seed(s.seed)
            .with_fault_rate(s.chaos_rate);
        if !warm_seeds.is_empty() {
            config = config.with_warm_start(warm_seeds);
        }
        if s.trace {
            config = config.with_trace_path(self.study_path(s, "trace.json"));
        }
        config
    }

    /// One grant: up to `rung_quantum` steps of the study, starting it
    /// on its first grant. `Ok(true)` once no rung is left.
    fn run_grant(&self, state: &mut StudyState) -> Result<bool> {
        if state.live.is_none() {
            // First grant: resolve the warm start against whatever has
            // completed so far.
            let mut warm_seeds = Vec::new();
            if state.submission.warm_start {
                warm_seeds = self.transfer.suggest(&self.query_key(state), WARM_TOP_K);
                state.warm_hits = warm_seeds.len() as u64;
                if state.warm_hits > 0 {
                    let (cold_trials, _) = HyperBand::new(state.cold).planned();
                    let (warm_trials, warm_rungs) =
                        HyperBand::new(state.effective_scheduler()).planned();
                    state.trials_saved = cold_trials.saturating_sub(warm_trials);
                    state.planned_rungs = warm_rungs;
                }
            }
            let config = self.study_config(state, warm_seeds);
            let mut backend = config.default_backend();
            let run = StudyRun::start(&config, &mut backend, false)?;
            state.live = Some((backend, run));
        }
        let (backend, run) = state.live.as_mut().expect("started above");
        for _ in 0..state.submission.rung_quantum {
            if !run.step(backend)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// The donor's best configurations by score, best-first and
    /// deduplicated.
    fn donation(&self, report: &TuningReport) -> Vec<Config> {
        let mut seen = std::collections::HashSet::new();
        let mut configs = Vec::new();
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
            if configs.len() >= WARM_TOP_K {
                break;
            }
            if seen.insert(record.config.key()) {
                configs.push(record.config.clone());
            }
        }
        configs
    }

    /// Persists a finished study's report and donates its best
    /// configurations. Harvest failures (an unserialisable report, an
    /// unwritable report path) fail *this study*, not the whole
    /// submission file — and a study whose report could not be
    /// persisted donates nothing.
    fn harvest(
        &mut self,
        state: &StudyState,
        report: TuningReport,
    ) -> std::result::Result<TuningReport, String> {
        let path = self.study_path(&state.submission, "report.json");
        report
            .to_json()
            .and_then(|json| edgetune_util::fs::write_atomic(&path, json))
            .map_err(|err| format!("harvest failed: {err}"))?;
        let key = self.donor_key(state, &report);
        self.transfer
            .record(key, self.donation(&report), report.best().outcome.score);
        Ok(report)
    }

    /// Admits and drives every study in `file` to completion, returning
    /// the service report. Studies that fail (e.g. a rung too large to
    /// hold in memory) are recorded and removed without disturbing the
    /// rest.
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
            let ids = file_name_part("tenant", &submission.tenant)
                .and_then(|()| file_name_part("study", &submission.name))
                .and_then(|()| {
                    submission
                        .workload_id()
                        .and_then(|w| submission.metric_id().map(|m| (w, m)))
                        .map_err(|err| err.to_string())
                });
            let (workload, metric) = match ids {
                Ok(ids) => ids,
                Err(reason) => {
                    rejected.push(RejectedStudy {
                        tenant: submission.tenant.clone(),
                        study: submission.name.clone(),
                        reason,
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
            let (_, planned_rungs) = HyperBand::new(cold).planned();
            let state = StudyState {
                workload,
                metric,
                submission: submission.clone(),
                cold,
                warm_hits: 0,
                trials_saved: 0,
                slices: 0,
                planned_rungs,
                live: None,
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

            let outcome = self.run_grant(state);
            state.slices += 1;

            // `Some` once the study is over, one way or another.
            let finished = match outcome {
                Err(err) => Some(Err(err.to_string())),
                Ok(false) => {
                    let done = u64::from(state.submission.rung_quantum) * u64::from(state.slices);
                    scheduler.update_remaining(idx, state.planned_rungs.saturating_sub(done));
                    None
                }
                Ok(true) => {
                    let (mut backend, run) = state.live.take().expect("a finished study ran");
                    Some(match run.finish(&mut backend) {
                        Err(err) => Err(err.to_string()),
                        Ok((report, _)) => self.harvest(state, report),
                    })
                }
            };
            if let Some(result) = finished {
                state.live = None;
                outcomes[idx] = Some(state.outcome(result));
                scheduler.remove(idx);
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

/// Checks that `name` can be one dot-separated part of a file name in the
/// work dir: non-empty, only `[A-Za-z0-9._-]`, and not starting with `.`
/// — so no separator or `..` can move a study's files out of the work
/// dir, and no hidden file can appear in it.
fn file_name_part(what: &str, name: &str) -> std::result::Result<(), String> {
    let allowed = |c: char| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-');
    if name.is_empty() || name.starts_with('.') || !name.chars().all(allowed) {
        return Err(format!(
            "{what} name '{name}' must be non-empty, use only [A-Za-z0-9._-], \
             and not start with '.'"
        ));
    }
    Ok(())
}
