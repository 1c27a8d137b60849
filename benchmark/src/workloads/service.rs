//! `service-batch`: a multi-tenant batch whose study compute is
//! negligible, so checkpoint park/resume I/O, serde, the fair scheduler
//! and the transfer index are the work.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use edgetune::checkpoint::StudyCheckpoint;
use edgetune::{EdgeTune, EdgeTuneConfig, TransferIndex, TransferKey};
use edgetune_runtime::frame::crc32;
use edgetune_service::{
    FairScheduler, ServiceOptions, ServiceReport, StudyService, StudySubmission, SubmissionFile,
    TenantSpec,
};
use edgetune_tuner::{Metric, SchedulerConfig};
use edgetune_workloads::Workload as Catalog;

use super::{fold_digests, scaled, set_residual, Env, Layers, Result, Traced, Verdict, Workload};
use crate::spans::Spans;
use crate::stats::median_call_s;

const TENANTS: [(&str, u32); 4] = [("alpha", 1), ("beta", 2), ("gamma", 3), ("delta", 4)];
const WORKLOADS: [&str; 4] = ["ic", "sr", "nlp", "od"];
/// Cold studies checked byte-for-byte against a solo run, per pass.
const SOLO_CHECKS: usize = 8;

pub struct ServiceInput {
    file: SubmissionFile,
    /// Fresh per pass; removed when the input is dropped.
    work_dir: PathBuf,
}

impl Drop for ServiceInput {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.work_dir).ok();
    }
}

/// The engine configuration a solo `edgetune` run of a submission uses.
fn solo_config(study: &StudySubmission) -> Result<EdgeTuneConfig> {
    let workload = study.workload_id().map_err(|e| e.to_string())?;
    let metric = study.metric_id().map_err(|e| e.to_string())?;
    Ok(EdgeTuneConfig::for_workload(workload)
        .with_metric(metric)
        .with_scheduler(SchedulerConfig::new(study.trials, 2.0, study.max_iter))
        .with_seed(study.seed))
}

fn report_path(work_dir: &Path, study: &StudySubmission) -> PathBuf {
    work_dir.join(format!("{}.{}.report.json", study.tenant, study.name))
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

pub struct ServiceBatch;

impl Workload for ServiceBatch {
    const NAME: &'static str = "service-batch";
    type Input = ServiceInput;
    type Output = ServiceReport;

    fn prepare(env: &Env, divisor: u32) -> Result<ServiceInput> {
        static PASS: AtomicU32 = AtomicU32::new(0);
        let tenants = TENANTS
            .iter()
            .map(|&(name, weight)| TenantSpec {
                name: name.to_string(),
                weight,
                queue_limit: 1000,
            })
            .collect();
        let studies = (0..scaled(64, divisor, 8))
            .map(|i| StudySubmission {
                tenant: TENANTS[i % TENANTS.len()].0.to_string(),
                name: format!("study-{i:02}"),
                workload: WORKLOADS[(i / TENANTS.len()) % WORKLOADS.len()].to_string(),
                metric: "runtime".to_string(),
                seed: env
                    .seed
                    .child(Self::NAME)
                    .child_indexed("study", i as u64)
                    .seed(),
                trials: 8,
                max_iter: 9,
                rung_quantum: 1,
                warm_start: i % 2 == 1,
                chaos_rate: 0.0,
                trace: false,
                scenario: "batch".to_string(),
            })
            .collect();
        let work_dir = env
            .scratch
            .join(format!("service-{}", PASS.fetch_add(1, Ordering::Relaxed)));
        std::fs::create_dir_all(&work_dir).map_err(|e| e.to_string())?;
        Ok(ServiceInput {
            file: SubmissionFile { tenants, studies },
            work_dir,
        })
    }

    fn execute(input: &mut ServiceInput, spans: Option<&mut Spans>) -> Result<ServiceReport> {
        let run = || {
            StudyService::new(ServiceOptions::new(&input.work_dir))
                .and_then(|mut service| service.run(&input.file))
                .map_err(|e| e.to_string())
        };
        match spans {
            None => run(),
            Some(spans) => spans.scope("service.run", |_| run()),
        }
    }

    fn verdict(input: &ServiceInput, output: &ServiceReport) -> Verdict {
        let mut verdict = Verdict {
            attempted: input.file.studies.len() as u64,
            failed: output.rejected.len() as u64,
            ..Verdict::default()
        };
        for rejected in &output.rejected {
            verdict.errors.push(format!(
                "{}/{} rejected: {}",
                rejected.tenant, rejected.study, rejected.reason
            ));
        }
        let mut digests = Vec::new();
        let mut solo_checked = 0;
        for study in &input.file.studies {
            let outcome = output.outcome(&study.tenant, &study.name);
            if let Some(error) = outcome.and_then(|o| o.error.as_ref()) {
                verdict.failed += 1;
                verdict
                    .errors
                    .push(format!("{}/{}: {error}", study.tenant, study.name));
                continue;
            }
            let bytes = match std::fs::read(report_path(&input.work_dir, study)) {
                Ok(bytes) => bytes,
                Err(e) => {
                    verdict.failed += 1;
                    verdict
                        .errors
                        .push(format!("{}/{}: no report: {e}", study.tenant, study.name));
                    continue;
                }
            };
            verdict.units += 1;
            digests.push(crc32(&bytes));
            // Isolation by byte-identity: a cold study's served report
            // equals a solo run of the same seed.
            if !study.warm_start && solo_checked < SOLO_CHECKS {
                solo_checked += 1;
                let solo = solo_config(study)
                    .and_then(|c| EdgeTune::new(c).run().map_err(|e| e.to_string()))
                    .and_then(|r| r.to_json().map_err(|e| e.to_string()));
                if solo.as_deref().map(str::as_bytes) != Ok(&bytes[..]) {
                    verdict.failed += 1;
                    verdict.errors.push(format!(
                        "{}/{}: served report differs from the solo run",
                        study.tenant, study.name
                    ));
                }
            }
        }
        verdict
            .digests
            .insert("reports".to_string(), fold_digests(digests));
        verdict
    }

    fn attribute(
        env: &Env,
        input: &ServiceInput,
        passes: Traced<'_, Self>,
        spans: &mut Spans,
        layers: &mut Layers,
    ) -> Result<()> {
        let report = passes.traced;
        let wall = passes.traced_wall_s;
        let grants = report.schedule.len() as f64;
        let studies = input.file.studies.len() as f64;
        layers.set("service.grants", grants);
        layers.set("service.grant_ms", wall / grants * 1e3);
        layers.set(
            "service.warm.trials_saved",
            report.outcomes.iter().map(|o| o.trials_saved).sum::<u64>() as f64,
        );
        layers.set(
            "service.workdir_mb",
            dir_bytes(&input.work_dir) as f64 / 1e6,
        );

        let solo_sum_s = spans.scope("service.solo_replay", |_| -> Result<f64> {
            let start = Instant::now();
            for study in &input.file.studies {
                black_box(EdgeTune::new(solo_config(study)?).run()).map_err(|e| e.to_string())?;
            }
            Ok(start.elapsed().as_secs_f64())
        })?;
        layers.set("service.solo_sum_s", solo_sum_s);
        layers.set(
            "service.park_resume.overhead_share",
            (wall - solo_sum_s) / wall,
        );

        spans.scope("service.scheduler.replay", |_| {
            let mut scheduler = FairScheduler::new();
            for (tenant, weight) in TENANTS {
                scheduler.add_tenant(tenant, weight);
            }
            for (i, study) in input.file.studies.iter().enumerate() {
                scheduler.enqueue(&study.tenant, i, 14);
            }
            // `grant` only picks (removal happens at completion), so
            // repeated grants over a static queue are the steady state.
            const BATCH: usize = 64;
            let grant = median_call_s(200, || {
                for _ in 0..BATCH {
                    black_box(scheduler.grant());
                }
            }) / BATCH as f64;
            layers.set("service.scheduler.grant_ns", grant * 1e9);
        });

        // A mid-study checkpoint of one of the batch's own studies, then
        // the park (save) and resume (load) the service pays per grant.
        let (save_s, load_s) =
            spans.scope("core.checkpoint.replay", |_| -> Result<(f64, f64)> {
                let study = &input.file.studies[0];
                let path = env.scratch.join("replay.ckpt.json");
                let config = solo_config(study)?
                    .with_checkpoint_path(&path)
                    .with_halt_after_rungs(7);
                EdgeTune::new(config).run().map_err(|e| e.to_string())?;
                let checkpoint = StudyCheckpoint::load(&path).map_err(|e| e.to_string())?;
                let kb = std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64 / 1e3;
                let load = median_call_s(50, || {
                    black_box(StudyCheckpoint::load(black_box(&path)).expect("checkpoint loads"));
                });
                let save = median_call_s(50, || {
                    checkpoint.save(black_box(&path)).expect("checkpoint saves");
                });
                std::fs::remove_file(&path).ok();
                layers.set("core.checkpoint.save_ms", save * 1e3);
                layers.set("core.checkpoint.load_ms", load * 1e3);
                layers.set("core.checkpoint.kb", kb);
                Ok((save, load))
            })?;

        spans.scope("core.transfer.replay", |_| -> Result<()> {
            let index = TransferIndex::load(&input.work_dir.join("transfer.json"))
                .map_err(|e| e.to_string())?;
            let study = &input.file.studies[0];
            let config = solo_config(study)?;
            let workload = Catalog::by_id(config.workload);
            let query = TransferKey::new(
                config.edge_device.name.clone(),
                workload.model.clone(),
                workload.arch_signature(workload.model_hp_values[0]),
                Metric::Runtime,
                study.scenario.clone(),
            );
            let suggest = median_call_s(200, || {
                black_box(index.suggest(black_box(&query), 3));
            });
            let path = env.scratch.join("replay.transfer.json");
            let save = median_call_s(30, || {
                index.save(black_box(&path)).expect("index saves");
            });
            std::fs::remove_file(&path).ok();
            layers.set("core.transfer.suggest_us", suggest * 1e6);
            layers.set("core.transfer.save_ms", save * 1e3);
            Ok(())
        })?;

        // Computed, not measured: every grant parks once, every grant but
        // a study's first resumes once, at the replayed mid-study cost.
        set_residual(
            layers,
            wall,
            &[solo_sum_s, grants * save_s, (grants - studies) * load_s],
        );
        Ok(())
    }
}
