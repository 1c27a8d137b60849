//! The three study workloads — `study-hb`, `study-sweep`, `study-nn` —
//! one engine used three ways, so a change to one layer has a workload
//! that exercises it and one that bypasses it.

use std::hint::black_box;
use std::marker::PhantomData;
use std::time::Instant;

use edgetune::backend::{NnTrainingBackend, SimTrainingBackend, TrainingBackend, TrialMeasurement};
use edgetune::cache::{CacheKey, CacheStats, HistoricalCache};
use edgetune::config::SamplerKind;
use edgetune::inference::{InferenceSpace, InferenceTuningServer};
use edgetune::{EdgeTune, EdgeTuneConfig, Engine, TuningReport};
use edgetune_device::WorkProfile;
use edgetune_nn::data::Dataset;
use edgetune_nn::layer::{Conv2d, Dense, Flatten, MaxPool2d, Relu, Reshape};
use edgetune_nn::optim::Sgd;
use edgetune_nn::train::{fit, FitConfig};
use edgetune_nn::{Sequential, Tensor};
use edgetune_runtime::frame::crc32;
use edgetune_tuner::{
    Config, GridSampler, History, HyperBand, InferenceObjective, Metric, RandomSampler, Sampler,
    SchedulerConfig, SearchSpace, SuccessiveHalving, TpeSampler, TrialBudget, TrialOutcome,
};
use edgetune_util::rng::SeedStream;
use edgetune_util::units::{Joules, Seconds};
use edgetune_workloads::{Workload as Catalog, WorkloadId};

use super::{fold_digests, scaled, set_residual, Env, Layers, Result, Traced, Verdict, Workload};
use crate::spans::Spans;
use crate::stats::median_call_s;

/// Which training backend a study runs on.
#[derive(Debug, Clone)]
enum BackendKind {
    /// The default simulated backend of a catalog workload.
    Sim(WorkloadId),
    /// Real training; the backend (with its generated dataset) is built
    /// during set-up and cloned per pass — a clone shares the dataset.
    Nn(NnTrainingBackend),
}

#[derive(Debug, Clone)]
pub struct StudySpec {
    config: EdgeTuneConfig,
    backend: BackendKind,
}

impl StudySpec {
    /// The backend the engine would build for this study by default —
    /// the digest check holds the two constructions together.
    fn backend(&self) -> Box<dyn TrainingBackend> {
        match &self.backend {
            BackendKind::Sim(id) => Box::new(SimTrainingBackend::new(
                Catalog::by_id(*id),
                SeedStream::new(self.config.seed).child("trials"),
            )),
            BackendKind::Nn(backend) => Box::new(backend.clone()),
        }
    }

    fn run_plain(&self) -> edgetune_util::Result<TuningReport> {
        let job = EdgeTune::new(self.config.clone());
        match &self.backend {
            BackendKind::Sim(_) => job.run(),
            BackendKind::Nn(_) => job.run_with_backend(self.backend().as_mut()),
        }
    }

    /// The scheduler pass of this study with a constant-time evaluator:
    /// scheduler + sampler + history self time.
    fn run_null_eval(&self) -> History {
        let seed = SeedStream::new(self.config.seed).child("sampler");
        let mut sampler: Box<dyn Sampler> = match self.config.sampler {
            SamplerKind::Grid(resolution) => Box::new(GridSampler::new(resolution)),
            SamplerKind::Random => Box::new(RandomSampler::new(seed)),
            SamplerKind::Tpe => Box::new(TpeSampler::new(seed)),
        };
        let space = self.backend().search_space();
        let mut evaluate = |id: u64, _: &Config, _: TrialBudget| {
            // A cheap deterministic spread of scores so promotion and the
            // TPE split have something to rank.
            let score = (id.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as f64 / (1u64 << 24) as f64;
            TrialOutcome::new(score, 1.0 - score, Seconds::new(1.0), Joules::new(1.0))
        };
        if self.config.hyperband {
            HyperBand::new(self.config.scheduler).run(
                sampler.as_mut(),
                &space,
                &self.config.budget,
                &mut evaluate,
            )
        } else {
            SuccessiveHalving::new(self.config.scheduler).run(
                sampler.as_mut(),
                &space,
                &self.config.budget,
                &mut evaluate,
            )
        }
    }
}

/// `TrainingBackend` wrapper that times every delegated `run_trial`.
struct TimedBackend<'a> {
    inner: &'a mut dyn TrainingBackend,
    origin: Instant,
    /// (start, end) of each call, seconds since `origin`.
    calls: Vec<(f64, f64)>,
}

impl TrainingBackend for TimedBackend<'_> {
    fn search_space(&self) -> SearchSpace {
        self.inner.search_space()
    }

    fn architecture(&self, config: &Config) -> (String, WorkProfile) {
        self.inner.architecture(config)
    }

    fn run_trial(&mut self, config: &Config, budget: TrialBudget) -> TrialMeasurement {
        let start = self.origin.elapsed().as_secs_f64();
        let measurement = self.inner.run_trial(config, budget);
        self.calls
            .push((start, self.origin.elapsed().as_secs_f64()));
        measurement
    }

    fn fault_cursor(&self) -> u64 {
        self.inner.fault_cursor()
    }

    fn set_fault_cursor(&mut self, cursor: u64) {
        self.inner.set_fault_cursor(cursor);
    }
    // No snapshot and no process spec: every trial runs sequentially
    // through this wrapper (trial_workers = 1, study_shards = 1 anyway).
}

pub struct StudyInput {
    studies: Vec<StudySpec>,
    /// Serialise each report inside the timed region, as `--json` does.
    json_in_loop: bool,
}

#[derive(Debug, Default)]
pub struct StudyOutput {
    /// Per finished study: trials and the CRC-32 of its report JSON.
    finished: Vec<(u64, u32)>,
    failures: Vec<String>,
    /// Per-study wall of the engine run alone.
    run_ms: Vec<f64>,
    /// Per-study wall including the in-loop JSON, where there is one.
    unit_ms: Vec<f64>,
    cache: CacheStats,
    /// One report, its JSON and its study's index, kept for the replay
    /// blocks: the first whose scores are all finite. An infeasible
    /// trial's infinite score is written as `null`, and
    /// `TuningReport::from_json` refuses such a report.
    kept: Option<(TuningReport, String, usize)>,
    backend_calls: u64,
    backend_busy_s: f64,
    json_in_loop_s: f64,
    /// Time spent on digests inside the loop; not part of the workload.
    untimed_s: f64,
}

fn execute(input: &StudyInput, mut spans: Option<&mut Spans>) -> Result<StudyOutput> {
    let mut out = StudyOutput::default();
    for spec in &input.studies {
        let start = Instant::now();
        let run = match spans.as_deref_mut() {
            None => spec.run_plain(),
            Some(spans) => {
                let span = spans.open("core.engine.run");
                let mut backend = spec.backend();
                let mut timed = TimedBackend {
                    inner: backend.as_mut(),
                    origin: spans.origin(),
                    calls: Vec::new(),
                };
                let run = EdgeTune::new(spec.config.clone()).run_with_backend(&mut timed);
                spans.close(span);
                out.backend_calls += timed.calls.len() as u64;
                out.backend_busy_s += timed.calls.iter().map(|(s, e)| e - s).sum::<f64>();
                spans.add_calls("backend.run_trial", &timed.calls, span);
                run
            }
        };
        out.run_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let report = match run {
            Ok(report) => report,
            Err(e) => {
                out.failures.push(e.to_string());
                continue;
            }
        };
        let json = if input.json_in_loop {
            let t = Instant::now();
            let json = match spans.as_deref_mut() {
                None => report.to_json(),
                Some(spans) => spans.scope("core.report.to_json", |_| report.to_json()),
            };
            out.json_in_loop_s += t.elapsed().as_secs_f64();
            Some(json)
        } else {
            None
        };
        out.unit_ms.push(start.elapsed().as_secs_f64() * 1e3);

        // Off the clock: digest the artefact and let the bytes go, so
        // neither the wall nor the peak RSS measures the harness.
        let pause = Instant::now();
        let json = match json.unwrap_or_else(|| report.to_json()) {
            Ok(json) => json,
            Err(e) => {
                out.failures.push(e.to_string());
                continue;
            }
        };
        out.finished
            .push((report.history().len() as u64, crc32(json.as_bytes())));
        let stats = report.cache_stats();
        out.cache.hits += stats.hits;
        out.cache.misses += stats.misses;
        let index = out.run_ms.len() - 1;
        let parses_back = |report: &TuningReport| {
            let mut records = report.history().records().iter();
            records.all(|r| r.outcome.score.is_finite())
        };
        if out
            .kept
            .as_ref()
            .is_none_or(|(kept, ..)| !parses_back(kept))
        {
            out.kept = Some((report, json, index));
        }
        out.untimed_s += pause.elapsed().as_secs_f64();
    }
    Ok(out)
}

/// From this many studies a run on, per-study latencies are worth
/// reporting as a distribution.
const MANY_STUDIES: usize = 16;

fn verdict(input: &StudyInput, output: &StudyOutput) -> Verdict {
    Verdict {
        units: output.finished.iter().map(|(trials, _)| trials).sum(),
        attempted: input.studies.len() as u64,
        failed: output.failures.len() as u64,
        digests: [(
            "reports".to_string(),
            fold_digests(output.finished.iter().map(|(_, crc)| *crc)),
        )]
        .into(),
        unit_ms: if input.studies.len() >= MANY_STUDIES {
            output.unit_ms.clone()
        } else {
            Vec::new()
        },
        errors: output.failures.clone(),
    }
}

/// `n` records cycled out of `history`, as a history of their own.
fn history_of(history: &History, n: usize) -> History {
    let mut out = History::new();
    out.extend(history.records().iter().cycle().take(n).cloned());
    out
}

fn attribute(
    input: &StudyInput,
    passes: &Traced<'_, impl Workload<Output = StudyOutput>>,
    spans: &mut Spans,
    layers: &mut Layers,
) -> Result<()> {
    let traced = passes.traced;
    let wall = passes.traced_wall_s;
    layers.set("backend.run_trial.calls", traced.backend_calls as f64);
    layers.set("backend.run_trial.busy_s", traced.backend_busy_s);
    layers.set("backend.run_trial.share", traced.backend_busy_s / wall);

    let null_eval_s = spans.scope("tuner.hyperband.null_eval", |_| {
        let start = Instant::now();
        for spec in &input.studies {
            black_box(spec.run_null_eval());
        }
        start.elapsed().as_secs_f64()
    });
    layers.set("tuner.hyperband.null_eval_s", null_eval_s);
    layers.set("tuner.hyperband.share", null_eval_s / wall);

    let (report, json, index) = traced
        .kept
        .as_ref()
        .ok_or("no study finished, nothing to replay")?;
    let spec = &input.studies[*index];
    let space = spec.backend().search_space();

    spans.scope("tuner.replay", |_| {
        let observed = history_of(report.history(), 128);
        let observations = observed.observations();
        let mut sampler = TpeSampler::new(SeedStream::new(spec.config.seed).child("sampler"));
        let suggest = median_call_s(200, || {
            black_box(sampler.suggest(&space, black_box(&observations)));
        });
        layers.set("tuner.sampler.suggest_us", suggest * 1e6);
        for (name, n, iters) in [
            ("tuner.history.observations_us_h1k", 1 << 10, 200),
            ("tuner.history.observations_us_h16k", 1 << 14, 30),
        ] {
            let history = history_of(report.history(), n);
            let t = median_call_s(iters, || {
                black_box(black_box(&history).observations());
            });
            layers.set(name, t * 1e6);
        }
    });

    let tune_s = spans.scope("core.inference.replay", |_| -> Result<f64> {
        let device = &spec.config.edge_device;
        let server = InferenceTuningServer::new(
            device.clone(),
            InferenceSpace::for_device(device),
            InferenceObjective::new(spec.config.inference_metric),
        )
        .map_err(|e| e.to_string())?;
        let (_, profile) = spec.backend().architecture(report.best_config());
        let tune_s = median_call_s(30, || {
            black_box(server.tune(black_box(&profile)));
        });

        let mut cache = HistoricalCache::new();
        let (rec, _) = server.tune(&profile);
        for i in 0..1000u32 {
            let key = CacheKey::new(&device.name, format!("arch/{i}"), Metric::Runtime);
            cache.store(&key, rec.clone());
        }
        let key = CacheKey::new(&device.name, "arch/500", Metric::Runtime);
        const BATCH: usize = 256;
        let lookup = median_call_s(200, || {
            for _ in 0..BATCH {
                black_box(cache.lookup(black_box(&key)));
            }
        }) / BATCH as f64;
        layers.set("core.cache.lookup_ns", lookup * 1e9);
        Ok(tune_s)
    })?;
    layers.set("core.inference.tune_us", tune_s * 1e6);
    layers.set("core.inference.sweeps", traced.cache.misses as f64);
    layers.set("core.cache.hit_ratio", traced.cache.hit_ratio());

    spans.scope("core.report.replay", |_| {
        let to = median_call_s(3, || {
            black_box(black_box(report).to_json().expect("report serialises"));
        });
        layers.set("core.report.to_json_s", to);
        if TuningReport::from_json(json).is_ok() {
            let from = median_call_s(3, || {
                black_box(TuningReport::from_json(black_box(json)).expect("parsed before"));
            });
            layers.set("core.report.from_json_s", from);
        } else {
            eprintln!("note: every report holds an infeasible trial; from_json not replayed");
        }
        layers.set("core.report.json_mb", json.len() as f64 / 1e6);
    });

    set_residual(
        layers,
        wall,
        &[
            traced.backend_busy_s,
            null_eval_s,
            traced.cache.misses as f64 * tune_s,
            traced.json_in_loop_s,
        ],
    );

    // The program's own tracer, on the first few studies: what
    // `run_traced` costs over `run`, and what exporting its trace costs.
    spans.scope("trace.replay", |_| -> Result<()> {
        let subset = input.studies.len().min(4);
        let mut traced_s = 0.0;
        let mut export_s = 0.0;
        let mut events = 0usize;
        for spec in &input.studies[..subset] {
            let start = Instant::now();
            let (_, trace) = match &spec.backend {
                BackendKind::Sim(_) => EdgeTune::new(spec.config.clone()).run_traced(),
                BackendKind::Nn(_) => {
                    Engine::new(&spec.config).run_traced_with_backend(spec.backend().as_mut())
                }
            }
            .map_err(|e| e.to_string())?;
            traced_s += start.elapsed().as_secs_f64();
            let start = Instant::now();
            black_box(trace.to_json_pretty());
            export_s += start.elapsed().as_secs_f64();
            events += trace.trace_events.len();
        }
        let plain_s: f64 = passes.plain.run_ms[..subset].iter().sum::<f64>() / 1e3;
        layers.set(
            "trace.run_traced.overhead_share",
            (traced_s - plain_s) / plain_s,
        );
        layers.set("trace.export_s", export_s);
        layers.set("trace.events", events as f64);
        Ok(())
    })
}

fn study_seed(env: &Env, workload: &str, index: u64) -> u64 {
    env.seed
        .child(workload)
        .child_indexed("study", index)
        .seed()
}

/// What tells the three study workloads apart: their studies, and any
/// replay block beyond the shared ones.
pub trait StudyPlan {
    const NAME: &'static str;

    fn studies(env: &Env, divisor: u32) -> StudyInput;

    fn replay_more(_env: &Env, _spans: &mut Spans, _layers: &mut Layers) {}
}

/// The workload a [`StudyPlan`] describes.
pub struct Study<P>(PhantomData<P>);

pub type StudyHb = Study<Hb>;
pub type StudySweep = Study<Sweep>;
pub type StudyNn = Study<Nn>;

impl<P: StudyPlan> Workload for Study<P> {
    const NAME: &'static str = P::NAME;
    type Input = StudyInput;
    type Output = StudyOutput;

    fn prepare(env: &Env, divisor: u32) -> Result<StudyInput> {
        Ok(P::studies(env, divisor))
    }

    fn execute(input: &mut StudyInput, spans: Option<&mut Spans>) -> Result<StudyOutput> {
        execute(input, spans)
    }

    fn untimed_s(output: &StudyOutput) -> f64 {
        output.untimed_s
    }

    fn verdict(input: &StudyInput, output: &StudyOutput) -> Verdict {
        verdict(input, output)
    }

    fn attribute(
        env: &Env,
        input: &StudyInput,
        passes: Traced<'_, Self>,
        spans: &mut Spans,
        layers: &mut Layers,
    ) -> Result<()> {
        attribute(input, &passes, spans, layers)?;
        P::replay_more(env, spans, layers);
        Ok(())
    }
}

/// One default BOHB study, large enough for the inter-bracket cost.
pub struct Hb;

impl StudyPlan for Hb {
    const NAME: &'static str = "study-hb";

    fn studies(env: &Env, divisor: u32) -> StudyInput {
        let config = EdgeTuneConfig::for_workload(WorkloadId::Ic)
            .with_scheduler(SchedulerConfig::new(scaled(1536, divisor, 8), 3.0, 27))
            .with_seed(study_seed(env, Self::NAME, 0));
        StudyInput {
            studies: vec![StudySpec {
                config,
                backend: BackendKind::Sim(WorkloadId::Ic),
            }],
            json_in_loop: false,
        }
    }
}

/// 32 single-bracket studies with their JSON reports.
pub struct Sweep;

impl StudyPlan for Sweep {
    const NAME: &'static str = "study-sweep";

    fn studies(env: &Env, divisor: u32) -> StudyInput {
        let mut studies = Vec::new();
        for id in [
            WorkloadId::Ic,
            WorkloadId::Sr,
            WorkloadId::Nlp,
            WorkloadId::Od,
        ] {
            for metric in [Metric::Runtime, Metric::Energy] {
                for _ in 0..4 {
                    let config = EdgeTuneConfig::for_workload(id)
                        .with_metric(metric)
                        .with_scheduler(SchedulerConfig::new(scaled(4096, divisor, 8), 3.0, 16))
                        .without_hyperband()
                        .with_seed(study_seed(env, Self::NAME, studies.len() as u64));
                    studies.push(StudySpec {
                        config,
                        backend: BackendKind::Sim(id),
                    });
                }
            }
        }
        StudyInput {
            studies,
            json_in_loop: true,
        }
    }
}

/// The nn search space spans an 8x range of per-epoch cost (batch 8..64),
/// and a study trains only a handful of configurations at its top
/// budgets, so with a random sampler the wall is a property of the seed,
/// not of the code. The grid sampler trains the same configurations for
/// every seed; the seed still decides the data, the initial weights and
/// with them which configurations are promoted. The tuner is noise on
/// this workload either way.
const NN_SAMPLER: SamplerKind = SamplerKind::Grid(4);

/// Real training: an MLP study, then a convnet study.
pub struct Nn;

impl StudyPlan for Nn {
    const NAME: &'static str = "study-nn";

    fn studies(env: &Env, divisor: u32) -> StudyInput {
        let mlp_seed = study_seed(env, Self::NAME, 0);
        let conv_seed = study_seed(env, Self::NAME, 1);
        let mlp = StudySpec {
            config: EdgeTuneConfig::for_workload(WorkloadId::Ic)
                .with_scheduler(SchedulerConfig::new(scaled(64, divisor, 2), 2.0, 16))
                .with_sampler(NN_SAMPLER)
                .with_seed(mlp_seed),
            backend: BackendKind::Nn(NnTrainingBackend::new(
                SeedStream::new(mlp_seed).child("nn"),
            )),
        };
        let conv = StudySpec {
            config: EdgeTuneConfig::for_workload(WorkloadId::Ic)
                .with_scheduler(SchedulerConfig::new(scaled(16, divisor, 2), 2.0, 8))
                .with_sampler(NN_SAMPLER)
                .with_seed(conv_seed),
            backend: BackendKind::Nn(NnTrainingBackend::convnet(
                SeedStream::new(conv_seed).child("nn"),
            )),
        };
        StudyInput {
            studies: vec![mlp, conv],
            json_in_loop: false,
        }
    }

    fn replay_more(env: &Env, spans: &mut Spans, layers: &mut Layers) {
        spans.scope("nn.replay", |_| nn_kernels(env, layers));
    }
}

/// The kernels under `run_trial`: a 256×256 matmul and one `fit` epoch on
/// the two backends' dataset and model shapes.
fn nn_kernels(env: &Env, layers: &mut Layers) {
    let seed = env.seed.child("nn-kernels");
    let a = Tensor::randn(&[256, 256], 1.0, seed.child("a"));
    let b = Tensor::randn(&[256, 256], 1.0, seed.child("b"));
    let matmul = median_call_s(15, || {
        black_box(black_box(&a).matmul(black_box(&b)));
    });
    layers.set("nn.matmul_256_us", matmul * 1e6);
    // Computed, not measured: 2·n³ floating-point operations per product.
    layers.set("nn.matmul_gflops", 2.0 * 256f64.powi(3) / matmul / 1e9);

    let epoch = FitConfig::new(1, 16);
    let (train, val) = Dataset::gaussian_blobs(600, 8, 4, 0.35, seed.child("blobs")).split(0.8);
    let mlp = median_call_s(15, || {
        let mut model = Sequential::new()
            .with(Dense::new(train.feature_width(), 32, seed.child("l1")))
            .with(Relu::new())
            .with(Dense::new(32, train.classes(), seed.child("l2")));
        let mut opt = Sgd::new(0.05).with_momentum(0.9);
        black_box(fit(&mut model, &mut opt, &train, &val, &epoch, seed));
    });
    layers.set("nn.fit_epoch_ms.mlp", mlp * 1e3);

    let side = 8;
    let channels = 4;
    let (train, val) = Dataset::tiny_images(400, side, 4, 0.25, seed.child("images")).split(0.8);
    let conv = median_call_s(9, || {
        let pooled = side / 2;
        let mut model = Sequential::new()
            .with(Reshape::new(vec![1, side, side]))
            .with(Conv2d::new(1, channels, 3, 1, 1, seed.child("conv")))
            .with(Relu::new())
            .with(MaxPool2d::new(2))
            .with(Flatten::new())
            .with(Dense::new(
                channels * pooled * pooled,
                train.classes(),
                seed.child("head"),
            ));
        let mut opt = Sgd::new(0.05).with_momentum(0.9);
        black_box(fit(&mut model, &mut opt, &train, &val, &epoch, seed));
    });
    layers.set("nn.fit_epoch_ms.conv", conv * 1e3);
}
