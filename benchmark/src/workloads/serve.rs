//! `serve-des`: the serving discrete-event simulation under three traffic
//! shapes, back to back — three uses of one layer.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

use edgetune::batching::MultiStreamScenario;
use edgetune::inference::InferenceSpace;
use edgetune::scenario::Scenario;
use edgetune::ScenarioRetuner;
use edgetune_device::DeviceSpec;
use edgetune_runtime::frame::crc32;
use edgetune_serving::{
    ConfigSelector, FrontierEntry, OnlineTuner, RuntimeOptions, ServingConfig, ServingReport,
    ServingRuntime, SloPolicy, TrafficProfile,
};
use edgetune_util::rng::SeedStream;
use edgetune_util::units::{Hertz, JoulesPerItem, Seconds};
use edgetune_workloads::{Workload as Catalog, WorkloadId};

use super::{set_residual, Env, Layers, Result, Traced, Verdict, Workload};
use crate::spans::Spans;
use crate::stats::median_call_s;

/// The latency SLO every profile is served under.
const SLO_S: f64 = 4.0;

struct Deployment {
    traffic: TrafficProfile,
    runtime: ServingRuntime,
    arrivals: Vec<f64>,
    seed: SeedStream,
}

pub struct ServeInput {
    retuner: ScenarioRetuner,
    deployments: Vec<Deployment>,
    generate_s: f64,
}

#[derive(Default)]
pub struct ServeOutput {
    /// Per profile, in deployment order; `Err` carries the message.
    reports: Vec<std::result::Result<ServingReport, String>>,
    serve_s: Vec<f64>,
    retune_calls: u64,
    retune_busy_s: f64,
}

/// `OnlineTuner` wrapper that times every delegated `retune`.
struct TimedTuner<'a> {
    inner: &'a dyn OnlineTuner,
    origin: Instant,
    calls: RefCell<Vec<(f64, f64)>>,
}

impl OnlineTuner for TimedTuner<'_> {
    fn retune(&self, estimated_rate: f64, seed: SeedStream) -> Option<ServingConfig> {
        let start = self.origin.elapsed().as_secs_f64();
        let config = self.inner.retune(estimated_rate, seed);
        self.calls
            .borrow_mut()
            .push((start, self.origin.elapsed().as_secs_f64()));
        config
    }
}

pub struct ServeDes;

impl Workload for ServeDes {
    const NAME: &'static str = "serve-des";
    type Input = ServeInput;
    type Output = ServeOutput;

    fn prepare(env: &Env, divisor: u32) -> Result<ServeInput> {
        let device = DeviceSpec::raspberry_pi_3b();
        let workload = Catalog::by_id(WorkloadId::Ic);
        let profile = workload.profile(workload.model_hp_values[0]);
        let retuner =
            ScenarioRetuner::new(device.clone(), InferenceSpace::for_device(&device), profile);
        let d = f64::from(divisor);
        let plan = [
            (TrafficProfile::Poisson { rate: 10.0 }, 400_000.0 / d),
            (
                TrafficProfile::OnOff {
                    on_rate: 30.0,
                    off_rate: 3.0,
                    mean_on: Seconds::new(15.0),
                    mean_off: Seconds::new(30.0),
                },
                100_000.0 / d,
            ),
            (
                TrafficProfile::RateShift {
                    initial_rate: 10.0,
                    shifted_rate: 40.0,
                    at: Seconds::new(100_000.0 / d / 3.0),
                },
                100_000.0 / d,
            ),
        ];
        let mut deployments = Vec::new();
        let mut generate_s = 0.0;
        for (traffic, horizon) in plan {
            let seed = env.seed.child(Self::NAME).child(traffic.name());
            let scenario =
                Scenario::MultiStream(MultiStreamScenario::new(traffic.design_rate(), 400));
            let config = retuner
                .recommend(&scenario, seed.child("offline"))
                .map_err(|e| e.to_string())?;
            let options = RuntimeOptions::new(SloPolicy::new(Seconds::new(SLO_S)));
            let runtime = ServingRuntime::new(device.clone(), profile, config, options)
                .map_err(|e| e.to_string())?;
            let start = Instant::now();
            let arrivals = traffic.generate(Seconds::new(horizon), seed);
            generate_s += start.elapsed().as_secs_f64();
            deployments.push(Deployment {
                traffic,
                runtime,
                arrivals,
                seed,
            });
        }
        Ok(ServeInput {
            retuner,
            deployments,
            generate_s,
        })
    }

    fn execute(input: &mut ServeInput, mut spans: Option<&mut Spans>) -> Result<ServeOutput> {
        let mut out = ServeOutput::default();
        for deployment in &input.deployments {
            let label = deployment.traffic.name();
            let start = Instant::now();
            let report = match spans.as_deref_mut() {
                None => deployment.runtime.serve_trace(
                    &deployment.arrivals,
                    label,
                    Some(&input.retuner),
                    deployment.seed,
                ),
                Some(spans) => {
                    let span = spans.open("serving.runtime.serve");
                    let tuner = TimedTuner {
                        inner: &input.retuner,
                        origin: spans.origin(),
                        calls: RefCell::new(Vec::new()),
                    };
                    let report = deployment.runtime.serve_trace(
                        &deployment.arrivals,
                        label,
                        Some(&tuner),
                        deployment.seed,
                    );
                    spans.close(span);
                    let calls = tuner.calls.into_inner();
                    out.retune_calls += calls.len() as u64;
                    out.retune_busy_s += calls.iter().map(|(s, e)| e - s).sum::<f64>();
                    spans.add_calls("core.serve.retune", &calls, span);
                    report
                }
            };
            out.serve_s.push(start.elapsed().as_secs_f64());
            out.reports.push(report.map_err(|e| e.to_string()));
        }
        Ok(out)
    }

    fn verdict(input: &ServeInput, output: &ServeOutput) -> Verdict {
        let mut verdict = Verdict {
            attempted: input.deployments.len() as u64,
            ..Verdict::default()
        };
        for (deployment, report) in input.deployments.iter().zip(&output.reports) {
            let label = deployment.traffic.name();
            match report
                .as_ref()
                .map_err(String::clone)
                .and_then(|r| r.to_json().map(|json| (r, json)).map_err(|e| e.to_string()))
            {
                Ok((report, json)) => {
                    verdict.units += report.requests;
                    // Every simulated statistic is in the JSON, so one
                    // digest pins them all.
                    verdict
                        .digests
                        .insert(format!("report.{label}"), crc32(json.as_bytes()));
                }
                Err(e) => {
                    verdict.failed += 1;
                    verdict.errors.push(format!("{label}: {e}"));
                }
            }
        }
        verdict
    }

    fn attribute(
        _: &Env,
        input: &ServeInput,
        passes: Traced<'_, Self>,
        spans: &mut Spans,
        layers: &mut Layers,
    ) -> Result<()> {
        let traced = passes.traced;
        layers.set("serving.traffic.generate_s", input.generate_s);
        layers.set(
            "serving.traffic.arrivals",
            input
                .deployments
                .iter()
                .map(|d| d.arrivals.len())
                .sum::<usize>() as f64,
        );
        for ((deployment, report), serve_s) in input
            .deployments
            .iter()
            .zip(&traced.reports)
            .zip(&traced.serve_s)
        {
            let label = deployment.traffic.name();
            let report = report.as_ref().map_err(|e| format!("{label}: {e}"))?;
            let mut set = |what: &str, value: f64| {
                layers.set(&format!("serving.runtime.{what}.{label}"), value);
            };
            set("serve_s", *serve_s);
            set("requests", report.requests as f64);
            set("req_per_s", report.requests as f64 / serve_s);
            set("switches", report.switches.len() as f64);
            set("shed_share", report.shed_fraction);
            set("slo_violation_share", report.slo_violation_rate);
        }
        layers.set("core.serve.retune.calls", traced.retune_calls as f64);
        layers.set("core.serve.retune.busy_s", traced.retune_busy_s);
        // The serve spans already contain their re-tunes.
        set_residual(
            layers,
            passes.traced_wall_s,
            &[traced.serve_s.iter().sum::<f64>()],
        );

        spans.scope("serving.selector.replay", |_| {
            let entries: Vec<FrontierEntry> = (0..16u32)
                .map(|i| {
                    let capacity = 2.0 * 1.5f64.powi(i as i32);
                    FrontierEntry {
                        config: ServingConfig::new(1 << (i / 3), 4, Hertz::from_ghz(1.4))
                            .with_tuned_rate(capacity)
                            .with_prediction(Seconds::new(0.2 + 0.1 * f64::from(i))),
                        capacity,
                        energy_per_item: JoulesPerItem::new(0.2 + 0.05 * f64::from(i)),
                    }
                })
                .collect();
            let selector = ConfigSelector::new(entries);
            let budget = Some(JoulesPerItem::new(0.9));
            const BATCH: usize = 256;
            let select = median_call_s(200, || {
                for _ in 0..BATCH {
                    black_box(selector.select(
                        black_box(40.0),
                        Seconds::new(2.0),
                        black_box(budget),
                    ));
                }
            }) / BATCH as f64;
            layers.set("serving.selector.select_ns", select * 1e9);
        });
        Ok(())
    }
}
