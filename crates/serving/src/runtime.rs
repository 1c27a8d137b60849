//! The serving runtime: deploys a tuned configuration and drives it with
//! traffic.
//!
//! [`ServingRuntime::serve`] runs a discrete-event simulation of a worker
//! pool executing inference batches on an emulated edge device (per-batch
//! latency and energy come from the `edgetune-device` roofline and power
//! models — the same physics the tuner optimised against). Requests flow
//! through the greedy, adaptively capped queue of [`crate::queue`], are
//! shed by deadline-based admission control when they can no longer meet
//! the SLO, and feed the [`crate::drift`] detector; on sustained
//! arrival-rate drift the runtime asks its [`OnlineTuner`] for a fresh
//! scenario optimum and hot-swaps the configuration, recording the switch
//! in the final [`ServingReport`].
//!
//! Simulated time is a [`Seconds`] the event loop adds up itself:
//! per-worker busy-until times and the makespan (the latest batch
//! completion) are plain values local to one `serve` call, a function of
//! (configuration, traffic, seed) like every duration the tuning engine
//! reports.

use edgetune_device::latency::{simulate_inference, CpuAllocation};
use edgetune_device::profile::WorkProfile;
use edgetune_device::spec::DeviceSpec;
use edgetune_trace::Tracer;
use edgetune_util::rng::SeedStream;
use edgetune_util::units::{Hertz, ItemsPerSecond, Joules, JoulesPerItem, Seconds};
use edgetune_util::{Error, Result};

use crate::drift::DriftDetector;
use crate::metrics::{response_percentiles, ConfigSwitch, ServingReport, SwitchSource};
use crate::queue::{AdaptiveBatcher, SloPolicy};
use crate::selector::ConfigSelector;
use crate::traffic::TrafficProfile;

/// Category stamped on every serving trace event.
const TRACE_CATEGORY: &str = "serving";
/// Process grouping of all serving tracks in exported traces.
const TRACE_PROCESS: &str = "serving-runtime";
/// Ceiling the adaptive batcher may grow the batch cap to.
const MAX_CAP: u32 = 128;

/// A deployable serving configuration — the runtime-facing face of a
/// tuning recommendation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingConfig {
    /// Batch aggregation cap (the tuned inference batch size).
    pub batch_cap: u32,
    /// CPU cores allocated to inference.
    pub cores: u32,
    /// DVFS frequency.
    pub freq: Hertz,
    /// Arrival rate this configuration was tuned for (0 when unknown —
    /// disables drift detection).
    pub tuned_rate: f64,
    /// The tuner's predicted mean response under this configuration.
    pub predicted_mean_response: Option<Seconds>,
}

impl ServingConfig {
    /// A configuration with unknown tuned rate.
    ///
    /// # Panics
    ///
    /// Panics if `batch_cap` is zero.
    #[must_use]
    pub fn new(batch_cap: u32, cores: u32, freq: Hertz) -> Self {
        assert!(batch_cap >= 1, "batch cap must be >= 1");
        ServingConfig {
            batch_cap,
            cores,
            freq,
            tuned_rate: 0.0,
            predicted_mean_response: None,
        }
    }

    /// Records the arrival rate the configuration was tuned for,
    /// enabling drift detection against it.
    #[must_use]
    pub fn with_tuned_rate(mut self, rate: f64) -> Self {
        self.tuned_rate = rate;
        self
    }

    /// Records the tuner's predicted mean response.
    #[must_use]
    pub fn with_prediction(mut self, mean_response: Seconds) -> Self {
        self.predicted_mean_response = Some(mean_response);
        self
    }
}

/// Re-tunes the serving configuration online when traffic drifts.
///
/// The core crate implements this by re-running its scenario tuner
/// (`ScenarioRetuner`) at the estimated arrival rate; tests may
/// supply stubs. Returning `None` means no better configuration exists
/// (e.g. the drifted rate exceeds every configuration's capacity) and
/// the runtime keeps serving — degraded but shedding — on the current
/// one.
pub trait OnlineTuner {
    /// Produces a configuration tuned for `estimated_rate`, or `None`.
    fn retune(&self, estimated_rate: f64, seed: SeedStream) -> Option<ServingConfig>;
}

/// Runtime behaviour switches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeOptions {
    /// The latency SLO served under.
    pub slo: SloPolicy,
    /// Adaptive serving: the batch cap follows the load, and drift
    /// detection re-tunes through the tuner, if one is given. When false
    /// the tuned configuration is served as it is.
    pub adaptive: bool,
    /// Parallel inference workers (device replicas behind the queue).
    pub workers: u32,
}

impl RuntimeOptions {
    /// Adaptive single-worker serving under `slo` with default drift
    /// detection.
    #[must_use]
    pub fn new(slo: SloPolicy) -> Self {
        RuntimeOptions {
            slo,
            adaptive: true,
            workers: 1,
        }
    }

    /// Freezes the deployed configuration: no adaptive cap, no drift
    /// re-tuning — serve exactly what the offline tuner recommended.
    #[must_use]
    pub fn static_serving(mut self) -> Self {
        self.adaptive = false;
        self
    }

    /// Sets the worker-pool size.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    #[must_use]
    pub fn with_workers(mut self, workers: u32) -> Self {
        assert!(workers >= 1, "need at least one worker");
        self.workers = workers;
        self
    }
}

/// The deployed serving runtime.
#[derive(Debug, Clone)]
pub struct ServingRuntime {
    device: DeviceSpec,
    profile: WorkProfile,
    config: ServingConfig,
    options: RuntimeOptions,
    /// Pre-computed Pareto frontier for stage-one drift response;
    /// `None` answers every drift with a full re-tune (the pre-frontier
    /// behaviour).
    selector: Option<ConfigSelector>,
}

impl ServingRuntime {
    /// Deploys `config` for `profile` on `device`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the configuration's
    /// cores/frequency are invalid for the device.
    pub fn new(
        device: DeviceSpec,
        profile: WorkProfile,
        config: ServingConfig,
        options: RuntimeOptions,
    ) -> Result<Self> {
        CpuAllocation::new(&device, config.cores, config.freq)?;
        Ok(ServingRuntime {
            device,
            profile,
            config,
            options,
            selector: None,
        })
    }

    /// Installs a pre-computed Pareto frontier: drift events first try
    /// an instant configuration lookup and only escalate to the
    /// [`OnlineTuner`] when no frontier point is feasible.
    #[must_use]
    pub fn with_selector(mut self, selector: ConfigSelector) -> Self {
        self.selector = Some(selector);
        self
    }

    /// Generates `traffic` over `horizon` and serves it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the trace is empty (degenerate
    /// horizon/profile combinations) and propagates allocation errors.
    pub fn serve(
        &self,
        traffic: &TrafficProfile,
        horizon: Seconds,
        tuner: Option<&dyn OnlineTuner>,
        seed: SeedStream,
    ) -> Result<ServingReport> {
        let arrivals = traffic.generate(horizon, seed);
        self.serve_trace_traced(&arrivals, traffic.name(), tuner, seed, None)
    }

    /// Serves a pre-generated trace of sorted arrival times.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the trace is empty, unsorted
    /// or holds a non-finite arrival time.
    pub fn serve_trace(
        &self,
        arrivals: &[f64],
        trace_label: &str,
        tuner: Option<&dyn OnlineTuner>,
        seed: SeedStream,
    ) -> Result<ServingReport> {
        self.serve_trace_traced(arrivals, trace_label, tuner, seed, None)
    }

    /// Like [`ServingRuntime::serve_trace`], additionally emitting
    /// per-worker batch spans and shed/re-tune events into `tracer` (pass
    /// `None` to trace nothing). Tracing never changes the report.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`ServingRuntime::serve_trace`].
    pub fn serve_trace_traced(
        &self,
        arrivals: &[f64],
        trace_label: &str,
        tuner: Option<&dyn OnlineTuner>,
        seed: SeedStream,
        tracer: Option<&Tracer>,
    ) -> Result<ServingReport> {
        if arrivals.is_empty() {
            return Err(Error::invalid_config("cannot serve an empty trace"));
        }
        if arrivals.iter().any(|a| !a.is_finite()) {
            return Err(Error::invalid_config("trace arrival times must be finite"));
        }
        if arrivals.windows(2).any(|w| w[0] > w[1]) {
            return Err(Error::invalid_config(
                "trace must be sorted by arrival time",
            ));
        }
        let n = arrivals.len();
        let slo = self.options.slo;
        let deadline = slo.target.value();

        let mut config = self.config;
        let mut alloc = CpuAllocation::new(&self.device, config.cores, config.freq)?;
        let mut batcher = AdaptiveBatcher::new(config.batch_cap, MAX_CAP);
        if !self.options.adaptive {
            batcher = batcher.pinned();
        }
        let mut detector = (self.options.adaptive && tuner.is_some() && config.tuned_rate > 0.0)
            .then(|| DriftDetector::new(config.tuned_rate));
        // Memoised per-batch-size (latency, energy), invalidated on
        // configuration switches.
        let mut cache: Vec<Option<(f64, f64)>> = Vec::new();

        // Each batch goes to the first earliest-free worker, so no worker
        // past the batch count (at most one batch per request) is reached.
        let mut workers = vec![Seconds::ZERO; (self.options.workers as usize).min(n)];
        let mut responses: Vec<f64> = Vec::with_capacity(n);
        let mut next = 0usize;
        let (mut shed, mut late, mut batches, mut served) = (0u64, 0u64, 0u64, 0u64);
        let mut energy = 0.0f64;
        let mut makespan = Seconds::ZERO;
        let (mut depth_sum, mut depth_max) = (0.0f64, 0u64);
        let mut switches: Vec<ConfigSwitch> = Vec::new();

        'serve: while next < n {
            // The earliest-free worker takes the next batch.
            let mut wi = 0usize;
            for (i, &t) in workers.iter().enumerate() {
                if t < workers[wi] {
                    wi = i;
                }
            }
            let wf = workers[wi].value();

            let mut pending_drift: Option<f64> = None;
            // Batch-formation time; shedding the expired head of the
            // queue moves the anchor, so iterate until it stabilises.
            let start = loop {
                if next >= n {
                    break 'serve;
                }
                let anchor = arrivals[next];
                let start = wf.max(anchor);
                if slo.shed {
                    let min_service = self.service(&alloc, 1, &mut cache).0;
                    let slack = (deadline - min_service).max(0.0);
                    if start - anchor > slack {
                        // Cannot meet the SLO even served alone right now.
                        shed += 1;
                        if let Some(tracer) = tracer {
                            let track = tracer.track(TRACE_PROCESS, "admission");
                            tracer.instant(track, "shed", TRACE_CATEGORY, Seconds::new(anchor));
                        }
                        if let Some(det) = detector.as_mut() {
                            if let Some(est) = det.observe(anchor) {
                                pending_drift = Some(est);
                            }
                        }
                        next += 1;
                        continue;
                    }
                }
                break start;
            };

            // Aggregate everything that has arrived, up to the cap.
            let cap = batcher.cap();
            let batch_first = next;
            let mut size = 0u32;
            while next < n && arrivals[next] <= start && size < cap {
                if let Some(det) = detector.as_mut() {
                    if let Some(est) = det.observe(arrivals[next]) {
                        pending_drift = Some(est);
                    }
                }
                size += 1;
                next += 1;
            }
            debug_assert!(size >= 1, "the anchor request has arrived by `start`");

            let (latency, batch_energy) = self.service(&alloc, size, &mut cache);
            let completion = start + latency;
            if let Some(tracer) = tracer {
                let track = tracer.track(TRACE_PROCESS, &format!("worker-{wi}"));
                tracer.span_with_args(
                    track,
                    format!("batch-{batches}"),
                    TRACE_CATEGORY,
                    Seconds::new(start),
                    Seconds::new(completion),
                    vec![("size".to_string(), size.to_string())],
                );
            }
            workers[wi] = Seconds::new(completion);
            makespan = makespan.max(Seconds::new(completion));
            energy += batch_energy;
            batches += 1;
            served += u64::from(size);
            let mut batch_sum = 0.0;
            for &a in &arrivals[batch_first..next] {
                let r = completion - a;
                responses.push(r);
                if r > deadline {
                    late += 1;
                }
                batch_sum += r;
            }
            let backlog = count_arrived(&arrivals[next..], completion);
            depth_sum += backlog as f64;
            depth_max = depth_max.max(backlog as u64);
            batcher.observe(Seconds::new(batch_sum / f64::from(size)), backlog, &slo);

            // Sustained drift: stage one looks the answer up on the
            // pre-computed Pareto frontier (instant, zero trials); only
            // when no frontier point is feasible does stage two pay for
            // a full re-tune.
            if let Some(est) = pending_drift {
                if let (Some(det), Some(tuner)) = (detector.as_mut(), tuner) {
                    let frontier_pick = self
                        .selector
                        .as_ref()
                        .and_then(|s| s.select(est, slo.target, None));
                    let mut pick = None;
                    if let Some(entry) = frontier_pick {
                        let new_config = entry.config;
                        if let Some(tracer) = tracer {
                            let track = tracer.track(TRACE_PROCESS, "retune");
                            tracer.instant_with_args(
                                track,
                                "frontier-select",
                                TRACE_CATEGORY,
                                Seconds::new(completion),
                                vec![
                                    ("estimated_rate".to_string(), est.to_string()),
                                    ("to_batch".to_string(), new_config.batch_cap.to_string()),
                                ],
                            );
                        }
                        let same_deployment = new_config.batch_cap == config.batch_cap
                            && new_config.cores == config.cores
                            && new_config.freq == config.freq;
                        if same_deployment {
                            // The frontier says the deployed point is
                            // still the right one — absorb the drift
                            // without a switch or a re-tune.
                            det.rearm(est, completion);
                            continue;
                        }
                        pick = CpuAllocation::new(&self.device, new_config.cores, new_config.freq)
                            .ok()
                            .map(|a| (new_config, a, SwitchSource::Frontier));
                    }
                    // A frontier pick the device rejects falls through to
                    // a live re-tune.
                    if pick.is_none() {
                        let retune_seed = seed.child_indexed("retune", switches.len() as u64);
                        let Some(new_config) = tuner.retune(est, retune_seed) else {
                            // No stable configuration for the new rate:
                            // keep serving (and shedding) on the current
                            // one, but re-arm on the estimate to avoid
                            // re-tune storms.
                            det.rearm(est, completion);
                            continue;
                        };
                        pick = CpuAllocation::new(&self.device, new_config.cores, new_config.freq)
                            .ok()
                            .map(|a| (new_config, a, SwitchSource::Retune));
                        if let (Some(tracer), Some(_)) = (tracer, &pick) {
                            let track = tracer.track(TRACE_PROCESS, "retune");
                            tracer.instant_with_args(
                                track,
                                "config-switch",
                                TRACE_CATEGORY,
                                Seconds::new(completion),
                                vec![
                                    ("estimated_rate".to_string(), est.to_string()),
                                    ("to_batch".to_string(), new_config.batch_cap.to_string()),
                                ],
                            );
                        }
                    }
                    // A re-tune whose allocation the device rejects
                    // changes nothing, not even the detector.
                    let Some((new_config, new_alloc, source)) = pick else {
                        continue;
                    };
                    switches.push(ConfigSwitch {
                        at: Seconds::new(completion),
                        estimated_rate: est,
                        from_batch: config.batch_cap,
                        to_batch: new_config.batch_cap,
                        from_cores: config.cores,
                        to_cores: new_config.cores,
                        from_freq: config.freq,
                        to_freq: new_config.freq,
                        predicted_mean_response: new_config.predicted_mean_response,
                        source,
                    });
                    alloc = new_alloc;
                    cache.clear();
                    batcher.rebase(new_config.batch_cap);
                    let rate = if new_config.tuned_rate > 0.0 {
                        new_config.tuned_rate
                    } else {
                        est
                    };
                    det.rearm(rate, completion);
                    config = new_config;
                }
            }
        }

        let (mean_response, p50, p95, p99) = response_percentiles(&mut responses);
        Ok(ServingReport {
            device: self.device.name.clone(),
            trace: trace_label.to_string(),
            seed: seed.seed(),
            requests: n as u64,
            served,
            shed,
            shed_fraction: shed as f64 / n as f64,
            makespan,
            throughput: if makespan.value() > 0.0 {
                ItemsPerSecond::new(served as f64 / makespan.value())
            } else {
                ItemsPerSecond::ZERO
            },
            mean_response,
            p50_response: p50,
            p95_response: p95,
            p99_response: p99,
            slo_target: slo.target,
            late,
            slo_violation_rate: (late + shed) as f64 / n as f64,
            batches,
            mean_batch_size: if batches > 0 {
                served as f64 / batches as f64
            } else {
                0.0
            },
            mean_queue_depth: if batches > 0 {
                depth_sum / batches as f64
            } else {
                0.0
            },
            max_queue_depth: depth_max,
            energy: Joules::new(energy),
            energy_per_item: if served > 0 {
                JoulesPerItem::new(energy / served as f64)
            } else {
                JoulesPerItem::ZERO
            },
            final_batch_cap: batcher.cap(),
            switches,
        })
    }

    /// Memoised per-batch execution on the current allocation.
    fn service(
        &self,
        alloc: &CpuAllocation,
        batch: u32,
        cache: &mut Vec<Option<(f64, f64)>>,
    ) -> (f64, f64) {
        let idx = batch as usize;
        if idx >= cache.len() {
            cache.resize(idx + 1, None);
        }
        if let Some(v) = cache[idx] {
            return v;
        }
        let exec = simulate_inference(&self.device, alloc, &self.profile, batch);
        let v = (exec.latency.value(), exec.energy.value());
        cache[idx] = Some(v);
        v
    }
}

/// How many of the sorted `arrivals` came at or before `t`: the same
/// count as `arrivals.partition_point(|&a| a <= t)`, found by galloping
/// from the front (probes 1, 2, 4, … ahead, then a binary search inside
/// the last bracket). That is O(log count) steps over the queue head,
/// which is hot in cache, instead of a search over the whole trace.
fn count_arrived(arrivals: &[f64], t: f64) -> usize {
    // Every arrival before `lo` came by `t`.
    let (mut lo, mut step) = (0, 1);
    while lo + step <= arrivals.len() && arrivals[lo + step - 1] <= t {
        lo += step;
        step *= 2;
    }
    // The probe that ended the gallop, if any, came after `t`.
    let hi = (lo + step - 1).min(arrivals.len());
    lo + arrivals[lo..hi].partition_point(|&a| a <= t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn resnet18() -> WorkProfile {
        WorkProfile::new(0.56e9, 3.0e6, 44.8e6)
    }

    fn pi() -> DeviceSpec {
        DeviceSpec::raspberry_pi_3b()
    }

    fn light_config(device: &DeviceSpec) -> ServingConfig {
        // A light-traffic optimum: small batch, full cores/frequency.
        ServingConfig::new(4, device.cores, device.max_freq).with_tuned_rate(5.0)
    }

    fn runtime(options: RuntimeOptions) -> ServingRuntime {
        let device = pi();
        let config = light_config(&device);
        ServingRuntime::new(device, resnet18(), config, options).unwrap()
    }

    /// A stub tuner that knows heavy traffic needs aggressive batching.
    struct StepTuner;
    impl OnlineTuner for StepTuner {
        fn retune(&self, estimated_rate: f64, _seed: SeedStream) -> Option<ServingConfig> {
            let device = pi();
            let batch = if estimated_rate > 15.0 { 48 } else { 4 };
            Some(
                ServingConfig::new(batch, device.cores, device.max_freq)
                    .with_tuned_rate(estimated_rate),
            )
        }
    }

    #[test]
    fn serving_is_deterministic_for_a_seed() {
        let rt = runtime(RuntimeOptions::new(SloPolicy::new(Seconds::new(2.0))));
        let traffic = TrafficProfile::Poisson { rate: 8.0 };
        let a = rt
            .serve(
                &traffic,
                Seconds::new(60.0),
                Some(&StepTuner),
                SeedStream::new(42),
            )
            .unwrap();
        let b = rt
            .serve(
                &traffic,
                Seconds::new(60.0),
                Some(&StepTuner),
                SeedStream::new(42),
            )
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json().unwrap(), b.to_json().unwrap());
    }

    #[test]
    fn light_load_meets_the_slo() {
        let rt = runtime(RuntimeOptions::new(SloPolicy::new(Seconds::new(2.0))));
        let report = rt
            .serve(
                &TrafficProfile::Poisson { rate: 2.0 },
                Seconds::new(120.0),
                None,
                SeedStream::new(1),
            )
            .unwrap();
        assert_eq!(report.shed, 0, "light load must not shed");
        assert!(
            report.slo_violation_rate < 0.02,
            "violations at 2/s: {}",
            report.slo_violation_rate
        );
        assert_eq!(report.requests, report.served);
        assert!(report.mean_response < report.p99_response || report.batches == 1);
        assert!(report.energy_per_item.value() > 0.0);
    }

    #[test]
    fn adaptive_cap_grows_under_overload() {
        let slo = SloPolicy::new(Seconds::new(3.0));
        let rt = runtime(RuntimeOptions::new(slo));
        let report = rt
            .serve(
                &TrafficProfile::Poisson { rate: 20.0 },
                Seconds::new(120.0),
                None,
                SeedStream::new(2),
            )
            .unwrap();
        assert!(
            report.final_batch_cap > 4,
            "20/s exceeds the batch-4 capacity; the cap must grow: {}",
            report.final_batch_cap
        );
        assert!(report.mean_batch_size > 4.0);
    }

    #[test]
    fn shedding_bounds_response_times_under_hopeless_overload() {
        let slo = SloPolicy::new(Seconds::new(2.0));
        // Pinned small batch, no adaptation: ~40/s against ~11/s capacity.
        let overload = TrafficProfile::Poisson { rate: 40.0 };
        let rt_shed = runtime(RuntimeOptions::new(slo).static_serving());
        let report = rt_shed
            .serve(&overload, Seconds::new(60.0), None, SeedStream::new(3))
            .unwrap();
        assert!(report.shed > 0, "overload must shed");
        assert!(
            report.p99_response.value() <= 2.0 + 1.0,
            "served requests stay near the deadline: p99={}",
            report.p99_response
        );
        let rt_noshed = {
            let device = pi();
            let config = light_config(&device);
            ServingRuntime::new(
                device,
                resnet18(),
                config,
                RuntimeOptions::new(slo.without_shedding()).static_serving(),
            )
            .unwrap()
        };
        let queued = rt_noshed
            .serve(&overload, Seconds::new(60.0), None, SeedStream::new(3))
            .unwrap();
        assert_eq!(queued.shed, 0);
        assert!(
            queued.p99_response > report.p99_response * 2.0,
            "without shedding the backlog must blow up p99: {} vs {}",
            queued.p99_response,
            report.p99_response
        );
    }

    #[test]
    fn drift_triggers_a_recorded_config_switch() {
        let slo = SloPolicy::new(Seconds::new(4.0));
        let rt = runtime(RuntimeOptions::new(slo));
        let traffic = TrafficProfile::RateShift {
            initial_rate: 5.0,
            shifted_rate: 20.0,
            at: Seconds::new(60.0),
        };
        let report = rt
            .serve(
                &traffic,
                Seconds::new(240.0),
                Some(&StepTuner),
                SeedStream::new(4),
            )
            .unwrap();
        assert!(
            !report.switches.is_empty(),
            "a sustained 4x shift must trigger a re-tune"
        );
        let switch = &report.switches[0];
        assert!(switch.at.value() > 60.0, "switch happens after the shift");
        assert!(
            switch.estimated_rate > 10.0,
            "estimate {} should reflect the new rate",
            switch.estimated_rate
        );
        assert_eq!(switch.to_batch, 48, "the stub's heavy-load config");
    }

    /// A tuner that counts how often stage two was actually paid for.
    struct CountingTuner(std::cell::Cell<u64>);
    impl OnlineTuner for CountingTuner {
        fn retune(&self, estimated_rate: f64, seed: SeedStream) -> Option<ServingConfig> {
            self.0.set(self.0.get() + 1);
            StepTuner.retune(estimated_rate, seed)
        }
    }

    fn frontier() -> crate::selector::ConfigSelector {
        let device = pi();
        let entry = |batch: u32, capacity: f64, energy: f64| crate::selector::FrontierEntry {
            config: ServingConfig::new(batch, device.cores, device.max_freq)
                .with_tuned_rate(capacity),
            capacity,
            energy_per_item: JoulesPerItem::new(energy),
        };
        crate::selector::ConfigSelector::new(vec![entry(4, 6.0, 0.2), entry(48, 30.0, 0.5)])
    }

    #[test]
    fn a_feasible_frontier_absorbs_drift_without_retuning() {
        let slo = SloPolicy::new(Seconds::new(4.0));
        let rt = runtime(RuntimeOptions::new(slo)).with_selector(frontier());
        let traffic = TrafficProfile::RateShift {
            initial_rate: 5.0,
            shifted_rate: 20.0,
            at: Seconds::new(60.0),
        };
        let tuner = CountingTuner(std::cell::Cell::new(0));
        let report = rt
            .serve(
                &traffic,
                Seconds::new(240.0),
                Some(&tuner),
                SeedStream::new(4),
            )
            .unwrap();
        assert!(
            !report.switches.is_empty(),
            "the sustained shift must still switch configurations"
        );
        assert_eq!(
            report.switches[0].source,
            SwitchSource::Frontier,
            "the switch must come from the frontier, not a re-tune"
        );
        assert_eq!(report.switches[0].to_batch, 48);
        assert_eq!(
            tuner.0.get(),
            0,
            "a feasible frontier must spend zero re-tunes"
        );
    }

    #[test]
    fn an_infeasible_frontier_escalates_to_the_tuner() {
        let slo = SloPolicy::new(Seconds::new(4.0));
        let device = pi();
        // The only frontier point tops out at 6/s: useless at 20/s.
        let puny = crate::selector::ConfigSelector::new(vec![crate::selector::FrontierEntry {
            config: ServingConfig::new(4, device.cores, device.max_freq).with_tuned_rate(6.0),
            capacity: 6.0,
            energy_per_item: JoulesPerItem::new(0.2),
        }]);
        let rt = runtime(RuntimeOptions::new(slo)).with_selector(puny);
        let traffic = TrafficProfile::RateShift {
            initial_rate: 5.0,
            shifted_rate: 20.0,
            at: Seconds::new(60.0),
        };
        let tuner = CountingTuner(std::cell::Cell::new(0));
        let report = rt
            .serve(
                &traffic,
                Seconds::new(240.0),
                Some(&tuner),
                SeedStream::new(4),
            )
            .unwrap();
        assert!(tuner.0.get() >= 1, "no feasible point: stage two must pay");
        assert!(!report.switches.is_empty());
        assert_eq!(report.switches[0].source, SwitchSource::Retune);
    }

    /// Periodic arrivals spaced wider than one batch's service: the queue
    /// is always empty when a request lands and a greedy batch closes at
    /// once (its window is zero), so each response is exactly the batch-1
    /// service time.
    #[test]
    fn periodic_arrivals_pay_exactly_the_batch_window() {
        let device = pi();
        let alloc = CpuAllocation::new(&device, device.cores, device.max_freq).unwrap();
        let service = simulate_inference(&device, &alloc, &resnet18(), 1)
            .latency
            .value();
        let period = 2.0 * service;
        let arrivals: Vec<f64> = (0..50).map(|k| f64::from(k) * period).collect();
        let slo = SloPolicy::new(Seconds::new(10.0)).without_shedding();
        let report = ServingRuntime::new(
            device.clone(),
            resnet18(),
            ServingConfig::new(1, device.cores, device.max_freq),
            RuntimeOptions::new(slo).static_serving(),
        )
        .unwrap()
        .serve_trace(&arrivals, "periodic", None, SeedStream::new(1))
        .unwrap();
        let close = |got: Seconds| (got.value() - service).abs() < 1e-9;
        assert!(close(report.p50_response), "{}", report.p50_response);
        assert!(close(report.p99_response), "{}", report.p99_response);
        assert_eq!(report.mean_batch_size, 1.0);
    }

    #[test]
    fn frontier_runs_keep_retune_switch_json_unchanged() {
        // A run without a selector must serialise exactly as before the
        // frontier feature existed — no "source" key anywhere.
        let slo = SloPolicy::new(Seconds::new(4.0));
        let rt = runtime(RuntimeOptions::new(slo));
        let traffic = TrafficProfile::RateShift {
            initial_rate: 5.0,
            shifted_rate: 20.0,
            at: Seconds::new(60.0),
        };
        let report = rt
            .serve(
                &traffic,
                Seconds::new(240.0),
                Some(&StepTuner),
                SeedStream::new(4),
            )
            .unwrap();
        assert!(!report.switches.is_empty());
        let json = report.to_json().unwrap();
        assert!(
            !json.contains("\"source\"") && !json.contains("energy_budget"),
            "selector-free runs keep the pre-frontier report shape"
        );
    }

    #[test]
    fn retuned_serving_beats_the_frozen_config_under_drift() {
        let slo = SloPolicy::new(Seconds::new(4.0));
        let traffic = TrafficProfile::RateShift {
            initial_rate: 5.0,
            shifted_rate: 20.0,
            at: Seconds::new(60.0),
        };
        let seed = SeedStream::new(5);
        let adaptive = runtime(RuntimeOptions::new(slo))
            .serve(&traffic, Seconds::new(300.0), Some(&StepTuner), seed)
            .unwrap();
        let frozen = runtime(RuntimeOptions::new(slo).static_serving())
            .serve(&traffic, Seconds::new(300.0), None, seed)
            .unwrap();
        assert!(
            adaptive.slo_violation_rate < frozen.slo_violation_rate,
            "adaptive {} must beat frozen {}",
            adaptive.slo_violation_rate,
            frozen.slo_violation_rate
        );
        assert!(adaptive.throughput.value() > frozen.throughput.value());
    }

    #[test]
    fn a_second_worker_raises_throughput_under_overload() {
        let slo = SloPolicy::new(Seconds::new(2.0));
        let overload = TrafficProfile::Poisson { rate: 40.0 };
        let seed = SeedStream::new(6);
        let one = runtime(RuntimeOptions::new(slo))
            .serve(&overload, Seconds::new(60.0), None, seed)
            .unwrap();
        let two = runtime(RuntimeOptions::new(slo).with_workers(2))
            .serve(&overload, Seconds::new(60.0), None, seed)
            .unwrap();
        assert!(
            two.throughput.value() > one.throughput.value() * 1.3,
            "2 workers must serve clearly more: {} vs {}",
            one.throughput,
            two.throughput
        );
        assert!(two.shed_fraction < one.shed_fraction);
    }

    #[test]
    fn empty_and_unsorted_traces_are_rejected() {
        let rt = runtime(RuntimeOptions::new(SloPolicy::new(Seconds::new(1.0))));
        assert!(rt
            .serve_trace(&[], "empty", None, SeedStream::new(1))
            .is_err());
        assert!(rt
            .serve_trace(&[2.0, 1.0], "unsorted", None, SeedStream::new(1))
            .is_err());
    }

    #[test]
    fn non_finite_arrivals_are_rejected() {
        let rt = runtime(RuntimeOptions::new(SloPolicy::new(Seconds::new(1.0))));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in 0..3 {
                let mut trace = vec![0.0, 1.0, 2.0];
                trace[at] = bad;
                let err = rt
                    .serve_trace(&trace, "non-finite", None, SeedStream::new(1))
                    .expect_err("a non-finite arrival is rejected");
                assert!(matches!(err, Error::InvalidConfig(_)), "{trace:?}: {err:?}");
            }
        }
    }

    #[test]
    fn invalid_allocation_is_rejected_at_deploy_time() {
        let device = pi();
        let config = ServingConfig::new(4, 99, device.max_freq);
        assert!(ServingRuntime::new(
            device,
            resnet18(),
            config,
            RuntimeOptions::new(SloPolicy::new(Seconds::new(1.0)))
        )
        .is_err());
    }

    #[test]
    fn traced_serving_changes_no_report_and_emits_worker_spans() {
        let rt = runtime(RuntimeOptions::new(SloPolicy::new(Seconds::new(2.0))).with_workers(2));
        let traffic = TrafficProfile::Poisson { rate: 8.0 };
        let plain = rt
            .serve(&traffic, Seconds::new(60.0), None, SeedStream::new(42))
            .unwrap();
        let tracer = Tracer::new();
        let seed = SeedStream::new(42);
        let arrivals = traffic.generate(Seconds::new(60.0), seed);
        let traced = rt
            .serve_trace_traced(&arrivals, traffic.name(), None, seed, Some(&tracer))
            .unwrap();
        assert_eq!(plain, traced, "tracing must be invisible in the report");
        let events = tracer.with(|_, events| events.to_vec());
        assert_eq!(
            events
                .iter()
                .filter(|event| matches!(event.kind, edgetune_trace::EventKind::Span { .. }))
                .count() as u64,
            traced.batches,
            "one span per executed batch"
        );
        edgetune_trace::well_nested(&events).expect("per-worker batch spans are disjoint");
        edgetune_trace::monotone_per_track(&events).expect("each worker's spans are ordered");
    }

    #[test]
    fn accounting_adds_up() {
        let rt = runtime(RuntimeOptions::new(SloPolicy::new(Seconds::new(2.0))));
        let report = rt
            .serve(
                &TrafficProfile::Poisson { rate: 15.0 },
                Seconds::new(90.0),
                None,
                SeedStream::new(7),
            )
            .unwrap();
        assert_eq!(report.requests, report.served + report.shed);
        assert!(report.slo_violation_rate <= 1.0);
        assert!(report.mean_batch_size >= 1.0);
        assert!(
            report.makespan.value() >= 90.0 - 10.0,
            "work spans the trace"
        );
        let expected_rate = (report.late + report.shed) as f64 / report.requests as f64;
        assert!((report.slo_violation_rate - expected_rate).abs() < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The galloping backlog count equals `partition_point` on sorted
        /// traces with ties (values drawn from 0..20), empty ones
        /// included, at a time before the first arrival, on one, between
        /// two or after the last.
        #[test]
        fn galloping_count_matches_partition_point(
            values in prop::collection::vec(0u32..20, 0..80),
            half_steps in 0u32..43,
        ) {
            let mut arrivals: Vec<f64> = values.iter().map(|&v| f64::from(v)).collect();
            arrivals.sort_by(f64::total_cmp);
            let t = f64::from(half_steps) / 2.0 - 1.0;
            prop_assert_eq!(
                count_arrived(&arrivals, t),
                arrivals.partition_point(|&a| a <= t)
            );
        }
    }
}
