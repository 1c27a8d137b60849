//! The Inference Tuning Server (§3.4).
//!
//! Given an architecture's [`WorkProfile`], the server sweeps the
//! inference hyperparameter (batch size) jointly with the inference
//! *system* parameters (CPU cores, DVFS frequency) on an emulated edge
//! device, applies the user's inference objective (minimise per-item
//! runtime or energy), and returns an [`InferenceRecommendation`] the
//! user can deploy directly — the paper's headline "more useful
//! information" output. The exhaustive sweep is the server's only
//! search: §3.1 notes grid search suits a space this small.
//!
//! [`InferenceEndpoint`] is how a study reaches the server: Algorithm 1's
//! lines 5–9 — look up history, else sweep and store. Asynchrony is
//! accounted, not threaded: the request is answered at trial start on the
//! evaluator's thread and its simulated cost is overlapped with the
//! trial's (`stall = max(0, sweep − train)`), which is where the paper's
//! "no overhead to the main process" claim lives. A host thread would
//! have nothing to hide: a sweep is microseconds of host work and almost
//! every request is a cache hit.

use std::panic::{catch_unwind, AssertUnwindSafe};

use edgetune_device::latency::{simulate_inference, CpuAllocation, Execution};
use edgetune_device::profile::WorkProfile;
use edgetune_device::spec::DeviceSpec;
use edgetune_faults::FaultInjector;
use edgetune_util::units::{
    energy_per_item, throughput, Hertz, ItemsPerSecond, Joules, JoulesPerItem, Seconds, Watts,
};
use edgetune_util::{Error, Result};
use serde::{Deserialize, Refusal, Serialize};

use edgetune_tuner::objective::InferenceObjective;

use crate::cache::CacheKey;
use crate::checkpoint::StudyGlobals;

/// The sweep executes on the tuning server's CPUs, which emulate the edge
/// device this much faster than the device would run (§2.1: devices are
/// *simulated in the tuning server*, so sweep wall-time is server-speed
/// while the reported estimates stay edge-scale). This is what keeps the
/// whole sweep inside one training trial (§3.3).
const EMULATION_SPEEDUP: f64 = 32.0;
/// Power drawn by the tuning server's CPUs while emulating.
const EMULATION_HOST_POWER_W: f64 = 45.0;

/// The inference-side search space: batch sizes × cores × frequencies.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceSpace {
    /// Candidate inference batch sizes (the paper sweeps 1..=100).
    pub batches: Vec<u32>,
    /// Candidate core allocations.
    pub cores: Vec<u32>,
    /// Candidate DVFS frequencies.
    pub freqs: Vec<Hertz>,
}

impl InferenceSpace {
    /// The paper's evaluation space adapted to `device`: batch sizes
    /// 1..=100 (log-spaced), every power-of-two core count the device
    /// has, and three DVFS points.
    #[must_use]
    pub fn for_device(device: &DeviceSpec) -> Self {
        let mut cores = Vec::new();
        let mut c = 1;
        while c <= device.cores {
            cores.push(c);
            c *= 2;
        }
        if *cores.last().expect("at least one core") != device.cores {
            cores.push(device.cores);
        }
        let mid = Hertz::new((device.min_freq.value() + device.max_freq.value()) / 2.0);
        InferenceSpace {
            batches: vec![1, 2, 4, 8, 16, 32, 64, 100],
            cores,
            freqs: vec![device.min_freq, mid, device.max_freq],
        }
    }

    /// Number of configurations in the space.
    #[must_use]
    pub fn len(&self) -> usize {
        self.batches.len() * self.cores.len() * self.freqs.len()
    }

    /// True when the space is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Validates the space against a device.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when empty or out of the device's
    /// ranges.
    pub fn validate(&self, device: &DeviceSpec) -> Result<()> {
        if self.is_empty() {
            return Err(Error::invalid_config("inference space is empty"));
        }
        if self.batches.contains(&0) {
            return Err(Error::invalid_config("batch size 0 in inference space"));
        }
        for &cores in &self.cores {
            for &freq in &self.freqs {
                CpuAllocation::new(device, cores, freq)?;
            }
        }
        Ok(())
    }
}

/// The deployment recommendation returned to the user. Its reader admits
/// exactly what the server can recommend, so a tampered cache entry is
/// an error naming the field, never served.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(check = "Self::admits")]
pub struct InferenceRecommendation {
    /// Edge device the recommendation targets.
    pub device: String,
    /// Optimal inference batch size.
    pub batch: u32,
    /// Optimal number of CPU cores.
    pub cores: u32,
    /// Optimal DVFS frequency.
    pub freq: Hertz,
    /// Estimated per-item inference latency at the optimum.
    pub latency_per_item: Seconds,
    /// Estimated per-item inference energy at the optimum.
    pub energy_per_item: JoulesPerItem,
}

impl InferenceRecommendation {
    /// Estimated throughput at the optimum.
    #[must_use]
    pub fn throughput(&self) -> ItemsPerSecond {
        throughput(1.0, self.latency_per_item)
    }

    /// The reader's check: `recommendation`'s domain — a catalogue
    /// device, a point of its [`InferenceSpace::for_device`] grid (the
    /// only space a program's server sweeps, and where
    /// [`fallback_recommendation`]'s deployment lies too), and positive
    /// per-item estimates.
    fn admits(&self) -> std::result::Result<(), Refusal> {
        let Some(device) = DeviceSpec::catalog()
            .into_iter()
            .find(|d| d.name == self.device)
        else {
            return Err(("device", format!("{:?} is not a known device", self.device)));
        };
        let grid = InferenceSpace::for_device(&device);
        let (latency, energy) = (self.latency_per_item.value(), self.energy_per_item.value());
        let refusal = if !grid.batches.contains(&self.batch) {
            (
                "batch",
                format!("{} is not in the device's grid", self.batch),
            )
        } else if !grid.cores.contains(&self.cores) {
            (
                "cores",
                format!("{} is not in the device's grid", self.cores),
            )
        } else if !grid.freqs.contains(&self.freq) {
            let hz = self.freq.value();
            ("freq", format!("{hz} Hz is not in the device's grid"))
        } else if latency <= 0.0 {
            ("latency_per_item", format!("{latency} is not positive"))
        } else if energy <= 0.0 {
            ("energy_per_item", format!("{energy} is not positive"))
        } else {
            return Ok(());
        };
        Err(refusal)
    }
}

/// Cost of one inference-tuning run (it executes on the tuning server's
/// CPUs, in parallel with training).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferenceTuningCost {
    /// Wall-clock duration of the sweep *on the tuning server*.
    pub runtime: Seconds,
    /// Energy consumed by the sweep on the tuning server.
    pub energy: Joules,
    /// Number of configurations measured.
    pub configs: usize,
}

/// The Inference Tuning Server.
#[derive(Debug, Clone)]
pub struct InferenceTuningServer {
    device: DeviceSpec,
    space: InferenceSpace,
    objective: InferenceObjective,
}

impl InferenceTuningServer {
    /// Creates a server tuning for `device` under `objective`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `space` is invalid for the
    /// device.
    pub fn new(
        device: DeviceSpec,
        space: InferenceSpace,
        objective: InferenceObjective,
    ) -> Result<Self> {
        space.validate(&device)?;
        Ok(InferenceTuningServer {
            device,
            space,
            objective,
        })
    }

    /// Exhaustively tunes inference parameters for one architecture
    /// (grid search: the paper notes grid is sensible here because the
    /// inference space is small, §3.1).
    ///
    /// Returns the recommendation and the cost of producing it.
    #[must_use]
    pub fn tune(&self, profile: &WorkProfile) -> (InferenceRecommendation, InferenceTuningCost) {
        let mut best: Option<(f64, u32, u32, Hertz, Execution)> = None;
        let mut emulated = Seconds::ZERO;
        let mut configs = 0usize;
        for &batch in &self.space.batches {
            for &cores in &self.space.cores {
                for &freq in &self.space.freqs {
                    let alloc = CpuAllocation::new(&self.device, cores, freq)
                        .expect("space validated at construction");
                    let exec = simulate_inference(&self.device, &alloc, profile, batch);
                    configs += 1;
                    emulated += exec.latency;
                    let latency_per_item = exec.latency / f64::from(batch);
                    let e_per_item = energy_per_item(exec.energy, f64::from(batch));
                    let score = self.objective.score(latency_per_item, e_per_item);
                    if best.as_ref().is_none_or(|(s, ..)| score < *s) {
                        best = Some((score, batch, cores, freq, exec));
                    }
                }
            }
        }
        let (_, batch, cores, freq, exec) = best.expect("space is non-empty by construction");
        let runtime = emulated / EMULATION_SPEEDUP;
        let energy = Watts::new(EMULATION_HOST_POWER_W) * runtime;
        (
            recommendation(&self.device, batch, cores, freq, &exec),
            InferenceTuningCost {
                runtime,
                energy,
                configs,
            },
        )
    }
}

/// The recommendation deploying `batch` on `cores` at `freq`, its
/// estimates read off `exec`, that batch's simulated execution.
fn recommendation(
    device: &DeviceSpec,
    batch: u32,
    cores: u32,
    freq: Hertz,
    exec: &Execution,
) -> InferenceRecommendation {
    InferenceRecommendation {
        device: device.name.clone(),
        batch,
        cores,
        freq,
        latency_per_item: exec.latency / f64::from(batch),
        energy_per_item: energy_per_item(exec.energy, f64::from(batch)),
    }
}

/// The answer to one inference-tuning request: what the trial's
/// objective reads of the recommendation, and what the answer cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferenceReply {
    /// Per-item inference latency of the recommended deployment.
    pub latency_per_item: Seconds,
    /// Per-item inference energy of the recommended deployment.
    pub energy_per_item: JoulesPerItem,
    /// Simulated duration the tuning sweep took (zero on a cache hit).
    pub runtime: Seconds,
    /// Simulated energy the tuning sweep consumed (zero on a cache hit).
    pub energy: Joules,
    /// Whether the answer came from the historical database.
    pub cache_hit: bool,
}

impl InferenceReply {
    /// An answer no sweep was paid for: a cache hit, or a degraded
    /// stand-in accounted like one.
    #[must_use]
    pub fn from_history(recommendation: &InferenceRecommendation) -> Self {
        InferenceReply::swept(recommendation, Seconds::ZERO, Joules::ZERO, true)
    }

    /// An answer for `recommendation` whose sweep took `runtime` and
    /// consumed `energy`.
    fn swept(
        recommendation: &InferenceRecommendation,
        runtime: Seconds,
        energy: Joules,
        cache_hit: bool,
    ) -> Self {
        InferenceReply {
            latency_per_item: recommendation.latency_per_item,
            energy_per_item: recommendation.energy_per_item,
            runtime,
            energy,
            cache_hit,
        }
    }
}

/// The study's one door to the Inference Tuning Server (see the module
/// docs). It holds no study state: the cache, its counters, the request
/// sequence and the injected-fault tallies live in the [`StudyGlobals`]
/// every request is handed, so a checkpoint stores them and a resume
/// continues them with nothing to copy in or out.
///
/// # Examples
///
/// ```
/// use edgetune::cache::CacheKey;
/// use edgetune::checkpoint::StudyGlobals;
/// use edgetune::inference::{InferenceEndpoint, InferenceSpace, InferenceTuningServer};
/// use edgetune_device::{DeviceSpec, WorkProfile};
/// use edgetune_tuner::objective::InferenceObjective;
/// use edgetune_tuner::Metric;
///
/// let device = DeviceSpec::raspberry_pi_3b();
/// let space = InferenceSpace::for_device(&device);
/// let server = InferenceTuningServer::new(device, space, InferenceObjective::new(Metric::Runtime))?;
/// let mut endpoint = InferenceEndpoint::new(server, true, None);
/// let mut globals = StudyGlobals::default();
/// let key = CacheKey::new("Raspberry Pi 3B+", "ResNet/layers=18", Metric::Runtime);
/// let profile = WorkProfile::new(0.56e9, 3.0e6, 44.8e6);
/// let first = endpoint.request(&mut globals, &key, profile).expect("no faults, no loss");
/// assert!(!first.cache_hit);
/// let again = endpoint.request(&mut globals, &key, profile).expect("no faults, no loss");
/// assert!(again.cache_hit);
/// # Ok::<(), edgetune_util::Error>(())
/// ```
#[derive(Debug)]
pub struct InferenceEndpoint {
    server: InferenceTuningServer,
    /// Whether the historical cache is consulted (`false` is the
    /// ablation of §3.4's look-up feature).
    caching: bool,
    /// Chaos runs only.
    faults: Option<FaultInjector>,
    panics: u64,
}

impl InferenceEndpoint {
    /// Wraps `server` for one study.
    #[must_use]
    pub fn new(
        server: InferenceTuningServer,
        caching: bool,
        faults: Option<FaultInjector>,
    ) -> Self {
        InferenceEndpoint {
            server,
            caching,
            faults,
            panics: 0,
        }
    }

    /// The wrapped server.
    #[must_use]
    pub fn server(&self) -> &InferenceTuningServer {
        &self.server
    }

    /// Real panics caught (and survived) while answering requests.
    #[must_use]
    pub fn worker_panics(&self) -> u64 {
        self.panics
    }

    /// Answers one request for `key`'s architecture. `None` is a lost
    /// reply — an injected worker death, or a real panic in the sweep,
    /// which is caught and counted instead of ending the study — and the
    /// caller degrades. Injected faults are keyed by the request's
    /// sequence number, so chaos is a function of the seed alone.
    pub fn request(
        &mut self,
        globals: &mut StudyGlobals,
        key: &CacheKey,
        profile: WorkProfile,
    ) -> Option<InferenceReply> {
        let seq = globals.inference_cursor;
        globals.inference_cursor += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if self.faults.as_ref().is_some_and(|f| f.worker_panic(seq)) {
                // Simulated worker death mid-request: no look-up, no
                // sweep, no answer.
                globals.injected_losses += 1;
                return None;
            }
            let mut reply = self.answer(globals, key, &profile);
            if !reply.cache_hit {
                if let Some(outage) = self.faults.as_ref().and_then(|f| f.device_outage(seq)) {
                    // Transient device unavailability: the sweep is
                    // retried once the device returns, so its effective
                    // runtime stretches by the outage.
                    reply.runtime += outage;
                    globals.injected_outages += 1;
                }
            }
            Some(reply)
        }));
        outcome.unwrap_or_else(|_| {
            self.panics += 1;
            None
        })
    }

    fn answer(
        &self,
        globals: &mut StudyGlobals,
        key: &CacheKey,
        profile: &WorkProfile,
    ) -> InferenceReply {
        if self.caching {
            if let Some(hit) = globals.cache.lookup(key) {
                globals.cache_stats.hits += 1;
                return InferenceReply::from_history(hit);
            }
        }
        globals.cache_stats.misses += 1;
        let (recommendation, cost) = self.server.tune(profile);
        let reply = InferenceReply::swept(&recommendation, cost.runtime, cost.energy, false);
        if self.caching {
            globals.cache.store(key, recommendation);
        }
        reply
    }
}

/// The conservative device-model default recommendation a lost
/// inference reply falls back to when no stale cache entry exists: batch 1,
/// all cores, maximum frequency — never optimal, always deployable — with
/// latency and energy estimated from the device model.
#[must_use]
pub fn fallback_recommendation(
    device: &DeviceSpec,
    profile: &WorkProfile,
) -> InferenceRecommendation {
    let alloc = CpuAllocation::full(device);
    let exec = simulate_inference(device, &alloc, profile, 1);
    recommendation(device, 1, device.cores, device.max_freq, &exec)
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;
    use crate::cache::{CacheStats, HistoricalCache};
    use edgetune_faults::OUTAGE_S;
    use edgetune_tuner::Metric;
    use edgetune_util::rng::SeedStream;
    use rand::Rng;

    fn server(metric: Metric) -> InferenceTuningServer {
        let device = DeviceSpec::raspberry_pi_3b();
        let space = InferenceSpace::for_device(&device);
        InferenceTuningServer::new(device, space, InferenceObjective::new(metric)).unwrap()
    }

    fn resnet18() -> WorkProfile {
        WorkProfile::new(0.56e9, 3.0e6, 44.8e6)
    }

    #[test]
    fn space_for_device_is_valid_and_sized() {
        let device = DeviceSpec::raspberry_pi_3b();
        let space = InferenceSpace::for_device(&device);
        assert!(space.validate(&device).is_ok());
        assert_eq!(space.cores, vec![1, 2, 4]);
        assert_eq!(space.freqs.len(), 3);
        assert_eq!(space.len(), 8 * 3 * 3);
    }

    #[test]
    fn space_validation_catches_errors() {
        let device = DeviceSpec::raspberry_pi_3b();
        let mut space = InferenceSpace::for_device(&device);
        space.cores.push(16);
        assert!(space.validate(&device).is_err());
        let mut space2 = InferenceSpace::for_device(&device);
        space2.batches.push(0);
        assert!(space2.validate(&device).is_err());
        let empty = InferenceSpace {
            batches: vec![],
            cores: vec![1],
            freqs: vec![device.max_freq],
        };
        assert!(empty.validate(&device).is_err());
    }

    #[test]
    fn runtime_objective_prefers_batched_throughput() {
        let (rec, cost) = server(Metric::Runtime).tune(&resnet18());
        assert!(
            rec.batch > 1,
            "batching amortises dispatch: batch={}",
            rec.batch
        );
        assert!(rec.throughput().value() > 0.0);
        assert!(cost.configs == 72);
        assert!(cost.runtime.value() > 0.0);
    }

    #[test]
    fn energy_objective_accepts_lower_throughput_for_lower_energy() {
        let (rec_rt, _) = server(Metric::Runtime).tune(&resnet18());
        let (rec_en, _) = server(Metric::Energy).tune(&resnet18());
        // The footnote-1 effect: the energy optimum uses at most as many
        // cores/frequency as the runtime optimum and never beats its
        // throughput.
        assert!(rec_en.energy_per_item.value() <= rec_rt.energy_per_item.value());
        assert!(rec_en.throughput().value() <= rec_rt.throughput().value() * 1.001);
    }

    #[test]
    fn recommendation_is_the_true_grid_optimum() {
        let s = server(Metric::Runtime);
        let (rec, _) = s.tune(&resnet18());
        // Re-scan manually and compare.
        let mut best = f64::INFINITY;
        for &b in &s.space.batches {
            for &c in &s.space.cores {
                for &f in &s.space.freqs {
                    let alloc = CpuAllocation::new(&s.device, c, f).unwrap();
                    let exec = simulate_inference(&s.device, &alloc, &resnet18(), b);
                    best = best.min(exec.latency.value() / f64::from(b));
                }
            }
        }
        assert!((rec.latency_per_item.value() - best).abs() < 1e-12);
    }

    #[test]
    fn heavier_architectures_get_lower_throughput() {
        let s = server(Metric::Runtime);
        let (light, _) = s.tune(&resnet18());
        let heavy = WorkProfile::new(1.3e9, 9.2e6, 94.0e6);
        let (heavy_rec, _) = s.tune(&heavy);
        assert!(heavy_rec.throughput().value() < light.throughput().value());
    }

    #[test]
    fn tuning_cost_scales_with_space_size() {
        let device = DeviceSpec::raspberry_pi_3b();
        let small = InferenceSpace {
            batches: vec![1, 8],
            cores: vec![1],
            freqs: vec![device.max_freq],
        };
        let big = InferenceSpace::for_device(&device);
        let obj = InferenceObjective::new(Metric::Runtime);
        let s_small = InferenceTuningServer::new(device.clone(), small, obj).unwrap();
        let s_big = InferenceTuningServer::new(device, big, obj).unwrap();
        let (_, c_small) = s_small.tune(&resnet18());
        let (_, c_big) = s_big.tune(&resnet18());
        assert!(c_big.runtime > c_small.runtime);
        assert!(c_big.configs > c_small.configs);
    }

    #[test]
    fn fallback_recommendation_is_deployable_but_not_optimal() {
        let device = DeviceSpec::raspberry_pi_3b();
        let fallback = fallback_recommendation(&device, &resnet18());
        assert_eq!(fallback.batch, 1);
        assert_eq!(fallback.cores, device.cores);
        assert_eq!(fallback.freq, device.max_freq);
        assert!(fallback.latency_per_item.value() > 0.0);
        assert!(fallback.throughput().value() > 0.0);
        // The tuned optimum never loses to the fallback on the objective.
        let (tuned, _) = server(Metric::Runtime).tune(&resnet18());
        assert!(tuned.latency_per_item <= fallback.latency_per_item);
    }

    /// A caching endpoint under `faults` and the fresh study state it
    /// serves.
    fn study(faults: Option<FaultInjector>) -> (InferenceEndpoint, StudyGlobals) {
        let endpoint = InferenceEndpoint::new(server(Metric::Runtime), true, faults);
        (endpoint, StudyGlobals::default())
    }

    fn key(arch: &str) -> CacheKey {
        CacheKey::new("Raspberry Pi 3B+", arch, Metric::Runtime)
    }

    #[test]
    fn first_request_misses_second_hits() {
        let (mut endpoint, mut globals) = study(None);
        let arch = key("ResNet/layers=18");
        let first = endpoint.request(&mut globals, &arch, resnet18()).unwrap();
        assert!(!first.cache_hit);
        assert!(first.runtime.value() > 0.0);
        let second = endpoint.request(&mut globals, &arch, resnet18()).unwrap();
        assert!(
            second.cache_hit,
            "same architecture must be served from history"
        );
        assert_eq!(second.runtime, Seconds::ZERO);
        assert_eq!(second.latency_per_item, first.latency_per_item);
        assert_eq!(second.energy_per_item, first.energy_per_item);
    }

    #[test]
    fn different_architectures_are_tuned_separately() {
        let (mut endpoint, mut globals) = study(None);
        let light = endpoint.request(&mut globals, &key("light"), resnet18());
        let heavy = WorkProfile::new(8.5e9, 30.0e6, 246.0e6);
        let heavy = endpoint.request(&mut globals, &key("heavy"), heavy);
        let (light, heavy) = (light.unwrap(), heavy.unwrap());
        assert!(!light.cache_hit && !heavy.cache_hit);
        assert!(heavy.latency_per_item > light.latency_per_item);
        assert_eq!(globals.cache.len(), 2);
    }

    #[test]
    fn injected_worker_death_drops_the_reply_but_not_the_server() {
        // Every request's worker dies: the requester gets no reply, yet
        // the endpoint keeps accepting and the process survives.
        let (mut endpoint, mut globals) = study(Some(FaultInjector::new(1.0, SeedStream::new(77))));
        assert!(endpoint
            .request(&mut globals, &key("doomed"), resnet18())
            .is_none());
        assert_eq!(globals.injected_losses, 1);
        assert!(endpoint
            .request(&mut globals, &key("also-doomed"), resnet18())
            .is_none());
        assert_eq!(globals.injected_losses, 2);
        assert_eq!(globals.inference_cursor, 2);
        assert_eq!(endpoint.worker_panics(), 0, "injected deaths are not real");
    }

    #[test]
    fn injected_outage_stretches_the_sweep_runtime() {
        // The first seed whose request 0 keeps its worker but meets an
        // outage, and whose request 1 (the hit) keeps its worker too.
        let faults = (77..)
            .map(|seed| FaultInjector::new(0.5, SeedStream::new(seed)))
            .find(|f| !f.worker_panic(0) && f.device_outage(0).is_some() && !f.worker_panic(1))
            .unwrap();
        let (mut endpoint, mut globals) = study(Some(faults));
        let first = endpoint
            .request(&mut globals, &key("a"), resnet18())
            .unwrap();
        assert!(
            first.runtime.value() >= OUTAGE_S,
            "the outage must extend the sweep: {}",
            first.runtime
        );
        assert_eq!(globals.injected_outages, 1);
        // Cache hits never touch the device, so they see no outage.
        let hit = endpoint
            .request(&mut globals, &key("a"), resnet18())
            .unwrap();
        assert!(hit.cache_hit);
        assert_eq!(hit.runtime, Seconds::ZERO);
        assert_eq!(globals.injected_outages, 1);
    }

    #[test]
    fn globals_cache_stats_match_the_cache_tally() {
        // The tally lives in the globals alone, so a checkpoint carries
        // it and a resume continues it.
        let (mut endpoint, mut globals) = study(None);
        endpoint
            .request(&mut globals, &key("a"), resnet18())
            .unwrap();
        endpoint
            .request(&mut globals, &key("a"), resnet18())
            .unwrap();
        assert_eq!(globals.cache_stats, CacheStats { hits: 1, misses: 1 });
        let json = serde_json::to_string(&globals).unwrap();
        let mut resumed: StudyGlobals = serde_json::from_str(&json).unwrap();
        assert_eq!(resumed, globals);
        for arch in ["a", "b"] {
            endpoint
                .request(&mut resumed, &key(arch), resnet18())
                .unwrap();
        }
        assert_eq!(resumed.cache_stats, CacheStats { hits: 2, misses: 2 });
    }

    #[test]
    fn fault_free_endpoint_reports_zero_fault_counters() {
        let (mut endpoint, mut globals) = study(None);
        endpoint
            .request(&mut globals, &key("a"), resnet18())
            .unwrap();
        assert_eq!(endpoint.worker_panics(), 0);
        assert_eq!(globals.injected_losses, 0);
        assert_eq!(globals.injected_outages, 0);
    }

    #[test]
    fn requests_populate_the_globals_cache() {
        let (mut endpoint, mut globals) = study(None);
        endpoint
            .request(&mut globals, &key("a"), resnet18())
            .unwrap();
        assert_eq!(globals.cache.len(), 1);
        assert!(globals.cache.lookup(&key("a")).is_some());
    }

    #[test]
    fn a_real_panic_in_the_sweep_loses_the_reply_not_the_study() {
        // An empty space cannot pass `InferenceTuningServer::new`; built
        // directly, its sweep panics ("space is non-empty").
        let device = DeviceSpec::raspberry_pi_3b();
        let broken = InferenceTuningServer {
            space: InferenceSpace {
                batches: Vec::new(),
                cores: vec![1],
                freqs: vec![device.max_freq],
            },
            device,
            objective: InferenceObjective::new(Metric::Runtime),
        };
        let mut endpoint = InferenceEndpoint::new(broken, true, None);
        let mut globals = StudyGlobals::default();
        assert!(endpoint
            .request(&mut globals, &key("a"), resnet18())
            .is_none());
        assert_eq!(endpoint.worker_panics(), 1);
        assert_eq!(globals.inference_cursor, 1);
        assert_eq!(globals.cache_stats, CacheStats { hits: 0, misses: 1 });
        assert_eq!(globals.cache.len(), 0, "a sweep that died stores nothing");
        // The next request is answered as if nothing had happened.
        endpoint.server = server(Metric::Runtime);
        let next = endpoint
            .request(&mut globals, &key("a"), resnet18())
            .unwrap();
        assert!(!next.cache_hit);
        assert_eq!(endpoint.worker_panics(), 1);
        assert_eq!(globals.inference_cursor, 2);
    }

    /// Algorithm 1, lines 5–9, written from the pseudocode: the reference
    /// the properties below hold [`InferenceEndpoint::request`] to.
    #[derive(Default)]
    struct Oracle {
        stored: BTreeMap<usize, InferenceRecommendation>,
        hits: u64,
        misses: u64,
        cursor: u64,
        losses: u64,
        outages: u64,
    }

    impl Oracle {
        fn request(&mut self, arch: usize, case: &Case, tuned: &[Tuned]) -> Option<InferenceReply> {
            let seq = self.cursor;
            self.cursor += 1;
            if case.faults.worker_panic(seq) {
                self.losses += 1;
                return None;
            }
            if let Some(known) = self.stored.get(&arch).filter(|_| case.caching) {
                self.hits += 1;
                return Some(InferenceReply::from_history(known));
            }
            self.misses += 1;
            let (recommendation, cost) = tuned[arch].clone();
            let outage = case.faults.device_outage(seq);
            self.outages += u64::from(outage.is_some());
            let reply = InferenceReply {
                latency_per_item: recommendation.latency_per_item,
                energy_per_item: recommendation.energy_per_item,
                runtime: cost.runtime + outage.unwrap_or(Seconds::ZERO),
                energy: cost.energy,
                cache_hit: false,
            };
            if case.caching {
                self.stored.insert(arch, recommendation);
            }
            Some(reply)
        }
    }

    type Tuned = (InferenceRecommendation, InferenceTuningCost);

    /// One scripted study: its switches and the architecture (an index
    /// into [`profiles`]) each request asks for.
    struct Case {
        caching: bool,
        rate: f64,
        faults: FaultInjector,
        script: Vec<usize>,
    }

    impl Case {
        /// Runs requests `range` of the script against `globals`, on a
        /// fresh endpoint as a resume builds one.
        fn run(
            &self,
            globals: &mut StudyGlobals,
            range: std::ops::Range<usize>,
        ) -> Vec<Option<InferenceReply>> {
            let faults = (self.rate > 0.0).then(|| self.faults.clone());
            let mut endpoint =
                InferenceEndpoint::new(server(Metric::Runtime), self.caching, faults);
            let replies = self.script[range]
                .iter()
                .map(|&arch| {
                    endpoint.request(globals, &key(&format!("arch-{arch}")), profiles()[arch])
                })
                .collect();
            assert_eq!(endpoint.worker_panics(), 0);
            replies
        }
    }

    fn profiles() -> [WorkProfile; 4] {
        [
            resnet18(),
            WorkProfile::new(1.3e9, 9.2e6, 94.0e6),
            WorkProfile::new(3.6e9, 21.8e6, 160.0e6),
            WorkProfile::new(8.5e9, 30.0e6, 246.0e6),
        ]
    }

    /// Seeds × `caching` × fault rate, 40 random requests each.
    fn cases() -> Vec<Case> {
        const RATES: [f64; 5] = [0.0, 0.1, 0.3, 0.6, 1.0];
        let mut cases = Vec::new();
        for (seed, caching) in (0..6).flat_map(|seed| [(seed, true), (seed, false)]) {
            for rate in RATES {
                let mut rng = SeedStream::new(seed).rng("script");
                cases.push(Case {
                    caching,
                    rate,
                    faults: FaultInjector::new(rate, SeedStream::new(seed).child("faults")),
                    script: (0..40)
                        .map(|_| rng.gen_range(0..profiles().len()))
                        .collect(),
                });
            }
        }
        cases
    }

    #[test]
    fn requests_follow_algorithm_1_under_every_switch_and_fault_rate() {
        let tuned: Vec<Tuned> = profiles()
            .iter()
            .map(|profile| server(Metric::Runtime).tune(profile))
            .collect();
        for case in cases() {
            let what = format!("caching={} rate={}", case.caching, case.rate);
            let mut globals = StudyGlobals::default();
            let replies = case.run(&mut globals, 0..case.script.len());
            let mut oracle = Oracle::default();
            for (i, (got, &arch)) in replies.iter().zip(&case.script).enumerate() {
                let want = oracle.request(arch, &case, &tuned);
                // Equal replies carry the cost laws too: a hit is free and
                // sees no outage, a miss costs the sweep plus its outage.
                assert_eq!(got, &want, "{what}: request {i}");
            }
            let sweeps = replies.iter().flatten().filter(|r| !r.cache_hit).count() as u64;
            let stats = CacheStats {
                hits: oracle.hits,
                misses: oracle.misses,
            };
            assert_eq!(stats.misses, sweeps, "{what}: misses = sweeps run");
            assert_eq!(
                stats.hits + stats.misses,
                replies.iter().flatten().count() as u64,
                "{what}: one tally per answered request"
            );
            assert_eq!(globals.cache_stats, stats, "{what}");
            assert_eq!(globals.inference_cursor, case.script.len() as u64, "{what}");
            assert_eq!(globals.injected_losses, oracle.losses, "{what}");
            assert_eq!(globals.injected_outages, oracle.outages, "{what}");
            assert_eq!(globals.cache.len(), oracle.stored.len(), "{what}");
            for (arch, recommendation) in &oracle.stored {
                let entry = globals.cache.lookup(&key(&format!("arch-{arch}")));
                assert_eq!(entry, Some(recommendation), "{what}");
            }
            if case.caching && case.rate == 0.0 {
                let distinct: BTreeSet<usize> = case.script.iter().copied().collect();
                assert_eq!(sweeps, distinct.len() as u64, "{what}: one sweep each");
            }
            // Nothing but the server's five fields moved.
            let rest = StudyGlobals {
                cache: HistoricalCache::new(),
                cache_stats: CacheStats::default(),
                inference_cursor: 0,
                injected_losses: 0,
                injected_outages: 0,
                ..globals
            };
            assert_eq!(rest, StudyGlobals::default(), "{what}");
        }
    }

    #[test]
    fn requests_continue_across_a_checkpoint_round_trip() {
        for case in cases() {
            let n = case.script.len();
            let mut straight = StudyGlobals::default();
            let replies = case.run(&mut straight, 0..n);
            for k in [0, 1, n / 2, n] {
                let mut parked = StudyGlobals::default();
                let mut resumed_replies = case.run(&mut parked, 0..k);
                // What a checkpoint stores and the orchestrator reinstates.
                let json = serde_json::to_string(&parked).unwrap();
                let mut resumed: StudyGlobals = serde_json::from_str(&json).unwrap();
                resumed_replies.extend(case.run(&mut resumed, k..n));
                assert_eq!(resumed_replies, replies, "split at {k}");
                assert_eq!(resumed, straight, "split at {k}");
            }
        }
    }
}
