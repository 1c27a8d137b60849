//! The Inference Tuning Server (§3.4).
//!
//! Given an architecture's [`WorkProfile`], the server sweeps the
//! inference hyperparameter (batch size) jointly with the inference
//! *system* parameters (CPU cores, DVFS frequency) on an emulated edge
//! device, applies the user's inference objective (minimise per-item
//! runtime or energy), and returns an [`InferenceRecommendation`] the
//! user can deploy directly — the paper's headline "more useful
//! information" output.
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

use edgetune_device::latency::{simulate_inference, CpuAllocation};
use edgetune_device::profile::WorkProfile;
use edgetune_device::spec::DeviceSpec;
use edgetune_faults::FaultInjector;
use edgetune_util::units::{
    energy_per_item, throughput, Hertz, ItemsPerSecond, Joules, JoulesPerItem, Seconds, Watts,
};
use edgetune_util::{Error, Result};
use serde::{Deserialize, Serialize};

use edgetune_tuner::objective::InferenceObjective;
use edgetune_tuner::sampler::{Sampler, TpeSampler};
use edgetune_tuner::space::{Config, Domain, SearchSpace};
use edgetune_util::rng::SeedStream;

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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

    /// This space as a generic tuner [`SearchSpace`] (every dimension is
    /// an explicit choice), used by the model-based search path.
    #[must_use]
    pub fn as_search_space(&self) -> SearchSpace {
        SearchSpace::new()
            .with(
                "batch",
                Domain::choice(
                    self.batches
                        .iter()
                        .map(|&b| f64::from(b))
                        .collect::<Vec<_>>(),
                ),
            )
            .with(
                "cores",
                Domain::choice(self.cores.iter().map(|&c| f64::from(c)).collect::<Vec<_>>()),
            )
            .with(
                "freq_ghz",
                Domain::choice(self.freqs.iter().map(|f| f.as_ghz()).collect::<Vec<_>>()),
            )
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
        for &c in &self.cores {
            if !device.supports_cores(c) {
                return Err(Error::invalid_config(format!(
                    "{} cores unsupported on {}",
                    c, device.name
                )));
            }
        }
        for &f in &self.freqs {
            if f < device.min_freq || f > device.max_freq {
                return Err(Error::invalid_config(format!(
                    "frequency {:.2} GHz outside {}'s DVFS range",
                    f.as_ghz(),
                    device.name
                )));
            }
        }
        Ok(())
    }
}

/// The deployment recommendation returned to the user.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// Estimated throughput at the optimum.
    pub throughput: ItemsPerSecond,
}

/// Cost of one inference-tuning run (it executes on the tuning server's
/// CPUs, in parallel with training).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InferenceTuningCost {
    /// Wall-clock duration of the sweep *on the tuning server*.
    pub runtime: Seconds,
    /// Energy consumed by the sweep on the tuning server.
    pub energy: Joules,
    /// Total emulated edge-device time covered by the sweep.
    pub emulated_time: Seconds,
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

    /// The target device.
    #[must_use]
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The search space.
    #[must_use]
    pub fn space(&self) -> &InferenceSpace {
        &self.space
    }

    /// Exhaustively tunes inference parameters for one architecture
    /// (grid search: the paper notes grid is sensible here because the
    /// inference space is small, §3.1).
    ///
    /// Returns the recommendation and the cost of producing it.
    #[must_use]
    pub fn tune(&self, profile: &WorkProfile) -> (InferenceRecommendation, InferenceTuningCost) {
        let mut best: Option<(f64, InferenceRecommendation)> = None;
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
                    if best.as_ref().is_none_or(|(s, _)| score < *s) {
                        best = Some((
                            score,
                            InferenceRecommendation {
                                device: self.device.name.clone(),
                                batch,
                                cores,
                                freq,
                                latency_per_item,
                                energy_per_item: e_per_item,
                                throughput: throughput(f64::from(batch), exec.latency),
                            },
                        ));
                    }
                }
            }
        }
        let (_, recommendation) = best.expect("space is non-empty by construction");
        let runtime = emulated / EMULATION_SPEEDUP;
        let energy = Watts::new(EMULATION_HOST_POWER_W) * runtime;
        (
            recommendation,
            InferenceTuningCost {
                runtime,
                energy,
                emulated_time: emulated,
                configs,
            },
        )
    }
}

impl InferenceTuningServer {
    /// Model-based alternative to the exhaustive sweep: a TPE sampler
    /// proposes `trials` configurations and only those are measured —
    /// §3.1 notes the inference server may run its own search algorithm
    /// (e.g. BOHB) instead of grid search when the space is larger.
    ///
    /// Measured configurations are deduplicated, so the cost is at most
    /// `trials` distinct measurements. Returns the best configuration
    /// found and the cost of finding it.
    ///
    /// # Panics
    ///
    /// Panics if `trials` is zero.
    #[must_use]
    pub fn tune_with_model(
        &self,
        profile: &WorkProfile,
        trials: usize,
        seed: SeedStream,
    ) -> (InferenceRecommendation, InferenceTuningCost) {
        assert!(trials >= 1, "need at least one trial");
        let space = self.space.as_search_space();
        let mut sampler = TpeSampler::new(seed.child("inference-tpe"));
        let mut history: Vec<(Config, f64)> = Vec::new();
        let mut measured: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
        let mut best: Option<(f64, InferenceRecommendation)> = None;
        let mut emulated = Seconds::ZERO;
        for _ in 0..trials {
            let obs: Vec<(&Config, f64)> = history.iter().map(|(c, s)| (c, *s)).collect();
            let config = sampler.suggest(&space, &obs);
            let key = config.key();
            let score = if let Some(&cached) = measured.get(&key) {
                cached
            } else {
                let batch = config.get("batch").expect("set by sampler") as u32;
                let cores = config.get("cores").expect("set by sampler") as u32;
                let freq = Hertz::from_ghz(config.get("freq_ghz").expect("set by sampler"));
                let alloc = CpuAllocation::new(&self.device, cores, freq)
                    .expect("space validated at construction");
                let exec = simulate_inference(&self.device, &alloc, profile, batch);
                emulated += exec.latency;
                let latency_per_item = exec.latency / f64::from(batch);
                let e_per_item = energy_per_item(exec.energy, f64::from(batch));
                let score = self.objective.score(latency_per_item, e_per_item);
                if best.as_ref().is_none_or(|(s, _)| score < *s) {
                    best = Some((
                        score,
                        InferenceRecommendation {
                            device: self.device.name.clone(),
                            batch,
                            cores,
                            freq,
                            latency_per_item,
                            energy_per_item: e_per_item,
                            throughput: throughput(f64::from(batch), exec.latency),
                        },
                    ));
                }
                measured.insert(key, score);
                score
            };
            history.push((config, score));
        }
        let (_, recommendation) = best.expect("at least one trial measured");
        let runtime = emulated / EMULATION_SPEEDUP;
        let energy = Watts::new(EMULATION_HOST_POWER_W) * runtime;
        (
            recommendation,
            InferenceTuningCost {
                runtime,
                energy,
                emulated_time: emulated,
                configs: measured.len(),
            },
        )
    }
}

/// The answer to one inference-tuning request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferenceReply {
    /// The deployment recommendation for the requested architecture.
    pub recommendation: InferenceRecommendation,
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
    pub fn from_history(recommendation: InferenceRecommendation) -> Self {
        InferenceReply {
            recommendation,
            runtime: Seconds::ZERO,
            energy: Joules::ZERO,
            cache_hit: true,
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
        globals.cache_stats = globals.cache.stats();
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
        if !self.caching {
            globals.cache.note_miss();
        } else if let Some(hit) = globals.cache.lookup(key) {
            return InferenceReply::from_history(hit);
        }
        let (recommendation, cost) = self.server.tune(profile);
        if self.caching {
            globals.cache.store(key, recommendation.clone());
        }
        InferenceReply {
            recommendation,
            runtime: cost.runtime,
            energy: cost.energy,
            cache_hit: false,
        }
    }
}

/// Tunes inference parameters for one architecture across a *set* of
/// edge devices — the paper's common case where "the tuned model might be
/// deployed across different edge devices and having these configurations
/// suggested can assist users to take the most out of their tuned models"
/// (§1). Each device gets its own sweep over its own space.
///
/// # Errors
///
/// Returns the first device whose default space fails validation (does
/// not happen for catalog devices).
pub fn recommend_across(
    devices: &[DeviceSpec],
    profile: &WorkProfile,
    objective: InferenceObjective,
) -> Result<Vec<(InferenceRecommendation, InferenceTuningCost)>> {
    devices
        .iter()
        .map(|device| {
            let server = InferenceTuningServer::new(
                device.clone(),
                InferenceSpace::for_device(device),
                objective,
            )?;
            Ok(server.tune(profile))
        })
        .collect()
}

/// The conservative device-model default recommendation the degradation
/// ladder falls back to when the inference server cannot answer: batch 1,
/// all cores, maximum frequency — never optimal, always deployable — with
/// latency/energy/throughput estimated from the device model.
#[must_use]
pub fn fallback_recommendation(
    device: &DeviceSpec,
    profile: &WorkProfile,
) -> InferenceRecommendation {
    let alloc = CpuAllocation::full(device);
    let exec = simulate_inference(device, &alloc, profile, 1);
    InferenceRecommendation {
        device: device.name.clone(),
        batch: 1,
        cores: device.cores,
        freq: device.max_freq,
        latency_per_item: exec.latency,
        energy_per_item: energy_per_item(exec.energy, 1.0),
        throughput: throughput(1.0, exec.latency),
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;
    use crate::cache::{CacheStats, HistoricalCache};
    use edgetune_faults::FaultPlan;
    use edgetune_tuner::Metric;
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
        assert!(rec.throughput.value() > 0.0);
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
        assert!(rec_en.throughput.value() <= rec_rt.throughput.value() * 1.001);
    }

    #[test]
    fn recommendation_is_the_true_grid_optimum() {
        let s = server(Metric::Runtime);
        let (rec, _) = s.tune(&resnet18());
        // Re-scan manually and compare.
        let mut best = f64::INFINITY;
        for &b in &s.space().batches {
            for &c in &s.space().cores {
                for &f in &s.space().freqs {
                    let alloc = CpuAllocation::new(s.device(), c, f).unwrap();
                    let exec = simulate_inference(s.device(), &alloc, &resnet18(), b);
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
        assert!(heavy_rec.throughput.value() < light.throughput.value());
    }

    #[test]
    fn model_based_search_measures_fewer_configs_for_similar_quality() {
        let s = server(Metric::Runtime);
        let profile = resnet18();
        let (grid_rec, grid_cost) = s.tune(&profile);
        let (tpe_rec, tpe_cost) =
            s.tune_with_model(&profile, 30, edgetune_util::rng::SeedStream::new(4));
        assert!(
            tpe_cost.configs < grid_cost.configs,
            "model-based search must measure fewer configs: {} vs {}",
            tpe_cost.configs,
            grid_cost.configs
        );
        assert!(tpe_cost.runtime < grid_cost.runtime);
        // Quality within 2x of the true optimum on its own metric.
        assert!(
            tpe_rec.latency_per_item.value() <= grid_rec.latency_per_item.value() * 2.0,
            "model-based optimum should be competitive: {} vs {}",
            tpe_rec.latency_per_item,
            grid_rec.latency_per_item
        );
    }

    #[test]
    fn model_based_search_is_deterministic() {
        let s = server(Metric::Energy);
        let profile = resnet18();
        let seed = edgetune_util::rng::SeedStream::new(9);
        let (a, _) = s.tune_with_model(&profile, 20, seed);
        let (b, _) = s.tune_with_model(&profile, 20, seed);
        assert_eq!(a, b);
    }

    #[test]
    fn as_search_space_mirrors_the_grid() {
        let device = DeviceSpec::raspberry_pi_3b();
        let space = InferenceSpace::for_device(&device);
        let generic = space.as_search_space();
        assert_eq!(generic.len(), 3);
        assert_eq!(generic.grid(100).len(), space.len());
    }

    #[test]
    fn recommend_across_covers_every_device() {
        let devices = [
            DeviceSpec::armv7_board(),
            DeviceSpec::raspberry_pi_3b(),
            DeviceSpec::intel_i7_7567u(),
        ];
        let recs = recommend_across(
            &devices,
            &resnet18(),
            InferenceObjective::new(Metric::Runtime),
        )
        .unwrap();
        assert_eq!(recs.len(), 3);
        for (device, (rec, cost)) in devices.iter().zip(&recs) {
            assert_eq!(rec.device, device.name);
            assert!(cost.configs > 0);
        }
        // The laptop CPU dominates the boards on throughput.
        assert!(recs[2].0.throughput.value() > recs[1].0.throughput.value());
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
        assert!(fallback.throughput.value() > 0.0);
        // The tuned optimum never loses to the fallback on the objective.
        let (tuned, _) = server(Metric::Runtime).tune(&resnet18());
        assert!(tuned.latency_per_item <= fallback.latency_per_item);
    }

    /// A caching endpoint under `plan` and the fresh study state it serves.
    fn study(plan: FaultPlan) -> (InferenceEndpoint, StudyGlobals) {
        let faults = (!plan.is_none()).then(|| FaultInjector::new(plan, SeedStream::new(77)));
        let endpoint = InferenceEndpoint::new(server(Metric::Runtime), true, faults);
        (endpoint, StudyGlobals::default())
    }

    fn key(arch: &str) -> CacheKey {
        CacheKey::new("Raspberry Pi 3B+", arch, Metric::Runtime)
    }

    #[test]
    fn first_request_misses_second_hits() {
        let (mut endpoint, mut globals) = study(FaultPlan::none());
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
        assert_eq!(second.recommendation, first.recommendation);
    }

    #[test]
    fn different_architectures_are_tuned_separately() {
        let (mut endpoint, mut globals) = study(FaultPlan::none());
        let light = endpoint.request(&mut globals, &key("light"), resnet18());
        let heavy = WorkProfile::new(8.5e9, 30.0e6, 246.0e6);
        let heavy = endpoint.request(&mut globals, &key("heavy"), heavy);
        let (light, heavy) = (light.unwrap(), heavy.unwrap());
        assert!(!light.cache_hit && !heavy.cache_hit);
        assert!(heavy.recommendation.throughput.value() < light.recommendation.throughput.value());
        assert_eq!(globals.cache.len(), 2);
    }

    #[test]
    fn injected_worker_death_drops_the_reply_but_not_the_server() {
        // Every request's worker dies: the requester gets no reply, yet
        // the endpoint keeps accepting and the process survives.
        let (mut endpoint, mut globals) = study(FaultPlan::none().with_worker_panic(1.0));
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
        let plan = FaultPlan {
            device_outage: 1.0,
            outage_duration_s: 30.0,
            ..FaultPlan::none()
        };
        let (mut endpoint, mut globals) = study(plan);
        let first = endpoint
            .request(&mut globals, &key("a"), resnet18())
            .unwrap();
        assert!(
            first.runtime.value() >= 30.0,
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
        let (mut endpoint, mut globals) = study(FaultPlan::none());
        endpoint
            .request(&mut globals, &key("a"), resnet18())
            .unwrap();
        endpoint
            .request(&mut globals, &key("a"), resnet18())
            .unwrap();
        assert_eq!(globals.cache_stats, CacheStats { hits: 1, misses: 1 });
        assert_eq!(globals.cache.stats(), globals.cache_stats);
    }

    #[test]
    fn fault_free_endpoint_reports_zero_fault_counters() {
        let (mut endpoint, mut globals) = study(FaultPlan::none());
        endpoint
            .request(&mut globals, &key("a"), resnet18())
            .unwrap();
        assert_eq!(endpoint.worker_panics(), 0);
        assert_eq!(globals.injected_losses, 0);
        assert_eq!(globals.injected_outages, 0);
    }

    #[test]
    fn requests_populate_the_globals_cache() {
        let (mut endpoint, mut globals) = study(FaultPlan::none());
        endpoint
            .request(&mut globals, &key("a"), resnet18())
            .unwrap();
        assert_eq!(globals.cache.len(), 1);
        assert!(globals.cache.peek(&key("a")).is_some());
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
        assert!(globals.cache.is_empty(), "a sweep that died stores nothing");
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
                return Some(InferenceReply::from_history(known.clone()));
            }
            self.misses += 1;
            let (recommendation, cost) = tuned[arch].clone();
            let outage = case.faults.device_outage(seq);
            self.outages += u64::from(outage.is_some());
            if case.caching {
                self.stored.insert(arch, recommendation.clone());
            }
            Some(InferenceReply {
                recommendation,
                runtime: cost.runtime + outage.unwrap_or(Seconds::ZERO),
                energy: cost.energy,
                cache_hit: false,
            })
        }
    }

    type Tuned = (InferenceRecommendation, InferenceTuningCost);

    /// One scripted study: its switches and the architecture (an index
    /// into [`profiles`]) each request asks for.
    struct Case {
        caching: bool,
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
            let faults = (!self.faults.is_none()).then(|| self.faults.clone());
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

    /// Seeds × `caching` × loss rate × outage rate, 40 random requests
    /// each.
    fn cases() -> Vec<Case> {
        const RATES: [f64; 3] = [0.0, 0.3, 1.0];
        let mut cases = Vec::new();
        for (seed, caching) in (0..6).flat_map(|seed| [(seed, true), (seed, false)]) {
            for (loss, outage) in RATES.iter().flat_map(|&l| RATES.map(|o| (l, o))) {
                let plan = FaultPlan::none()
                    .with_worker_panic(loss)
                    .with_device_outage(outage);
                let mut rng = SeedStream::new(seed).rng("script");
                cases.push(Case {
                    caching,
                    faults: FaultInjector::new(plan, SeedStream::new(seed).child("faults")),
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
            let plan = *case.faults.plan();
            let what = format!("caching={} {plan:?}", case.caching);
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
            assert_eq!(globals.cache_stats, stats, "{what}");
            assert_eq!(globals.cache.stats(), stats, "{what}");
            assert_eq!(globals.inference_cursor, case.script.len() as u64, "{what}");
            assert_eq!(globals.injected_losses, oracle.losses, "{what}");
            assert_eq!(globals.injected_outages, oracle.outages, "{what}");
            assert_eq!(globals.cache.len(), oracle.stored.len(), "{what}");
            for (arch, recommendation) in &oracle.stored {
                let entry = globals.cache.peek(&key(&format!("arch-{arch}")));
                assert_eq!(entry, Some(recommendation), "{what}");
            }
            if case.caching && plan.worker_panic == 0.0 {
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
                resumed.cache.restore_stats(resumed.cache_stats);
                resumed_replies.extend(case.run(&mut resumed, k..n));
                assert_eq!(resumed_replies, replies, "split at {k}");
                assert_eq!(resumed, straight, "split at {k}");
            }
        }
    }
}
