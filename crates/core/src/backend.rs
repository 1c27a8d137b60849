//! Training backends: what actually runs a training trial.
//!
//! The Model Tuning Server is generic over a [`TrainingBackend`]. The
//! default [`SimTrainingBackend`] drives the calibrated workload models on
//! the emulated Titan RTX node (the substitution DESIGN.md documents for
//! the paper's PyTorch+CUDA stack). It always trains there, as the
//! paper's evaluation does, so its one system parameter is the GPU count
//! and its spec need not name the node; [`NnTrainingBackend`] runs *real*
//! gradient-descent training with `edgetune-nn`, proving the middleware is
//! not tied to the simulation.

use edgetune_device::multi_gpu::{simulate_gpu_epoch, GpuAllocation};
use edgetune_device::profile::WorkProfile;
use edgetune_device::spec::DeviceSpec;
use edgetune_faults::{FaultInjector, TrialFault, STRAGGLER_SLOWDOWN};
use edgetune_nn::data::Dataset;
use edgetune_nn::layer::{Conv2d, Dense, Flatten, MaxPool2d, Relu, Reshape};
use edgetune_nn::model::Sequential;
use edgetune_nn::optim::Sgd;
use edgetune_nn::train::{fit, FitConfig};
use edgetune_tuner::budget::TrialBudget;
use edgetune_tuner::space::{Config, Domain, SearchSpace};
use edgetune_util::rng::SeedStream;
use edgetune_util::units::{Joules, Seconds, Watts};
use edgetune_workloads::catalog::Workload;
use edgetune_workloads::curve::TrainingQuality;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// What one training trial reports back.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialMeasurement {
    /// Validation accuracy the trial reached.
    pub accuracy: f64,
    /// Modelled training time of the trial, in simulated seconds.
    pub runtime: Seconds,
    /// Energy the trial consumed.
    pub energy: Joules,
    /// Fault a chaos plan injected into this trial, if any. Always `None`
    /// for natural outcomes (including a genuine out-of-memory crash).
    pub injected: Option<TrialFault>,
}

/// A source of training trials for the Model Tuning Server.
pub trait TrainingBackend: Send {
    /// The backend's full search space (model + training hyperparameters
    /// + any system parameters it supports).
    fn search_space(&self) -> SearchSpace;

    /// The architecture signature and computational profile selected by a
    /// configuration — available *before* training, which is what lets
    /// the inference request be fired at trial start (§3.3).
    fn architecture(&self, config: &Config) -> (String, WorkProfile);

    /// Runs one training trial.
    fn run_trial(&mut self, config: &Config, budget: TrialBudget) -> TrialMeasurement;

    /// Fault-injection draws consumed so far — the chaos RNG cursor a
    /// study checkpoint stores so a resumed run replays the same fates.
    /// Backends without a fault hook report zero.
    fn fault_cursor(&self) -> u64 {
        0
    }

    /// Restores the fault-injection cursor on resume. A no-op for
    /// backends without a fault hook.
    fn set_fault_cursor(&mut self, _cursor: u64) {}

    /// A deep copy of this backend for real-parallel rung execution, or
    /// `None` when trials are order-dependent (e.g. an attached fault
    /// injector's draw cursor) and must run sequentially on the primary
    /// backend. The contract: for any `(config, budget)` a snapshot must
    /// return exactly the measurement the primary backend would, so the
    /// engine can fan snapshots out across threads without changing any
    /// reported number. The conservative default keeps unknown backends
    /// sequential.
    fn parallel_snapshot(&self) -> Option<Box<dyn TrainingBackend + Send>> {
        None
    }

    /// A serialisable description of this backend a shard worker process
    /// can rebuild it from, or `None` when the backend cannot cross a
    /// process boundary (real datasets, order-dependent fault cursors).
    /// The contract mirrors [`TrainingBackend::parallel_snapshot`]: the
    /// rebuilt backend must return exactly the measurement this one
    /// would for any `(config, budget)`, so process placement can never
    /// change a reported number. `None` makes the engine fall back to
    /// in-process execution.
    fn process_spec(&self) -> Option<BackendSpec> {
        None
    }
}

/// A self-contained, serialisable recipe for rebuilding a training
/// backend in another process. Only backends whose behaviour is a pure
/// function of plain data can offer one — today that is
/// [`SimTrainingBackend`] without a fault injector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackendSpec {
    workload: Workload,
    seed: u64,
    tune_system_params: bool,
    fixed_gpus: u32,
}

impl BackendSpec {
    /// Rebuilds the backend this spec describes. The result measures
    /// bit-identically to the backend that produced the spec.
    #[must_use]
    pub fn instantiate(&self) -> Box<dyn TrainingBackend + Send> {
        Box::new(SimTrainingBackend {
            tune_system_params: self.tune_system_params,
            fixed_gpus: self.fixed_gpus,
            ..SimTrainingBackend::new(self.workload.clone(), SeedStream::new(self.seed))
        })
    }
}

// ---------------------------------------------------------------------------
// Simulated backend (the paper's workloads)
// ---------------------------------------------------------------------------

/// Fixed per-trial setup cost (dataset loading, model compilation,
/// checkpoint handling) the trial pays before its first epoch — the same
/// reason Ray Tune trials never finish in seconds. It also guarantees
/// every trial outlasts the pipelined inference sweep.
pub const TRIAL_OVERHEAD_S: f64 = 20.0;

/// Name of the model hyperparameter in simulated search spaces.
pub const PARAM_MODEL_HP: &str = "model_hp";
/// Name of the training batch-size parameter.
pub const PARAM_TRAIN_BATCH: &str = "train_batch";
/// Name of the GPU-count system parameter.
pub const PARAM_GPUS: &str = "gpus";

/// The immutable bulk of a [`SimTrainingBackend`] — the workload's
/// calibration tables and the Titan RTX node it trains on. Shared
/// between the primary backend and every rung snapshot through an `Arc`,
/// so taking a snapshot copies a handle instead of deep-cloning the
/// tables.
#[derive(Debug)]
struct SimBackendShared {
    workload: Workload,
    node: DeviceSpec,
}

/// Simulated training of one paper workload on the emulated trainer node.
#[derive(Debug, Clone)]
pub struct SimTrainingBackend {
    shared: Arc<SimBackendShared>,
    seed: SeedStream,
    tune_system_params: bool,
    fixed_gpus: u32,
    faults: Option<FaultInjector>,
    fault_draws: u64,
}

impl SimTrainingBackend {
    /// Creates a backend for `workload` on the Titan RTX node, with the
    /// GPU count part of the search space (EdgeTune's onefold setting).
    #[must_use]
    pub fn new(workload: Workload, seed: SeedStream) -> Self {
        SimTrainingBackend {
            shared: Arc::new(SimBackendShared {
                workload,
                node: DeviceSpec::titan_rtx_node(),
            }),
            seed,
            tune_system_params: true,
            fixed_gpus: 1,
            faults: None,
            fault_draws: 0,
        }
    }

    /// Attaches a fault injector: each `run_trial` call consumes exactly
    /// one draw (keyed by a monotone cursor, so retried trials get fresh
    /// fates) and may crash or straggle accordingly.
    #[must_use]
    pub fn with_fault_injector(mut self, injector: FaultInjector) -> Self {
        self.faults = Some(injector);
        self
    }

    /// Fixes the GPU allocation instead of tuning it — how the
    /// hyperparameter-only baselines (Tune, HyperPower) operate.
    #[must_use]
    pub fn with_fixed_gpus(mut self, gpus: u32) -> Self {
        assert!(
            gpus >= 1 && gpus <= self.shared.node.cores,
            "gpus must be within the node's range"
        );
        self.tune_system_params = false;
        self.fixed_gpus = gpus;
        self
    }

    /// A copy-on-write snapshot: the calibration tables travel as a
    /// shared `Arc` handle, so the copy is a few pointer bumps no matter
    /// how large the workload's tables are.
    fn cow_snapshot(&self) -> Self {
        self.clone()
    }

    fn gpus_of(&self, config: &Config) -> u32 {
        if self.tune_system_params {
            config
                .get(PARAM_GPUS)
                .map_or(self.fixed_gpus, |g| g as u32)
                .clamp(1, self.shared.node.cores)
        } else {
            self.fixed_gpus
        }
    }
}

impl TrainingBackend for SimTrainingBackend {
    fn search_space(&self) -> SearchSpace {
        // §5.1: training batch 32..512, GPUs 1..8, plus the workload's
        // model hyperparameter.
        let mut space = SearchSpace::new()
            .with(
                PARAM_MODEL_HP,
                Domain::choice(self.shared.workload.model_hp_values.clone()),
            )
            .with(PARAM_TRAIN_BATCH, Domain::int_log(32, 512));
        if self.tune_system_params {
            space = space.with(
                PARAM_GPUS,
                Domain::int(1, i64::from(self.shared.node.cores)),
            );
        }
        space
    }

    fn architecture(&self, config: &Config) -> (String, WorkProfile) {
        let hp = config
            .get(PARAM_MODEL_HP)
            .unwrap_or(self.shared.workload.model_hp_values[0]);
        (
            self.shared.workload.arch_signature(hp),
            self.shared.workload.profile(hp),
        )
    }

    fn run_trial(&mut self, config: &Config, budget: TrialBudget) -> TrialMeasurement {
        // One fault draw per call, keyed by a monotone cursor so the fate
        // of trial N never depends on how many faults fired before it —
        // and so a checkpoint can replay the cursor on resume.
        let injected = match &self.faults {
            Some(injector) => {
                let draw = self.fault_draws;
                self.fault_draws += 1;
                injector.trial_fault(draw)
            }
            None => None,
        };
        let hp = config
            .get(PARAM_MODEL_HP)
            .unwrap_or(self.shared.workload.model_hp_values[0]);
        let batch = config
            .get(PARAM_TRAIN_BATCH)
            .map_or(128, |b| b as u32)
            .max(1);
        let gpus = self.gpus_of(config);

        let profile = self.shared.workload.profile(hp);
        let samples = self
            .shared
            .workload
            .samples_at_fraction(budget.data_fraction);
        let node = &self.shared.node;

        // Out-of-memory check: the *per-device* training working set
        // (weights + gradients + optimizer state + saved activations for
        // the device's share of the batch) must fit device memory. This
        // is the real-world coupling between batch size and GPU count
        // that only a joint (onefold) search can navigate.
        let per_device_batch = batch.div_ceil(gpus);
        let working_set = profile.working_set(
            per_device_batch,
            edgetune_device::profile::Phase::ForwardTraining,
        );
        if working_set > node.dram_bytes {
            // The trial crashes during setup/first iteration: the setup
            // cost is paid, nothing is learned. This is a *natural*
            // failure — deterministic in the configuration, so it is not
            // marked as injected and retrying it would be pointless.
            let overhead = Seconds::new(TRIAL_OVERHEAD_S);
            let overhead_power = node.idle_power + node.core_power * (0.25 * f64::from(gpus));
            return TrialMeasurement {
                accuracy: 0.0,
                runtime: overhead,
                energy: overhead_power * overhead,
                injected: None,
            };
        }

        let alloc = GpuAllocation::new(node, gpus).expect("gpu count clamped to the node's range");
        let epoch = simulate_gpu_epoch(node, &alloc, &profile, batch, samples);
        let mut training = epoch.repeat(budget.epochs);
        // Per-trial setup: host + allocated-but-idle units for the load
        // phase.
        let overhead = Seconds::new(TRIAL_OVERHEAD_S);
        let overhead_power = node.idle_power + node.core_power * (0.25 * f64::from(gpus));
        training.latency += overhead;
        training.energy += overhead_power * overhead;

        match injected {
            Some(TrialFault::Crash) => {
                // The process dies mid-first-epoch: setup plus half an
                // epoch's work is paid, nothing is learned.
                let paid = overhead + epoch.latency * 0.5;
                let paid_energy = overhead_power * overhead + epoch.energy * 0.5;
                return TrialMeasurement {
                    accuracy: 0.0,
                    runtime: paid,
                    energy: paid_energy,
                    injected,
                };
            }
            Some(TrialFault::Straggle) => {
                // Co-location interference: the device is busy for
                // `STRAGGLER_SLOWDOWN` times longer at the same power
                // draw, but the trial still completes and learns normally.
                training.latency = training.latency * STRAGGLER_SLOWDOWN;
                training.energy = training.energy * STRAGGLER_SLOWDOWN;
            }
            None => {}
        }

        let accuracy = self.shared.workload.simulated_accuracy(
            hp,
            &TrainingQuality::from_batch(batch),
            budget.epochs,
            budget.data_fraction,
            self.seed,
        );
        TrialMeasurement {
            accuracy,
            runtime: training.latency,
            energy: training.energy,
            injected,
        }
    }

    fn fault_cursor(&self) -> u64 {
        self.fault_draws
    }

    fn set_fault_cursor(&mut self, cursor: u64) {
        self.fault_draws = cursor;
    }

    fn parallel_snapshot(&self) -> Option<Box<dyn TrainingBackend + Send>> {
        // With an injector attached, trial fate depends on the shared
        // fault-draw cursor — snapshots would each replay draw 0 and
        // change the chaos. Sequential execution is the only faithful
        // order in that case.
        if self.faults.is_some() {
            return None;
        }
        Some(Box::new(self.cow_snapshot()))
    }

    fn process_spec(&self) -> Option<BackendSpec> {
        // Same rule as `parallel_snapshot`: an attached injector makes
        // trial fate depend on the shared draw cursor, so the backend
        // must not be replicated across processes.
        if self.faults.is_some() {
            return None;
        }
        Some(BackendSpec {
            workload: self.shared.workload.clone(),
            seed: self.seed.seed(),
            tune_system_params: self.tune_system_params,
            fixed_gpus: self.fixed_gpus,
        })
    }
}

// ---------------------------------------------------------------------------
// Real-training backend (edgetune-nn)
// ---------------------------------------------------------------------------

/// Name of the hidden-width model hyperparameter of the real backend.
pub const PARAM_HIDDEN: &str = "hidden";
/// Name of the learning-rate parameter of the real backend.
pub const PARAM_LR: &str = "lr";

/// Which real model family the backend trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NnArchitecture {
    /// `Dense → ReLU → Dense` over flat features; `hidden` is the tuned
    /// model hyperparameter.
    Mlp,
    /// `Conv2d → ReLU → MaxPool2d → Flatten → Dense` over square
    /// single-channel images; `hidden` is the number of conv channels.
    ConvNet {
        /// Image side length (the dataset's features are `side²`).
        side: usize,
    },
}

/// Rough sustained throughput assumed for the tuning host when modeling
/// a real training run's simulated cost (FLOP/s).
const NN_HOST_FLOPS: f64 = 2.0e9;
/// Fixed per-trial setup charge of the real backend in simulated time
/// (process spawn, data load).
const NN_SETUP_S: f64 = 0.05;

/// What `fit` reads of one trial besides the backend's own datasets,
/// seed and architecture: two trials with equal keys train bit-identical
/// models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct FitKey {
    hidden: usize,
    batch: usize,
    /// Bits of the `f32` learning rate.
    lr: u32,
    /// `ceil(epochs)`, at least 1.
    epochs: u32,
    /// Bits of the dataset budget.
    data_fraction: u64,
}

/// Real mini-batch SGD training of a small network on a synthetic
/// dataset, costed by a model.
///
/// The training is real; its reported cost is *modelled* (FLOPs at
/// [`NN_HOST_FLOPS`] plus [`NN_SETUP_S`]), so runtime and energy are
/// functions of the configuration and budget alone, and reports stay
/// byte-identical across machines, shard counts and placements. Host
/// time spent in `fit` is measured from outside (the benchmark, a
/// trace), never reported here.
///
/// The accuracy is a pure function of the five values `fit` reads
/// (hidden width, batch, learning rate, whole epochs, data fraction), so
/// each instance memoises it by them and a repeated key skips `fit`:
/// HyperBand brackets re-draw the same grid points. A memo entry is the
/// only state a trial reads that an earlier trial wrote, and it holds the
/// bits a fresh backend would train. The memo starts empty in every
/// constructor, a clone copies it, and nothing shares it.
#[derive(Debug, Clone)]
pub struct NnTrainingBackend {
    // Shared behind `Arc` so rung snapshots copy a handle, not the
    // feature/label payloads. Trials only ever read the datasets.
    train: Arc<Dataset>,
    val: Arc<Dataset>,
    seed: SeedStream,
    architecture: NnArchitecture,
    /// Host power assumed when converting training time to energy (a
    /// RAPL stand-in).
    host_power: Watts,
    /// Final validation accuracy of every `fit` this instance has run.
    accuracies: HashMap<FitKey, f64>,
}

impl NnTrainingBackend {
    /// Creates an MLP backend over a synthetic blob-classification
    /// dataset.
    #[must_use]
    pub fn new(seed: SeedStream) -> Self {
        let data = Dataset::gaussian_blobs(600, 8, 4, 0.35, seed.child("data"));
        let (train, val) = data.split(0.8);
        NnTrainingBackend::with_dataset(train, val, seed)
    }

    /// Creates a convolutional backend over procedural tiny images — the
    /// CIFAR10 stand-in — so the tuning loop drives genuine Conv2d /
    /// MaxPool2d forward and backward passes.
    #[must_use]
    pub fn convnet(seed: SeedStream) -> Self {
        let side = 8;
        let data = Dataset::tiny_images(400, side, 4, 0.25, seed.child("data"));
        let (train, val) = data.split(0.8);
        NnTrainingBackend {
            train: Arc::new(train),
            val: Arc::new(val),
            seed,
            architecture: NnArchitecture::ConvNet { side },
            host_power: Watts::new(25.0),
            accuracies: HashMap::new(),
        }
    }

    /// Uses a caller-provided dataset split (MLP architecture).
    #[must_use]
    pub fn with_dataset(train: Dataset, val: Dataset, seed: SeedStream) -> Self {
        NnTrainingBackend {
            train: Arc::new(train),
            val: Arc::new(val),
            seed,
            architecture: NnArchitecture::Mlp,
            host_power: Watts::new(25.0),
            accuracies: HashMap::new(),
        }
    }

    /// The modeled simulated cost of one trial: three passes
    /// (forward + backward + update) over the budgeted samples for the
    /// budgeted epochs at [`NN_HOST_FLOPS`], plus fixed setup.
    fn modeled_runtime(&self, config: &Config, budget: TrialBudget) -> Seconds {
        let (_, profile) = TrainingBackend::architecture(self, config);
        let epochs = budget.epochs.ceil().max(1.0);
        let samples = (self.train.len() as f64 * budget.data_fraction.clamp(0.0, 1.0)).max(1.0);
        let flops = 3.0 * profile.flops_per_sample * samples * epochs;
        Seconds::new(NN_SETUP_S + flops / NN_HOST_FLOPS)
    }

    fn build_model(&self, hidden: usize) -> Sequential {
        match self.architecture {
            NnArchitecture::Mlp => Sequential::new()
                .with(Dense::new(
                    self.train.feature_width(),
                    hidden,
                    self.seed.child("l1"),
                ))
                .with(Relu::new())
                .with(Dense::new(
                    hidden,
                    self.train.classes(),
                    self.seed.child("l2"),
                )),
            NnArchitecture::ConvNet { side } => {
                let pooled = side / 2;
                Sequential::new()
                    .with(Reshape::new(vec![1, side, side]))
                    .with(Conv2d::new(1, hidden, 3, 1, 1, self.seed.child("conv")))
                    .with(Relu::new())
                    .with(MaxPool2d::new(2))
                    .with(Flatten::new())
                    .with(Dense::new(
                        hidden * pooled * pooled,
                        self.train.classes(),
                        self.seed.child("head"),
                    ))
            }
        }
    }

    /// Trains the model `key` names from scratch and returns its final
    /// validation accuracy.
    fn train(&self, key: FitKey) -> f64 {
        let mut model = self.build_model(key.hidden);
        let mut opt = Sgd::new(f32::from_bits(key.lr)).with_momentum(0.9);
        let fit_config = FitConfig::new(key.epochs, key.batch)
            .with_data_fraction(f64::from_bits(key.data_fraction));
        fit(
            &mut model,
            &mut opt,
            &self.train,
            &self.val,
            &fit_config,
            self.seed,
        )
        .final_val_accuracy()
    }

    /// A copy-on-write snapshot: the datasets travel as shared `Arc`
    /// handles (no feature/label copies), the memo as a copy. Trials
    /// write back only memo entries, which hold what a fresh backend
    /// would train, so a snapshot measures exactly what the primary
    /// would.
    fn cow_snapshot(&self) -> Self {
        self.clone()
    }
}

impl TrainingBackend for NnTrainingBackend {
    fn search_space(&self) -> SearchSpace {
        let hidden = match self.architecture {
            NnArchitecture::Mlp => vec![8.0, 16.0, 32.0, 64.0],
            // Conv channels: naive convolutions are slow, keep it narrow.
            NnArchitecture::ConvNet { .. } => vec![2.0, 4.0, 8.0],
        };
        SearchSpace::new()
            .with(PARAM_HIDDEN, Domain::choice(hidden))
            .with(PARAM_TRAIN_BATCH, Domain::int_log(8, 64))
            .with(PARAM_LR, Domain::float_log(0.005, 0.5))
    }

    fn architecture(&self, config: &Config) -> (String, WorkProfile) {
        let hidden = config.get(PARAM_HIDDEN).unwrap_or(16.0).max(1.0);
        let inputs = self.train.feature_width() as f64;
        let classes = self.train.classes() as f64;
        match self.architecture {
            NnArchitecture::Mlp => {
                let params = inputs * hidden + hidden + hidden * classes + classes;
                (
                    format!("mlp/hidden={hidden}"),
                    WorkProfile::new(2.0 * params, 8.0 * (hidden + classes), params * 4.0),
                )
            }
            NnArchitecture::ConvNet { side } => {
                let side_f = side as f64;
                let pooled = (side / 2) as f64;
                let conv_params = hidden * 9.0 + hidden;
                let head_params = hidden * pooled * pooled * classes + classes;
                let params = conv_params + head_params;
                // 3x3 conv over side² positions + the dense head.
                let flops =
                    2.0 * 9.0 * hidden * side_f * side_f + 2.0 * hidden * pooled * pooled * classes;
                (
                    format!("convnet/channels={hidden}"),
                    WorkProfile::new(flops, 4.0 * hidden * side_f * side_f, params * 4.0),
                )
            }
        }
    }

    fn run_trial(&mut self, config: &Config, budget: TrialBudget) -> TrialMeasurement {
        let hidden = config.get(PARAM_HIDDEN).unwrap_or(16.0).max(1.0) as usize;
        let batch = config
            .get(PARAM_TRAIN_BATCH)
            .map_or(16, |b| b as usize)
            .max(1);
        let lr = config.get(PARAM_LR).unwrap_or(0.1).max(1e-5) as f32;
        let key = FitKey {
            hidden,
            batch,
            lr: lr.to_bits(),
            epochs: budget.epochs.ceil().max(1.0) as u32,
            data_fraction: budget.data_fraction.to_bits(),
        };
        let accuracy = match self.accuracies.get(&key) {
            Some(&accuracy) => accuracy,
            None => {
                let accuracy = self.train(key);
                self.accuracies.insert(key, accuracy);
                accuracy
            }
        };
        let runtime = self.modeled_runtime(config, budget);
        TrialMeasurement {
            accuracy,
            runtime,
            energy: self.host_power * runtime,
            injected: None,
        }
    }

    fn parallel_snapshot(&self) -> Option<Box<dyn TrainingBackend + Send>> {
        Some(Box::new(self.cow_snapshot()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgetune_workloads::WorkloadId;

    fn seed() -> SeedStream {
        SeedStream::new(31)
    }

    fn sim() -> SimTrainingBackend {
        SimTrainingBackend::new(Workload::by_id(WorkloadId::Ic), seed())
    }

    fn config(hp: f64, batch: f64, gpus: f64) -> Config {
        Config::from_iter([
            (PARAM_MODEL_HP, hp),
            (PARAM_TRAIN_BATCH, batch),
            (PARAM_GPUS, gpus),
        ])
    }

    #[test]
    fn sim_space_includes_system_params_by_default() {
        let backend = sim();
        let space = backend.search_space();
        assert!(space.domain(PARAM_GPUS).is_some());
        assert!(space.domain(PARAM_MODEL_HP).is_some());
        assert!(space.domain(PARAM_TRAIN_BATCH).is_some());
    }

    #[test]
    fn fixed_gpus_removes_system_params() {
        let backend = sim().with_fixed_gpus(8);
        assert!(backend.search_space().domain(PARAM_GPUS).is_none());
        // And any gpus value in the config is ignored.
        let mut b = backend;
        let m = b.run_trial(&config(18.0, 128.0, 1.0), TrialBudget::new(2.0, 0.5));
        let m2 = b.run_trial(&config(18.0, 128.0, 4.0), TrialBudget::new(2.0, 0.5));
        assert_eq!(m.runtime, m2.runtime);
    }

    #[test]
    fn sim_architecture_depends_only_on_model_hp() {
        let backend = sim();
        let (sig_a, prof_a) = backend.architecture(&config(18.0, 64.0, 1.0));
        let (sig_b, prof_b) = backend.architecture(&config(18.0, 512.0, 8.0));
        assert_eq!(
            sig_a, sig_b,
            "training params must not change the architecture"
        );
        assert_eq!(prof_a, prof_b);
        let (sig_c, _) = backend.architecture(&config(50.0, 64.0, 1.0));
        assert_ne!(sig_a, sig_c);
    }

    #[test]
    fn sim_trial_runtime_scales_with_budget() {
        let mut backend = sim();
        let small = backend.run_trial(&config(18.0, 256.0, 1.0), TrialBudget::new(1.0, 0.1));
        let large = backend.run_trial(&config(18.0, 256.0, 1.0), TrialBudget::new(4.0, 0.4));
        // The variable (post-setup) part scales with effective epochs.
        let small_var = small.runtime.value() - TRIAL_OVERHEAD_S;
        let large_var = large.runtime.value() - TRIAL_OVERHEAD_S;
        assert!(large_var > small_var * 8.0, "{small_var} vs {large_var}");
        assert!(large.energy > small.energy);
        assert!(large.accuracy > small.accuracy);
    }

    #[test]
    fn sim_trial_pays_setup_overhead() {
        let mut backend = sim();
        let m = backend.run_trial(&config(18.0, 256.0, 1.0), TrialBudget::new(1.0, 0.1));
        assert!(m.runtime.value() >= TRIAL_OVERHEAD_S);
    }

    #[test]
    fn sim_trial_is_deterministic() {
        let mut a = sim();
        let mut b = sim();
        let cfg = config(34.0, 128.0, 2.0);
        let budget = TrialBudget::new(2.0, 0.3);
        assert_eq!(a.run_trial(&cfg, budget), b.run_trial(&cfg, budget));
    }

    #[test]
    fn sim_more_gpus_cost_more_energy_at_small_batch() {
        let mut backend = sim();
        let one = backend.run_trial(&config(18.0, 32.0, 1.0), TrialBudget::new(1.0, 0.5));
        let eight = backend.run_trial(&config(18.0, 32.0, 8.0), TrialBudget::new(1.0, 0.5));
        assert!(eight.energy > one.energy, "Fig. 4a energy behaviour");
        assert!(eight.runtime > one.runtime, "Fig. 4a runtime behaviour");
    }

    #[test]
    fn nn_backend_actually_learns() {
        let mut backend = NnTrainingBackend::new(seed());
        let cfg = Config::from_iter([
            (PARAM_HIDDEN, 32.0),
            (PARAM_TRAIN_BATCH, 16.0),
            (PARAM_LR, 0.1),
        ]);
        let m = backend.run_trial(&cfg, TrialBudget::new(8.0, 1.0));
        assert!(
            m.accuracy > 0.7,
            "real training should learn blobs: {}",
            m.accuracy
        );
        assert!(m.runtime.value() > 0.0);
        assert!(m.energy.value() > 0.0);
    }

    #[test]
    fn nn_backend_budget_cuts_cost() {
        let mut backend = NnTrainingBackend::new(seed());
        let cfg = Config::from_iter([
            (PARAM_HIDDEN, 16.0),
            (PARAM_TRAIN_BATCH, 16.0),
            (PARAM_LR, 0.1),
        ]);
        let cheap = backend.run_trial(&cfg, TrialBudget::new(1.0, 0.2));
        let full = backend.run_trial(&cfg, TrialBudget::new(10.0, 1.0));
        assert!(full.runtime > cheap.runtime);
        assert!(full.accuracy >= cheap.accuracy - 0.05);
    }

    #[test]
    fn nn_runtime_is_deterministic_on_the_virtual_clock() {
        let cfg = Config::from_iter([
            (PARAM_HIDDEN, 16.0),
            (PARAM_TRAIN_BATCH, 16.0),
            (PARAM_LR, 0.1),
        ]);
        let budget = TrialBudget::new(2.0, 0.5);
        let a = NnTrainingBackend::new(seed()).run_trial(&cfg, budget);
        let b = NnTrainingBackend::new(seed()).run_trial(&cfg, budget);
        assert_eq!(a.runtime, b.runtime, "modeled cost must not wobble");
        assert_eq!(a.energy, b.energy);
        assert_eq!(a.accuracy, b.accuracy);
    }

    #[test]
    fn nn_snapshots_reproduce_the_primary_backend() {
        let cfg = Config::from_iter([
            (PARAM_HIDDEN, 16.0),
            (PARAM_TRAIN_BATCH, 16.0),
            (PARAM_LR, 0.1),
        ]);
        let budget = TrialBudget::new(2.0, 0.5);
        // The primary has a past — two different trials — before the
        // snapshot is taken; neither it nor the snapshot may show it.
        let with_hidden = |hidden| {
            let mut c = cfg.clone();
            c.set(PARAM_HIDDEN, hidden);
            c
        };
        let mut primary = NnTrainingBackend::new(seed());
        primary.run_trial(&with_hidden(32.0), TrialBudget::new(1.0, 0.3));
        primary.run_trial(&with_hidden(8.0), TrialBudget::new(3.0, 1.0));
        let mut snapshot = primary
            .parallel_snapshot()
            .expect("the nn backend always snapshots");
        let from_fresh = NnTrainingBackend::new(seed()).run_trial(&cfg, budget);
        assert_eq!(primary.run_trial(&cfg, budget), from_fresh);
        assert_eq!(snapshot.run_trial(&cfg, budget), from_fresh);
    }

    #[test]
    fn sim_snapshots_exist_only_without_fault_injection() {
        assert!(sim().parallel_snapshot().is_some());
        let chaotic = sim().with_fault_injector(FaultInjector::new(0.4, seed().child("faults")));
        assert!(
            chaotic.parallel_snapshot().is_none(),
            "fault draws are order-dependent, so parallel execution must be refused"
        );
    }

    #[test]
    fn sim_snapshots_reproduce_the_primary_backend() {
        let mut primary = sim();
        let mut snapshot = primary
            .parallel_snapshot()
            .expect("fault-free sim backends snapshot");
        let cfg = config(18.0, 128.0, 2.0);
        let budget = TrialBudget::new(2.0, 0.5);
        let a = primary.run_trial(&cfg, budget);
        let b = snapshot.run_trial(&cfg, budget);
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(a.runtime, b.runtime);
        assert_eq!(a.energy, b.energy);
    }

    #[test]
    fn sim_snapshot_shares_payload_without_copying() {
        let backend = sim();
        let snapshot = backend.cow_snapshot();
        assert!(
            Arc::ptr_eq(&backend.shared, &snapshot.shared),
            "a snapshot must share the workload tables, not deep-clone them"
        );
    }

    #[test]
    fn nn_snapshot_shares_datasets_without_copying() {
        let backend = NnTrainingBackend::new(seed());
        let snapshot = backend.cow_snapshot();
        assert!(
            Arc::ptr_eq(&backend.train, &snapshot.train),
            "the training set must be shared, not copied"
        );
        assert!(
            Arc::ptr_eq(&backend.val, &snapshot.val),
            "the validation set must be shared, not copied"
        );
    }

    #[test]
    fn nn_architecture_signature_uses_hidden_width() {
        let backend = NnTrainingBackend::new(seed());
        let (sig, profile) = backend.architecture(&Config::from_iter([(PARAM_HIDDEN, 32.0)]));
        assert!(sig.contains("hidden=32"));
        assert!(profile.flops_per_sample > 0.0);
    }

    #[test]
    fn sim_space_samples_validate() {
        let backend = sim();
        let space = backend.search_space();
        let mut rng = seed().rng("space-check");
        for _ in 0..50 {
            let c = space.sample(&mut rng);
            assert!(space.validate(&c).is_ok());
        }
    }

    #[test]
    fn injected_crash_pays_setup_but_learns_nothing() {
        // At rate 1 every draw is below the rate: every trial crashes.
        let injector = FaultInjector::new(1.0, SeedStream::new(40));
        let mut backend = sim().with_fault_injector(injector);
        let m = backend.run_trial(&config(18.0, 128.0, 1.0), TrialBudget::new(2.0, 0.5));
        assert_eq!(m.injected, Some(TrialFault::Crash));
        assert_eq!(m.accuracy, 0.0);
        assert!(m.runtime.value() >= TRIAL_OVERHEAD_S);
        let healthy = sim().run_trial(&config(18.0, 128.0, 1.0), TrialBudget::new(2.0, 0.5));
        assert!(m.runtime < healthy.runtime, "a crash dies mid-first-epoch");
        assert_eq!(backend.fault_cursor(), 1, "one draw per trial");
    }

    #[test]
    fn injected_straggler_slows_but_still_learns() {
        // The first seed whose first trial draw straggles.
        let injector = (41..)
            .map(|seed| FaultInjector::new(0.5, SeedStream::new(seed)))
            .find(|f| f.trial_fault(0) == Some(TrialFault::Straggle))
            .unwrap();
        let mut backend = sim().with_fault_injector(injector);
        let cfg = config(18.0, 128.0, 1.0);
        let budget = TrialBudget::new(2.0, 0.5);
        let slow = backend.run_trial(&cfg, budget);
        let healthy = sim().run_trial(&cfg, budget);
        assert_eq!(slow.injected, Some(TrialFault::Straggle));
        let slowed = healthy.runtime.value() * STRAGGLER_SLOWDOWN;
        assert!((slow.runtime.value() - slowed).abs() < 1e-6);
        assert_eq!(slow.accuracy, healthy.accuracy, "stragglers still learn");
    }

    #[test]
    fn fault_cursor_restores_the_same_fates() {
        let injector = || FaultInjector::new(0.4, SeedStream::new(42));
        let cfg = config(18.0, 128.0, 1.0);
        let budget = TrialBudget::new(1.0, 0.2);
        let mut full = sim().with_fault_injector(injector());
        let fates: Vec<_> = (0..10)
            .map(|_| full.run_trial(&cfg, budget).injected)
            .collect();
        // A "resumed" backend with the cursor restored to 5 replays
        // fates 5.. exactly.
        let mut resumed = sim().with_fault_injector(injector());
        resumed.set_fault_cursor(5);
        for expected in &fates[5..] {
            assert_eq!(resumed.run_trial(&cfg, budget).injected, *expected);
        }
    }

    #[test]
    fn no_injector_means_no_injection_marker() {
        let mut backend = sim();
        let m = backend.run_trial(&config(18.0, 128.0, 1.0), TrialBudget::new(1.0, 0.2));
        assert_eq!(m.injected, None);
        assert_eq!(backend.fault_cursor(), 0);
    }
}

#[cfg(test)]
mod convnet_tests {
    use super::*;
    use edgetune_util::rng::SeedStream;

    #[test]
    fn convnet_backend_actually_learns_images() {
        let mut backend = NnTrainingBackend::convnet(SeedStream::new(5));
        let cfg = Config::from_iter([
            (PARAM_HIDDEN, 4.0),
            (PARAM_TRAIN_BATCH, 16.0),
            (PARAM_LR, 0.05),
        ]);
        let m = backend.run_trial(&cfg, TrialBudget::new(6.0, 1.0));
        assert!(
            m.accuracy > 0.6,
            "a real convnet should learn the oriented-gradient classes: {}",
            m.accuracy
        );
        assert!(m.runtime.value() > 0.0);
    }

    #[test]
    fn convnet_architecture_signature_and_space() {
        let backend = NnTrainingBackend::convnet(SeedStream::new(5));
        let space = backend.search_space();
        assert!(space.domain(PARAM_HIDDEN).is_some());
        let (sig, profile) = backend.architecture(&Config::from_iter([(PARAM_HIDDEN, 4.0)]));
        assert!(sig.contains("convnet/channels=4"));
        assert!(profile.flops_per_sample > 0.0);
        assert!(profile.param_bytes > 0.0);
    }

    #[test]
    fn wider_convnets_cost_more() {
        let backend = NnTrainingBackend::convnet(SeedStream::new(5));
        let (_, narrow) = backend.architecture(&Config::from_iter([(PARAM_HIDDEN, 2.0)]));
        let (_, wide) = backend.architecture(&Config::from_iter([(PARAM_HIDDEN, 8.0)]));
        assert!(wide.flops_per_sample > narrow.flops_per_sample);
        assert!(wide.param_bytes > narrow.param_bytes);
    }
}

#[cfg(test)]
mod memo_tests {
    use super::*;
    use edgetune_util::rng::SeedStream;

    /// Both real architectures, never run, each with a configuration and
    /// a budget that train fast.
    fn backends() -> [(NnTrainingBackend, Config, TrialBudget); 2] {
        let config = |hidden| {
            Config::from_iter([
                (PARAM_HIDDEN, hidden),
                (PARAM_TRAIN_BATCH, 16.0),
                (PARAM_LR, 0.05),
            ])
        };
        [
            (
                NnTrainingBackend::new(SeedStream::new(3)),
                config(16.0),
                TrialBudget::new(2.0, 0.5),
            ),
            (
                NnTrainingBackend::convnet(SeedStream::new(3)),
                config(2.0),
                TrialBudget::new(2.0, 0.25),
            ),
        ]
    }

    #[test]
    fn a_memo_hit_measures_what_a_fresh_clone_trains() {
        for (fresh, cfg, budget) in backends() {
            let mut warm = fresh.clone();
            let trained = warm.run_trial(&cfg, budget);
            let hit = warm.run_trial(&cfg, budget);
            assert_eq!(warm.accuracies.len(), 1, "the repeat trains nothing");
            assert_eq!(hit, trained);
            assert_eq!(hit, fresh.clone().run_trial(&cfg, budget));
            assert!(fresh.accuracies.is_empty(), "a clone shares no memo");
        }
    }

    #[test]
    fn each_value_fit_reads_keys_its_own_entry() {
        for (mut backend, cfg, budget) in backends() {
            let with = |name: &str, value: f64| {
                let mut changed = cfg.clone();
                changed.set(name, value);
                changed
            };
            let hidden = cfg.get(PARAM_HIDDEN).unwrap();
            let (epochs, fraction) = (budget.epochs, budget.data_fraction);
            let trials = [
                (cfg.clone(), budget),
                (with(PARAM_HIDDEN, 2.0 * hidden), budget),
                (with(PARAM_TRAIN_BATCH, 8.0), budget),
                (with(PARAM_LR, 0.1), budget),
                (cfg.clone(), TrialBudget::new(epochs + 1.0, fraction)),
                (cfg.clone(), TrialBudget::new(epochs, fraction / 2.0)),
            ];
            for (n, (config, budget)) in trials.iter().enumerate() {
                backend.run_trial(config, *budget);
                assert_eq!(backend.accuracies.len(), n + 1, "trial {n} is a new key");
            }
            // Only whole epochs reach `fit`: half an epoch less is the
            // first trial's key.
            backend.run_trial(&cfg, TrialBudget::new(epochs - 0.5, fraction));
            assert_eq!(backend.accuracies.len(), trials.len());
        }
    }
}

#[cfg(test)]
mod oom_tests {
    use super::*;
    use edgetune_util::rng::SeedStream;
    use edgetune_workloads::WorkloadId;

    #[test]
    fn huge_yolo_batch_on_one_gpu_oom_crashes() {
        // YOLO's per-sample activations are ~30 MB; batch 512 on a single
        // 24 GB GPU cannot hold the training working set.
        let mut backend =
            SimTrainingBackend::new(Workload::by_id(WorkloadId::Od), SeedStream::new(1));
        let oom_config = Config::from_iter([
            (PARAM_MODEL_HP, 0.3),
            (PARAM_TRAIN_BATCH, 512.0),
            (PARAM_GPUS, 1.0),
        ]);
        let m = backend.run_trial(&oom_config, TrialBudget::new(2.0, 0.2));
        assert_eq!(m.accuracy, 0.0, "an OOM trial learns nothing");
        assert!(
            (m.runtime.value() - TRIAL_OVERHEAD_S).abs() < 1e-9,
            "only the setup cost is paid: {}",
            m.runtime
        );
    }

    #[test]
    fn sharding_the_batch_across_gpus_avoids_the_oom() {
        // The same global batch fits when split over 8 devices — the
        // batch × GPU interaction the onefold search exploits.
        let mut backend =
            SimTrainingBackend::new(Workload::by_id(WorkloadId::Od), SeedStream::new(1));
        let sharded = Config::from_iter([
            (PARAM_MODEL_HP, 0.3),
            (PARAM_TRAIN_BATCH, 512.0),
            (PARAM_GPUS, 8.0),
        ]);
        let m = backend.run_trial(&sharded, TrialBudget::new(2.0, 0.2));
        assert!(m.accuracy > 0.0, "sharded batch must train: {}", m.accuracy);
    }

    #[test]
    fn the_tuner_routes_around_oom_configurations() {
        use crate::prelude::*;
        let report = EdgeTune::new(
            EdgeTuneConfig::for_workload(WorkloadId::Od)
                .with_scheduler(SchedulerConfig::new(8, 2.0, 8))
                .with_seed(42),
        )
        .run()
        .expect("run succeeds");
        // The winner must be a surviving (non-OOM) configuration.
        assert!(
            report.best_accuracy() > 0.0,
            "winner cannot be an OOM trial"
        );
    }
}
