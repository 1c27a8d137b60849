//! SLO-aware serving runtime for the EdgeTune reproduction.
//!
//! The tuner crates answer "which configuration is optimal for this
//! scenario?"; this crate answers "what happens when you actually deploy
//! that configuration and traffic arrives?" — including the moment the
//! traffic stops looking like the scenario you tuned for.
//!
//! * [`traffic`] — deterministic, seeded request-arrival generators:
//!   Poisson (the paper's multi-stream scenario, §3.4), fixed-frequency
//!   server queries, bursty on/off (MMPP), diurnal ramps and step
//!   rate-shifts for drift experiments,
//! * [`queue`] — greedy aggregation with an AIMD-adaptive batch
//!   cap and deadline-based load shedding,
//! * [`drift`] — windowed arrival-rate estimation that flags sustained
//!   departures from the tuned rate,
//! * [`selector`] — a pre-computed Pareto frontier of configurations
//!   consulted *before* any re-tune: stage one of the two-stage drift
//!   response answers most drift events by instant lookup,
//! * [`runtime`] — the discrete-event serving loop: a worker pool
//!   executing batches on the `edgetune-device` roofline/power models,
//!   admission control, and drift-triggered online re-tuning through the
//!   [`OnlineTuner`] trait (implemented by the core crate's scenario
//!   tuner),
//! * [`metrics`] — the JSON-serialisable [`ServingReport`]: throughput,
//!   response-time percentiles, SLO violation rate, shed fraction, queue
//!   depth, energy per item and every configuration switch.
//!
//! The crate deliberately depends only on `edgetune-util` and
//! `edgetune-device`; the core crate layers scenario re-tuning on top by
//! implementing [`OnlineTuner`], keeping the dependency graph acyclic.
//!
//! # Examples
//!
//! ```
//! use edgetune_serving::{
//!     RuntimeOptions, ServingConfig, ServingRuntime, SloPolicy, TrafficProfile,
//! };
//! use edgetune_device::{DeviceSpec, WorkProfile};
//! use edgetune_util::rng::SeedStream;
//! use edgetune_util::units::Seconds;
//!
//! let device = DeviceSpec::raspberry_pi_3b();
//! let profile = WorkProfile::new(0.56e9, 3.0e6, 44.8e6);
//! let config = ServingConfig::new(8, device.cores, device.max_freq).with_tuned_rate(10.0);
//! let options = RuntimeOptions::new(SloPolicy::new(Seconds::new(2.0)));
//! let runtime = ServingRuntime::new(device, profile, config, options)?;
//! let report = runtime.serve(
//!     &TrafficProfile::Poisson { rate: 10.0 },
//!     Seconds::new(60.0),
//!     None,
//!     SeedStream::new(42),
//! )?;
//! assert!(report.served > 0);
//! assert!(report.throughput.value() > 0.0);
//! # Ok::<(), edgetune_util::Error>(())
//! ```

pub mod drift;
pub mod metrics;
pub mod queue;
pub mod runtime;
pub mod selector;
pub mod traffic;

pub use drift::DriftDetector;
pub use metrics::{ConfigSwitch, ServingReport, SwitchSource};
pub use queue::{AdaptiveBatcher, SloPolicy};
pub use runtime::{OnlineTuner, RuntimeOptions, ServingConfig, ServingRuntime};
pub use selector::{ConfigSelector, FrontierEntry};
pub use traffic::TrafficProfile;
