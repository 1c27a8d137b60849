//! Edge/server device emulation for the EdgeTune reproduction.
//!
//! The paper's Inference Tuning Server *simulates edge devices inside the
//! tuning server* rather than offloading to physical boards (§2.1), and its
//! Model Tuning Server measures training runtime/energy on a GPU node. This
//! crate is that emulation substrate:
//!
//! * [`spec`] — the device catalog: the three edge platforms used in the
//!   paper (ARMv7 board, Raspberry Pi 3B+, Intel i7-7567U) and the Titan
//!   RTX training node, described by first-order architectural parameters,
//! * [`profile`] — [`WorkProfile`]: the per-sample FLOPs / byte-traffic /
//!   parameter footprint of a model, produced by `edgetune-workloads`,
//! * [`latency`] — a roofline latency model with batch/core utilisation,
//!   dispatch overhead and cache-pressure effects, and the power model
//!   that gives every simulated [`Execution`] its energy,
//! * [`multi_gpu`] — data-parallel training-step scaling with all-reduce
//!   communication cost (reproduces Fig. 4),
//! * [`counters`] — synthetic hardware performance-counter rates for the
//!   forward-training vs. inference comparison of Fig. 1,
//! * [`fidelity`] — an "empirical device" with systematic model error, used
//!   to measure the simulation precision reported in Fig. 15.
//!
//! # Examples
//!
//! ```
//! use edgetune_device::latency::simulate_inference;
//! use edgetune_device::spec::DeviceSpec;
//! use edgetune_device::profile::WorkProfile;
//! use edgetune_device::CpuAllocation;
//!
//! let device = DeviceSpec::raspberry_pi_3b();
//! let profile = WorkProfile::new(0.56e9, 9.0e6, 11.2e6 * 4.0);
//! let alloc = CpuAllocation::new(&device, 4, device.max_freq)?;
//! let exec = simulate_inference(&device, &alloc, &profile, 8);
//! assert!(exec.latency.value() > 0.0);
//! assert!(exec.energy.value() > 0.0);
//! # Ok::<(), edgetune_util::Error>(())
//! ```

pub mod counters;
pub mod fidelity;
pub mod latency;
pub mod multi_gpu;
pub mod profile;
pub mod spec;

pub use latency::{simulate_inference, CpuAllocation, Execution};
pub use profile::WorkProfile;
pub use spec::{DeviceKind, DeviceSpec};
