//! Data-parallel multi-GPU training on the tuning-server node.
//!
//! §2.3.4 and Fig. 4 of the paper show the non-obvious system-parameter
//! trade-off EdgeTune exploits: with a *small* global batch, adding GPUs
//! makes training **slower** (up to 120% worse) because each device is
//! under-utilised and every iteration pays an all-reduce; with a large
//! batch, runtime improves sublinearly while energy still *increases*.
//! This module models exactly those mechanics:
//!
//! ```text
//! iteration_time = launch + max(compute(batch/g), memory) + allreduce(params, g)
//! allreduce(params, g) = 2·param_bytes·(g−1)/g / interconnect_bw   (ring)
//! ```
//!
//! with a per-GPU utilisation that saturates in the *per-GPU* batch size.

use edgetune_util::units::Seconds;
use edgetune_util::{Error, Result};
use serde::{Deserialize, Serialize};

use crate::latency::Execution;
use crate::profile::{Phase, WorkProfile};
use crate::spec::{DeviceKind, DeviceSpec};

/// Fraction of peak a GPU reaches with an infinitely large per-GPU batch.
const GPU_MAX_EFFICIENCY: f64 = 0.55;
/// Per-GPU batch size at which efficiency reaches half its maximum.
const GPU_BATCH_HALF_SATURATION: f64 = 48.0;
/// Idle GPUs and host logic draw this fraction of a busy GPU's power
/// (clocked-up but stalled GPUs are far from free).
const GPU_BASELINE_POWER_FRACTION: f64 = 0.40;

/// A validated multi-GPU allocation on a GPU node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GpuAllocation {
    gpus: u32,
}

impl GpuAllocation {
    /// Validates `gpus` against the node.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the device is not a GPU node or
    /// `gpus` is out of range.
    pub fn new(node: &DeviceSpec, gpus: u32) -> Result<Self> {
        if node.kind != DeviceKind::Gpu {
            return Err(Error::invalid_config(format!(
                "{} is not a GPU node",
                node.name
            )));
        }
        if gpus == 0 || gpus > node.cores {
            return Err(Error::invalid_config(format!(
                "{} hosts 1..={} GPUs, requested {}",
                node.name, node.cores, gpus
            )));
        }
        Ok(GpuAllocation { gpus })
    }
}

/// Per-GPU compute efficiency as a function of the *per-GPU* batch size.
fn gpu_efficiency(per_gpu_batch: f64) -> f64 {
    GPU_MAX_EFFICIENCY * per_gpu_batch / (per_gpu_batch + GPU_BATCH_HALF_SATURATION)
}

/// Ring all-reduce time for one gradient exchange across `g` GPUs.
fn allreduce_time(node: &DeviceSpec, param_bytes: f64, gpus: u32) -> f64 {
    if gpus <= 1 {
        return 0.0;
    }
    let g = f64::from(gpus);
    2.0 * param_bytes * (g - 1.0) / g / node.interconnect_bw
}

/// Simulates one training iteration (forward + backward on one global
/// batch, followed by gradient all-reduce) on `alloc.gpus()` GPUs.
///
/// # Panics
///
/// Panics if `batch` is zero.
#[must_use]
pub fn simulate_gpu_iteration(
    node: &DeviceSpec,
    alloc: &GpuAllocation,
    profile: &WorkProfile,
    batch: u32,
) -> Execution {
    assert!(batch >= 1, "batch must contain at least one sample");
    let g = f64::from(alloc.gpus);
    let per_gpu_batch = f64::from(batch) / g;
    let eff = gpu_efficiency(per_gpu_batch);

    let total_flops =
        profile.flops(batch, Phase::ForwardTraining) + profile.flops(batch, Phase::Backward);
    let peak = node.peak_flops(alloc.gpus, node.max_freq);
    let compute_time = total_flops / (peak * eff);

    // HBM traffic rarely binds for these models, but keep the roof.
    let bytes =
        profile.bytes(batch, Phase::ForwardTraining) + profile.bytes(batch, Phase::Backward);
    let memory_time = bytes / (node.mem_bw * g);

    let comm_time = allreduce_time(node, profile.param_bytes, alloc.gpus);
    let latency_s = node.dispatch_overhead_s + compute_time.max(memory_time) + comm_time;

    // Power: busy GPUs draw core_power scaled by achieved efficiency;
    // every allocated GPU draws a baseline even while communicating.
    let busy_fraction = compute_time.max(memory_time) / latency_s;
    let util = (eff / GPU_MAX_EFFICIENCY).min(1.0) * busy_fraction;
    let per_gpu = node.core_power
        * (GPU_BASELINE_POWER_FRACTION + (1.0 - GPU_BASELINE_POWER_FRACTION) * util);
    let power = node.idle_power + per_gpu * g;

    let latency = Seconds::new(latency_s);
    Execution {
        latency,
        energy: power * latency,
        avg_power: power,
        utilization: util,
    }
}

/// Simulates one full training epoch over `samples` samples.
///
/// # Panics
///
/// Panics if `batch` is zero.
#[must_use]
pub fn simulate_gpu_epoch(
    node: &DeviceSpec,
    alloc: &GpuAllocation,
    profile: &WorkProfile,
    batch: u32,
    samples: u64,
) -> Execution {
    let iterations = (samples as f64 / f64::from(batch)).ceil();
    simulate_gpu_iteration(node, alloc, profile, batch).repeat(iterations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> DeviceSpec {
        DeviceSpec::titan_rtx_node()
    }

    fn resnet18() -> WorkProfile {
        WorkProfile::new(0.56e9, 3.0e6, 44.8e6)
    }

    fn epoch(gpus: u32, batch: u32) -> Execution {
        let n = node();
        let alloc = GpuAllocation::new(&n, gpus).unwrap();
        simulate_gpu_epoch(&n, &alloc, &resnet18(), batch, 50_000)
    }

    #[test]
    fn allocation_validation() {
        let n = node();
        assert!(GpuAllocation::new(&n, 0).is_err());
        assert!(GpuAllocation::new(&n, 9).is_err());
        assert_eq!(GpuAllocation::new(&n, 8).unwrap().gpus, 8);
        let cpu = DeviceSpec::raspberry_pi_3b();
        assert!(GpuAllocation::new(&cpu, 1).is_err());
    }

    // Fig. 4a: at batch 32, more GPUs make training slower and hungrier.
    #[test]
    fn small_batch_degrades_with_more_gpus() {
        let e1 = epoch(1, 32);
        let e4 = epoch(4, 32);
        let e8 = epoch(8, 32);
        assert!(
            e8.latency.value() > e1.latency.value() * 1.3,
            "8 GPUs should be much slower at batch 32: {} vs {}",
            e1.latency,
            e8.latency
        );
        assert!(e4.latency > e1.latency);
        assert!(e8.energy > e4.energy && e4.energy > e1.energy);
    }

    // Fig. 4b: at batch 1024, runtime improves sublinearly while energy
    // still increases with GPU count.
    #[test]
    fn large_batch_speeds_up_sublinearly_but_costs_energy() {
        let e1 = epoch(1, 1024);
        let e4 = epoch(4, 1024);
        let e8 = epoch(8, 1024);
        assert!(e4.latency < e1.latency);
        assert!(e8.latency < e4.latency);
        let speedup8 = e1.latency.value() / e8.latency.value();
        assert!(
            speedup8 > 2.0 && speedup8 < 8.0,
            "8-GPU speedup should be real but sublinear: {speedup8}"
        );
        assert!(e8.energy > e1.energy, "energy should increase with GPUs");
    }

    #[test]
    fn allreduce_vanishes_on_one_gpu_and_grows_with_params() {
        let n = node();
        assert_eq!(allreduce_time(&n, 1.0e8, 1), 0.0);
        let t2 = allreduce_time(&n, 1.0e8, 2);
        let t8 = allreduce_time(&n, 1.0e8, 8);
        assert!(t8 > t2);
        assert!(allreduce_time(&n, 2.0e8, 2) > t2);
    }

    #[test]
    fn efficiency_saturates_in_per_gpu_batch() {
        assert!(gpu_efficiency(4.0) < gpu_efficiency(64.0));
        assert!(gpu_efficiency(1024.0) < GPU_MAX_EFFICIENCY);
        let marginal = gpu_efficiency(512.0) / gpu_efficiency(256.0);
        assert!(marginal < 1.2, "efficiency must saturate: {marginal}");
    }

    #[test]
    fn epoch_time_scales_with_dataset() {
        let n = node();
        let a = GpuAllocation::new(&n, 1).unwrap();
        let half = simulate_gpu_epoch(&n, &a, &resnet18(), 256, 25_000);
        let full = simulate_gpu_epoch(&n, &a, &resnet18(), 256, 50_000);
        let ratio = full.latency.value() / half.latency.value();
        assert!((ratio - 2.0).abs() < 0.05, "ratio={ratio}");
    }

    #[test]
    fn single_gpu_epoch_duration_is_plausible_for_cifar10() {
        // Order-of-magnitude check: ResNet18/CIFAR10 on one Titan RTX
        // should take seconds-to-a-minute per epoch, not ms or hours.
        let e = epoch(1, 256);
        let mins = e.latency.as_minutes();
        assert!(
            (0.01..10.0).contains(&mins),
            "epoch should be O(seconds..minutes), got {mins} min"
        );
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_batch_panics() {
        let n = node();
        let a = GpuAllocation::new(&n, 1).unwrap();
        let _ = simulate_gpu_iteration(&n, &a, &resnet18(), 0);
    }
}
