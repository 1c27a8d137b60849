//! Roofline latency model for CPU devices.
//!
//! A batch execution on `c` cores at frequency `f` is modelled as
//!
//! ```text
//! latency = dispatch + sync(c) + max(compute_time, memory_time)
//! ```
//!
//! where `compute_time` divides the batch FLOPs by the *achievable*
//! FLOP rate — peak, discounted by a batch-dependent vectorisation
//! efficiency and an Amdahl-style parallel speedup whose serial fraction
//! shrinks with batch size — and `memory_time` divides the bytes moved by
//! the effective bandwidth (boosted when the working set fits in LLC,
//! collapsed when it exceeds usable DRAM).
//!
//! The model is deliberately first-order, but it reproduces the qualitative
//! behaviours the paper's motivating examples document:
//!
//! * single-sample inference does not speed up with more cores, yet burns
//!   more energy (Fig. 5a) — batch 1 exposes almost no parallelism while
//!   allocated cores busy-wait;
//! * batched inference scales strongly from 1→2 cores and saturates at 4
//!   (Fig. 5b) — synchronisation overhead and the serial fraction eat the
//!   marginal core;
//! * throughput and energy-per-image improve with inference batch size and
//!   then saturate (Fig. 3b) — dispatch and parameter traffic amortise,
//!   vectorisation efficiency plateaus, cache pressure grows.

use edgetune_util::units::{Hertz, Joules, Seconds, Watts};
use edgetune_util::{Error, Result};

use crate::profile::{Phase, WorkProfile};
use crate::spec::DeviceSpec;

/// Peak fraction a perfectly-batched GEMM reaches on these CPUs.
const MAX_COMPUTE_EFFICIENCY: f64 = 0.52;
/// At batch 1 the achievable efficiency is `MAX * (1 - EFFICIENCY_GAP)`.
const EFFICIENCY_GAP: f64 = 0.65;
/// Batch size constant of the vectorisation-efficiency saturation.
const EFFICIENCY_BATCH_SCALE: f64 = 6.0;
/// A single sample exposes this many cores' worth of intra-op parallelism.
const INTRA_OP_PARALLELISM: f64 = 1.25;
/// Serial fraction floor for large batches (Amdahl).
const SERIAL_FRACTION_MIN: f64 = 0.15;
/// Additional serial fraction at batch → 0.
const SERIAL_FRACTION_SPAN: f64 = 0.40;
/// Batch scale over which the serial fraction decays.
const SERIAL_FRACTION_BATCH_SCALE: f64 = 16.0;
/// Thread-pool synchronisation cost per extra core, as a multiple of the
/// device dispatch overhead.
const SYNC_PER_CORE_FACTOR: f64 = 0.75;
/// LLC-resident working sets enjoy this bandwidth multiplier.
const LLC_BANDWIDTH_BOOST: f64 = 3.0;
/// Fraction of DRAM usable before the OS starts swapping.
const USABLE_DRAM_FRACTION: f64 = 0.7;
/// Bandwidth multiplier once the working set exceeds usable DRAM.
const THRASH_BANDWIDTH_FACTOR: f64 = 0.12;
/// Busy-waiting worker threads draw this fraction of active core power.
const BUSY_WAIT_POWER_FRACTION: f64 = 0.5;
/// Dynamic power grows with frequency as `f^POWER_FREQ_EXPONENT`
/// (voltage scales with frequency; `P ≈ C·V²·f`).
const POWER_FREQ_EXPONENT: f64 = 2.8;

/// A validated allocation of CPU resources on a device: how many cores and
/// at which DVFS frequency a kernel will run. These are exactly the
/// *inference system parameters* EdgeTune tunes (§3.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuAllocation {
    cores: u32,
    freq: Hertz,
}

impl CpuAllocation {
    /// Validates `cores`/`freq` against the device and builds an
    /// allocation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `cores` is zero or exceeds
    /// the device's core count, or when `freq` lies outside the DVFS
    /// range.
    pub fn new(device: &DeviceSpec, cores: u32, freq: Hertz) -> Result<Self> {
        if !device.supports_cores(cores) {
            return Err(Error::invalid_config(format!(
                "{} supports 1..={} cores, requested {}",
                device.name, device.cores, cores
            )));
        }
        if freq < device.min_freq || freq > device.max_freq {
            return Err(Error::invalid_config(format!(
                "{} supports {:.2}-{:.2} GHz, requested {:.2} GHz",
                device.name,
                device.min_freq.as_ghz(),
                device.max_freq.as_ghz(),
                freq.as_ghz()
            )));
        }
        Ok(CpuAllocation { cores, freq })
    }

    /// Full-device allocation at maximum frequency.
    #[must_use]
    pub fn full(device: &DeviceSpec) -> Self {
        CpuAllocation {
            cores: device.cores,
            freq: device.max_freq,
        }
    }

    /// Number of allocated cores.
    #[must_use]
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// Allocated DVFS frequency.
    #[must_use]
    pub fn freq(&self) -> Hertz {
        self.freq
    }
}

/// The outcome of simulating one kernel/batch execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Execution {
    /// Wall-clock latency of the execution.
    pub latency: Seconds,
    /// Energy drawn over the execution.
    pub energy: Joules,
    /// Average power over the execution.
    pub avg_power: Watts,
    /// Fraction of allocated core-time spent on useful work.
    pub utilization: f64,
}

impl Execution {
    /// Scales the execution as if it were repeated `n` times back-to-back.
    #[must_use]
    pub fn repeat(self, n: f64) -> Execution {
        Execution {
            latency: self.latency * n,
            energy: self.energy * n,
            avg_power: self.avg_power,
            utilization: self.utilization,
        }
    }
}

/// Vectorisation/GEMM efficiency achievable at a given batch size.
fn compute_efficiency(batch: u32) -> f64 {
    MAX_COMPUTE_EFFICIENCY
        * (1.0 - EFFICIENCY_GAP * (-f64::from(batch) / EFFICIENCY_BATCH_SCALE).exp())
}

/// Amdahl serial fraction at a given batch size: small batches are
/// launch-bound and mostly serial, large batches expose data parallelism.
fn serial_fraction(batch: u32) -> f64 {
    SERIAL_FRACTION_MIN
        + SERIAL_FRACTION_SPAN / (1.0 + f64::from(batch) / SERIAL_FRACTION_BATCH_SCALE)
}

/// Amdahl speedup of `width`-way parallelism with serial fraction `s`.
fn amdahl(width: f64, s: f64) -> f64 {
    1.0 / (s + (1.0 - s) / width.max(1.0))
}

/// Effective memory bandwidth given the resident working set.
fn effective_bandwidth(device: &DeviceSpec, working_set: f64) -> f64 {
    if working_set <= device.llc_bytes {
        device.mem_bw * LLC_BANDWIDTH_BOOST
    } else if working_set <= device.dram_bytes * USABLE_DRAM_FRACTION {
        device.mem_bw
    } else {
        device.mem_bw * THRASH_BANDWIDTH_FACTOR
    }
}

/// Simulates one batch execution of `profile` in `phase` on a CPU device.
///
/// This is the primitive both the inference emulation and CPU training are
/// built from.
///
/// # Panics
///
/// Panics if `batch` is zero (a batch must contain at least one sample).
#[must_use]
pub fn simulate_batch(
    device: &DeviceSpec,
    alloc: &CpuAllocation,
    profile: &WorkProfile,
    batch: u32,
    phase: Phase,
) -> Execution {
    assert!(batch >= 1, "batch must contain at least one sample");
    let cores = f64::from(alloc.cores);
    let freq = device.clamp_freq(alloc.freq);

    // --- compute roof ---
    let single_core_peak = device.peak_flops(1, freq);
    let parallel_width = cores.min(f64::from(batch) * INTRA_OP_PARALLELISM);
    let speedup = amdahl(parallel_width, serial_fraction(batch));
    let achievable = single_core_peak * compute_efficiency(batch) * speedup;
    let compute_time = profile.flops(batch, phase) / achievable;

    // --- memory roof ---
    let working_set = profile.working_set(batch, phase);
    let bw = effective_bandwidth(device, working_set);
    let memory_time = profile.bytes(batch, phase) / bw;

    // --- fixed overheads ---
    let sync_time = device.dispatch_overhead_s * SYNC_PER_CORE_FACTOR * (cores - 1.0);
    let latency_s = device.dispatch_overhead_s + sync_time + compute_time.max(memory_time);

    // --- power ---
    // Useful fraction of allocated core-time: the achieved speedup spread
    // over the allocated cores, weighted by the busy portion of latency.
    let busy_fraction = compute_time.max(memory_time) / latency_s;
    let useful = (speedup / cores).min(1.0) * busy_fraction;
    let active_weight = useful + BUSY_WAIT_POWER_FRACTION * (1.0 - useful);
    let freq_scale = (freq.value() / device.max_freq.value()).powf(POWER_FREQ_EXPONENT);
    let power = device.idle_power + device.core_power * (cores * freq_scale * active_weight);

    let latency = Seconds::new(latency_s);
    Execution {
        latency,
        energy: power * latency,
        avg_power: power,
        utilization: useful,
    }
}

/// Simulates deployment-time inference of one batch on an edge CPU.
///
/// # Examples
///
/// ```
/// use edgetune_device::{simulate_inference, CpuAllocation, DeviceSpec, WorkProfile};
///
/// let dev = DeviceSpec::intel_i7_7567u();
/// let profile = WorkProfile::new(0.56e9, 3.0e6, 44.8e6);
/// let alloc = CpuAllocation::new(&dev, 2, dev.max_freq)?;
/// let exec = simulate_inference(&dev, &alloc, &profile, 10);
/// let throughput = 10.0 / exec.latency.value();
/// assert!(throughput > 0.0);
/// # Ok::<(), edgetune_util::Error>(())
/// ```
#[must_use]
pub fn simulate_inference(
    device: &DeviceSpec,
    alloc: &CpuAllocation,
    profile: &WorkProfile,
    batch: u32,
) -> Execution {
    simulate_batch(device, alloc, profile, batch, Phase::Inference)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resnet18_profile() -> WorkProfile {
        WorkProfile::new(0.56e9, 3.0e6, 44.8e6)
    }

    fn pi() -> DeviceSpec {
        DeviceSpec::raspberry_pi_3b()
    }

    fn alloc(dev: &DeviceSpec, cores: u32) -> CpuAllocation {
        CpuAllocation::new(dev, cores, dev.max_freq).unwrap()
    }

    fn inference_throughput(dev: &DeviceSpec, cores: u32, batch: u32) -> f64 {
        let exec = simulate_inference(dev, &alloc(dev, cores), &resnet18_profile(), batch);
        f64::from(batch) / exec.latency.value()
    }

    fn inference_energy_per_img(dev: &DeviceSpec, cores: u32, batch: u32) -> f64 {
        let exec = simulate_inference(dev, &alloc(dev, cores), &resnet18_profile(), batch);
        exec.energy.value() / f64::from(batch)
    }

    #[test]
    fn allocation_validation() {
        let dev = pi();
        assert!(CpuAllocation::new(&dev, 0, dev.max_freq).is_err());
        assert!(CpuAllocation::new(&dev, 5, dev.max_freq).is_err());
        assert!(CpuAllocation::new(&dev, 2, Hertz::from_ghz(99.0)).is_err());
        let a = CpuAllocation::new(&dev, 2, dev.min_freq).unwrap();
        assert_eq!(a.cores(), 2);
        assert_eq!(a.freq(), dev.min_freq);
        let f = CpuAllocation::full(&dev);
        assert_eq!(f.cores(), dev.cores);
    }

    // Fig. 5a: single-image inference does not benefit from more cores,
    // but consumes more energy per image.
    #[test]
    fn batch_one_is_core_insensitive_but_energy_hungry() {
        let dev = pi();
        let t1 = inference_throughput(&dev, 1, 1);
        let t4 = inference_throughput(&dev, 4, 1);
        assert!(
            (t4 / t1 - 1.0).abs() < 0.35,
            "batch-1 throughput should be nearly flat across cores: {t1} vs {t4}"
        );
        let e1 = inference_energy_per_img(&dev, 1, 1);
        let e4 = inference_energy_per_img(&dev, 4, 1);
        assert!(
            e4 > e1 * 1.2,
            "batch-1 energy should grow with cores: {e1} vs {e4}"
        );
    }

    // Fig. 5b: multi-image inference scales 1→2 cores and saturates at 4,
    // with 4 cores costing clearly more energy than 2.
    #[test]
    fn batch_ten_scaling_saturates() {
        let dev = pi();
        let t1 = inference_throughput(&dev, 1, 10);
        let t2 = inference_throughput(&dev, 2, 10);
        let t4 = inference_throughput(&dev, 4, 10);
        assert!(
            t2 > t1 * 1.25,
            "1→2 cores should clearly help: {t1} vs {t2}"
        );
        let marginal = t4 / t2 - 1.0;
        let first = t2 / t1 - 1.0;
        assert!(
            marginal < first * 0.8,
            "2→4 gain ({marginal:.3}) should be smaller than 1→2 gain ({first:.3})"
        );
        let e2 = inference_energy_per_img(&dev, 2, 10);
        let e4 = inference_energy_per_img(&dev, 4, 10);
        assert!(
            e4 > e2 * 1.05,
            "4 cores should cost more energy per image: {e2} vs {e4}"
        );
    }

    // Fig. 3b: batching improves throughput and energy per image, with
    // diminishing returns at large batch sizes.
    #[test]
    fn batching_amortises_and_saturates() {
        let dev = pi();
        let t1 = inference_throughput(&dev, 4, 1);
        let t10 = inference_throughput(&dev, 4, 10);
        let t100 = inference_throughput(&dev, 4, 100);
        assert!(
            t10 > t1 * 2.0,
            "batch 10 should be much faster than 1: {t1} vs {t10}"
        );
        assert!(
            t100 >= t10 * 0.8,
            "batch 100 should not collapse: {t10} vs {t100}"
        );
        let gain_1_10 = t10 / t1;
        let gain_10_100 = t100 / t10;
        assert!(gain_10_100 < gain_1_10, "gains must saturate");
        let e1 = inference_energy_per_img(&dev, 4, 1);
        let e10 = inference_energy_per_img(&dev, 4, 10);
        assert!(e10 < e1, "batching should reduce energy per image");
    }

    #[test]
    fn lower_frequency_is_slower_but_lower_power() {
        let dev = pi();
        let fast = simulate_inference(&dev, &alloc(&dev, 4), &resnet18_profile(), 10);
        let slow_alloc = CpuAllocation::new(&dev, 4, dev.min_freq).unwrap();
        let slow = simulate_inference(&dev, &slow_alloc, &resnet18_profile(), 10);
        assert!(slow.latency > fast.latency);
        assert!(slow.avg_power < fast.avg_power);
    }

    #[test]
    fn thrashing_working_set_collapses_throughput() {
        let dev = pi(); // 1 GB of DRAM
                        // A memory-heavy profile whose batch-64 working set exceeds usable
                        // DRAM while batch 8 still fits.
        let fat = WorkProfile::new(0.2e9, 40.0e6, 100.0e6);
        let ok = simulate_inference(&dev, &alloc(&dev, 4), &fat, 8);
        let thrash = simulate_inference(&dev, &alloc(&dev, 4), &fat, 64);
        let t_ok = 8.0 / ok.latency.value();
        let t_thrash = 64.0 / thrash.latency.value();
        assert!(
            t_thrash < t_ok,
            "thrashing batch should lose throughput: {t_ok} vs {t_thrash}"
        );
    }

    #[test]
    fn execution_repeat_scales_time_and_energy() {
        let a = Execution {
            latency: Seconds::new(4.0),
            energy: Joules::new(16.0),
            avg_power: Watts::new(4.0),
            utilization: 0.625,
        };
        let d = a.repeat(2.0);
        assert_eq!(d.latency, Seconds::new(8.0));
        assert_eq!(d.energy, Joules::new(32.0));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_batch_panics() {
        let dev = pi();
        let _ = simulate_inference(&dev, &alloc(&dev, 1), &resnet18_profile(), 0);
    }

    #[test]
    fn utilization_is_a_fraction() {
        let dev = pi();
        for cores in [1, 2, 4] {
            for batch in [1, 10, 100] {
                let e = simulate_inference(&dev, &alloc(&dev, cores), &resnet18_profile(), batch);
                assert!(
                    (0.0..=1.0).contains(&e.utilization),
                    "util={}",
                    e.utilization
                );
                assert!(e.latency.value() > 0.0);
                assert!(e.energy.value() > 0.0);
            }
        }
    }
}
