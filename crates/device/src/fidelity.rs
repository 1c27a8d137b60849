//! Emulation fidelity: the "empirical device" and percent-error studies.
//!
//! §5.3 / Fig. 15 of the paper quantifies how far the Inference Tuning
//! Server's emulated throughput and energy are from measurements on a real
//! edge device (median error ≤20%, with outliers). A real board differs
//! from the roofline model through effects the model does not capture —
//! thermal throttling, memory-controller quirks, OS noise. We represent
//! the physical board as an [`EmpiricalDevice`]: the same roofline model
//! perturbed by a *configuration-dependent systematic bias* (deterministic
//! per configuration, as real hardware is) plus a small measurement
//! jitter.

use edgetune_util::rng::{sample_normal, SeedStream};
use edgetune_util::stats::percent_error;
use edgetune_util::units::Seconds;
use rand::Rng;

use crate::latency::{simulate_inference, CpuAllocation, Execution};
use crate::profile::WorkProfile;
use crate::spec::DeviceSpec;

/// Log-scale standard deviation of the per-configuration systematic bias.
const SYSTEMATIC_BIAS_SIGMA: f64 = 0.16;
/// Fraction of configurations that hit a pathological un-modelled effect
/// (thermal throttling, page-cache pressure) and land in the outlier tail.
const OUTLIER_PROBABILITY: f64 = 0.07;
/// Multiplicative extra slowdown applied to outlier configurations.
const OUTLIER_EXTRA_FACTOR: f64 = 1.9;
/// Standard deviation of per-measurement jitter (fraction of the value).
const MEASUREMENT_JITTER: f64 = 0.02;

/// A physical edge board standing behind the roofline model: the model's
/// prediction, deformed by configuration-dependent systematic error.
///
/// The deformation is a pure function of `(seed, device, cores, freq,
/// batch)`, so repeated measurements of the same configuration agree up to
/// measurement jitter — exactly how a real board behaves.
#[derive(Debug, Clone)]
pub struct EmpiricalDevice {
    spec: DeviceSpec,
    seed: SeedStream,
}

impl EmpiricalDevice {
    /// Wraps a device spec with an empirical-error layer rooted at `seed`.
    #[must_use]
    pub fn new(spec: DeviceSpec, seed: SeedStream) -> Self {
        EmpiricalDevice { spec, seed }
    }

    /// The underlying spec.
    #[must_use]
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The configuration-dependent systematic slowdown factor (>0;
    /// ≈ log-normal around 1).
    fn systematic_factor(&self, alloc: &CpuAllocation, batch: u32) -> f64 {
        let key = format!(
            "{}|c{}|f{:.0}|b{}",
            self.spec.name,
            alloc.cores(),
            alloc.freq().value() / 1e6,
            batch
        );
        let mut rng = self.seed.child("empirical").rng(&key);
        let mut factor = (sample_normal(&mut rng, 0.0, SYSTEMATIC_BIAS_SIGMA)).exp();
        if rng.gen::<f64>() < OUTLIER_PROBABILITY {
            factor *= OUTLIER_EXTRA_FACTOR;
        }
        factor
    }

    /// "Measures" one inference batch on the physical board: model
    /// prediction × systematic factor × fresh measurement jitter.
    ///
    /// `measurement` indexes repeated measurements of the same
    /// configuration (each gets independent jitter).
    #[must_use]
    pub fn measure_inference(
        &self,
        alloc: &CpuAllocation,
        profile: &WorkProfile,
        batch: u32,
        measurement: u64,
    ) -> Execution {
        let predicted = simulate_inference(&self.spec, alloc, profile, batch);
        let systematic = self.systematic_factor(alloc, batch);
        let mut rng = self.seed.rng_indexed("jitter", measurement);
        let jitter_t = 1.0 + sample_normal(&mut rng, 0.0, MEASUREMENT_JITTER);
        let jitter_e = 1.0 + sample_normal(&mut rng, 0.0, MEASUREMENT_JITTER);
        // Energy error is partially decorrelated from the latency error:
        // power-model error differs from timing error on real boards.
        let energy_systematic = systematic.powf(0.7);
        Execution {
            latency: Seconds::new(predicted.latency.value() * systematic * jitter_t.max(0.5)),
            energy: predicted.energy * (energy_systematic * jitter_e.max(0.5)),
            avg_power: predicted.avg_power,
            utilization: predicted.utilization,
        }
    }
}

/// Percent errors of the emulation against the empirical device for one
/// configuration: `(throughput_error, energy_error)` per §5.3's formula.
#[must_use]
pub fn config_percent_error(
    device: &EmpiricalDevice,
    alloc: &CpuAllocation,
    profile: &WorkProfile,
    batch: u32,
) -> (f64, f64) {
    let estimated = simulate_inference(device.spec(), alloc, profile, batch);
    let empirical = device.measure_inference(alloc, profile, batch, 0);
    let thpt_est = f64::from(batch) / estimated.latency.value();
    let thpt_emp = f64::from(batch) / empirical.latency.value();
    (
        percent_error(thpt_emp, thpt_est),
        percent_error(empirical.energy.value(), estimated.energy.value()),
    )
}

/// Runs the Fig. 15 precision study: sweeps inference configurations
/// (cores × batch sizes) over `profiles` and returns the throughput and
/// energy percent-error samples.
#[must_use]
pub fn precision_study(
    spec: &DeviceSpec,
    profiles: &[WorkProfile],
    batches: &[u32],
    seed: SeedStream,
) -> (Vec<f64>, Vec<f64>) {
    let device = EmpiricalDevice::new(spec.clone(), seed);
    let mut thpt_errors = Vec::new();
    let mut energy_errors = Vec::new();
    for profile in profiles {
        for cores in 1..=spec.cores {
            for &batch in batches {
                let alloc = CpuAllocation::new(spec, cores, spec.max_freq)
                    .expect("cores in range by construction");
                let (te, ee) = config_percent_error(&device, &alloc, profile, batch);
                thpt_errors.push(te);
                energy_errors.push(ee);
            }
        }
    }
    (thpt_errors, energy_errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgetune_util::stats::{quantiles, BoxPlot};

    fn profile() -> WorkProfile {
        WorkProfile::new(0.56e9, 3.0e6, 44.8e6)
    }

    fn device() -> EmpiricalDevice {
        EmpiricalDevice::new(DeviceSpec::raspberry_pi_3b(), SeedStream::new(11))
    }

    #[test]
    fn systematic_bias_is_stable_per_configuration() {
        let d = device();
        let alloc = CpuAllocation::full(d.spec());
        let a = d.measure_inference(&alloc, &profile(), 8, 0);
        let b = d.measure_inference(&alloc, &profile(), 8, 0);
        assert_eq!(
            a.latency, b.latency,
            "same measurement index must agree exactly"
        );
        let c = d.measure_inference(&alloc, &profile(), 8, 1);
        // Different measurement: same systematic bias, only jitter apart.
        let ratio = c.latency.value() / a.latency.value();
        assert!(
            (ratio - 1.0).abs() < 0.15,
            "jitter should be small: {ratio}"
        );
    }

    #[test]
    fn different_configurations_get_different_bias() {
        let d = device();
        let spec = d.spec().clone();
        let a1 = CpuAllocation::new(&spec, 1, spec.max_freq).unwrap();
        let a2 = CpuAllocation::new(&spec, 2, spec.max_freq).unwrap();
        let e1 = d.measure_inference(&a1, &profile(), 8, 0);
        let e2 = d.measure_inference(&a2, &profile(), 8, 0);
        // Both perturbed, and not by the same factor.
        let m1 = simulate_inference(&spec, &a1, &profile(), 8);
        let m2 = simulate_inference(&spec, &a2, &profile(), 8);
        let f1 = e1.latency.value() / m1.latency.value();
        let f2 = e2.latency.value() / m2.latency.value();
        assert!((f1 - f2).abs() > 1e-6);
    }

    #[test]
    fn precision_study_median_error_is_paper_scale() {
        let spec = DeviceSpec::raspberry_pi_3b();
        let profiles = [
            WorkProfile::new(0.56e9, 3.0e6, 44.8e6),
            WorkProfile::new(1.16e9, 5.0e6, 85.2e6),
            WorkProfile::new(1.3e9, 8.0e6, 94.0e6),
        ];
        let (thpt, energy) = precision_study(
            &spec,
            &profiles,
            &[1, 2, 4, 8, 16, 32, 64, 100],
            SeedStream::new(3),
        );
        assert!(thpt.len() >= 90);
        let [med_t] = quantiles(&mut thpt.clone(), [0.5]).unwrap();
        let [med_e] = quantiles(&mut energy.clone(), [0.5]).unwrap();
        // Paper: "the error ... is small (at most 20% in our experiments)"
        // for the bulk of configurations.
        assert!(
            (2.0..=25.0).contains(&med_t),
            "median throughput error {med_t}"
        );
        assert!((1.0..=25.0).contains(&med_e), "median energy error {med_e}");
    }

    #[test]
    fn precision_study_has_an_outlier_tail() {
        let spec = DeviceSpec::raspberry_pi_3b();
        let profiles = [profile()];
        let batches: Vec<u32> = (1..=40).collect();
        let (thpt, _) = precision_study(&spec, &profiles, &batches, SeedStream::new(5));
        let bp = BoxPlot::of(&thpt).unwrap();
        let max = thpt.iter().copied().fold(0.0f64, f64::max);
        assert!(
            max > bp.q3 * 2.0,
            "expect a heavy tail like Fig. 15: max={max}, q3={}",
            bp.q3
        );
    }

    #[test]
    fn percent_error_is_nonnegative() {
        let d = device();
        let alloc = CpuAllocation::full(d.spec());
        let (te, ee) = config_percent_error(&d, &alloc, &profile(), 4);
        assert!(te >= 0.0 && ee >= 0.0);
    }
}
