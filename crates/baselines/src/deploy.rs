//! Deployment evaluation: how a tuner's chosen model performs at the
//! edge.
//!
//! The paper's inference columns (Figs. 13, 14, 16, 17) measure the
//! throughput and per-image energy of the architecture each system
//! selected, deployed on the edge device. For fairness the HyperPower
//! comparison (§5.5) deploys *both* systems' models with the inference
//! parameters EdgeTune recommends — HyperPower itself outputs none — so
//! the differences reflect the chosen architectures.

use edgetune::inference::InferenceRecommendation;
use edgetune_device::latency::{simulate_inference, CpuAllocation};
use edgetune_device::profile::WorkProfile;
use edgetune_device::spec::DeviceSpec;
use edgetune_util::units::{energy_per_item, throughput, ItemsPerSecond, JoulesPerItem};
use edgetune_util::Result;

/// Edge performance of one deployed architecture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deployment {
    /// Sustained inference throughput.
    pub throughput: ItemsPerSecond,
    /// Energy per processed item.
    pub energy_per_item: JoulesPerItem,
}

/// Deploys `profile` with an explicit recommendation's parameters.
///
/// # Errors
///
/// Returns an error when the recommendation's cores/frequency are invalid
/// for `device`.
pub fn deploy_with(
    device: &DeviceSpec,
    profile: &WorkProfile,
    recommendation: &InferenceRecommendation,
) -> Result<Deployment> {
    let alloc = CpuAllocation::new(device, recommendation.cores, recommendation.freq)?;
    let exec = simulate_inference(device, &alloc, profile, recommendation.batch);
    Ok(Deployment {
        throughput: throughput(f64::from(recommendation.batch), exec.latency),
        energy_per_item: energy_per_item(exec.energy, f64::from(recommendation.batch)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgetune::inference::{fallback_recommendation, InferenceSpace, InferenceTuningServer};
    use edgetune_tuner::objective::InferenceObjective;
    use edgetune_tuner::Metric;

    fn device() -> DeviceSpec {
        DeviceSpec::raspberry_pi_3b()
    }

    fn resnet18() -> WorkProfile {
        WorkProfile::new(0.56e9, 3.0e6, 44.8e6)
    }

    /// EdgeTune's recommendation for `profile` under `metric`.
    fn tuned(profile: &WorkProfile, metric: Metric) -> InferenceRecommendation {
        let device = device();
        let space = InferenceSpace::for_device(&device);
        let server =
            InferenceTuningServer::new(device, space, InferenceObjective::new(metric)).unwrap();
        server.tune(profile).0
    }

    /// What a user deploys with no inference guidance: single-sample
    /// inference on all cores at max frequency.
    fn naive(profile: &WorkProfile) -> Deployment {
        deploy_with(
            &device(),
            profile,
            &fallback_recommendation(&device(), profile),
        )
        .unwrap()
    }

    #[test]
    fn tuned_deployment_beats_default() {
        let rec = tuned(&resnet18(), Metric::Runtime);
        let tuned = deploy_with(&device(), &resnet18(), &rec).unwrap();
        let naive = naive(&resnet18());
        assert!(
            tuned.throughput.value() > naive.throughput.value(),
            "recommendation must beat single-sample default: {tuned:?} vs {naive:?}"
        );
        assert!(rec.batch > 1);
    }

    #[test]
    fn energy_tuned_deployment_cuts_energy() {
        let rec = tuned(&resnet18(), Metric::Energy);
        let tuned = deploy_with(&device(), &resnet18(), &rec).unwrap();
        let naive = naive(&resnet18());
        assert!(tuned.energy_per_item.value() < naive.energy_per_item.value());
    }

    #[test]
    fn deploy_with_matches_recommendation_estimates() {
        let rec = tuned(&resnet18(), Metric::Runtime);
        let deployment = deploy_with(&device(), &resnet18(), &rec).unwrap();
        assert!((deployment.throughput.value() - rec.throughput().value()).abs() < 1e-9);
        assert!((deployment.energy_per_item.value() - rec.energy_per_item.value()).abs() < 1e-9);
    }

    #[test]
    fn heavier_profile_deploys_slower() {
        let light = naive(&resnet18());
        let heavy = naive(&WorkProfile::new(8.5e9, 30.0e6, 246.0e6));
        assert!(heavy.throughput.value() < light.throughput.value());
    }
}
