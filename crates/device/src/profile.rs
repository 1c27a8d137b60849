//! Per-sample computational footprint of a model.
//!
//! A [`WorkProfile`] is what a workload hands to the device models: how
//! many FLOPs one sample costs in the forward pass, how many bytes of
//! activations it streams, and how large the parameter set is. Training
//! and inference differ exactly the way §2.1 of the paper describes —
//! training adds the backward pass and keeps weights hot and mutable in
//! memory, which is why forward-phase counters mispredict inference
//! (Fig. 1); the [`Phase`] multipliers encode that asymmetry.

/// Which phase of the DNN lifecycle a kernel belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// The forward pass *during training*: weights are resident and
    /// mutable, activations are saved for the backward pass.
    ForwardTraining,
    /// The backward pass: gradient computation and weight update.
    Backward,
    /// Deployment-time prediction: weights are constant, activations are
    /// transient.
    Inference,
}

impl Phase {
    /// FLOPs multiplier relative to the forward pass. The backward pass
    /// costs roughly twice the forward pass (grad-input + grad-weight).
    #[must_use]
    pub fn flops_factor(self) -> f64 {
        match self {
            Phase::ForwardTraining | Phase::Inference => 1.0,
            Phase::Backward => 2.0,
        }
    }

    /// Memory-traffic multiplier relative to inference. Training keeps
    /// activations for the backward pass and updates weights in place, so
    /// its forward pass already moves substantially more data (§2.1: "the
    /// memory utilization during training is much higher than for the
    /// inference").
    #[must_use]
    pub fn memory_factor(self) -> f64 {
        match self {
            Phase::Inference => 1.0,
            Phase::ForwardTraining => 2.2,
            Phase::Backward => 3.0,
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Phase::ForwardTraining => write!(f, "forward-training"),
            Phase::Backward => write!(f, "backward"),
            Phase::Inference => write!(f, "inference"),
        }
    }
}

/// Per-sample computational footprint of a model architecture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkProfile {
    /// Forward-pass FLOPs for one sample.
    pub flops_per_sample: f64,
    /// Activation bytes streamed per sample in the inference forward pass.
    pub activation_bytes: f64,
    /// Total parameter footprint in bytes (weights; fp32).
    pub param_bytes: f64,
}

impl WorkProfile {
    /// Creates a profile.
    ///
    /// # Panics
    ///
    /// Panics if any component is negative or non-finite.
    #[must_use]
    pub fn new(flops_per_sample: f64, activation_bytes: f64, param_bytes: f64) -> Self {
        assert!(
            flops_per_sample.is_finite() && flops_per_sample >= 0.0,
            "flops_per_sample must be finite and non-negative"
        );
        assert!(
            activation_bytes.is_finite() && activation_bytes >= 0.0,
            "activation_bytes must be finite and non-negative"
        );
        assert!(
            param_bytes.is_finite() && param_bytes >= 0.0,
            "param_bytes must be finite and non-negative"
        );
        WorkProfile {
            flops_per_sample,
            activation_bytes,
            param_bytes,
        }
    }

    /// FLOPs for a batch in the given phase.
    #[must_use]
    pub fn flops(&self, batch: u32, phase: Phase) -> f64 {
        self.flops_per_sample * f64::from(batch) * phase.flops_factor()
    }

    /// Bytes moved for a batch in the given phase: per-sample activation
    /// traffic plus one traversal of the parameters (weights are read once
    /// per batch, amortised over its samples).
    #[must_use]
    pub fn bytes(&self, batch: u32, phase: Phase) -> f64 {
        (self.activation_bytes * f64::from(batch) + self.param_bytes) * phase.memory_factor()
    }

    /// Resident working set of a batch in the given phase: parameters plus
    /// live activations (training holds them for the backward pass).
    #[must_use]
    pub fn working_set(&self, batch: u32, phase: Phase) -> f64 {
        let act = self.activation_bytes * f64::from(batch);
        match phase {
            Phase::Inference => self.param_bytes + act,
            // Training: weights + gradients + optimizer state + saved
            // activations for every sample in the batch.
            Phase::ForwardTraining | Phase::Backward => 3.0 * self.param_bytes + 2.0 * act,
        }
    }

    /// Arithmetic intensity (FLOPs per byte) of a batch in a phase; the
    /// quantity that decides compute- vs. memory-boundedness on the
    /// roofline.
    #[must_use]
    pub fn arithmetic_intensity(&self, batch: u32, phase: Phase) -> f64 {
        self.flops(batch, phase) / self.bytes(batch, phase)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> WorkProfile {
        WorkProfile::new(1.0e9, 8.0e6, 44.0e6)
    }

    #[test]
    fn backward_costs_twice_the_forward_flops() {
        let p = profile();
        assert_eq!(
            p.flops(4, Phase::Backward),
            2.0 * p.flops(4, Phase::ForwardTraining)
        );
        assert_eq!(
            p.flops(4, Phase::Inference),
            p.flops(4, Phase::ForwardTraining)
        );
    }

    #[test]
    fn training_forward_moves_more_bytes_than_inference() {
        let p = profile();
        assert!(p.bytes(4, Phase::ForwardTraining) > p.bytes(4, Phase::Inference));
        assert!(p.bytes(4, Phase::Backward) > p.bytes(4, Phase::ForwardTraining));
    }

    #[test]
    fn bytes_amortise_params_over_batch() {
        let p = profile();
        let per_sample_b1 = p.bytes(1, Phase::Inference);
        let per_sample_b32 = p.bytes(32, Phase::Inference) / 32.0;
        assert!(per_sample_b32 < per_sample_b1);
    }

    #[test]
    fn intensity_grows_with_batch() {
        let p = profile();
        assert!(
            p.arithmetic_intensity(32, Phase::Inference)
                > p.arithmetic_intensity(1, Phase::Inference)
        );
    }

    #[test]
    fn training_working_set_exceeds_inference() {
        let p = profile();
        assert!(p.working_set(8, Phase::ForwardTraining) > p.working_set(8, Phase::Inference));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_negative_flops() {
        let _ = WorkProfile::new(-1.0, 0.0, 0.0);
    }

    #[test]
    fn phase_display() {
        assert_eq!(Phase::Inference.to_string(), "inference");
        assert_eq!(Phase::ForwardTraining.to_string(), "forward-training");
        assert_eq!(Phase::Backward.to_string(), "backward");
    }
}
