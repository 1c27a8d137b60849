//! The seeded injector behind a chaos run's one fault rate.

use edgetune_util::rng::SeedStream;
use edgetune_util::units::Seconds;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Runtime/energy multiplier of a straggling trial (co-location
/// interference roughly quadruples a trial's runtime, in line with the
/// multi-tenancy studies).
pub const STRAGGLER_SLOWDOWN: f64 = 4.0;
/// Duration of one transient device outage, in seconds.
pub const OUTAGE_S: f64 = 30.0;

/// A fault injected into one training trial.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TrialFault {
    /// The trial process dies mid-epoch; setup time and part of the first
    /// epoch are paid, nothing is learned.
    Crash,
    /// Co-location interference slows the trial by
    /// [`STRAGGLER_SLOWDOWN`].
    Straggle,
}

/// Turns one fault rate into concrete, reproducible decisions.
///
/// The rate is a per-event probability in `[0, 1]`, applied to every
/// fault kind: a training trial crashes with it and straggles with it,
/// and an inference request loses its worker with it and its sweep hits
/// a device outage with it. Every decision draws from
/// `seed.rng_indexed(label, index)` where `index` is a stable counter
/// supplied by the caller (trial number, request sequence), so decisions
/// are independent of thread interleaving and of each other: skipping
/// one draw never shifts another. At a rate of zero every method returns
/// without touching any RNG.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rate: f64,
    seed: SeedStream,
}

impl FaultInjector {
    /// Builds an injector firing at `rate` with decisions derived from
    /// `seed`.
    #[must_use]
    pub fn new(rate: f64, seed: SeedStream) -> Self {
        FaultInjector { rate, seed }
    }

    fn draw(&self, label: &str, index: u64) -> f64 {
        self.seed.rng_indexed(label, index).gen::<f64>()
    }

    /// Decides the fate of training trial number `trial` (a monotone
    /// counter of `run_trial` calls, including retries). Crash and
    /// straggle are mutually exclusive: one shared draw below the rate
    /// crashes, one below twice the rate straggles.
    #[must_use]
    pub fn trial_fault(&self, trial: u64) -> Option<TrialFault> {
        if self.rate <= 0.0 {
            return None;
        }
        let u = self.draw("trial-fault", trial);
        if u < self.rate {
            return Some(TrialFault::Crash);
        }
        (u < 2.0 * self.rate).then_some(TrialFault::Straggle)
    }

    /// Whether the worker handling inference request `request` dies
    /// mid-flight.
    #[must_use]
    pub fn worker_panic(&self, request: u64) -> bool {
        self.rate > 0.0 && self.draw("worker-panic", request) < self.rate
    }

    /// Whether inference sweep `index` hits a transient device outage,
    /// and for how long.
    #[must_use]
    pub fn device_outage(&self, index: u64) -> Option<Seconds> {
        if self.rate <= 0.0 {
            return None;
        }
        (self.draw("device-outage", index) < self.rate).then(|| Seconds::new(OUTAGE_S))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_injector_never_fires() {
        let injector = FaultInjector::new(0.0, SeedStream::new(1));
        for i in 0..100 {
            assert_eq!(injector.trial_fault(i), None);
            assert!(!injector.worker_panic(i));
            assert_eq!(injector.device_outage(i), None);
        }
    }

    #[test]
    fn certain_rates_always_fire() {
        let injector = FaultInjector::new(1.0, SeedStream::new(2));
        for i in 0..20 {
            assert_eq!(injector.trial_fault(i), Some(TrialFault::Crash));
            assert!(injector.worker_panic(i));
            assert_eq!(injector.device_outage(i), Some(Seconds::new(OUTAGE_S)));
        }
    }

    #[test]
    fn decisions_are_deterministic_and_index_keyed() {
        let a = FaultInjector::new(0.3, SeedStream::new(7));
        let b = FaultInjector::new(0.3, SeedStream::new(7));
        let faults: Vec<_> = (0..200).map(|i| a.trial_fault(i)).collect();
        // Same seed, same rate: identical decisions, in any query order.
        for i in (0..200).rev() {
            assert_eq!(b.trial_fault(i), faults[usize::try_from(i).unwrap()]);
        }
        // A moderate rate fires sometimes but not always.
        assert!(faults.iter().any(Option::is_some));
        assert!(faults.iter().any(Option::is_none));
    }

    #[test]
    fn a_draw_between_the_rate_and_twice_it_straggles() {
        let rate = 0.3;
        let injector = FaultInjector::new(rate, SeedStream::new(3));
        let fates: Vec<_> = (0..200)
            .map(|i| (injector.draw("trial-fault", i), injector.trial_fault(i)))
            .collect();
        for &(u, fate) in &fates {
            let want = if u < rate {
                Some(TrialFault::Crash)
            } else if u < 2.0 * rate {
                Some(TrialFault::Straggle)
            } else {
                None
            };
            assert_eq!(fate, want, "draw {u}");
        }
        assert!(fates.iter().any(|f| f.1 == Some(TrialFault::Straggle)));
    }
}
