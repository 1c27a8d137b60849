//! Counters for the study's fault-tolerance policy.

use serde::{Deserialize, Serialize};

/// Counters for every fault observed and every fallback taken.
///
/// All zeros in a fault-free run; serialized into the chaos sections of
/// the tuning report so degradation is observable, not silent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DegradationStats {
    /// Injected trial crashes observed (each failed attempt counts).
    pub trial_crashes: u64,
    /// Injected trial stragglers observed.
    pub trial_stragglers: u64,
    /// Trial retries performed after crashes.
    pub trial_retries: u64,
    /// Trials abandoned with a penalty score after exhausting retries.
    pub trials_skipped: u64,
    /// Inference requests whose reply was lost (worker death or timeout).
    pub worker_losses: u64,
    /// Inference requests resubmitted under the retry policy.
    pub inference_retries: u64,
    /// Trials served from a stale cache entry.
    pub stale_cache_served: u64,
    /// Trials served the device-model default recommendation.
    pub default_recommendations: u64,
}

impl DegradationStats {
    /// True when nothing was ever injected or degraded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == DegradationStats::default()
    }

    /// The counters as stable (name, value) pairs, in field order —
    /// the shape trace counter events and report tooling consume.
    #[must_use]
    pub fn as_counters(&self) -> Vec<(String, f64)> {
        vec![
            ("trial_crashes".to_string(), self.trial_crashes as f64),
            ("trial_stragglers".to_string(), self.trial_stragglers as f64),
            ("trial_retries".to_string(), self.trial_retries as f64),
            ("trials_skipped".to_string(), self.trials_skipped as f64),
            ("worker_losses".to_string(), self.worker_losses as f64),
            (
                "inference_retries".to_string(),
                self.inference_retries as f64,
            ),
            (
                "stale_cache_served".to_string(),
                self.stale_cache_served as f64,
            ),
            (
                "default_recommendations".to_string(),
                self.default_recommendations as f64,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_start_empty_and_notice_any_counter() {
        let mut stats = DegradationStats::default();
        assert!(stats.is_empty());
        stats.stale_cache_served += 1;
        assert!(!stats.is_empty());
    }

    #[test]
    fn counters_cover_every_field() {
        let stats = DegradationStats {
            trial_crashes: 1,
            trial_stragglers: 2,
            trial_retries: 3,
            trials_skipped: 4,
            worker_losses: 5,
            inference_retries: 6,
            stale_cache_served: 7,
            default_recommendations: 8,
        };
        let counters = stats.as_counters();
        assert_eq!(counters.len(), 8);
        let total: f64 = counters.iter().map(|(_, v)| v).sum();
        assert_eq!(total, 36.0);
        assert_eq!(counters[0], ("trial_crashes".to_string(), 1.0));
        assert_eq!(counters[7].0, "default_recommendations");
    }
}
