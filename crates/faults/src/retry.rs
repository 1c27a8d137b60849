//! Retry, backoff, and deadline policies.
//!
//! A deadline is a limit on an elapsed duration the caller tracked
//! itself ([`Deadline::exceeded`]). Simulated time is a `Seconds` the
//! component that owns it adds up (the evaluator sums a supervised
//! trial's attempts and backoffs); host time is measured from outside
//! with `Instant` (the shard fabric's heartbeat supervision). The policy
//! code never learns which of the two it was handed.

use edgetune_util::rng::SeedStream;
use edgetune_util::units::Seconds;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Exponential backoff with deterministic jitter, capped.
///
/// Attempt numbers are 1-based: attempt 1 is the first try, so the first
/// *retry* (attempt 2) waits roughly `base_delay`, the next one
/// `base_delay * multiplier`, and so on up to `max_delay`. Jitter only
/// ever shortens a delay (`delay = base * (1 - jitter * u)`, `u ∈ [0,1)`),
/// so every delay is bounded by the cap and the jitter-free schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts allowed, including the first (so `3` = two retries).
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base_delay: Seconds,
    /// Growth factor between consecutive retries.
    pub multiplier: f64,
    /// Hard cap on any single delay.
    pub max_delay: Seconds,
    /// Jitter fraction in `[0, 1]`: how much of each delay may be shaved
    /// off to decorrelate retry storms.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_delay: Seconds::new(1.0),
            multiplier: 2.0,
            max_delay: Seconds::new(30.0),
            jitter: 0.5,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (one attempt, immediate give-up).
    #[must_use]
    pub fn no_retries() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// True when `attempt` (1-based) exhausted the budget.
    #[must_use]
    pub fn exhausted(&self, attempt: u32) -> bool {
        attempt >= self.max_attempts
    }

    /// The jitter-free delay after `attempt` failures: monotone
    /// nondecreasing in the attempt number and saturating at
    /// [`max_delay`](RetryPolicy::max_delay).
    #[must_use]
    pub fn base_delay_for(&self, attempt: u32) -> Seconds {
        let exponent = f64::from(attempt.saturating_sub(1));
        let raw = self.base_delay.value() * self.multiplier.max(1.0).powf(exponent);
        Seconds::new(raw.min(self.max_delay.value()).max(0.0))
    }

    /// The jittered delay after `attempt` failures. Deterministic per
    /// `(seed, draw, attempt)` — `draw` must be a caller-maintained
    /// counter unique to the operation being retried — and always within
    /// `[0, base_delay_for(attempt)]`, hence within the cap.
    #[must_use]
    pub fn delay(&self, attempt: u32, seed: SeedStream, draw: u64) -> Seconds {
        let base = self.base_delay_for(attempt);
        let jitter = self.jitter.clamp(0.0, 1.0);
        if jitter <= 0.0 {
            return base;
        }
        let u = seed
            .child_indexed("backoff", draw)
            .rng_indexed("jitter", u64::from(attempt))
            .gen::<f64>();
        Seconds::new(base.value() * (1.0 - jitter * u))
    }
}

/// An elapsed-time budget for one supervised operation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Deadline {
    /// The elapsed-time limit.
    pub limit: Seconds,
}

impl Deadline {
    /// A deadline of `limit` seconds.
    #[must_use]
    pub fn new(limit: Seconds) -> Self {
        Deadline { limit }
    }

    /// True once `elapsed` passed the limit.
    #[must_use]
    pub fn exceeded(&self, elapsed: Seconds) -> bool {
        elapsed > self.limit
    }
}

/// Retry + deadline policy for one supervised component.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Supervisor {
    /// Retry/backoff schedule.
    pub retry: RetryPolicy,
    /// Optional per-operation deadline (a trial running longer than this
    /// is treated as hung and failed).
    pub deadline: Option<Deadline>,
}

impl Supervisor {
    /// A supervisor with the given retry policy and no deadline.
    #[must_use]
    pub fn new(retry: RetryPolicy) -> Self {
        Supervisor {
            retry,
            deadline: None,
        }
    }

    /// Adds a per-operation deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// True when `attempt` (1-based) exhausted the retry budget.
    #[must_use]
    pub fn give_up(&self, attempt: u32) -> bool {
        self.retry.exhausted(attempt)
    }

    /// The backoff to wait after `attempt` failures (see
    /// [`RetryPolicy::delay`]).
    #[must_use]
    pub fn backoff(&self, attempt: u32, seed: SeedStream, draw: u64) -> Seconds {
        self.retry.delay(attempt, seed, draw)
    }

    /// True once `elapsed` passed the configured deadline, if any.
    #[must_use]
    pub fn deadline_exceeded(&self, elapsed: Seconds) -> bool {
        self.deadline.is_some_and(|d| d.exceeded(elapsed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_delays_grow_and_saturate() {
        let policy = RetryPolicy::default();
        let mut previous = Seconds::ZERO;
        for attempt in 1..=12 {
            let delay = policy.base_delay_for(attempt);
            assert!(delay >= previous, "schedule must be monotone");
            assert!(delay <= policy.max_delay, "schedule must respect the cap");
            previous = delay;
        }
        assert_eq!(policy.base_delay_for(12), policy.max_delay);
    }

    #[test]
    fn jittered_delay_is_deterministic_and_bounded() {
        let policy = RetryPolicy::default();
        let seed = SeedStream::new(11);
        for attempt in 1..=6 {
            for draw in 0..8 {
                let d = policy.delay(attempt, seed, draw);
                assert_eq!(d, policy.delay(attempt, seed, draw));
                assert!(d.value() >= 0.0);
                assert!(d <= policy.base_delay_for(attempt));
            }
        }
    }

    #[test]
    fn zero_jitter_reproduces_the_base_schedule() {
        let policy = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let seed = SeedStream::new(5);
        assert_eq!(policy.delay(3, seed, 0), policy.base_delay_for(3));
    }

    #[test]
    fn exhaustion_counts_the_first_attempt() {
        let policy = RetryPolicy::default();
        assert!(!policy.exhausted(1));
        assert!(!policy.exhausted(2));
        assert!(policy.exhausted(3));
        assert!(RetryPolicy::no_retries().exhausted(1));
    }

    #[test]
    fn deadline_is_exclusive_at_the_limit() {
        let deadline = Deadline::new(Seconds::new(10.0));
        assert!(!deadline.exceeded(Seconds::new(10.0)));
        assert!(deadline.exceeded(Seconds::new(10.001)));
    }

    #[test]
    fn supervisor_combines_retry_and_deadline() {
        let supervisor = Supervisor::new(RetryPolicy::default())
            .with_deadline(Deadline::new(Seconds::new(60.0)));
        assert!(!supervisor.give_up(2));
        assert!(supervisor.give_up(3));
        assert!(supervisor.deadline_exceeded(Seconds::new(61.0)));
        assert!(!Supervisor::default().deadline_exceeded(Seconds::new(1e9)));
    }
}
