//! Adaptive batch formation and SLO-aware admission control.
//!
//! The serving queue is batch-or-timeout (the tuning-time simulator in
//! the core crate is its zero-window case), and its batch cap is a *live*
//! control variable: an AIMD-style controller grows the cap when observed
//! response times creep toward the SLO target (larger batches amortise
//! dispatch and drain backlog faster on the roofline model) and relaxes
//! it back toward the tuned batch size when the system is comfortably
//! under target (small batches minimise per-request latency at light
//! load). Admission control sheds requests that can no longer meet their
//! deadline even if served alone immediately — graceful degradation
//! instead of unbounded queueing collapse under overload.

use edgetune_util::units::Seconds;
use serde::{Deserialize, Serialize};

/// Smoothing factor of the controller's response-time EWMA.
const RESPONSE_EWMA_ALPHA: f64 = 0.2;
/// Grow the cap when the smoothed response exceeds this fraction of the
/// SLO target (or the backlog dwarfs the current cap).
const GROW_THRESHOLD: f64 = 0.7;
/// Shrink the cap when the smoothed response falls below this fraction of
/// the SLO target and the backlog fits in half a batch.
const SHRINK_THRESHOLD: f64 = 0.25;

/// The latency service-level objective the runtime serves under.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloPolicy {
    /// Per-request response-time target (the p99 objective); requests
    /// completing later count as violations.
    pub target: Seconds,
    /// When true, requests that can no longer meet `target` even if
    /// served alone immediately are shed at batch-formation time.
    pub shed: bool,
}

impl SloPolicy {
    /// A shedding policy with the given response-time target.
    ///
    /// # Panics
    ///
    /// Panics if the target is not positive.
    #[must_use]
    pub fn new(target: Seconds) -> Self {
        assert!(target.value() > 0.0, "SLO target must be positive");
        SloPolicy { target, shed: true }
    }

    /// The same target without load shedding (requests queue forever).
    #[must_use]
    pub fn without_shedding(mut self) -> Self {
        self.shed = false;
        self
    }
}

/// Batch-formation policy: the tuned operating point plus the bounds the
/// adaptive controller may move within.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchPolicy {
    /// The tuned (recommended) batch cap — the controller's resting point.
    pub base_cap: u32,
    /// Hard ceiling the adaptive cap never exceeds.
    pub max_cap: u32,
    /// Batch-or-timeout window measured from the oldest queued request.
    pub max_wait: Seconds,
    /// When false the cap stays pinned at `base_cap` (static serving).
    pub adaptive: bool,
}

impl BatchPolicy {
    /// An adaptive policy resting at `base_cap`, free to grow to
    /// `max_cap`.
    ///
    /// # Panics
    ///
    /// Panics if `base_cap` is zero or `max_wait` is negative.
    #[must_use]
    pub fn new(base_cap: u32, max_cap: u32, max_wait: Seconds) -> Self {
        assert!(base_cap >= 1, "batch cap must be >= 1");
        assert!(max_wait.value() >= 0.0, "max wait must be non-negative");
        BatchPolicy {
            base_cap,
            max_cap: max_cap.max(base_cap),
            max_wait,
            adaptive: true,
        }
    }

    /// The same policy with the cap frozen at `base_cap`.
    #[must_use]
    pub fn pinned(mut self) -> Self {
        self.adaptive = false;
        self
    }
}

/// The live batch-cap controller.
#[derive(Debug, Clone)]
pub struct AdaptiveBatcher {
    policy: BatchPolicy,
    cap: u32,
    ewma_response: Option<f64>,
}

impl AdaptiveBatcher {
    /// Starts the controller at the policy's tuned batch cap.
    #[must_use]
    pub fn new(policy: BatchPolicy) -> Self {
        AdaptiveBatcher {
            cap: policy.base_cap,
            ewma_response: None,
            policy,
        }
    }

    /// The current batch cap.
    #[must_use]
    pub fn cap(&self) -> u32 {
        self.cap
    }

    /// The batch-or-timeout window.
    #[must_use]
    pub fn max_wait(&self) -> Seconds {
        self.policy.max_wait
    }

    /// Feeds one completed batch into the controller: its mean response
    /// time and the backlog present at completion. Adjusts the cap when
    /// the policy is adaptive.
    pub fn observe(&mut self, mean_response: Seconds, backlog: usize, slo: &SloPolicy) {
        let smoothed = match self.ewma_response {
            None => mean_response.value(),
            Some(prev) => {
                (1.0 - RESPONSE_EWMA_ALPHA) * prev + RESPONSE_EWMA_ALPHA * mean_response.value()
            }
        };
        self.ewma_response = Some(smoothed);
        if !self.policy.adaptive {
            return;
        }
        let target = slo.target.value();
        let pressed = smoothed > GROW_THRESHOLD * target || backlog > 2 * self.cap as usize;
        let relaxed =
            smoothed < SHRINK_THRESHOLD * target && backlog < (self.cap as usize).div_ceil(2);
        if pressed {
            self.cap = (self.cap.saturating_mul(2)).min(self.policy.max_cap);
        } else if relaxed && self.cap > self.policy.base_cap {
            self.cap = (self.cap / 2).max(self.policy.base_cap);
        }
    }

    /// Re-anchors the controller on a freshly tuned batch cap (after a
    /// drift-triggered configuration switch).
    pub fn rebase(&mut self, base_cap: u32) {
        assert!(base_cap >= 1, "batch cap must be >= 1");
        self.policy.base_cap = base_cap;
        self.policy.max_cap = self.policy.max_cap.max(base_cap);
        self.cap = base_cap;
        self.ewma_response = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slo() -> SloPolicy {
        SloPolicy::new(Seconds::new(1.0))
    }

    #[test]
    fn pressure_grows_the_cap_toward_the_ceiling() {
        let mut b = AdaptiveBatcher::new(BatchPolicy::new(4, 64, Seconds::ZERO));
        for _ in 0..10 {
            b.observe(Seconds::new(0.9), 100, &slo());
        }
        assert_eq!(b.cap(), 64, "sustained pressure must saturate the cap");
    }

    #[test]
    fn calm_traffic_relaxes_back_to_the_tuned_cap() {
        let mut b = AdaptiveBatcher::new(BatchPolicy::new(4, 64, Seconds::ZERO));
        for _ in 0..6 {
            b.observe(Seconds::new(0.95), 100, &slo());
        }
        assert!(b.cap() > 4);
        for _ in 0..20 {
            b.observe(Seconds::new(0.01), 0, &slo());
        }
        assert_eq!(b.cap(), 4, "calm must settle at the tuned cap");
    }

    #[test]
    fn pinned_policy_never_moves() {
        let mut b = AdaptiveBatcher::new(BatchPolicy::new(8, 64, Seconds::ZERO).pinned());
        for _ in 0..10 {
            b.observe(Seconds::new(10.0), 1000, &slo());
        }
        assert_eq!(b.cap(), 8);
    }

    #[test]
    fn backlog_alone_triggers_growth() {
        let mut b = AdaptiveBatcher::new(BatchPolicy::new(2, 32, Seconds::ZERO));
        b.observe(Seconds::new(0.01), 50, &slo());
        assert_eq!(b.cap(), 4, "a deep queue must grow the cap");
    }

    #[test]
    fn rebase_moves_the_resting_point() {
        let mut b = AdaptiveBatcher::new(BatchPolicy::new(2, 64, Seconds::ZERO));
        b.rebase(16);
        assert_eq!(b.cap(), 16);
        for _ in 0..20 {
            b.observe(Seconds::new(0.01), 0, &slo());
        }
        assert_eq!(b.cap(), 16, "relaxation floors at the new base");
    }

    #[test]
    fn max_cap_never_below_base() {
        let p = BatchPolicy::new(32, 8, Seconds::ZERO);
        assert_eq!(p.max_cap, 32);
    }

    #[test]
    #[should_panic(expected = "SLO target must be positive")]
    fn zero_slo_rejected() {
        let _ = SloPolicy::new(Seconds::ZERO);
    }
}
