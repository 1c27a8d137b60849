//! Adaptive batch formation and SLO-aware admission control.
//!
//! The serving queue is greedy — a free worker takes every queued request
//! up to the batch cap, the policy the tuning-time simulator in the core
//! crate models — and its batch cap is a *live* control variable: an
//! AIMD-style controller grows the cap when observed response times creep
//! toward the SLO target (larger batches amortise dispatch and drain
//! backlog faster on the roofline model) and relaxes it back toward the
//! tuned batch size when the system is comfortably under target (small
//! batches minimise per-request latency at light load). Admission control
//! sheds requests that can no longer meet their deadline even if served
//! alone immediately — graceful degradation instead of unbounded queueing
//! collapse under overload.

use edgetune_util::units::Seconds;

/// Smoothing factor of the controller's response-time EWMA.
const RESPONSE_EWMA_ALPHA: f64 = 0.2;
/// Grow the cap when the smoothed response exceeds this fraction of the
/// SLO target (or the backlog dwarfs the current cap).
const GROW_THRESHOLD: f64 = 0.7;
/// Shrink the cap when the smoothed response falls below this fraction of
/// the SLO target and the backlog fits in half a batch.
const SHRINK_THRESHOLD: f64 = 0.25;

/// The latency service-level objective the runtime serves under.
#[derive(Debug, Clone, Copy, PartialEq)]
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

/// The live batch-cap controller: it rests at the tuned cap and moves
/// up to a hard ceiling under load.
#[derive(Debug, Clone)]
pub struct AdaptiveBatcher {
    /// The tuned (recommended) batch cap — the controller's resting point.
    base_cap: u32,
    /// Hard ceiling the adaptive cap never exceeds.
    max_cap: u32,
    /// When false the cap stays pinned at `base_cap` (static serving).
    adaptive: bool,
    cap: u32,
    ewma_response: Option<f64>,
}

impl AdaptiveBatcher {
    /// An adaptive controller starting at the tuned `base_cap`, free to
    /// grow to `max_cap`.
    ///
    /// # Panics
    ///
    /// Panics if `base_cap` is zero.
    #[must_use]
    pub fn new(base_cap: u32, max_cap: u32) -> Self {
        assert!(base_cap >= 1, "batch cap must be >= 1");
        AdaptiveBatcher {
            base_cap,
            max_cap: max_cap.max(base_cap),
            adaptive: true,
            cap: base_cap,
            ewma_response: None,
        }
    }

    /// The same controller with the cap frozen at `base_cap`.
    #[must_use]
    pub fn pinned(mut self) -> Self {
        self.adaptive = false;
        self
    }

    /// The current batch cap.
    #[must_use]
    pub fn cap(&self) -> u32 {
        self.cap
    }

    /// Feeds one completed batch into the controller: its mean response
    /// time and the backlog present at completion. Adjusts the cap when
    /// the controller is adaptive.
    pub fn observe(&mut self, mean_response: Seconds, backlog: usize, slo: &SloPolicy) {
        let smoothed = match self.ewma_response {
            None => mean_response.value(),
            Some(prev) => {
                (1.0 - RESPONSE_EWMA_ALPHA) * prev + RESPONSE_EWMA_ALPHA * mean_response.value()
            }
        };
        self.ewma_response = Some(smoothed);
        if !self.adaptive {
            return;
        }
        let target = slo.target.value();
        let pressed = smoothed > GROW_THRESHOLD * target || backlog > 2 * self.cap as usize;
        let relaxed =
            smoothed < SHRINK_THRESHOLD * target && backlog < (self.cap as usize).div_ceil(2);
        if pressed {
            self.cap = (self.cap.saturating_mul(2)).min(self.max_cap);
        } else if relaxed && self.cap > self.base_cap {
            self.cap = (self.cap / 2).max(self.base_cap);
        }
    }

    /// Re-anchors the controller on a freshly tuned batch cap (after a
    /// drift-triggered configuration switch).
    pub fn rebase(&mut self, base_cap: u32) {
        assert!(base_cap >= 1, "batch cap must be >= 1");
        self.base_cap = base_cap;
        self.max_cap = self.max_cap.max(base_cap);
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
        let mut b = AdaptiveBatcher::new(4, 64);
        for _ in 0..10 {
            b.observe(Seconds::new(0.9), 100, &slo());
        }
        assert_eq!(b.cap(), 64, "sustained pressure must saturate the cap");
    }

    #[test]
    fn calm_traffic_relaxes_back_to_the_tuned_cap() {
        let mut b = AdaptiveBatcher::new(4, 64);
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
        let mut b = AdaptiveBatcher::new(8, 64).pinned();
        for _ in 0..10 {
            b.observe(Seconds::new(10.0), 1000, &slo());
        }
        assert_eq!(b.cap(), 8);
    }

    #[test]
    fn backlog_alone_triggers_growth() {
        let mut b = AdaptiveBatcher::new(2, 32);
        b.observe(Seconds::new(0.01), 50, &slo());
        assert_eq!(b.cap(), 4, "a deep queue must grow the cap");
    }

    #[test]
    fn rebase_moves_the_resting_point() {
        let mut b = AdaptiveBatcher::new(2, 64);
        b.rebase(16);
        assert_eq!(b.cap(), 16);
        for _ in 0..20 {
            b.observe(Seconds::new(0.01), 0, &slo());
        }
        assert_eq!(b.cap(), 16, "relaxation floors at the new base");
    }

    #[test]
    fn max_cap_never_below_base() {
        let mut b = AdaptiveBatcher::new(32, 8);
        b.observe(Seconds::new(0.9), 100, &slo());
        assert_eq!(b.cap(), 32, "pressure cannot push the cap below its base");
    }

    #[test]
    #[should_panic(expected = "SLO target must be positive")]
    fn zero_slo_rejected() {
        let _ = SloPolicy::new(Seconds::ZERO);
    }
}
