//! Arrival-rate drift detection.
//!
//! The serving configuration is tuned for a specific arrival rate; when
//! the live rate departs from it for long enough, the tuned batch size,
//! core count and frequency are no longer the scenario optimum and the
//! runtime should re-tune. The detector maintains a 15 s windowed
//! estimate of the arrival rate and signals drift only after 2
//! consecutive windows deviate by more than ±50 % — a sustained shift,
//! not a transient burst.

use edgetune_util::units::Seconds;

/// Length of one rate-measurement window.
const WINDOW: Seconds = Seconds::new(15.0);
/// Relative deviation from the tuned rate that flags a window (±50 %).
const THRESHOLD: f64 = 0.5;
/// Consecutive deviating windows required before drift is signalled.
const PATIENCE: u32 = 2;

/// Windowed arrival-rate estimator with sustained-deviation detection.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    tuned_rate: f64,
    window_start: f64,
    count: u64,
    consecutive: u32,
    deviating_sum: f64,
}

impl DriftDetector {
    /// Arms the detector against the rate the current configuration was
    /// tuned for.
    ///
    /// # Panics
    ///
    /// Panics if `tuned_rate` is not positive.
    #[must_use]
    pub fn new(tuned_rate: f64) -> Self {
        assert!(tuned_rate > 0.0, "tuned rate must be positive");
        DriftDetector {
            tuned_rate,
            window_start: 0.0,
            count: 0,
            consecutive: 0,
            deviating_sum: 0.0,
        }
    }

    /// The rate the detector is currently armed against.
    #[must_use]
    pub fn tuned_rate(&self) -> f64 {
        self.tuned_rate
    }

    /// Feeds one arrival (timestamps must be non-decreasing). Returns
    /// `Some(estimated_rate)` the moment sustained drift is established;
    /// the estimate is the mean rate over the deviating windows. The
    /// caller is expected to re-tune and then [`DriftDetector::rearm`].
    pub fn observe(&mut self, t: f64) -> Option<f64> {
        let w = WINDOW.value();
        let mut signal = None;
        while t >= self.window_start + w {
            let rate = self.count as f64 / w;
            self.window_start += w;
            self.count = 0;
            let deviation = (rate - self.tuned_rate).abs() / self.tuned_rate;
            if deviation > THRESHOLD {
                self.consecutive += 1;
                self.deviating_sum += rate;
                if self.consecutive >= PATIENCE {
                    let est = self.deviating_sum / f64::from(self.consecutive);
                    if est > 0.0 {
                        signal = Some(est);
                    }
                }
            } else {
                self.consecutive = 0;
                self.deviating_sum = 0.0;
            }
        }
        self.count += 1;
        signal
    }

    /// Re-arms the detector after a configuration switch: tracks the new
    /// tuned rate and restarts the windows at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `tuned_rate` is not positive.
    pub fn rearm(&mut self, tuned_rate: f64, now: f64) {
        assert!(tuned_rate > 0.0, "tuned rate must be positive");
        self.tuned_rate = tuned_rate;
        self.window_start = now;
        self.count = 0;
        self.consecutive = 0;
        self.deviating_sum = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds a constant-rate arrival train over `[from, to)`; returns the
    /// first drift signal.
    fn feed(d: &mut DriftDetector, rate: f64, from: f64, to: f64) -> Option<f64> {
        let gap = 1.0 / rate;
        let mut t = from;
        let mut signal = None;
        while t < to {
            if let Some(est) = d.observe(t) {
                signal.get_or_insert(est);
            }
            t += gap;
        }
        signal
    }

    #[test]
    fn steady_traffic_never_signals() {
        let mut d = DriftDetector::new(10.0);
        assert_eq!(feed(&mut d, 10.0, 0.0, 300.0), None);
    }

    #[test]
    fn sustained_shift_signals_with_a_usable_estimate() {
        let mut d = DriftDetector::new(10.0);
        assert_eq!(feed(&mut d, 10.0, 0.0, 90.0), None);
        let est = feed(&mut d, 40.0, 90.0, 200.0).expect("4x shift must be detected");
        assert!(
            (est / 40.0 - 1.0).abs() < 0.3,
            "estimate {est} should be near 40"
        );
    }

    #[test]
    fn a_single_deviating_window_is_forgiven() {
        let mut d = DriftDetector::new(10.0);
        assert_eq!(feed(&mut d, 10.0, 0.0, 45.0), None);
        // One 15 s burst window, then back to normal: patience 2 holds.
        assert_eq!(feed(&mut d, 40.0, 45.0, 60.0), None);
        assert_eq!(feed(&mut d, 10.0, 60.0, 150.0), None);
    }

    #[test]
    fn rearm_resets_the_reference() {
        let mut d = DriftDetector::new(10.0);
        let est = feed(&mut d, 40.0, 0.0, 100.0).expect("shift detected");
        d.rearm(est, 100.0);
        assert_eq!(
            feed(&mut d, est, 100.0, 300.0),
            None,
            "re-armed detector accepts the new rate"
        );
    }

    #[test]
    fn rate_drop_is_also_drift() {
        let mut d = DriftDetector::new(20.0);
        assert_eq!(feed(&mut d, 20.0, 0.0, 45.0), None);
        let est = feed(&mut d, 2.0, 45.0, 150.0).expect("10x drop must be detected");
        assert!(est < 5.0, "estimate {est} should be near 2");
    }
}
