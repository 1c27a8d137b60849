//! Synthetic traffic generators for the serving runtime.
//!
//! A [`TrafficProfile`] describes how single-sample inference requests
//! arrive at the deployed model over a time horizon. The profiles cover
//! the paper's two Fig. 8 patterns (Poisson multi-stream and
//! fixed-frequency server queries) plus the patterns a tuned-then-frozen
//! configuration is *not* prepared for: bursty on/off (MMPP-style) load,
//! a diurnal ramp, and a sustained rate shift — the traces the drift
//! detector exists to survive.
//!
//! All generators are deterministic in the [`SeedStream`] they are given.

use edgetune_util::rng::{sample_exponential, SeedStream};
use edgetune_util::units::Seconds;

/// A synthetic arrival pattern for single-sample inference requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficProfile {
    /// Memoryless single-sample arrivals at a constant mean rate
    /// (the Fig. 8 multi-stream scenario).
    Poisson {
        /// Mean arrival rate in requests per second.
        rate: f64,
    },
    /// Fixed-frequency queries of `samples_per_query` samples each
    /// (the Fig. 8 server scenario); each query is expanded into that
    /// many simultaneous single-sample requests.
    ServerQueries {
        /// Samples carried by each query.
        samples_per_query: u32,
        /// Inter-arrival period of queries.
        period: Seconds,
    },
    /// Two-state on/off process (an MMPP with two phases): Poisson
    /// arrivals at `on_rate` during bursts and at `off_rate` between
    /// them, with exponentially distributed phase durations.
    OnOff {
        /// Arrival rate during a burst.
        on_rate: f64,
        /// Arrival rate between bursts (may be zero).
        off_rate: f64,
        /// Mean duration of a burst.
        mean_on: Seconds,
        /// Mean duration of a quiet phase.
        mean_off: Seconds,
    },
    /// A smooth day/night ramp: the instantaneous rate follows a raised
    /// cosine from `base_rate` (at t = 0) up to `peak_rate` (at half the
    /// period) and back, sampled by Lewis–Shedler thinning.
    Diurnal {
        /// Rate at the start/end of each period.
        base_rate: f64,
        /// Rate at the middle of each period.
        peak_rate: f64,
        /// Length of one full ramp cycle.
        period: Seconds,
    },
    /// A sustained change in load: Poisson at `initial_rate` until `at`,
    /// then Poisson at `shifted_rate` — the canonical drift trace.
    RateShift {
        /// Rate the deployment was tuned for.
        initial_rate: f64,
        /// Rate after the shift.
        shifted_rate: f64,
        /// When the shift happens.
        at: Seconds,
    },
}

impl TrafficProfile {
    /// The arrival rate known at deployment time — what the initial
    /// configuration should be tuned for. For [`TrafficProfile::RateShift`]
    /// this is deliberately the *pre-shift* rate: the shift is the
    /// surprise the runtime has to absorb.
    #[must_use]
    pub fn design_rate(&self) -> f64 {
        match *self {
            TrafficProfile::Poisson { rate } => rate,
            TrafficProfile::ServerQueries {
                samples_per_query,
                period,
            } => f64::from(samples_per_query) / period.value(),
            TrafficProfile::OnOff {
                on_rate,
                off_rate,
                mean_on,
                mean_off,
            } => {
                (on_rate * mean_on.value() + off_rate * mean_off.value())
                    / (mean_on.value() + mean_off.value())
            }
            TrafficProfile::Diurnal {
                base_rate,
                peak_rate,
                ..
            } => (base_rate + peak_rate) / 2.0,
            TrafficProfile::RateShift { initial_rate, .. } => initial_rate,
        }
    }

    /// A short stable name used in serving reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            TrafficProfile::Poisson { .. } => "poisson",
            TrafficProfile::ServerQueries { .. } => "server",
            TrafficProfile::OnOff { .. } => "burst",
            TrafficProfile::Diurnal { .. } => "diurnal",
            TrafficProfile::RateShift { .. } => "shift",
        }
    }

    /// Generates the sorted arrival times (seconds from deployment) of
    /// every request in `[0, horizon)`.
    ///
    /// # Panics
    ///
    /// Panics when the profile's rates/periods are not positive (zero is
    /// allowed only for the on/off `off_rate`) or the horizon is not
    /// positive.
    #[must_use]
    pub fn generate(&self, horizon: Seconds, seed: SeedStream) -> Vec<f64> {
        let end = horizon.value();
        assert!(end > 0.0, "horizon must be positive");
        let mut rng = seed.rng("traffic");
        let mut arrivals = Vec::new();
        match *self {
            TrafficProfile::Poisson { rate } => {
                assert!(rate > 0.0, "Poisson rate must be positive");
                let mut t = sample_exponential(&mut rng, rate);
                while t < end {
                    arrivals.push(t);
                    t += sample_exponential(&mut rng, rate);
                }
            }
            TrafficProfile::ServerQueries {
                samples_per_query,
                period,
            } => {
                assert!(samples_per_query >= 1, "queries must carry samples");
                assert!(period.value() > 0.0, "period must be positive");
                let mut t = 0.0;
                while t < end {
                    for _ in 0..samples_per_query {
                        arrivals.push(t);
                    }
                    t += period.value();
                }
            }
            TrafficProfile::OnOff {
                on_rate,
                off_rate,
                mean_on,
                mean_off,
            } => {
                assert!(on_rate > 0.0, "on rate must be positive");
                assert!(off_rate >= 0.0, "off rate must be non-negative");
                assert!(
                    mean_on.value() > 0.0 && mean_off.value() > 0.0,
                    "phase durations must be positive"
                );
                let mut t = 0.0;
                let mut on = true;
                while t < end {
                    let mean_phase = if on { mean_on } else { mean_off };
                    let phase_end = t + sample_exponential(&mut rng, 1.0 / mean_phase.value());
                    let rate = if on { on_rate } else { off_rate };
                    if rate > 0.0 {
                        let mut a = t + sample_exponential(&mut rng, rate);
                        while a < phase_end.min(end) {
                            arrivals.push(a);
                            a += sample_exponential(&mut rng, rate);
                        }
                    }
                    t = phase_end;
                    on = !on;
                }
            }
            TrafficProfile::Diurnal {
                base_rate,
                peak_rate,
                period,
            } => {
                assert!(base_rate > 0.0, "base rate must be positive");
                assert!(peak_rate >= base_rate, "peak rate must be >= base rate");
                assert!(period.value() > 0.0, "period must be positive");
                // Lewis–Shedler thinning against the peak rate.
                let rate_at = |t: f64| {
                    let phase = std::f64::consts::TAU * t / period.value();
                    base_rate + (peak_rate - base_rate) * 0.5 * (1.0 - phase.cos())
                };
                let mut t = sample_exponential(&mut rng, peak_rate);
                while t < end {
                    let u: f64 = rand::Rng::gen_range(&mut rng, 0.0..1.0);
                    if u < rate_at(t) / peak_rate {
                        arrivals.push(t);
                    }
                    t += sample_exponential(&mut rng, peak_rate);
                }
            }
            TrafficProfile::RateShift {
                initial_rate,
                shifted_rate,
                at,
            } => {
                assert!(
                    initial_rate > 0.0 && shifted_rate > 0.0,
                    "rates must be positive"
                );
                assert!(
                    at.value() > 0.0 && at.value() < end,
                    "shift must fall inside the horizon"
                );
                let mut t = sample_exponential(&mut rng, initial_rate);
                while t < at.value() {
                    arrivals.push(t);
                    t += sample_exponential(&mut rng, initial_rate);
                }
                let mut t = at.value() + sample_exponential(&mut rng, shifted_rate);
                while t < end {
                    arrivals.push(t);
                    t += sample_exponential(&mut rng, shifted_rate);
                }
            }
        }
        arrivals
    }
}

impl std::fmt::Display for TrafficProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            TrafficProfile::Poisson { rate } => write!(f, "poisson({rate}/s)"),
            TrafficProfile::ServerQueries {
                samples_per_query,
                period,
            } => write!(f, "server({samples_per_query}/{period})"),
            TrafficProfile::OnOff {
                on_rate, off_rate, ..
            } => write!(f, "burst({on_rate}/s on, {off_rate}/s off)"),
            TrafficProfile::Diurnal {
                base_rate,
                peak_rate,
                ..
            } => write!(f, "diurnal({base_rate}-{peak_rate}/s)"),
            TrafficProfile::RateShift {
                initial_rate,
                shifted_rate,
                at,
            } => write!(f, "shift({initial_rate}->{shifted_rate}/s at {at})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_sorted(xs: &[f64]) -> bool {
        xs.windows(2).all(|w| w[0] <= w[1])
    }

    #[test]
    fn poisson_rate_and_determinism() {
        let p = TrafficProfile::Poisson { rate: 20.0 };
        let a = p.generate(Seconds::new(100.0), SeedStream::new(1));
        let b = p.generate(Seconds::new(100.0), SeedStream::new(1));
        assert_eq!(a, b, "same seed, same trace");
        assert!(is_sorted(&a));
        let measured = a.len() as f64 / 100.0;
        assert!(
            (measured / 20.0 - 1.0).abs() < 0.15,
            "empirical rate {measured} far from 20"
        );
        let c = p.generate(Seconds::new(100.0), SeedStream::new(2));
        assert_ne!(a, c, "different seed, different trace");
    }

    #[test]
    fn server_queries_arrive_in_groups() {
        let p = TrafficProfile::ServerQueries {
            samples_per_query: 8,
            period: Seconds::new(5.0),
        };
        let a = p.generate(Seconds::new(20.0), SeedStream::new(3));
        assert_eq!(a.len(), 4 * 8, "4 queries of 8 samples in 20 s");
        assert!(is_sorted(&a));
        assert_eq!(a[0], 0.0);
        assert_eq!(a[7], 0.0);
        assert_eq!(a[8], 5.0);
        assert!((p.design_rate() - 1.6).abs() < 1e-12);
    }

    #[test]
    fn on_off_is_burstier_than_poisson() {
        // Same mean rate, but arrivals concentrate in bursts: the
        // variance of per-second counts must exceed the Poisson variance.
        let rate = 10.0;
        let bursty = TrafficProfile::OnOff {
            on_rate: 4.0 * rate,
            off_rate: 0.0,
            mean_on: Seconds::new(5.0),
            mean_off: Seconds::new(15.0),
        };
        assert!((bursty.design_rate() - rate).abs() < 1e-9);
        let horizon = 400.0;
        let a = bursty.generate(Seconds::new(horizon), SeedStream::new(4));
        assert!(is_sorted(&a));
        let mut counts = vec![0.0f64; horizon as usize];
        let last = counts.len() - 1;
        for &t in &a {
            counts[(t as usize).min(last)] += 1.0;
        }
        let mean = counts.iter().sum::<f64>() / counts.len() as f64;
        let var = counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / counts.len() as f64;
        assert!(
            var > 2.0 * mean,
            "on/off counts must be over-dispersed: mean {mean}, var {var}"
        );
    }

    #[test]
    fn diurnal_peaks_mid_period() {
        let p = TrafficProfile::Diurnal {
            base_rate: 2.0,
            peak_rate: 40.0,
            period: Seconds::new(200.0),
        };
        let a = p.generate(Seconds::new(200.0), SeedStream::new(5));
        assert!(is_sorted(&a));
        let first_quarter = a.iter().filter(|&&t| t < 50.0).count();
        let middle = a.iter().filter(|&&t| (75.0..125.0).contains(&t)).count();
        assert!(
            middle > 2 * first_quarter,
            "mid-period must be the busy part: {first_quarter} vs {middle}"
        );
    }

    #[test]
    fn rate_shift_changes_the_empirical_rate() {
        let p = TrafficProfile::RateShift {
            initial_rate: 5.0,
            shifted_rate: 40.0,
            at: Seconds::new(100.0),
        };
        let a = p.generate(Seconds::new(200.0), SeedStream::new(6));
        assert!(is_sorted(&a));
        let before = a.iter().filter(|&&t| t < 100.0).count() as f64 / 100.0;
        let after = a.iter().filter(|&&t| t >= 100.0).count() as f64 / 100.0;
        assert!((before / 5.0 - 1.0).abs() < 0.3, "pre-shift rate {before}");
        assert!((after / 40.0 - 1.0).abs() < 0.2, "post-shift rate {after}");
        assert_eq!(p.design_rate(), 5.0, "design rate is the pre-shift rate");
    }

    #[test]
    fn traces_stay_inside_the_horizon() {
        let profiles = [
            TrafficProfile::Poisson { rate: 15.0 },
            TrafficProfile::ServerQueries {
                samples_per_query: 4,
                period: Seconds::new(3.0),
            },
            TrafficProfile::OnOff {
                on_rate: 30.0,
                off_rate: 1.0,
                mean_on: Seconds::new(4.0),
                mean_off: Seconds::new(8.0),
            },
            TrafficProfile::Diurnal {
                base_rate: 1.0,
                peak_rate: 20.0,
                period: Seconds::new(60.0),
            },
            TrafficProfile::RateShift {
                initial_rate: 5.0,
                shifted_rate: 10.0,
                at: Seconds::new(30.0),
            },
        ];
        for p in profiles {
            let a = p.generate(Seconds::new(60.0), SeedStream::new(7));
            assert!(!a.is_empty(), "{p} produced no traffic");
            assert!(a.iter().all(|&t| (0.0..60.0).contains(&t)), "{p}");
            assert!(is_sorted(&a), "{p}");
        }
    }

    #[test]
    #[should_panic(expected = "horizon must be positive")]
    fn zero_horizon_rejected() {
        let _ = TrafficProfile::Poisson { rate: 1.0 }.generate(Seconds::ZERO, SeedStream::new(1));
    }
}
