//! Descriptive statistics used when reporting experiment results.
//!
//! Figure 15 of the paper reports percent error as a box-and-whiskers plot;
//! [`BoxPlot`] computes the same five-number summary (plus outliers) from a
//! sample; [`quantiles`] provides the other figures' percentiles.

use serde::{Deserialize, Serialize};

/// Linear-interpolated quantiles of a sample, one per entry of the
/// ascending `qs`: quantile `q` lies at position `q · (n − 1)` of the
/// sorted sample, between its two neighbouring order statistics.
///
/// Selects in place instead of sorting: each quantile's lower order
/// statistic is selected in what is left of the slice above the previous
/// one, and its upper interpolation neighbour is the minimum of the part
/// above that. The slice is left reordered. `-0.0` and `0.0` compare
/// equal, so which of the two is returned where both occur is
/// unspecified. Returns `None` when the sample is empty.
///
/// # Panics
///
/// Panics if a `q` is outside `[0, 1]`, `qs` is not ascending, or any
/// sample is NaN (a single sample is returned as it is).
#[must_use]
pub fn quantiles<const N: usize>(samples: &mut [f64], qs: [f64; N]) -> Option<[f64; N]> {
    for q in qs {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0,1], got {q}"
        );
    }
    assert!(
        qs.windows(2).all(|w| w[0] <= w[1]),
        "quantiles must be ascending, got {qs:?}"
    );
    if samples.is_empty() {
        return None;
    }
    let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("NaN in percentile input");
    let last = (samples.len() - 1) as f64;
    // `samples[..start]` holds the `start` smallest samples, each order
    // statistic already selected sits at its sorted index.
    let mut start = 0;
    Some(qs.map(|q| {
        let pos = q * last;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo >= start {
            samples[start..].select_nth_unstable_by(lo - start, cmp);
            start = lo + 1;
        }
        if lo == hi {
            samples[lo]
        } else {
            let upper = samples[start..]
                .iter()
                .copied()
                .min_by(cmp)
                .expect("an upper neighbour exists");
            let frac = pos - lo as f64;
            samples[lo] * (1.0 - frac) + upper * frac
        }
    }))
}

/// Percent error between an empirical and an estimated value, following
/// the definition in §5.3 of the paper:
/// `PE = |empirical − estimated| / empirical × 100`.
///
/// # Panics
///
/// Panics if `empirical` is zero.
#[must_use]
pub fn percent_error(empirical: f64, estimated: f64) -> f64 {
    assert!(empirical != 0.0, "empirical value must be non-zero");
    ((empirical - estimated).abs() / empirical.abs()) * 100.0
}

/// Five-number summary with Tukey outliers, mirroring the paper's
/// box-and-whiskers plots (Fig. 15).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoxPlot {
    /// First quartile (25th percentile).
    pub q1: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// Third quartile (75th percentile).
    pub q3: f64,
    /// Lowest sample within `q1 − 1.5·IQR`.
    pub whisker_low: f64,
    /// Highest sample within `q3 + 1.5·IQR`.
    pub whisker_high: f64,
    /// Samples outside the whiskers.
    pub outliers: Vec<f64>,
}

impl BoxPlot {
    /// Computes the box plot of a non-empty sample; `None` when empty.
    #[must_use]
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let [q1, median, q3] = quantiles(&mut samples.to_vec(), [0.25, 0.5, 0.75])?;
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        let mut whisker_low = f64::INFINITY;
        let mut whisker_high = f64::NEG_INFINITY;
        let mut outliers = Vec::new();
        for &s in samples {
            if s < lo_fence || s > hi_fence {
                outliers.push(s);
            } else {
                whisker_low = whisker_low.min(s);
                whisker_high = whisker_high.max(s);
            }
        }
        outliers.sort_by(|a, b| a.partial_cmp(b).expect("NaN in boxplot input"));
        Some(BoxPlot {
            q1,
            median,
            q3,
            whisker_low,
            whisker_high,
            outliers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_yields_none() {
        assert!(BoxPlot::of(&[]).is_none());
    }

    #[test]
    fn percentiles_interpolate() {
        let mut xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantiles(&mut xs, [0.0]), Some([1.0]));
        assert_eq!(quantiles(&mut xs, [1.0]), Some([4.0]));
        assert_eq!(quantiles(&mut xs, [0.5]), Some([2.5]));
    }

    #[test]
    fn percentile_is_order_invariant() {
        let mut a = [3.0, 1.0, 2.0];
        let mut b = [1.0, 2.0, 3.0];
        assert_eq!(quantiles(&mut a, [0.5]), quantiles(&mut b, [0.5]));
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0,1]")]
    fn percentile_rejects_bad_quantile() {
        let _ = quantiles(&mut [1.0], [1.5]);
    }

    #[test]
    fn quantiles_select_in_place() {
        let mut xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantiles(&mut xs, [0.0, 0.5, 1.0]), Some([1.0, 2.5, 4.0]));
        assert_eq!(quantiles(&mut [], [0.5]), None);
    }

    #[test]
    #[should_panic(expected = "quantiles must be ascending")]
    fn quantiles_reject_descending_qs() {
        let _ = quantiles(&mut [1.0, 2.0], [0.9, 0.1]);
    }

    #[test]
    fn percent_error_matches_paper_definition() {
        assert!((percent_error(10.0, 8.0) - 20.0).abs() < 1e-12);
        assert!((percent_error(10.0, 12.0) - 20.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn percent_error_rejects_zero_empirical() {
        let _ = percent_error(0.0, 1.0);
    }

    #[test]
    fn boxplot_identifies_outliers() {
        let mut xs: Vec<f64> = (1..=11).map(f64::from).collect();
        xs.push(100.0); // clear outlier
        let bp = BoxPlot::of(&xs).unwrap();
        assert_eq!(bp.outliers, vec![100.0]);
        assert!(bp.whisker_high <= 11.0);
        assert!(bp.q1 < bp.median && bp.median < bp.q3);
        assert!(bp.q3 - bp.q1 > 0.0);
    }

    #[test]
    fn boxplot_of_constant_sample() {
        let bp = BoxPlot::of(&[5.0; 10]).unwrap();
        assert_eq!(bp.median, 5.0);
        assert_eq!(bp.q3 - bp.q1, 0.0);
        assert!(bp.outliers.is_empty());
        assert_eq!(bp.whisker_low, 5.0);
        assert_eq!(bp.whisker_high, 5.0);
    }
}
