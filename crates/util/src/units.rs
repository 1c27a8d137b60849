//! Typed physical quantities.
//!
//! The EdgeTune objective functions mix runtimes, energies and throughputs
//! (§4.4 of the paper). Newtypes keep those dimensions from being confused
//! at compile time while staying `Copy` and arithmetic-friendly.
//!
//! Each unit wraps an `f64`, implements the obvious arithmetic operators
//! among compatible dimensions (e.g. `Watts * Seconds = Joules`) and
//! formats with its SI suffix.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

macro_rules! unit {
    ($(#[$meta:meta])* $name:ident, $suffix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        #[serde(transparent)]
        pub struct $name(f64);

        impl $name {
            /// Zero of this unit.
            pub const ZERO: $name = $name(0.0);

            /// Wraps a raw value.
            ///
            /// # Examples
            ///
            /// ```
            /// # use edgetune_util::units::*;
            #[doc = concat!("let v = ", stringify!($name), "::new(1.5);")]
            /// assert_eq!(v.value(), 1.5);
            /// ```
            #[must_use]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw `f64` value.
            #[must_use]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Component-wise maximum.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Component-wise minimum.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:.4} {}", self.0, $suffix)
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Ratio of two values of the same unit is dimensionless.
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }
    };
}

unit!(
    /// A duration in seconds.
    Seconds,
    "s"
);
unit!(
    /// Energy in joules.
    Joules,
    "J"
);
unit!(
    /// Power in watts.
    Watts,
    "W"
);
unit!(
    /// A frequency in hertz.
    Hertz,
    "Hz"
);
unit!(
    /// Throughput in processed items (images, samples, queries) per second.
    ItemsPerSecond,
    "items/s"
);
unit!(
    /// Energy cost per processed item.
    JoulesPerItem,
    "J/item"
);

impl Seconds {
    /// This duration expressed in minutes, the unit the paper's figures
    /// use.
    #[must_use]
    pub fn as_minutes(self) -> f64 {
        self.value() / 60.0
    }
}

impl Joules {
    /// This energy expressed in kilojoules, the unit the paper's figures
    /// use.
    #[must_use]
    pub fn as_kilojoules(self) -> f64 {
        self.value() / 1e3
    }
}

impl Hertz {
    /// Builds a frequency from gigahertz.
    #[must_use]
    pub fn from_ghz(ghz: f64) -> Self {
        Hertz::new(ghz * 1e9)
    }

    /// This frequency expressed in gigahertz.
    #[must_use]
    pub fn as_ghz(self) -> f64 {
        self.value() / 1e9
    }
}

impl Mul<Seconds> for Watts {
    type Output = Joules;
    fn mul(self, rhs: Seconds) -> Joules {
        Joules::new(self.value() * rhs.value())
    }
}

impl Mul<Watts> for Seconds {
    type Output = Joules;
    fn mul(self, rhs: Watts) -> Joules {
        rhs * self
    }
}

impl Div<Seconds> for Joules {
    type Output = Watts;
    fn div(self, rhs: Seconds) -> Watts {
        Watts::new(self.value() / rhs.value())
    }
}

impl Div<Watts> for Joules {
    type Output = Seconds;
    fn div(self, rhs: Watts) -> Seconds {
        Seconds::new(self.value() / rhs.value())
    }
}

/// Items processed over a duration yields a throughput.
///
/// # Examples
///
/// ```
/// use edgetune_util::units::{throughput, Seconds};
///
/// let thpt = throughput(100.0, Seconds::new(4.0));
/// assert_eq!(thpt.value(), 25.0);
/// ```
#[must_use]
pub fn throughput(items: f64, elapsed: Seconds) -> ItemsPerSecond {
    ItemsPerSecond::new(items / elapsed.value())
}

/// Energy spread over a number of items yields a per-item cost.
///
/// # Examples
///
/// ```
/// use edgetune_util::units::{energy_per_item, Joules};
///
/// let cost = energy_per_item(Joules::new(10.0), 4.0);
/// assert_eq!(cost.value(), 2.5);
/// ```
#[must_use]
pub fn energy_per_item(total: Joules, items: f64) -> JoulesPerItem {
    JoulesPerItem::new(total.value() / items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watts_times_seconds_is_joules() {
        let e = Watts::new(3.0) * Seconds::new(4.0);
        assert_eq!(e, Joules::new(12.0));
        let e2 = Seconds::new(4.0) * Watts::new(3.0);
        assert_eq!(e, e2);
    }

    #[test]
    fn joules_over_seconds_is_watts() {
        assert_eq!(Joules::new(12.0) / Seconds::new(4.0), Watts::new(3.0));
    }

    #[test]
    fn joules_over_watts_is_seconds() {
        assert_eq!(Joules::new(12.0) / Watts::new(3.0), Seconds::new(4.0));
    }

    #[test]
    fn same_unit_ratio_is_dimensionless() {
        let r: f64 = Seconds::new(10.0) / Seconds::new(4.0);
        assert!((r - 2.5).abs() < 1e-12);
    }

    #[test]
    fn minutes_round_trip() {
        let t = Seconds::new(150.0);
        assert!((t.as_minutes() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn kilojoules_round_trip() {
        let e = Joules::new(1500.0);
        assert!((e.as_kilojoules() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn ghz_round_trip() {
        let f = Hertz::from_ghz(2.4);
        assert!((f.as_ghz() - 2.4).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_operators() {
        let mut t = Seconds::new(1.0);
        t += Seconds::new(2.0);
        assert_eq!(t, Seconds::new(3.0));
        t -= Seconds::new(0.5);
        assert_eq!(t, Seconds::new(2.5));
        assert_eq!(-t, Seconds::new(-2.5));
        assert_eq!(t * 2.0, Seconds::new(5.0));
        assert_eq!(2.0 * t, Seconds::new(5.0));
        assert_eq!(t / 2.0, Seconds::new(1.25));
        assert_eq!(t.max(Seconds::new(9.0)), Seconds::new(9.0));
        assert_eq!(t.min(Seconds::new(1.0)), Seconds::new(1.0));
    }

    #[test]
    fn sum_of_units() {
        let total: Seconds = vec![Seconds::new(1.0), Seconds::new(2.0)].into_iter().sum();
        assert_eq!(total, Seconds::new(3.0));
    }

    #[test]
    fn display_includes_suffix() {
        assert_eq!(format!("{}", Joules::new(1.0)), "1.0000 J");
        assert_eq!(format!("{}", ItemsPerSecond::new(2.0)), "2.0000 items/s");
    }

    #[test]
    fn throughput_and_energy_per_item_helpers() {
        assert_eq!(throughput(60.0, Seconds::new(2.0)).value(), 30.0);
        assert_eq!(energy_per_item(Joules::new(9.0), 3.0).value(), 3.0);
    }

    #[test]
    fn zero_constant() {
        assert_eq!(Seconds::ZERO.value(), 0.0);
    }
}
