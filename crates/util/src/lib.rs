//! Shared foundations for the EdgeTune reproduction.
//!
//! This crate provides the small, dependency-light building blocks every
//! other crate in the workspace leans on:
//!
//! * [`units`] — newtypes for physical quantities ([`Seconds`], [`Joules`],
//!   [`Watts`], …) so that latency/energy arithmetic is type-checked,
//! * [`stats`] — descriptive statistics (mean, percentiles, box-plot
//!   summaries) used when reporting experiment results,
//! * [`rng`] — deterministic, hierarchically-derivable random number
//!   generation so every experiment in the repository is reproducible,
//! * [`fs`] — the one atomic (`.tmp` sibling + rename) file write every
//!   persisted artefact goes through,
//! * [`error`] — the common [`Error`] type returned across the workspace.
//!
//! # Examples
//!
//! ```
//! use edgetune_util::units::{Joules, Seconds, Watts};
//!
//! let t = Seconds::new(2.0);
//! let p = Watts::new(5.0);
//! let e: Joules = p * t;
//! assert_eq!(e, Joules::new(10.0));
//! ```

pub mod error;
pub mod fs;
pub mod rng;
pub mod stats;
pub mod units;

pub use error::{Error, Result};
pub use units::{Hertz, ItemsPerSecond, Joules, JoulesPerItem, Seconds, Watts};
