//! Search spaces and configurations.
//!
//! A [`SearchSpace`] maps parameter names to [`Domain`]s; a [`Config`] is
//! one concrete assignment. All values are `f64` (integers and categorical
//! choices are represented exactly — every supported value fits a double),
//! which keeps the sampler machinery uniform across parameter kinds.

use std::collections::BTreeMap;
use std::fmt;

use edgetune_util::{Error, Result};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The domain of one tunable parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum Domain {
    /// An integer range `lo..=hi`; `log` samples uniformly in log space
    /// (e.g. batch sizes).
    Int {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
        /// Sample in log space.
        log: bool,
    },
    /// A continuous range `lo..=hi`; `log` samples uniformly in log space
    /// (e.g. learning rates).
    Float {
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
        /// Sample in log space.
        log: bool,
    },
    /// An explicit finite set of values (e.g. ResNet depths {18,34,50}).
    Choice(Vec<f64>),
}

impl Domain {
    /// An integer range domain.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[must_use]
    pub fn int(lo: i64, hi: i64) -> Self {
        assert!(lo <= hi, "empty int domain {lo}..={hi}");
        Domain::Int { lo, hi, log: false }
    }

    /// A log-scaled integer range domain (both bounds must be positive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `lo <= 0`.
    #[must_use]
    pub fn int_log(lo: i64, hi: i64) -> Self {
        assert!(lo <= hi, "empty int domain {lo}..={hi}");
        assert!(lo > 0, "log domain requires positive bounds");
        Domain::Int { lo, hi, log: true }
    }

    /// A continuous domain.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is non-finite.
    #[must_use]
    pub fn float(lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "bad float domain {lo}..={hi}"
        );
        Domain::Float { lo, hi, log: false }
    }

    /// A log-scaled continuous domain (both bounds must be positive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `lo <= 0`.
    #[must_use]
    pub fn float_log(lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "bad float domain {lo}..={hi}"
        );
        assert!(lo > 0.0, "log domain requires positive bounds");
        Domain::Float { lo, hi, log: true }
    }

    /// A categorical domain over explicit values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains a non-finite value.
    #[must_use]
    pub fn choice(values: impl Into<Vec<f64>>) -> Self {
        let values = values.into();
        assert!(!values.is_empty(), "choice domain must not be empty");
        assert!(
            values.iter().all(|v| v.is_finite()),
            "choice values must be finite"
        );
        Domain::Choice(values)
    }

    /// Whether `value` lies inside the domain.
    #[must_use]
    pub fn contains(&self, value: f64) -> bool {
        match self {
            Domain::Int { lo, hi, .. } => {
                value.fract() == 0.0 && value >= *lo as f64 && value <= *hi as f64
            }
            Domain::Float { lo, hi, .. } => value >= *lo && value <= *hi,
            Domain::Choice(values) => values.iter().any(|v| v == &value),
        }
    }

    /// Draws a uniform sample (in linear or log space as configured).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match self {
            Domain::Int { lo, hi, log } => {
                if *log {
                    let x = rng.gen_range((*lo as f64).ln()..=(*hi as f64).ln());
                    x.exp().round().clamp(*lo as f64, *hi as f64)
                } else {
                    rng.gen_range(*lo..=*hi) as f64
                }
            }
            Domain::Float { lo, hi, log } => {
                if *log {
                    // exp(ln(x)) can land one ULP outside the domain.
                    rng.gen_range(lo.ln()..=hi.ln()).exp().clamp(*lo, *hi)
                } else if lo == hi {
                    *lo
                } else {
                    rng.gen_range(*lo..*hi)
                }
            }
            Domain::Choice(values) => values[rng.gen_range(0..values.len())],
        }
    }

    /// A finite grid over the domain with at most `resolution` points
    /// (choices enumerate exactly; ranges are evenly spaced, in log space
    /// when configured).
    #[must_use]
    pub fn grid(&self, resolution: usize) -> Vec<f64> {
        let resolution = resolution.max(1);
        match self {
            Domain::Choice(values) => values.clone(),
            Domain::Int { lo, hi, log } => {
                let count = ((hi - lo + 1) as usize).min(resolution);
                let points = spaced(*lo as f64, *hi as f64, count, *log);
                let mut ints: Vec<f64> = points.into_iter().map(f64::round).collect();
                ints.dedup();
                ints
            }
            Domain::Float { lo, hi, log } => spaced(*lo, *hi, resolution, *log)
                .into_iter()
                // Log-space interpolation can land one ULP outside.
                .map(|p| p.clamp(*lo, *hi))
                .collect(),
        }
    }

    /// Clamps/snaps an arbitrary value back into the domain (nearest
    /// choice for categorical domains).
    #[must_use]
    pub fn clamp(&self, value: f64) -> f64 {
        match self {
            Domain::Int { lo, hi, .. } => value.round().clamp(*lo as f64, *hi as f64),
            Domain::Float { lo, hi, .. } => value.clamp(*lo, *hi),
            Domain::Choice(values) => *values
                .iter()
                .min_by(|a, b| {
                    (*a - value)
                        .abs()
                        .partial_cmp(&(*b - value).abs())
                        .expect("finite by construction")
                })
                .expect("non-empty by construction"),
        }
    }
}

fn spaced(lo: f64, hi: f64, count: usize, log: bool) -> Vec<f64> {
    if count == 1 || lo == hi {
        return vec![(lo + hi) / 2.0];
    }
    (0..count)
        .map(|i| {
            let t = i as f64 / (count - 1) as f64;
            if log {
                (lo.ln() + t * (hi.ln() - lo.ln())).exp()
            } else {
                lo + t * (hi - lo)
            }
        })
        .collect()
}

/// A named collection of parameter domains.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SearchSpace {
    params: Vec<(String, Domain)>,
}

impl SearchSpace {
    /// An empty space.
    #[must_use]
    pub fn new() -> Self {
        SearchSpace::default()
    }

    /// Adds a parameter (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the name is already present.
    #[must_use]
    pub fn with(mut self, name: impl Into<String>, domain: Domain) -> Self {
        let name = name.into();
        assert!(
            !self.params.iter().any(|(n, _)| n == &name),
            "duplicate parameter '{name}'"
        );
        self.params.push((name, domain));
        self
    }

    /// True when the space has no parameters.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Iterates `(name, domain)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Domain)> {
        self.params.iter().map(|(n, d)| (n.as_str(), d))
    }

    /// Looks a domain up by name.
    #[must_use]
    pub fn domain(&self, name: &str) -> Option<&Domain> {
        self.params.iter().find(|(n, _)| n == name).map(|(_, d)| d)
    }

    /// Draws a uniform random configuration.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Config {
        let mut config = Config::new();
        for (name, domain) in &self.params {
            config.set(name, domain.sample(rng));
        }
        config
    }

    /// Full Cartesian grid with per-dimension `resolution`.
    #[must_use]
    pub fn grid(&self, resolution: usize) -> Vec<Config> {
        let mut configs = vec![Config::new()];
        for (name, domain) in &self.params {
            let values = domain.grid(resolution);
            let mut next = Vec::with_capacity(configs.len() * values.len());
            for config in &configs {
                for &v in &values {
                    let mut c = config.clone();
                    c.set(name, v);
                    next.push(c);
                }
            }
            configs = next;
        }
        configs
    }

    /// Validates that `config` assigns an in-domain value to every
    /// parameter (extraneous keys are rejected too).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] describing the first violation.
    pub fn validate(&self, config: &Config) -> Result<()> {
        for (name, domain) in &self.params {
            let value = config
                .get(name)
                .ok_or_else(|| Error::invalid_config(format!("missing parameter '{name}'")))?;
            if !domain.contains(value) {
                return Err(Error::invalid_config(format!(
                    "value {value} outside domain of '{name}'"
                )));
            }
        }
        for key in config.keys() {
            if self.domain(key).is_none() {
                return Err(Error::invalid_config(format!("unknown parameter '{key}'")));
            }
        }
        Ok(())
    }
}

/// One concrete parameter assignment.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Config {
    values: BTreeMap<String, f64>,
}

impl Config {
    /// An empty configuration.
    #[must_use]
    pub fn new() -> Self {
        Config::default()
    }

    /// Sets a parameter value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Reads a parameter value.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Parameter names in sorted order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }

    /// A canonical string key (sorted `name=value` pairs) for caching and
    /// deduplication.
    #[must_use]
    pub fn key(&self) -> String {
        let parts: Vec<String> = self
            .values
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        parts.join(",")
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}}}", self.key())
    }
}

impl<K: Into<String>> FromIterator<(K, f64)> for Config {
    fn from_iter<T: IntoIterator<Item = (K, f64)>>(iter: T) -> Self {
        Config {
            values: iter.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgetune_util::rng::SeedStream;

    fn rng() -> rand::rngs::StdRng {
        SeedStream::new(9).rng("space")
    }

    #[test]
    fn int_domain_samples_in_range() {
        let d = Domain::int(1, 8);
        let mut r = rng();
        for _ in 0..200 {
            let v = d.sample(&mut r);
            assert!(d.contains(v), "{v}");
            assert_eq!(v.fract(), 0.0);
        }
    }

    #[test]
    fn log_int_domain_prefers_small_values() {
        let d = Domain::int_log(1, 1024);
        let mut r = rng();
        let below_32 = (0..2000).filter(|_| d.sample(&mut r) <= 32.0).count();
        assert!(
            below_32 > 800,
            "log sampling should favour small values: {below_32}/2000"
        );
    }

    #[test]
    fn float_log_domain_in_range() {
        let d = Domain::float_log(1e-4, 1.0);
        let mut r = rng();
        for _ in 0..100 {
            let v = d.sample(&mut r);
            assert!((1e-4..=1.0).contains(&v));
        }
    }

    #[test]
    fn choice_domain_membership() {
        let d = Domain::choice(vec![18.0, 34.0, 50.0]);
        assert!(d.contains(34.0));
        assert!(!d.contains(33.0));
        let mut r = rng();
        for _ in 0..50 {
            assert!(d.contains(d.sample(&mut r)));
        }
    }

    #[test]
    fn grids_enumerate_and_space() {
        assert_eq!(Domain::choice(vec![1.0, 2.0]).grid(10), vec![1.0, 2.0]);
        let g = Domain::int(1, 4).grid(10);
        assert_eq!(g, vec![1.0, 2.0, 3.0, 4.0]);
        let f = Domain::float(0.0, 1.0).grid(3);
        assert_eq!(f, vec![0.0, 0.5, 1.0]);
        let lg = Domain::float_log(1.0, 100.0).grid(3);
        assert!((lg[1] - 10.0).abs() < 1e-9, "{lg:?}");
    }

    #[test]
    fn clamp_snaps_to_domain() {
        assert_eq!(Domain::int(1, 8).clamp(99.0), 8.0);
        assert_eq!(Domain::int(1, 8).clamp(3.4), 3.0);
        assert_eq!(Domain::float(0.0, 1.0).clamp(-2.0), 0.0);
        assert_eq!(Domain::choice(vec![18.0, 34.0, 50.0]).clamp(30.0), 34.0);
    }

    #[test]
    fn space_sampling_and_validation() {
        let space = SearchSpace::new()
            .with("layers", Domain::choice(vec![18.0, 34.0, 50.0]))
            .with("batch", Domain::int_log(32, 512));
        let mut r = rng();
        let c = space.sample(&mut r);
        assert!(space.validate(&c).is_ok());
        let bad = Config::from_iter([("layers", 18.0), ("batch", 7.0)]);
        assert!(space.validate(&bad).is_err());
        let missing = Config::from_iter([("layers", 18.0)]);
        assert!(space.validate(&missing).is_err());
        let mut extra = c.clone();
        extra.set("bogus", 1.0);
        assert!(space.validate(&extra).is_err());
    }

    #[test]
    fn cartesian_grid_size() {
        let space = SearchSpace::new()
            .with("a", Domain::choice(vec![1.0, 2.0, 3.0]))
            .with("b", Domain::choice(vec![10.0, 20.0]));
        let grid = space.grid(10);
        assert_eq!(grid.len(), 6);
        // All combinations distinct.
        let mut keys: Vec<String> = grid.iter().map(Config::key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 6);
    }

    #[test]
    fn config_key_is_canonical() {
        let a = Config::from_iter([("b", 2.0), ("a", 1.0)]);
        let b = Config::from_iter([("a", 1.0), ("b", 2.0)]);
        assert_eq!(a.key(), b.key());
        assert_eq!(a.key(), "a=1,b=2");
        assert_eq!(a.to_string(), "{a=1,b=2}");
    }

    #[test]
    #[should_panic(expected = "duplicate parameter")]
    fn duplicate_parameter_rejected() {
        let _ = SearchSpace::new()
            .with("a", Domain::int(0, 1))
            .with("a", Domain::int(0, 1));
    }

    #[test]
    #[should_panic(expected = "empty int domain")]
    fn empty_domain_rejected() {
        let _ = Domain::int(5, 1);
    }
}
