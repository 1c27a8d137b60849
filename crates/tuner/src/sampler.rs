//! Configuration samplers: grid, random, and TPE (the Bayesian model
//! inside BOHB).
//!
//! §4.2 of the paper contrasts three search strategies (Fig. 10): grid
//! search exhaustively enumerates, random search draws uniformly, and
//! BOHB's model-based sampler concentrates trials on the most promising
//! region. The model here is a Tree-structured Parzen Estimator: observed
//! configurations are split into a *good* and a *bad* set by score
//! quantile, per-dimension kernel densities `l(x)` / `g(x)` are fitted to
//! each, and candidates maximising `l(x)/g(x)` are suggested.

use std::collections::HashMap;

use edgetune_util::rng::SeedStream;
use rand::rngs::StdRng;
use rand::Rng;

use crate::space::{Config, Domain, SearchSpace};
use crate::trial::TrialOutcome;

/// A strategy for proposing the next configuration to evaluate.
pub trait Sampler: std::fmt::Debug + Send {
    /// Proposes a configuration given `(config, score)` observations so
    /// far (lower score = better).
    fn suggest(&mut self, space: &SearchSpace, observations: &[(&Config, f64)]) -> Config;

    /// Proposes `n` configurations against one unchanging observation
    /// set — a scheduler's rung-0 cohort or failure refill. Must equal
    /// `n` successive [`Sampler::suggest`] calls (same configurations,
    /// same RNG stream position afterwards), which is the default;
    /// model-based samplers override it to fit their model once.
    fn suggest_cohort(
        &mut self,
        space: &SearchSpace,
        observations: &[(&Config, f64)],
        n: usize,
    ) -> Vec<Config> {
        (0..n).map(|_| self.suggest(space, observations)).collect()
    }

    /// Notifies the sampler of a completed trial. The default is a no-op;
    /// samplers that model more than the scalar score (e.g. the
    /// multi-objective TPE in [`crate::pareto`]) override this to see the
    /// full [`TrialOutcome`] — including its objective vector — instead
    /// of just the `(config, score)` pairs `suggest` receives.
    fn observe(&mut self, _config: &Config, _outcome: &TrialOutcome) {}

    /// Short strategy name ("grid", "random", "tpe").
    fn name(&self) -> &'static str;
}

// ---------------------------------------------------------------------------
// Warm start
// ---------------------------------------------------------------------------

/// Wraps any sampler and replays a fixed list of *seed* configurations
/// before delegating — the transfer-learning half of a warm start: a
/// service that has already tuned a similar architecture hands the new
/// study the configurations that won there, so the first cohort starts
/// from proven ground instead of cold random draws.
///
/// Seeds outside the search space are clamped dimension-by-dimension;
/// seeds missing a dimension fall back to the inner sampler for that
/// suggestion entirely (a transferred config from a different space
/// shape must not produce a half-random hybrid).
#[derive(Debug)]
pub struct WarmStartSampler {
    seeds: std::collections::VecDeque<Config>,
    inner: Box<dyn Sampler>,
}

impl WarmStartSampler {
    /// Wraps `inner`, replaying `seeds` in order first.
    #[must_use]
    pub fn new(seeds: Vec<Config>, inner: Box<dyn Sampler>) -> Self {
        WarmStartSampler {
            seeds: seeds.into(),
            inner,
        }
    }

    /// Seed configurations not yet replayed.
    #[must_use]
    pub fn seeds_remaining(&self) -> usize {
        self.seeds.len()
    }

    /// Pops the next replayable seed, clamped into `space`; seeds from a
    /// different space shape are discarded on the way.
    fn next_seed(&mut self, space: &SearchSpace) -> Option<Config> {
        while let Some(seed) = self.seeds.pop_front() {
            let mut clamped = Config::new();
            let mut complete = true;
            for (name, domain) in space.iter() {
                match seed.get(name) {
                    Some(value) => clamped.set(name, domain.clamp(value)),
                    None => {
                        complete = false;
                        break;
                    }
                }
            }
            if complete {
                return Some(clamped);
            }
        }
        None
    }
}

impl Sampler for WarmStartSampler {
    fn suggest(&mut self, space: &SearchSpace, observations: &[(&Config, f64)]) -> Config {
        self.next_seed(space)
            .unwrap_or_else(|| self.inner.suggest(space, observations))
    }

    fn suggest_cohort(
        &mut self,
        space: &SearchSpace,
        observations: &[(&Config, f64)],
        n: usize,
    ) -> Vec<Config> {
        let mut cohort: Vec<Config> = std::iter::from_fn(|| self.next_seed(space))
            .take(n)
            .collect();
        let rest = n - cohort.len();
        cohort.extend(self.inner.suggest_cohort(space, observations, rest));
        cohort
    }

    fn observe(&mut self, config: &Config, outcome: &TrialOutcome) {
        self.inner.observe(config, outcome);
    }

    fn name(&self) -> &'static str {
        "warm-start"
    }
}

// ---------------------------------------------------------------------------
// Grid
// ---------------------------------------------------------------------------

/// Exhaustive grid search: enumerates the Cartesian grid once, then
/// cycles.
#[derive(Debug)]
pub struct GridSampler {
    resolution: usize,
    queue: Vec<Config>,
    cursor: usize,
}

impl GridSampler {
    /// Creates a grid sampler with per-dimension `resolution` for
    /// continuous domains (choices always enumerate exactly).
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is zero.
    #[must_use]
    pub fn new(resolution: usize) -> Self {
        assert!(resolution >= 1, "grid resolution must be >= 1");
        GridSampler {
            resolution,
            queue: Vec::new(),
            cursor: 0,
        }
    }
}

impl Sampler for GridSampler {
    fn suggest(&mut self, space: &SearchSpace, _observations: &[(&Config, f64)]) -> Config {
        if self.queue.is_empty() {
            self.queue = space.grid(self.resolution);
        }
        let config = self.queue[self.cursor % self.queue.len()].clone();
        self.cursor += 1;
        config
    }

    fn name(&self) -> &'static str {
        "grid"
    }
}

// ---------------------------------------------------------------------------
// Random
// ---------------------------------------------------------------------------

/// Uniform random search (the "variant generator" of §4.2).
#[derive(Debug)]
pub struct RandomSampler {
    rng: StdRng,
}

impl RandomSampler {
    /// Creates a seeded random sampler.
    #[must_use]
    pub fn new(seed: SeedStream) -> Self {
        RandomSampler {
            rng: seed.rng("random-sampler"),
        }
    }
}

impl Sampler for RandomSampler {
    fn suggest(&mut self, space: &SearchSpace, _observations: &[(&Config, f64)]) -> Config {
        space.sample(&mut self.rng)
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

// ---------------------------------------------------------------------------
// TPE
// ---------------------------------------------------------------------------

/// Fraction of observations assigned to the "good" set.
const GOOD_QUANTILE: f64 = 0.25;
/// Candidates drawn from `l(x)` per suggestion.
const CANDIDATES: usize = 24;
/// Observations required before the model engages (random until then).
pub(crate) const MIN_OBSERVATIONS: usize = 8;
/// Cap on observations used to fit the densities: the *first* 128 of
/// the list `suggest` receives. [`crate::trial::History::observations`]
/// orders that list highest budget first and oldest first within a
/// budget, so once 128 top-budget observations exist the model stops
/// seeing newer evidence.
const MAX_OBSERVATIONS: usize = 128;

/// Size of the "good" set among `n` ranked observations (`n` ≥ 3).
pub(crate) fn good_count(n: usize) -> usize {
    ((n as f64 * GOOD_QUANTILE).ceil() as usize).clamp(2, n - 1)
}

/// One dimension of a fitted [`ParzenModel`].
#[derive(Debug)]
struct ParzenDim<'a> {
    name: &'a str,
    domain: &'a Domain,
    /// Kernel centres of the good / bad set in working coordinates.
    good: Vec<f64>,
    bad: Vec<f64>,
    bandwidth: f64,
    /// `ln l − ln g` by snapped coordinate (`f64::to_bits`). `Choice` and
    /// `Int` domains snap candidates onto a few distinct values that a
    /// cohort revisits thousands of times; `Float` candidates never
    /// repeat, so those dimensions carry no memo.
    log_ratios: Option<HashMap<u64, f64>>,
}

/// The density-ratio model of TPE: per-dimension Parzen estimators
/// `l(x)` over a good and `g(x)` over a bad set of configurations.
/// Fitted once ([`ParzenModel::fit`], no randomness), then drawn from any
/// number of times ([`ParzenModel::draw`]). Shared by [`TpeSampler`] and
/// the multi-objective sampler in [`crate::pareto`], which differ only
/// in how they rank observations into the two sets.
#[derive(Debug)]
pub(crate) struct ParzenModel<'a> {
    dims: Vec<ParzenDim<'a>>,
}

impl<'a> ParzenModel<'a> {
    /// Fits per-dimension kernel centres and bandwidths over `space`.
    pub(crate) fn fit(space: &'a SearchSpace, good: &[&Config], bad: &[&Config]) -> Self {
        let dims = space
            .iter()
            .map(|(name, domain)| {
                let centres = |set: &[&Config]| -> Vec<f64> {
                    set.iter()
                        .filter_map(|c| c.get(name))
                        .map(|v| Self::transform(domain, v))
                        .collect()
                };
                let good = centres(good);
                let bandwidth =
                    Self::extent(domain) / (good.len().max(1) as f64).sqrt().max(1.0) * 0.6 + 1e-6;
                ParzenDim {
                    name,
                    domain,
                    bad: centres(bad),
                    good,
                    bandwidth,
                    log_ratios: (!matches!(domain, Domain::Float { .. })).then(HashMap::new),
                }
            })
            .collect();
        ParzenModel { dims }
    }

    /// Draws [`CANDIDATES`] configurations from `l(x)` and returns the
    /// one with the best `l/g` ratio.
    pub(crate) fn draw(&mut self, rng: &mut StdRng) -> Config {
        let mut best: Option<(Config, f64)> = None;
        for _ in 0..CANDIDATES {
            let mut config = Config::new();
            let mut log_ratio = 0.0;
            for ParzenDim {
                name,
                domain,
                good,
                bad,
                bandwidth,
                log_ratios,
            } in &mut self.dims
            {
                // Sample around a random good kernel.
                let coord = if good.is_empty() {
                    Self::transform(domain, domain.sample(rng))
                } else {
                    let centre = good[rng.gen_range(0..good.len())];
                    centre + edgetune_util::rng::sample_normal(rng, 0.0, *bandwidth)
                };
                let value = Self::untransform(domain, coord);
                let snapped = Self::transform(domain, value);
                let ratio = || {
                    Self::density(snapped, good, *bandwidth).ln()
                        - Self::density(snapped, bad, *bandwidth).ln()
                };
                log_ratio += match log_ratios {
                    Some(memo) => *memo.entry(snapped.to_bits()).or_insert_with(ratio),
                    None => ratio(),
                };
                config.set(*name, value);
            }
            if best.as_ref().is_none_or(|(_, r)| log_ratio > *r) {
                best = Some((config, log_ratio));
            }
        }
        best.expect("at least one candidate").0
    }

    /// Maps a value into the model's working coordinates (log space for
    /// log domains, index space for choices).
    fn transform(domain: &Domain, value: f64) -> f64 {
        match domain {
            Domain::Int { log: true, .. } | Domain::Float { log: true, .. } => {
                value.max(1e-12).ln()
            }
            Domain::Int { .. } | Domain::Float { .. } => value,
            Domain::Choice(values) => values
                .iter()
                .position(|v| v == &value)
                .map_or(0.0, |i| i as f64),
        }
    }

    /// Inverse of [`ParzenModel::transform`], snapped back into the domain.
    fn untransform(domain: &Domain, coord: f64) -> f64 {
        match domain {
            Domain::Int { log: true, .. } | Domain::Float { log: true, .. } => {
                domain.clamp(coord.exp())
            }
            Domain::Int { .. } | Domain::Float { .. } => domain.clamp(coord),
            Domain::Choice(values) => {
                let idx = (coord.round().max(0.0) as usize).min(values.len() - 1);
                values[idx]
            }
        }
    }

    /// Working-space extent of a domain (bandwidth scale).
    fn extent(domain: &Domain) -> f64 {
        match domain {
            Domain::Int { lo, hi, log } => {
                if *log {
                    (*hi as f64).ln() - (*lo as f64).max(1.0).ln()
                } else {
                    (*hi - *lo) as f64
                }
            }
            Domain::Float { lo, hi, log } => {
                if *log {
                    hi.ln() - lo.ln()
                } else {
                    hi - lo
                }
            }
            Domain::Choice(values) => values.len() as f64,
        }
        .max(1e-9)
    }

    /// Parzen density of `coord` under kernels centred at `centres`.
    fn density(coord: f64, centres: &[f64], bandwidth: f64) -> f64 {
        if centres.is_empty() {
            return 1e-12;
        }
        let norm = 1.0 / (centres.len() as f64 * bandwidth * (2.0 * std::f64::consts::PI).sqrt());
        centres
            .iter()
            .map(|&c| {
                let z = (coord - c) / bandwidth;
                norm * (-0.5 * z * z).exp()
            })
            .sum::<f64>()
            .max(1e-12)
    }
}

/// `n` suggestions from one fitted `model` — or uniform draws while the
/// sampler has too little evidence to fit one (`None`).
pub(crate) fn draw_cohort(
    mut model: Option<ParzenModel<'_>>,
    space: &SearchSpace,
    rng: &mut StdRng,
    n: usize,
) -> Vec<Config> {
    (0..n)
        .map(|_| match &mut model {
            Some(model) => model.draw(rng),
            None => space.sample(rng),
        })
        .collect()
}

/// Tree-structured Parzen Estimator sampler.
#[derive(Debug)]
pub struct TpeSampler {
    rng: StdRng,
}

impl TpeSampler {
    /// Creates a seeded TPE sampler.
    #[must_use]
    pub fn new(seed: SeedStream) -> Self {
        TpeSampler {
            rng: seed.rng("tpe-sampler"),
        }
    }

    /// Splits the finite observations by score quantile into a good and
    /// a bad set and fits the model; `None` below [`MIN_OBSERVATIONS`].
    fn fit<'a>(space: &'a SearchSpace, observations: &[(&Config, f64)]) -> Option<ParzenModel<'a>> {
        let mut sorted: Vec<&(&Config, f64)> = observations
            .iter()
            .take(MAX_OBSERVATIONS)
            .filter(|(_, s)| s.is_finite())
            .collect();
        if sorted.len() < MIN_OBSERVATIONS {
            return None;
        }
        sorted.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite scores"));
        let ranked: Vec<&Config> = sorted.into_iter().map(|(c, _)| *c).collect();
        let (good, bad) = ranked.split_at(good_count(ranked.len()));
        Some(ParzenModel::fit(space, good, bad))
    }
}

impl Sampler for TpeSampler {
    fn suggest(&mut self, space: &SearchSpace, observations: &[(&Config, f64)]) -> Config {
        self.suggest_cohort(space, observations, 1)
            .pop()
            .expect("a cohort of one")
    }

    fn suggest_cohort(
        &mut self,
        space: &SearchSpace,
        observations: &[(&Config, f64)],
        n: usize,
    ) -> Vec<Config> {
        draw_cohort(Self::fit(space, observations), space, &mut self.rng, n)
    }

    fn name(&self) -> &'static str {
        "tpe"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space_2d() -> SearchSpace {
        SearchSpace::new()
            .with("x", Domain::float(0.0, 1.0))
            .with("y", Domain::float(0.0, 1.0))
    }

    /// Runs `sampler` for `steps` sequential suggestions against `f`,
    /// returning the best score found.
    fn optimize(sampler: &mut dyn Sampler, space: &SearchSpace, steps: usize) -> f64 {
        let f = |c: &Config| {
            let x = c.get("x").unwrap();
            let y = c.get("y").unwrap();
            (x - 0.31).powi(2) + (y - 0.72).powi(2)
        };
        let mut history: Vec<(Config, f64)> = Vec::new();
        for _ in 0..steps {
            let obs: Vec<(&Config, f64)> = history.iter().map(|(c, s)| (c, *s)).collect();
            let config = sampler.suggest(space, &obs);
            let score = f(&config);
            history.push((config, score));
        }
        history
            .iter()
            .map(|(_, s)| *s)
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn grid_enumerates_whole_space_before_repeating() {
        let space = SearchSpace::new()
            .with("a", Domain::choice(vec![1.0, 2.0, 3.0]))
            .with("b", Domain::choice(vec![0.0, 1.0]));
        let mut g = GridSampler::new(10);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..6 {
            seen.insert(g.suggest(&space, &[]).key());
        }
        assert_eq!(seen.len(), 6, "first pass covers the full grid");
        let again = g.suggest(&space, &[]);
        assert!(seen.contains(&again.key()), "then cycles");
    }

    #[test]
    fn random_sampler_is_seeded_and_in_domain() {
        let space = space_2d();
        let mut a = RandomSampler::new(SeedStream::new(4));
        let mut b = RandomSampler::new(SeedStream::new(4));
        for _ in 0..20 {
            let ca = a.suggest(&space, &[]);
            let cb = b.suggest(&space, &[]);
            assert_eq!(ca, cb);
            assert!(space.validate(&ca).is_ok());
        }
    }

    #[test]
    fn tpe_falls_back_to_random_without_observations() {
        let space = space_2d();
        let mut t = TpeSampler::new(SeedStream::new(4));
        let c = t.suggest(&space, &[]);
        assert!(space.validate(&c).is_ok());
    }

    #[test]
    fn tpe_beats_random_on_a_smooth_function() {
        let space = space_2d();
        let mut tpe = TpeSampler::new(SeedStream::new(11));
        let mut random = RandomSampler::new(SeedStream::new(11));
        let tpe_best = optimize(&mut tpe, &space, 60);
        let random_best = optimize(&mut random, &space, 60);
        assert!(
            tpe_best < random_best,
            "TPE ({tpe_best}) should beat random ({random_best}) at equal trials"
        );
    }

    #[test]
    fn tpe_concentrates_near_the_optimum() {
        // After many observations the suggestions should cluster around
        // the good region — the Fig. 10 behaviour.
        let space = space_2d();
        let mut tpe = TpeSampler::new(SeedStream::new(3));
        let mut history: Vec<(Config, f64)> = Vec::new();
        for _ in 0..50 {
            let obs: Vec<(&Config, f64)> = history.iter().map(|(c, s)| (c, *s)).collect();
            let c = tpe.suggest(&space, &obs);
            let score = (c.get("x").unwrap() - 0.3).powi(2) + (c.get("y").unwrap() - 0.7).powi(2);
            history.push((c, score));
        }
        let late: Vec<&(Config, f64)> = history.iter().skip(40).collect();
        let mean_dist: f64 = late
            .iter()
            .map(|(c, _)| {
                ((c.get("x").unwrap() - 0.3).powi(2) + (c.get("y").unwrap() - 0.7).powi(2)).sqrt()
            })
            .sum::<f64>()
            / late.len() as f64;
        assert!(
            mean_dist < 0.35,
            "late suggestions should be near optimum: {mean_dist}"
        );
    }

    #[test]
    fn tpe_handles_choice_and_log_domains() {
        let space = SearchSpace::new()
            .with("layers", Domain::choice(vec![18.0, 34.0, 50.0]))
            .with("batch", Domain::int_log(32, 512));
        let mut tpe = TpeSampler::new(SeedStream::new(8));
        let mut history: Vec<(Config, f64)> = Vec::new();
        for _ in 0..30 {
            let obs: Vec<(&Config, f64)> = history.iter().map(|(c, s)| (c, *s)).collect();
            let c = tpe.suggest(&space, &obs);
            assert!(space.validate(&c).is_ok(), "suggestion {c} out of domain");
            // Prefer layers=34, batch near 128.
            let score = (c.get("layers").unwrap() - 34.0).abs()
                + (c.get("batch").unwrap().ln() - 128f64.ln()).abs();
            history.push((c, score));
        }
    }

    #[test]
    fn tpe_ignores_infinite_scores() {
        let space = space_2d();
        let mut tpe = TpeSampler::new(SeedStream::new(8));
        let configs: Vec<Config> = (0..12)
            .map(|i| {
                Config::new()
                    .with("x", f64::from(i) / 12.0)
                    .with("y", f64::from(i) / 12.0)
            })
            .collect();
        let obs: Vec<(&Config, f64)> = configs.iter().map(|c| (c, f64::INFINITY)).collect();
        // All-infinite observations must not panic; falls back to random.
        let c = tpe.suggest(&space, &obs);
        assert!(space.validate(&c).is_ok());
    }

    #[test]
    fn tpe_models_only_the_first_max_observations() {
        // Pins the documented cap: the model is fitted to the first
        // MAX_OBSERVATIONS entries of the list, so later entries — here
        // far better ones, clustered in the opposite corner — change
        // nothing. With `History::observations` ordering the list oldest
        // first within a budget, "later" means "newer".
        let space = space_2d();
        let configs: Vec<Config> = (0..MAX_OBSERVATIONS + 64)
            .map(|i| {
                let t = if i < MAX_OBSERVATIONS { 0.2 } else { 0.9 };
                Config::new()
                    .with("x", t + (i % 7) as f64 * 0.01)
                    .with("y", t + (i % 5) as f64 * 0.01)
            })
            .collect();
        let obs: Vec<(&Config, f64)> = configs
            .iter()
            .enumerate()
            .map(|(i, c)| {
                (
                    c,
                    if i < MAX_OBSERVATIONS {
                        1.0 + i as f64
                    } else {
                        0.0
                    },
                )
            })
            .collect();
        let mut capped = TpeSampler::new(SeedStream::new(5));
        let mut full = TpeSampler::new(SeedStream::new(5));
        assert_eq!(
            full.suggest_cohort(&space, &obs, 6),
            capped.suggest_cohort(&space, &obs[..MAX_OBSERVATIONS], 6)
        );
    }

    #[test]
    fn sampler_names() {
        assert_eq!(GridSampler::new(3).name(), "grid");
        assert_eq!(RandomSampler::new(SeedStream::new(1)).name(), "random");
        assert_eq!(TpeSampler::new(SeedStream::new(1)).name(), "tpe");
        assert_eq!(
            WarmStartSampler::new(vec![], Box::new(GridSampler::new(3))).name(),
            "warm-start"
        );
    }

    #[test]
    fn warm_start_replays_seeds_then_delegates() {
        let space = space_2d();
        let seeds = vec![
            Config::new().with("x", 0.1).with("y", 0.2),
            Config::new().with("x", 0.3).with("y", 0.4),
        ];
        let mut warm = WarmStartSampler::new(
            seeds.clone(),
            Box::new(RandomSampler::new(SeedStream::new(4))),
        );
        let mut cold = RandomSampler::new(SeedStream::new(4));
        assert_eq!(warm.seeds_remaining(), 2);
        assert_eq!(warm.suggest(&space, &[]), seeds[0]);
        assert_eq!(warm.suggest(&space, &[]), seeds[1]);
        assert_eq!(warm.seeds_remaining(), 0);
        // After the seeds are spent, the inner stream is untouched by the
        // warm prefix: it yields exactly what a cold sampler would.
        assert_eq!(warm.suggest(&space, &[]), cold.suggest(&space, &[]));
    }

    #[test]
    fn warm_start_clamps_out_of_domain_seeds() {
        let space = space_2d();
        let seeds = vec![Config::new().with("x", 7.0).with("y", -3.0)];
        let mut warm =
            WarmStartSampler::new(seeds, Box::new(RandomSampler::new(SeedStream::new(4))));
        let c = warm.suggest(&space, &[]);
        assert!(space.validate(&c).is_ok(), "clamped into domain: {c}");
        assert_eq!(c.get("x"), Some(1.0));
        assert_eq!(c.get("y"), Some(0.0));
    }

    #[test]
    fn warm_start_skips_seeds_from_a_different_space_shape() {
        let space = space_2d();
        // A transferred config missing a dimension must be discarded, not
        // half-filled with random values.
        let seeds = vec![
            Config::new().with("x", 0.5),
            Config::new().with("x", 0.6).with("y", 0.6),
        ];
        let mut warm =
            WarmStartSampler::new(seeds, Box::new(RandomSampler::new(SeedStream::new(4))));
        let first = warm.suggest(&space, &[]);
        assert_eq!(first, Config::new().with("x", 0.6).with("y", 0.6));
    }
}
