//! Property-based tests over the sampler/space machinery: whatever the
//! space and the observed history look like, every sampler must produce
//! in-domain suggestions, and a cohort must be indistinguishable from
//! the same number of single suggestions.

use edgetune_tuner::pareto::{ObjectiveVector, ParetoTpeSampler};
use edgetune_tuner::sampler::{GridSampler, RandomSampler, Sampler, TpeSampler, WarmStartSampler};
use edgetune_tuner::space::{Config, Domain, SearchSpace};
use edgetune_tuner::trial::TrialOutcome;
use edgetune_util::rng::SeedStream;
use edgetune_util::units::{Joules, Seconds};
use proptest::prelude::*;

/// A random (but always valid) search space.
fn space_strategy() -> impl Strategy<Value = SearchSpace> {
    let int = (1i64..50, 1i64..200).prop_map(|(lo, w)| Domain::int(lo, lo + w));
    let int_log = (1i64..8, 4i64..1024).prop_map(|(lo, w)| Domain::int_log(lo, lo + w));
    let float = (-100.0f64..100.0, 0.1f64..200.0).prop_map(|(lo, w)| Domain::float(lo, lo + w));
    let float_log =
        (0.001f64..1.0, 1.5f64..1000.0).prop_map(|(lo, f)| Domain::float_log(lo, lo * f));
    let choice = prop::collection::vec(-50.0f64..50.0, 1..6).prop_map(Domain::choice);
    let domain = prop_oneof![int, int_log, float, float_log, choice];
    prop::collection::vec(domain, 1..5).prop_map(|domains| {
        let mut space = SearchSpace::new();
        for (i, d) in domains.into_iter().enumerate() {
            space = space.with(format!("p{i}"), d);
        }
        space
    })
}

/// A pseudo-score for a config: smooth, deterministic.
fn score(config: &Config) -> f64 {
    config
        .keys()
        .map(|k| config.get(k).expect("key exists").abs().sqrt())
        .sum()
}

/// How the observation set of the cohort property is bent to reach the
/// samplers' fallback branches.
#[derive(Debug, Clone, Copy)]
enum Evidence {
    /// Finite scores over complete configurations.
    Plain,
    /// Every score infinite: TPE has nothing to rank and draws uniformly.
    AllInfinite,
    /// No observed configuration carries the first dimension, so its good
    /// kernel set is empty and candidates fall back to `Domain::sample`.
    MissingFirstDim,
}

/// Every sampler kind, identically seeded and fed the same evidence —
/// call twice for a pair of twins. `observed` reaches `ParetoTpeSampler`
/// through `observe` (it ignores the scalar list); the warm-start seeds
/// include one from a different space shape, which must be skipped.
fn sampler_twins(space: &SearchSpace, seed: u64, observed: &[Config]) -> Vec<Box<dyn Sampler>> {
    let mut pareto = ParetoTpeSampler::new(SeedStream::new(seed));
    for (i, config) in observed.iter().enumerate() {
        let s = score(config);
        let vector = ObjectiveVector::new(1.0 / (1.0 + s), 1.0 + (i % 5) as f64, 1.0 + s);
        let outcome =
            TrialOutcome::new(s, 0.5, Seconds::new(1.0), Joules::new(1.0)).with_vector(vector);
        pareto.observe(config, &outcome);
    }
    let mut rng = SeedStream::new(seed).rng("warm-seeds");
    let warm_seeds = vec![
        space.sample(&mut rng),
        Config::from_iter([("elsewhere", 1.0)]),
        space.sample(&mut rng),
    ];
    vec![
        Box::new(GridSampler::new(3)),
        Box::new(RandomSampler::new(SeedStream::new(seed))),
        Box::new(TpeSampler::new(SeedStream::new(seed))),
        Box::new(WarmStartSampler::new(
            warm_seeds,
            Box::new(TpeSampler::new(SeedStream::new(seed))),
        )),
        Box::new(pareto),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_cohort_equals_as_many_single_suggestions(
        space in space_strategy(),
        seed in 0u64..10_000,
        observed in 0usize..40,
        evidence in prop_oneof![
            Just(Evidence::Plain),
            Just(Evidence::AllInfinite),
            Just(Evidence::MissingFirstDim),
        ],
        n in 0usize..7,
    ) {
        // `observed` straddles MIN_OBSERVATIONS (8), so both the uniform
        // and the model-based branch are drawn from.
        let mut rng = SeedStream::new(seed).rng("observed");
        let configs: Vec<Config> = (0..observed)
            .map(|_| {
                let full = space.sample(&mut rng);
                match evidence {
                    Evidence::MissingFirstDim => full
                        .keys()
                        .filter(|k| *k != "p0")
                        .map(|k| (k.to_string(), full.get(k).expect("key exists")))
                        .collect(),
                    _ => full,
                }
            })
            .collect();
        let obs: Vec<(&Config, f64)> = configs
            .iter()
            .map(|c| match evidence {
                Evidence::AllInfinite => (c, f64::INFINITY),
                _ => (c, score(c)),
            })
            .collect();
        let cohorts = sampler_twins(&space, seed, &configs);
        let singles = sampler_twins(&space, seed, &configs);
        for (mut cohort, mut single) in cohorts.into_iter().zip(singles) {
            let together = cohort.suggest_cohort(&space, &obs, n);
            let one_by_one: Vec<Config> =
                (0..n).map(|_| single.suggest(&space, &obs)).collect();
            prop_assert_eq!(&together, &one_by_one, "{} cohort diverged", cohort.name());
            for config in &together {
                prop_assert!(space.validate(config).is_ok(), "{}: {config}", cohort.name());
            }
            // Both twins must have consumed the same randomness (and
            // warm-start seeds): their next suggestions agree too.
            prop_assert_eq!(
                cohort.suggest(&space, &obs),
                single.suggest(&space, &obs),
                "{} stream position diverged",
                cohort.name()
            );
        }
    }

    #[test]
    fn every_sampler_stays_in_domain(space in space_strategy(), seed in 0u64..10_000) {
        let mut samplers: Vec<Box<dyn Sampler>> = vec![
            Box::new(GridSampler::new(4)),
            Box::new(RandomSampler::new(SeedStream::new(seed))),
            Box::new(TpeSampler::new(SeedStream::new(seed))),
        ];
        let mut history: Vec<(Config, f64)> = Vec::new();
        for round in 0..12 {
            for sampler in &mut samplers {
                let obs: Vec<(&Config, f64)> =
                    history.iter().map(|(c, s)| (c, *s)).collect();
                let suggestion = sampler.suggest(&space, &obs);
                prop_assert!(
                    space.validate(&suggestion).is_ok(),
                    "round {round}: {} produced out-of-domain {suggestion}",
                    sampler.name()
                );
                let s = score(&suggestion);
                history.push((suggestion, s));
            }
        }
    }

    #[test]
    fn grid_enumeration_is_exhaustive_and_in_domain(space in space_strategy()) {
        let grid = space.grid(3);
        prop_assert!(!grid.is_empty());
        for config in &grid {
            prop_assert!(space.validate(config).is_ok(), "{config}");
        }
        // No duplicates in the grid.
        let mut keys: Vec<String> = grid.iter().map(Config::key).collect();
        keys.sort();
        let before = keys.len();
        keys.dedup();
        prop_assert_eq!(before, keys.len(), "grid must not repeat configurations");
    }

    #[test]
    fn tpe_handles_degenerate_histories(
        space in space_strategy(),
        seed in 0u64..10_000,
        constant_score in -10.0f64..10.0,
    ) {
        // All-identical scores give the good/bad split no signal; the
        // sampler must still produce valid suggestions.
        let mut sampler = TpeSampler::new(SeedStream::new(seed));
        let mut rng = SeedStream::new(seed).rng("degenerate");
        let configs: Vec<Config> = (0..16).map(|_| space.sample(&mut rng)).collect();
        let obs: Vec<(&Config, f64)> = configs.iter().map(|c| (c, constant_score)).collect();
        let suggestion = sampler.suggest(&space, &obs);
        prop_assert!(space.validate(&suggestion).is_ok(), "{suggestion}");
    }
}
