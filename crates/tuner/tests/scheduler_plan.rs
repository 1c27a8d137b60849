//! The closed-form study plan against the study itself: for random
//! scheduler shapes, `planned()`'s `(trials, rungs)` must equal what a
//! failure-free [`Study`] actually hands out through `next_rung()`, for
//! successive halving and HyperBand alike.

use edgetune_tuner::budget::BudgetPolicy;
use edgetune_tuner::sampler::RandomSampler;
use edgetune_tuner::scheduler::{HyperBand, SchedulerConfig, Study};
use edgetune_tuner::space::{Domain, SearchSpace};
use edgetune_tuner::trial::TrialOutcome;
use edgetune_util::rng::SeedStream;
use edgetune_util::units::{Joules, Seconds};
use proptest::prelude::*;

/// `(trials, rungs)` a study hands out when every trial succeeds.
fn driven(mut study: Study, seed: u64) -> (u64, u64) {
    let mut sampler = RandomSampler::new(SeedStream::new(seed));
    let (mut trials, mut rungs) = (0, 0);
    while let Some(rung) = study.next_rung(&mut sampler) {
        trials += rung.trials.len() as u64;
        rungs += 1;
        let outcomes = rung
            .trials
            .iter()
            .map(|(id, _, _)| {
                let score = (*id as f64 * 0.618).fract();
                TrialOutcome::new(score, 1.0 - score, Seconds::new(1.0), Joules::new(1.0))
            })
            .collect();
        study.complete(&mut sampler, rung, outcomes);
    }
    assert_eq!(study.history().len() as u64, trials);
    (trials, rungs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_plan_counts_what_the_study_hands_out(
        initial in 1usize..65,
        eta in (0usize..3).prop_map(|i| [2.0, 3.0, 4.0][i]),
        max_iteration in 1u32..82,
        seed in 0u64..1_000,
    ) {
        let space = SearchSpace::new().with("x", Domain::float(0.0, 1.0));
        let policy = BudgetPolicy::multi_default();
        let config = SchedulerConfig::new(initial, eta, max_iteration);

        let hb = HyperBand::new(config);
        prop_assert_eq!(hb.planned(), driven(hb.study(space, policy), seed));
    }
}
