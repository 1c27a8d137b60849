//! Multi-fidelity schedulers: successive halving and HyperBand.
//!
//! A scheduler decides *which* configurations get *how much* budget. The
//! budget ladder itself comes from a [`BudgetPolicy`] — plugging the
//! multi-budget policy into these schedulers yields the paper's onefold
//! tuning algorithm's core loop; plugging [`crate::TpeSampler`] into
//! [`HyperBand`] yields BOHB.
//!
//! Each scheduler builds a [`Study`], a state machine the caller steps
//! (the shape of Ray Tune's `TrialScheduler`): [`Study::next_rung`] hands
//! out a rung, the caller evaluates it however it likes, and
//! [`Study::complete`] takes it back with its outcomes. Stopping early
//! is not calling again. The caller keeps the sampler and lends it.

use crate::budget::{BudgetPolicy, TrialBudget};
use crate::pareto::promotion_layers;
use crate::sampler::Sampler;
use crate::space::{Config, SearchSpace};
use crate::trial::{History, TrialOutcome, TrialRecord};

/// How a rung ranks its survivors for promotion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PromotionRule {
    /// Classic successive halving: sort by the scalar score, keep the
    /// best `1/η`.
    #[default]
    ScalarRank,
    /// Pareto mode: peel the rung's outcomes into dominance layers
    /// ([`promotion_layers`]) and promote whole fronts first — the
    /// SoftNeuro-style pruning that keeps the frontier search tractable.
    /// Within a layer (and for trials without a vector) the scalar score
    /// breaks ties, so the rule degrades to `ScalarRank` exactly when no
    /// vectors exist.
    FrontMembership,
}

/// Shared scheduler knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// Configurations sampled into the first rung.
    pub initial_configs: usize,
    /// Reduction factor η: the top `1/η` of each rung advances (§4.3).
    pub eta: f64,
    /// Highest iteration level (budget rung) to reach.
    pub max_iteration: u32,
}

impl SchedulerConfig {
    /// Creates a scheduler configuration.
    ///
    /// # Panics
    ///
    /// Panics if `initial_configs` is zero, `eta` ≤ 1, or
    /// `max_iteration` is zero.
    #[must_use]
    pub fn new(initial_configs: usize, eta: f64, max_iteration: u32) -> Self {
        assert!(initial_configs >= 1, "need at least one configuration");
        assert!(eta > 1.0, "reduction factor must exceed 1");
        assert!(max_iteration >= 1, "need at least one iteration level");
        SchedulerConfig {
            initial_configs,
            eta,
            max_iteration,
        }
    }
}

/// One rung a [`Study`] hands out: trials that share a budget level and
/// have no mutual dependencies, so the caller may evaluate them in
/// parallel (§3.1) as long as it answers in input order.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// The bracket the rung belongs to, in execution order (always 0
    /// under plain successive halving).
    pub bracket: u32,
    /// The rung's ordinal within the study, counting every bracket.
    pub index: u32,
    /// `(trial id, configuration, budget)` per trial; ids continue from
    /// the study's history length.
    pub trials: Vec<(u64, Config, TrialBudget)>,
}

/// A running search: its brackets, the open bracket's next cohort and
/// budget level, and the [`History`] of every completed trial.
#[derive(Debug, Clone)]
pub struct Study {
    space: SearchSpace,
    policy: BudgetPolicy,
    config: SchedulerConfig,
    promotion: PromotionRule,
    /// The brackets not opened yet, in execution order.
    brackets: std::vec::IntoIter<BracketSpec>,
    /// The open bracket, the budget level of its next rung, and that
    /// rung's configurations — empty between brackets.
    bracket: u32,
    iteration: u32,
    cohort: Vec<Config>,
    /// Rungs handed out so far.
    rungs: u32,
    history: History,
}

impl Study {
    fn new(
        space: SearchSpace,
        policy: BudgetPolicy,
        config: SchedulerConfig,
        promotion: PromotionRule,
        brackets: Vec<BracketSpec>,
    ) -> Self {
        Study {
            space,
            policy,
            config,
            promotion,
            brackets: brackets.into_iter(),
            bracket: 0,
            iteration: 1,
            cohort: Vec::new(),
            rungs: 0,
            history: History::new(),
        }
    }

    /// Hands out the next rung, or `None` once every bracket has run;
    /// each rung must be completed before the next is asked for.
    /// Opening a bracket samples its whole rung-0 cohort in one
    /// [`Sampler::suggest_cohort`] call: the history cannot change until
    /// the rung runs, so one observation view (and one sampler model
    /// fit) serves the whole cohort.
    pub fn next_rung(&mut self, sampler: &mut dyn Sampler) -> Option<Rung> {
        if self.cohort.is_empty() {
            let spec = self.brackets.next()?;
            self.cohort =
                sampler.suggest_cohort(&self.space, &self.history.observations(), spec.initial);
            self.bracket = spec.index;
            self.iteration = spec.start_iteration.max(1);
        }
        let level = self.iteration.min(self.config.max_iteration);
        let budget = self.policy.budget(level);
        let base_id = self.history.len() as u64;
        let trials = self
            .cohort
            .drain(..)
            .enumerate()
            .map(|(i, config)| (base_id + i as u64, config, budget))
            .collect();
        self.rungs += 1;
        Some(Rung {
            bracket: self.bracket,
            index: self.rungs - 1,
            trials,
        })
    }

    /// Takes a rung back with its outcomes, in input order: each trial
    /// is appended to the history, then shown to the sampler. Unless
    /// the bracket ends here, the best `1/η` survivors become the next
    /// rung's cohort and the budget level grows by η.
    ///
    /// # Panics
    ///
    /// Panics if an outcome is missing.
    pub fn complete(&mut self, sampler: &mut dyn Sampler, rung: Rung, outcomes: Vec<TrialOutcome>) {
        assert_eq!(
            outcomes.len(),
            rung.trials.len(),
            "every trial of the rung needs its outcome"
        );
        let base = self.history.len();
        for ((id, config, budget), outcome) in rung.trials.into_iter().zip(outcomes) {
            self.history.push(TrialRecord {
                id,
                config,
                budget,
                outcome,
            });
            let record = &self.history.records()[self.history.len() - 1];
            sampler.observe(&record.config, &record.outcome);
        }
        let records = &self.history.records()[base..];
        if records.len() <= 1 || self.iteration >= self.config.max_iteration {
            return;
        }
        // Trials the fault-tolerance layer abandoned must not poison
        // promotion: drop them from the pool, then refill the freed
        // slots with fresh samples so their budget is reallocated
        // instead of lost. With no failures this is a no-op and the
        // promotion is exactly classic successive halving.
        let keep = ((records.len() as f64 / self.config.eta).ceil() as usize).max(1);
        let mut pool: Vec<usize> = (0..records.len())
            .filter(|&i| !records[i].outcome.is_failed())
            .collect();
        let score = |i: usize| records[i].outcome.score;
        match self.promotion {
            PromotionRule::ScalarRank => {
                pool.sort_by(|&a, &b| score(a).partial_cmp(&score(b)).expect("scores are not NaN"));
            }
            PromotionRule::FrontMembership => {
                // Rank by dominance layer first (front members lead),
                // scalar score within a layer. The sort is stable, so
                // equal keys keep evaluation order — deterministic
                // whatever the worker/shard split, because rungs are
                // answered in input order.
                let outcomes: Vec<TrialOutcome> =
                    pool.iter().map(|&i| records[i].outcome).collect();
                let layers = promotion_layers(&outcomes);
                let mut order: Vec<usize> = (0..pool.len()).collect();
                order.sort_by(|&a, &b| {
                    layers[a].cmp(&layers[b]).then(
                        outcomes[a]
                            .score
                            .partial_cmp(&outcomes[b].score)
                            .expect("scores are not NaN"),
                    )
                });
                pool = order.into_iter().map(|k| pool[k]).collect();
            }
        }
        self.cohort = pool
            .into_iter()
            .take(keep)
            .map(|i| records[i].config.clone())
            .collect();
        // Short only when failures were dropped above.
        if self.cohort.len() < keep {
            let refill = keep - self.cohort.len();
            let fresh = sampler.suggest_cohort(&self.space, &self.history.observations(), refill);
            self.cohort.extend(fresh);
        }
        // The budget level grows geometrically by η between rungs, as in
        // the paper's §2.2 example (epochs 1 → 2 → 4 → 8 → 16 while the
        // cohort halves 16 → 8 → 4 → 2 → 1).
        self.iteration = ((f64::from(self.iteration) * self.config.eta).round() as u32)
            .min(self.config.max_iteration);
    }

    /// True once the last rung has been completed:
    /// [`Study::next_rung`] would return `None`.
    #[must_use]
    pub fn done(&self) -> bool {
        self.cohort.is_empty() && self.brackets.as_slice().is_empty()
    }

    /// Every completed trial, in completion order.
    #[must_use]
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Ends the study, handing its history over.
    #[must_use]
    pub fn into_history(self) -> History {
        self.history
    }

    /// Drives the study to its end with a closure, one trial at a time,
    /// and returns the history.
    pub fn run(
        mut self,
        sampler: &mut dyn Sampler,
        evaluate: &mut dyn FnMut(u64, &Config, TrialBudget) -> TrialOutcome,
    ) -> History {
        while let Some(rung) = self.next_rung(sampler) {
            let outcomes = rung
                .trials
                .iter()
                .map(|(id, config, budget)| evaluate(*id, config, *budget))
                .collect();
            self.complete(sampler, rung, outcomes);
        }
        self.history
    }
}

/// Planned `(trials, rungs)` of one bracket when no trial fails — the
/// closed form of [`Study::complete`]'s promotion arithmetic.
fn planned_bracket(spec: BracketSpec, eta: f64, max_iteration: u32) -> (u64, u64) {
    let mut n = spec.initial;
    let mut iteration = spec.start_iteration.max(1);
    let (mut trials, mut rungs) = (0, 0);
    loop {
        trials += n as u64;
        rungs += 1;
        if n <= 1 || iteration >= max_iteration {
            return (trials, rungs);
        }
        n = ((n as f64 / eta).ceil() as usize).max(1);
        iteration = ((f64::from(iteration) * eta).round() as u32).min(max_iteration);
    }
}

/// Successive halving: evaluate all configurations at the smallest
/// budget, keep the best `1/η`, grow the budget, repeat.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuccessiveHalving {
    config: SchedulerConfig,
    promotion: PromotionRule,
}

impl SuccessiveHalving {
    /// Creates a successive-halving scheduler (scalar-rank promotion).
    #[must_use]
    pub fn new(config: SchedulerConfig) -> Self {
        SuccessiveHalving {
            config,
            promotion: PromotionRule::default(),
        }
    }

    /// Sets the promotion rule (builder style).
    #[must_use]
    pub fn with_promotion(mut self, promotion: PromotionRule) -> Self {
        self.promotion = promotion;
        self
    }

    /// The one bracket: every configuration from budget level 1.
    fn bracket(&self) -> BracketSpec {
        BracketSpec {
            index: 0,
            initial: self.config.initial_configs,
            start_iteration: 1,
        }
    }

    /// A study of one successive-halving bracket.
    #[must_use]
    pub fn study(&self, space: SearchSpace, policy: BudgetPolicy) -> Study {
        Study::new(
            space,
            policy,
            self.config,
            self.promotion,
            vec![self.bracket()],
        )
    }

    /// Runs a full successive-halving tuning job and returns its history.
    pub fn run(
        &self,
        sampler: &mut dyn Sampler,
        space: &SearchSpace,
        policy: &BudgetPolicy,
        evaluate: &mut dyn FnMut(u64, &Config, TrialBudget) -> TrialOutcome,
    ) -> History {
        self.study(space.clone(), *policy).run(sampler, evaluate)
    }
}

/// One HyperBand bracket's shape: how many configurations it starts and
/// at which budget level — the unit of work a study coordinator can
/// assign, and the evidence behind per-bracket provenance stamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BracketSpec {
    /// The bracket's index in execution order (0 = most exploratory).
    pub index: u32,
    /// Configurations sampled into the bracket's first rung.
    pub initial: usize,
    /// 1-based budget level the bracket starts at.
    pub start_iteration: u32,
}

/// HyperBand: several successive-halving brackets that trade off
/// exploration (many configs, small budgets) against exploitation (few
/// configs, large budgets). With a TPE sampler this is BOHB, the paper's
/// default strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HyperBand {
    config: SchedulerConfig,
    promotion: PromotionRule,
}

impl HyperBand {
    /// Creates a HyperBand scheduler (scalar-rank promotion).
    #[must_use]
    pub fn new(config: SchedulerConfig) -> Self {
        HyperBand {
            config,
            promotion: PromotionRule::default(),
        }
    }

    /// Sets the promotion rule every bracket runs under (builder style).
    #[must_use]
    pub fn with_promotion(mut self, promotion: PromotionRule) -> Self {
        self.promotion = promotion;
        self
    }

    /// Number of brackets this configuration produces.
    #[must_use]
    pub fn brackets(&self) -> u32 {
        (f64::from(self.config.max_iteration).ln() / self.config.eta.ln()).floor() as u32 + 1
    }

    /// The brackets this configuration runs, in execution order — the
    /// study-level work breakdown a coordinator assigns from.
    #[must_use]
    pub fn bracket_specs(&self) -> Vec<BracketSpec> {
        let s_max = self.brackets() - 1;
        (0..=s_max)
            .rev()
            .map(|s| {
                // Aggressive brackets start many configs at a low budget;
                // later brackets start fewer configs higher up the ladder.
                let initial = ((self.config.initial_configs as f64
                    * self.config.eta.powi(s as i32))
                    / f64::from(s_max + 1))
                .ceil()
                .max(1.0) as usize;
                let start_iteration = (f64::from(self.config.max_iteration)
                    / self.config.eta.powi(s as i32))
                .floor()
                .max(1.0) as u32;
                BracketSpec {
                    index: s_max - s,
                    initial,
                    start_iteration,
                }
            })
            .collect()
    }

    /// A study of every bracket, in execution order.
    #[must_use]
    pub fn study(&self, space: SearchSpace, policy: BudgetPolicy) -> Study {
        Study::new(
            space,
            policy,
            self.config,
            self.promotion,
            self.bracket_specs(),
        )
    }

    /// Planned `(trials, rungs)` of the study when no trial fails — what
    /// a service admits and schedules a study by.
    #[must_use]
    pub fn planned(&self) -> (u64, u64) {
        self.bracket_specs()
            .into_iter()
            .map(|spec| planned_bracket(spec, self.config.eta, self.config.max_iteration))
            .fold((0, 0), |(trials, rungs), (t, r)| (trials + t, rungs + r))
    }

    /// Runs all brackets and returns the combined history.
    pub fn run(
        &self,
        sampler: &mut dyn Sampler,
        space: &SearchSpace,
        policy: &BudgetPolicy,
        evaluate: &mut dyn FnMut(u64, &Config, TrialBudget) -> TrialOutcome,
    ) -> History {
        self.study(space.clone(), *policy).run(sampler, evaluate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{RandomSampler, TpeSampler};
    use crate::space::Domain;
    use edgetune_util::rng::SeedStream;
    use edgetune_util::units::{Joules, Seconds};

    fn space() -> SearchSpace {
        SearchSpace::new().with("x", Domain::float(0.0, 1.0))
    }

    /// Fixed-budget search, the wasteful strategy §2.2 contrasts
    /// multi-fidelity methods against: `trials` one-trial brackets, every
    /// configuration evaluated once at budget level `iteration`.
    fn fixed_budget(trials: u32, iteration: u32, policy: BudgetPolicy) -> Study {
        let brackets = (0..trials)
            .map(|index| BracketSpec {
                index,
                initial: 1,
                start_iteration: iteration,
            })
            .collect();
        let config = SchedulerConfig::new(1, 2.0, iteration);
        Study::new(space(), policy, config, PromotionRule::default(), brackets)
    }

    /// Synthetic trial: true quality is |x − 0.42|; low budgets observe a
    /// noisy version, runtime is proportional to effective epochs.
    fn evaluator() -> impl FnMut(u64, &Config, TrialBudget) -> TrialOutcome {
        move |id, config, budget| {
            let x = config.get("x").unwrap();
            let truth = (x - 0.42).abs();
            let fidelity = (budget.effective_epochs() / 10.0).min(1.0);
            // Deterministic pseudo-noise that shrinks with budget.
            let wobble = ((id as f64 * 0.77).sin() * 0.2) * (1.0 - fidelity);
            let score = truth + wobble.abs();
            let runtime = Seconds::new(budget.effective_epochs() * 10.0);
            TrialOutcome::new(
                score,
                1.0 - truth,
                runtime,
                Joules::new(runtime.value() * 5.0),
            )
        }
    }

    /// A random sampler that records how the scheduler drives it.
    #[derive(Debug)]
    struct CountingSampler {
        inner: RandomSampler,
        observed: usize,
        singles: usize,
        /// Size of every `suggest_cohort` call, in order.
        cohorts: Vec<usize>,
    }

    impl CountingSampler {
        fn new(seed: u64) -> Self {
            CountingSampler {
                inner: RandomSampler::new(SeedStream::new(seed)),
                observed: 0,
                singles: 0,
                cohorts: Vec::new(),
            }
        }
    }

    impl Sampler for CountingSampler {
        fn suggest(&mut self, space: &SearchSpace, observations: &[(&Config, f64)]) -> Config {
            self.singles += 1;
            self.inner.suggest(space, observations)
        }
        fn suggest_cohort(
            &mut self,
            space: &SearchSpace,
            observations: &[(&Config, f64)],
            n: usize,
        ) -> Vec<Config> {
            self.cohorts.push(n);
            self.inner.suggest_cohort(space, observations, n)
        }
        fn observe(&mut self, _config: &Config, _outcome: &TrialOutcome) {
            self.observed += 1;
        }
        fn name(&self) -> &'static str {
            "counting"
        }
    }

    #[test]
    fn sha_matches_the_papers_running_example() {
        // §2.2: minimum 1 epoch, maximum 16, η = 2: "16 trials initialized
        // on the minimal budget ... 8 trials with 2 epochs, then 4 trials
        // with 4 epochs, 2 trials with 8 epochs and a final iteration
        // containing only one trial with 16 epochs."
        let sha = SuccessiveHalving::new(SchedulerConfig::new(16, 2.0, 16));
        let mut sampler = RandomSampler::new(SeedStream::new(1));
        let policy = BudgetPolicy::Epoch {
            epochs_per_iteration: 1.0,
            max_epochs: 16.0,
        };
        let mut eval = evaluator();
        let history = sha.run(&mut sampler, &space(), &policy, &mut eval);
        // 16 + 8 + 4 + 2 + 1 = 31 evaluations.
        assert_eq!(history.len(), 31);
        let at_level = |epochs: f64| {
            history
                .records()
                .iter()
                .filter(|r| (r.budget.epochs - epochs).abs() < 1e-9)
                .count()
        };
        assert_eq!(at_level(1.0), 16);
        assert_eq!(at_level(2.0), 8);
        assert_eq!(at_level(4.0), 4);
        assert_eq!(at_level(8.0), 2);
        assert_eq!(at_level(16.0), 1);
    }

    #[test]
    fn sha_promotes_good_configurations() {
        let sha = SuccessiveHalving::new(SchedulerConfig::new(16, 2.0, 4));
        let mut sampler = RandomSampler::new(SeedStream::new(2));
        let policy = BudgetPolicy::multi_default();
        let mut eval = evaluator();
        let history = sha.run(&mut sampler, &space(), &policy, &mut eval);
        // The finalist (highest budget) should be nearer the optimum than
        // the average rung-0 config.
        let max_budget = history
            .records()
            .iter()
            .map(|r| r.budget.effective_epochs())
            .fold(0.0f64, f64::max);
        let finalist = history
            .records()
            .iter()
            .filter(|r| r.budget.effective_epochs() == max_budget)
            .map(|r| (r.config.get("x").unwrap() - 0.42).abs())
            .fold(f64::INFINITY, f64::min);
        let rung0: Vec<f64> = history
            .records()
            .iter()
            .filter(|r| r.budget.effective_epochs() < max_budget)
            .map(|r| (r.config.get("x").unwrap() - 0.42).abs())
            .collect();
        let rung0_mean = rung0.iter().sum::<f64>() / rung0.len() as f64;
        assert!(
            finalist <= rung0_mean,
            "finalist ({finalist}) should beat the cohort mean ({rung0_mean})"
        );
    }

    #[test]
    fn sha_single_config_runs_once() {
        let sha = SuccessiveHalving::new(SchedulerConfig::new(1, 2.0, 5));
        let mut sampler = RandomSampler::new(SeedStream::new(3));
        let mut eval = evaluator();
        let history = sha.run(
            &mut sampler,
            &space(),
            &BudgetPolicy::epoch_default(),
            &mut eval,
        );
        assert_eq!(history.len(), 1, "a single config cannot be halved");
    }

    #[test]
    fn hyperband_runs_multiple_brackets() {
        let hb = HyperBand::new(SchedulerConfig::new(8, 2.0, 8));
        assert_eq!(hb.brackets(), 4);
        let mut sampler = RandomSampler::new(SeedStream::new(4));
        let mut eval = evaluator();
        let history = hb.run(
            &mut sampler,
            &space(),
            &BudgetPolicy::multi_default(),
            &mut eval,
        );
        assert!(
            history.len() > 8,
            "multiple brackets evaluate more than one cohort"
        );
        // The most exploratory bracket starts at iteration level 1.
        assert!(history
            .records()
            .iter()
            .any(|r| (r.budget.effective_epochs()
                - BudgetPolicy::multi_default().budget(1).effective_epochs())
            .abs()
                < 1e-9));
        assert!(history.winner().is_some());
    }

    #[test]
    fn bohb_converges_to_the_optimum_region() {
        // TPE + HyperBand = BOHB; it should end up close to x = 0.42.
        let hb = HyperBand::new(SchedulerConfig::new(12, 2.0, 8));
        let mut sampler = TpeSampler::new(SeedStream::new(5));
        let mut eval = evaluator();
        let history = hb.run(
            &mut sampler,
            &space(),
            &BudgetPolicy::multi_default(),
            &mut eval,
        );
        let best = history.winner().unwrap();
        let err = (best.config.get("x").unwrap() - 0.42).abs();
        assert!(err < 0.15, "best x should be near optimum: err={err}");
    }

    #[test]
    fn multi_budget_costs_less_than_epoch_budget_at_equal_schedule() {
        // The headline property of §4.3: the same scheduler spends less
        // trial runtime under multi-budget while still ranking configs.
        let sha = SuccessiveHalving::new(SchedulerConfig::new(16, 2.0, 16));
        let run = |policy: BudgetPolicy| {
            let mut sampler = RandomSampler::new(SeedStream::new(6));
            let mut eval = evaluator();
            let h = sha.run(&mut sampler, &space(), &policy, &mut eval);
            h.total_runtime()
        };
        let epoch_time = run(BudgetPolicy::epoch_default());
        let multi_time = run(BudgetPolicy::multi_default());
        assert!(
            multi_time.value() < epoch_time.value(),
            "multi-budget should be cheaper: {multi_time} vs {epoch_time}"
        );
    }

    #[test]
    #[should_panic(expected = "reduction factor")]
    fn scheduler_config_rejects_eta_one() {
        let _ = SchedulerConfig::new(4, 1.0, 4);
    }

    #[test]
    fn failed_trials_are_never_promoted_and_their_slots_are_refilled() {
        use crate::trial::TrialFailure;
        // Every rung-0 trial with x < 0.5 "crashes"; the scheduler must
        // promote only survivors and backfill the freed slots with fresh
        // samples instead of shrinking the bracket.
        let sha = SuccessiveHalving::new(SchedulerConfig::new(16, 2.0, 4));
        let mut sampler = RandomSampler::new(SeedStream::new(21));
        let policy = BudgetPolicy::epoch_default();
        // `epoch_default` runs 2 epochs per iteration, so rung 0 sits
        // at 2 effective epochs and the ladder climbs 2 -> 4 -> 8.
        let mut crashed: Vec<f64> = Vec::new();
        let mut eval = |_id: u64, config: &Config, budget: TrialBudget| {
            let x = config.get("x").unwrap();
            if budget.effective_epochs() <= 2.0 && x < 0.5 {
                crashed.push(x);
                return TrialOutcome::failed(
                    TrialFailure::Crash,
                    Seconds::new(5.0),
                    Joules::new(1.0),
                );
            }
            let truth = (x - 0.7).abs();
            TrialOutcome::new(truth, 1.0 - truth, Seconds::new(10.0), Joules::new(5.0))
        };
        let history = sha.run(&mut sampler, &space(), &policy, &mut eval);
        assert!(!crashed.is_empty(), "the fault pattern must fire");
        // Rung sizes are unchanged by the failures: 16 → 8 → 4.
        let at_level = |epochs: f64| {
            history
                .records()
                .iter()
                .filter(|r| (r.budget.effective_epochs() - epochs).abs() < 1e-9)
                .count()
        };
        assert_eq!(at_level(2.0), 16);
        assert_eq!(at_level(4.0), 8);
        assert_eq!(at_level(8.0), 4);
        // No failed configuration ever reached a later rung.
        for r in history.records() {
            if r.budget.effective_epochs() > 2.0 {
                assert!(
                    !r.outcome.is_failed(),
                    "failed trials only exist on rung 0 in this pattern"
                );
            }
        }
        // The study still produces a meaningful winner.
        assert!(history.winner().unwrap().outcome.score.is_finite());
    }

    #[test]
    fn a_bracket_samples_its_cohort_in_one_call() {
        // Failure-free: one cohort call per bracket (its rung 0), never a
        // per-suggestion call — so a model-based sampler fits once per
        // bracket, whatever the bracket's size.
        let hb = HyperBand::new(SchedulerConfig::new(8, 2.0, 8));
        let mut sampler = CountingSampler::new(35);
        let mut eval = evaluator();
        let policy = BudgetPolicy::multi_default();
        let _ = hb.run(&mut sampler, &space(), &policy, &mut eval);
        let initials: Vec<usize> = hb.bracket_specs().iter().map(|s| s.initial).collect();
        assert_eq!(sampler.cohorts.len() as u32, hb.brackets());
        assert_eq!(sampler.cohorts, initials);
        assert_eq!(sampler.singles, 0);
    }

    #[test]
    fn a_rungs_refill_arrives_as_one_cohort_call() {
        use crate::trial::TrialFailure;
        // Rung 0 (2 effective epochs under `epoch_default`) loses every
        // x < 0.75 trial, leaving fewer survivors than the 8 slots of
        // rung 1: the shortfall is refilled by a single cohort call and
        // the ladder keeps its 16 → 8 → 4 shape.
        let sha = SuccessiveHalving::new(SchedulerConfig::new(16, 2.0, 4));
        let mut sampler = CountingSampler::new(21);
        let mut eval = |_id: u64, config: &Config, budget: TrialBudget| {
            let x = config.get("x").unwrap();
            if budget.effective_epochs() <= 2.0 && x < 0.75 {
                return TrialOutcome::failed(
                    TrialFailure::Crash,
                    Seconds::new(5.0),
                    Joules::new(1.0),
                );
            }
            TrialOutcome::new(x, 1.0 - x, Seconds::new(10.0), Joules::new(5.0))
        };
        let policy = BudgetPolicy::epoch_default();
        let history = sha.run(&mut sampler, &space(), &policy, &mut eval);
        let sizes: Vec<usize> = [2.0, 4.0, 8.0]
            .iter()
            .map(|epochs| {
                let at = |r: &&TrialRecord| (r.budget.effective_epochs() - epochs).abs() < 1e-9;
                history.records().iter().filter(at).count()
            })
            .collect();
        assert_eq!(sizes, vec![16, 8, 4]);
        let survivors = history.records()[..16]
            .iter()
            .filter(|r| !r.outcome.is_failed())
            .count();
        assert!(
            survivors < 8,
            "the fault pattern must leave slots to refill"
        );
        assert_eq!(sampler.cohorts, vec![16, 8 - survivors]);
        assert_eq!(sampler.singles, 0);
    }

    #[test]
    fn front_membership_promotes_the_front_a_scalar_rank_would_drop() {
        use crate::pareto::ObjectiveVector;
        use crate::sampler::GridSampler;
        // Accuracy rises with x up to 0.5 then collapses to zero; cost
        // rises with x throughout. So every x > 0.5 point is strictly
        // dominated (x = 0 matches its accuracy at lower cost) while
        // x <= 0.5 is the true trade-off front. The scalar score is
        // rigged to favour x near 0.75 — deep inside the dominated half.
        let eval = |_id: u64, config: &Config, _budget: TrialBudget| {
            let x = config.get("x").unwrap();
            let accuracy = if x <= 0.5 { x } else { 0.0 };
            let cost = 1.0 + 10.0 * x;
            TrialOutcome::new(
                (x - 0.75).abs(),
                accuracy,
                Seconds::new(cost),
                Joules::new(cost),
            )
            .with_vector(ObjectiveVector::new(accuracy, cost, 1.0))
        };
        let run = |promotion: PromotionRule| {
            let sha =
                SuccessiveHalving::new(SchedulerConfig::new(8, 2.0, 2)).with_promotion(promotion);
            // Grid sampling makes the rung-0 cohort x = 0, 1/7, ..., 1.
            let mut sampler = GridSampler::new(8);
            let mut eval = eval;
            sha.run(
                &mut sampler,
                &space(),
                &BudgetPolicy::epoch_default(),
                &mut eval,
            )
        };
        let promoted = |h: &History| -> Vec<f64> {
            let rung0 = h
                .records()
                .iter()
                .map(|r| r.budget.effective_epochs())
                .fold(f64::INFINITY, f64::min);
            h.records()
                .iter()
                .filter(|r| r.budget.effective_epochs() > rung0)
                .map(|r| r.config.get("x").unwrap())
                .collect()
        };
        let scalar = promoted(&run(PromotionRule::ScalarRank));
        let front = promoted(&run(PromotionRule::FrontMembership));
        assert_eq!(scalar.len(), 4);
        assert_eq!(front.len(), 4);
        assert!(
            scalar.iter().all(|&x| x > 0.5),
            "scalar rank promotes the dominated half: {scalar:?}"
        );
        assert!(
            front.iter().all(|&x| x <= 0.5),
            "front membership promotes the Pareto front: {front:?}"
        );
    }

    #[test]
    fn front_membership_without_vectors_matches_scalar_rank() {
        // No outcome carries a vector, so the dominance layers are all
        // u32::MAX and promotion must fall back to scalar order exactly.
        let run = |promotion: PromotionRule| {
            let sha =
                SuccessiveHalving::new(SchedulerConfig::new(12, 2.0, 8)).with_promotion(promotion);
            let mut sampler = RandomSampler::new(SeedStream::new(32));
            let mut eval = evaluator();
            sha.run(
                &mut sampler,
                &space(),
                &BudgetPolicy::multi_default(),
                &mut eval,
            )
        };
        assert_eq!(
            run(PromotionRule::ScalarRank),
            run(PromotionRule::FrontMembership)
        );
    }

    #[test]
    fn scheduler_feeds_every_outcome_to_the_sampler() {
        let sha = SuccessiveHalving::new(SchedulerConfig::new(8, 2.0, 4));
        let mut sampler = CountingSampler::new(33);
        let mut eval = evaluator();
        let history = sha.run(
            &mut sampler,
            &space(),
            &BudgetPolicy::multi_default(),
            &mut eval,
        );
        assert_eq!(sampler.observed, history.len());

        let mut sampler = CountingSampler::new(34);
        let mut eval = evaluator();
        let history =
            fixed_budget(5, 2, BudgetPolicy::multi_default()).run(&mut sampler, &mut eval);
        assert_eq!(sampler.observed, history.len());
    }

    #[test]
    fn stopping_after_one_rung_keeps_its_records() {
        // Halting is not calling again: the first rung's records stay.
        let truth = |config: &Config| (config.get("x").unwrap() - 0.42).abs();
        let mut study = SuccessiveHalving::new(SchedulerConfig::new(8, 2.0, 8))
            .study(space(), BudgetPolicy::epoch_default());
        let mut sampler = RandomSampler::new(SeedStream::new(22));
        let rung = study.next_rung(&mut sampler).expect("a first rung");
        let outcomes = rung
            .trials
            .iter()
            .map(|(_, config, _)| {
                TrialOutcome::new(
                    truth(config),
                    1.0 - truth(config),
                    Seconds::new(1.0),
                    Joules::new(1.0),
                )
            })
            .collect();
        study.complete(&mut sampler, rung, outcomes);
        assert!(!study.done(), "the bracket has more rungs");
        assert_eq!(study.into_history().len(), 8, "only the first rung ran");
    }

    #[test]
    fn bracket_specs_describe_the_run_in_execution_order() {
        let hb = HyperBand::new(SchedulerConfig::new(8, 2.0, 8));
        let specs = hb.bracket_specs();
        assert_eq!(specs.len() as u32, hb.brackets());
        let indices: Vec<u32> = specs.iter().map(|s| s.index).collect();
        assert_eq!(indices, vec![0, 1, 2, 3]);
        // The first bracket is the most exploratory; budgets climb and
        // cohorts shrink with the index.
        assert_eq!(specs[0].start_iteration, 1);
        for pair in specs.windows(2) {
            assert!(pair[0].initial >= pair[1].initial);
            assert!(pair[0].start_iteration <= pair[1].start_iteration);
        }
        assert_eq!(specs.last().unwrap().start_iteration, 8);
    }

    #[test]
    fn rungs_carry_their_bracket_index() {
        // Each rung names its bracket and its ordinal in the study.
        let brackets_of = |mut study: Study, seed: u64| {
            let mut sampler = RandomSampler::new(SeedStream::new(seed));
            let mut eval = evaluator();
            let mut seen: Vec<u32> = Vec::new();
            let mut rungs = 0;
            while let Some(rung) = study.next_rung(&mut sampler) {
                assert_eq!(rung.index, rungs, "rungs are numbered across brackets");
                rungs += 1;
                if seen.last() != Some(&rung.bracket) {
                    seen.push(rung.bracket);
                }
                let outcomes = rung
                    .trials
                    .iter()
                    .map(|(id, config, budget)| eval(*id, config, *budget))
                    .collect();
                study.complete(&mut sampler, rung, outcomes);
            }
            assert!(study.done());
            seen
        };
        let config = SchedulerConfig::new(8, 2.0, 8);
        let policy = BudgetPolicy::epoch_default();
        let hb = HyperBand::new(config).study(space(), policy);
        assert_eq!(brackets_of(hb, 23), vec![0, 1, 2, 3]);
        let sha = SuccessiveHalving::new(config).study(space(), policy);
        assert_eq!(
            brackets_of(sha, 24),
            vec![0],
            "a lone SHA bracket is bracket 0"
        );
    }

    #[test]
    fn fixed_budget_evaluates_every_trial_at_the_same_level() {
        let mut sampler = RandomSampler::new(SeedStream::new(9));
        let mut eval = evaluator();
        let policy = BudgetPolicy::multi_default();
        let history = fixed_budget(12, 8, policy).run(&mut sampler, &mut eval);
        assert_eq!(history.len(), 12);
        let expected = policy.budget(8);
        for r in history.records() {
            assert_eq!(r.budget, expected);
        }
    }

    #[test]
    fn multi_fidelity_is_cheaper_than_fixed_budget_at_equal_quality() {
        // §2.2's motivation for multi-fidelity budgets: the same number
        // of explored configurations costs much less because unpromising
        // ones never see the full budget.
        let policy = BudgetPolicy::multi_default();
        let mut sha_sampler = RandomSampler::new(SeedStream::new(10));
        let mut eval1 = evaluator();
        let sha = SuccessiveHalving::new(SchedulerConfig::new(16, 2.0, 8)).run(
            &mut sha_sampler,
            &space(),
            &policy,
            &mut eval1,
        );
        let mut fixed_sampler = RandomSampler::new(SeedStream::new(10));
        let mut eval2 = evaluator();
        let fixed = fixed_budget(16, 8, policy).run(&mut fixed_sampler, &mut eval2);
        assert!(
            sha.total_runtime().value() < fixed.total_runtime().value(),
            "SHA {} should be cheaper than fixed {}",
            sha.total_runtime(),
            fixed.total_runtime()
        );
        // And the quality of the final answer is comparable.
        let sha_best = sha.winner().unwrap().outcome.accuracy;
        let fixed_best = fixed.winner().unwrap().outcome.accuracy;
        assert!(sha_best >= fixed_best - 0.1, "{sha_best} vs {fixed_best}");
    }
}
