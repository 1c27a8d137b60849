//! Stage one of the two-stage drift response: instant selection from a
//! pre-computed Pareto frontier of serving configurations.
//!
//! A full online re-tune answers drift with a fresh scenario study —
//! correct, but it costs trials. A study that ran in `--pareto` mode
//! already produced a frontier of mutually non-dominated configurations,
//! each pre-tuned for a different operating point; the
//! [`ConfigSelector`] holds that frontier and answers a drift event by
//! *lookup*: the cheapest pre-computed configuration whose predicted
//! capacity covers the new rate, whose predicted response meets the SLO,
//! and whose energy fits the budget. Only when no frontier point is
//! feasible does the runtime escalate to stage two — the existing
//! [`OnlineTuner`](crate::runtime::OnlineTuner) re-tune.

use std::cmp::Ordering;

use edgetune_util::units::{JoulesPerItem, Seconds};

use crate::runtime::ServingConfig;

/// One pre-computed frontier configuration together with the operating
/// envelope its tuning study predicted for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontierEntry {
    /// The deployable configuration.
    pub config: ServingConfig,
    /// Predicted sustainable throughput (items/s) — the highest arrival
    /// rate this configuration is expected to keep up with.
    pub capacity: f64,
    /// Predicted energy per served item.
    pub energy_per_item: JoulesPerItem,
}

/// An ordered set of [`FrontierEntry`] points queried at drift time.
///
/// Construction sorts into a canonical order (capacity, then energy,
/// then batch cap), so selection is a pure function of the *set* of
/// entries — insertion order never shows in a report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConfigSelector {
    entries: Vec<FrontierEntry>,
}

impl ConfigSelector {
    /// Builds a selector over `entries` (canonically sorted).
    #[must_use]
    pub fn new(mut entries: Vec<FrontierEntry>) -> Self {
        entries.sort_by(|a, b| {
            a.capacity
                .total_cmp(&b.capacity)
                .then(
                    a.energy_per_item
                        .value()
                        .total_cmp(&b.energy_per_item.value()),
                )
                .then(a.config.batch_cap.cmp(&b.config.batch_cap))
        });
        ConfigSelector { entries }
    }

    /// Number of frontier points held.
    #[must_use]
    #[allow(clippy::len_without_is_empty)] // no caller needs an `is_empty`
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The best feasible pre-computed configuration for an estimated
    /// arrival `rate` under a response `deadline` and an optional
    /// per-item `energy_budget`, or `None` when no frontier point is
    /// feasible (the caller should escalate to a full re-tune).
    ///
    /// Feasible means: predicted capacity covers the rate, predicted
    /// mean response (when the entry carries one) meets the deadline,
    /// and predicted energy fits the budget. Among feasible entries the
    /// cheapest wins — lowest energy, ties broken by lower predicted
    /// response, then smaller batch cap, then canonical order — so the
    /// answer is deterministic for a fixed frontier.
    #[must_use]
    pub fn select(
        &self,
        rate: f64,
        deadline: Seconds,
        energy_budget: Option<JoulesPerItem>,
    ) -> Option<FrontierEntry> {
        let predicted = |entry: &FrontierEntry| {
            entry
                .config
                .predicted_mean_response
                .map_or(f64::INFINITY, |r| r.value())
        };
        let mut best: Option<FrontierEntry> = None;
        for entry in &self.entries {
            if entry.capacity < rate {
                continue;
            }
            if let Some(response) = entry.config.predicted_mean_response {
                if response > deadline {
                    continue;
                }
            }
            if let Some(budget) = energy_budget {
                if entry.energy_per_item.value() > budget.value() {
                    continue;
                }
            }
            let beats = match &best {
                None => true,
                Some(incumbent) => {
                    entry
                        .energy_per_item
                        .value()
                        .total_cmp(&incumbent.energy_per_item.value())
                        .then(predicted(entry).total_cmp(&predicted(incumbent)))
                        .then(entry.config.batch_cap.cmp(&incumbent.config.batch_cap))
                        == Ordering::Less
                }
            };
            if beats {
                best = Some(*entry);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgetune_util::units::Hertz;

    fn entry(batch: u32, capacity: f64, energy: f64, response: f64) -> FrontierEntry {
        FrontierEntry {
            config: ServingConfig::new(batch, 4, Hertz::from_ghz(1.4))
                .with_tuned_rate(capacity)
                .with_prediction(Seconds::new(response)),
            capacity,
            energy_per_item: JoulesPerItem::new(energy),
        }
    }

    fn ladder() -> Vec<FrontierEntry> {
        vec![
            entry(4, 5.0, 0.2, 0.3),
            entry(16, 15.0, 0.35, 0.6),
            entry(48, 30.0, 0.5, 1.2),
        ]
    }

    #[test]
    fn selection_picks_the_cheapest_feasible_entry() {
        let selector = ConfigSelector::new(ladder());
        let light = selector.select(4.0, Seconds::new(2.0), None).unwrap();
        assert_eq!(
            light.config.batch_cap, 4,
            "light traffic takes the cheap point"
        );
        let heavy = selector.select(25.0, Seconds::new(2.0), None).unwrap();
        assert_eq!(heavy.config.batch_cap, 48, "only the big batch covers 25/s");
    }

    #[test]
    fn infeasible_rate_escalates() {
        let selector = ConfigSelector::new(ladder());
        assert!(
            selector.select(100.0, Seconds::new(2.0), None).is_none(),
            "no frontier point covers 100/s"
        );
    }

    #[test]
    fn the_deadline_filters_slow_entries() {
        let selector = ConfigSelector::new(ladder());
        assert!(
            selector.select(25.0, Seconds::new(1.0), None).is_none(),
            "the only 25/s-capable point predicts 1.2 s > 1.0 s deadline"
        );
    }

    #[test]
    fn the_energy_budget_filters_hungry_entries() {
        let selector = ConfigSelector::new(ladder());
        let capped = selector.select(10.0, Seconds::new(2.0), Some(JoulesPerItem::new(0.4)));
        assert_eq!(capped.unwrap().config.batch_cap, 16);
        assert!(
            selector
                .select(25.0, Seconds::new(2.0), Some(JoulesPerItem::new(0.4)))
                .is_none(),
            "the 25/s point costs 0.5 J/item > 0.4 budget"
        );
    }

    #[test]
    fn selection_is_insertion_order_invariant() {
        let forward = ConfigSelector::new(ladder());
        let mut reversed_entries = ladder();
        reversed_entries.reverse();
        let reversed = ConfigSelector::new(reversed_entries);
        assert_eq!(forward, reversed, "canonical sort erases insertion order");
        for rate in [2.0, 8.0, 20.0, 50.0] {
            assert_eq!(
                forward.select(rate, Seconds::new(2.0), None),
                reversed.select(rate, Seconds::new(2.0), None),
            );
        }
    }

    #[test]
    fn an_empty_selector_always_escalates() {
        let selector = ConfigSelector::default();
        assert!(selector.entries.is_empty());
        assert!(selector.select(1.0, Seconds::new(10.0), None).is_none());
    }
}
