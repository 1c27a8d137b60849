//! Deterministic weighted fair scheduling at rung granularity.
//!
//! The service never runs two studies at once — concurrency comes from
//! *interleaving*: each grant lets one study execute a quantum of rungs,
//! then the scheduler picks again while the study waits, resident, for
//! its next grant.
//! Fairness is classic credit-based weighted round-robin over tenants:
//! every round, each tenant with runnable work earns its weight in
//! credits; the richest tenant (ties broken lexicographically by name)
//! is granted and pays the round's total active weight, so long-run
//! grant shares converge to the weight ratio. Within a tenant, the
//! study with the largest *remaining rung budget* runs first (ties:
//! admission order) — the "by remaining budget" half of the policy,
//! which drains long studies steadily instead of starving them behind
//! a stream of short ones.
//!
//! Everything here is integer arithmetic over the submission file's
//! contents: the same file always produces the same grant sequence.

use std::collections::BTreeMap;

/// A waiting study the scheduler can grant time to.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    /// Index into the service's study table.
    study: usize,
    /// Admission order within the tenant (earlier wins ties).
    admitted: usize,
    /// Estimated rungs left to run — the remaining budget.
    remaining: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct TenantState {
    weight: u32,
    credit: i64,
    entries: Vec<Entry>,
}

/// The service's tenant-fair, budget-aware scheduler.
#[derive(Debug, Clone, Default)]
pub struct FairScheduler {
    /// Keyed by tenant name; `BTreeMap` iteration *is* the
    /// lexicographic tie-break.
    tenants: BTreeMap<String, TenantState>,
    admitted: usize,
}

impl FairScheduler {
    /// An empty scheduler.
    #[must_use]
    pub fn new() -> Self {
        FairScheduler::default()
    }

    /// Declares a tenant with its fair-share weight. Re-declaring a
    /// tenant updates the weight but keeps its queue and credit.
    pub fn add_tenant(&mut self, name: impl Into<String>, weight: u32) {
        assert!(weight >= 1, "tenant weight must be >= 1");
        self.tenants
            .entry(name.into())
            .and_modify(|t| t.weight = weight)
            .or_insert(TenantState {
                weight,
                credit: 0,
                entries: Vec::new(),
            });
    }

    /// Enqueues a study for a declared tenant with its estimated total
    /// rung budget.
    ///
    /// # Panics
    ///
    /// Panics if the tenant was not declared.
    pub fn enqueue(&mut self, tenant: &str, study: usize, remaining_rungs: u64) {
        let state = self
            .tenants
            .get_mut(tenant)
            .unwrap_or_else(|| panic!("tenant {tenant} not declared"));
        state.entries.push(Entry {
            study,
            admitted: self.admitted,
            remaining: remaining_rungs,
        });
        self.admitted += 1;
    }

    /// Lowers a waiting study's remaining rung budget after a slice ran
    /// (saturating at 1: a study still queued always has work left).
    pub fn update_remaining(&mut self, study: usize, remaining_rungs: u64) {
        for state in self.tenants.values_mut() {
            for entry in &mut state.entries {
                if entry.study == study {
                    entry.remaining = remaining_rungs.max(1);
                }
            }
        }
    }

    /// Removes a finished (or failed) study from its queue.
    pub fn remove(&mut self, study: usize) {
        for state in self.tenants.values_mut() {
            state.entries.retain(|e| e.study != study);
        }
    }

    /// Picks the next study to run for one quantum, or `None` when
    /// idle. Each call is one WRR round: active tenants earn their
    /// weight, the richest (ties: lexicographically smallest name) is
    /// granted and pays the round's total active weight.
    pub fn grant(&mut self) -> Option<usize> {
        let active_weight: i64 = self
            .tenants
            .values()
            .filter(|t| !t.entries.is_empty())
            .map(|t| i64::from(t.weight))
            .sum();
        if active_weight == 0 {
            return None;
        }
        let mut chosen: Option<&str> = None;
        let mut best_credit = i64::MIN;
        for (name, state) in &mut self.tenants {
            if state.entries.is_empty() {
                continue;
            }
            state.credit += i64::from(state.weight);
            // Strict `>` keeps the first (lexicographically smallest)
            // tenant on ties — BTreeMap iterates in key order.
            if state.credit > best_credit {
                best_credit = state.credit;
                chosen = Some(name.as_str());
            }
        }
        let chosen = chosen?.to_string();
        let state = self.tenants.get_mut(&chosen).expect("chosen tenant exists");
        state.credit -= active_weight;
        // Within the tenant: most remaining budget first, admission
        // order on ties.
        let entry = state
            .entries
            .iter()
            .max_by(|a, b| {
                a.remaining
                    .cmp(&b.remaining)
                    .then(b.admitted.cmp(&a.admitted))
            })
            .expect("non-empty queue");
        Some(entry.study)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `n` grants, mapping each to its study index.
    fn grants(scheduler: &mut FairScheduler, n: usize) -> Vec<usize> {
        (0..n).map(|_| scheduler.grant().unwrap()).collect()
    }

    #[test]
    fn single_tenant_runs_its_longest_study_first() {
        let mut s = FairScheduler::new();
        s.add_tenant("a", 1);
        s.enqueue("a", 0, 2);
        s.enqueue("a", 1, 5);
        assert_eq!(s.grant(), Some(1), "bigger remaining budget first");
        s.update_remaining(1, 3);
        assert_eq!(s.grant(), Some(1), "still ahead");
        s.update_remaining(1, 1);
        assert_eq!(s.grant(), Some(0));
    }

    #[test]
    fn equal_weights_alternate_with_lexicographic_ties() {
        let mut s = FairScheduler::new();
        s.add_tenant("beta", 1);
        s.add_tenant("alpha", 1);
        s.enqueue("beta", 0, 4);
        s.enqueue("alpha", 1, 4);
        // Round 1: both at credit 1 → "alpha" wins the tie; it pays 2,
        // so round 2 goes to "beta", and so on, strictly alternating.
        assert_eq!(grants(&mut s, 4), vec![1, 0, 1, 0]);
    }

    #[test]
    fn weights_skew_the_grant_share() {
        let mut s = FairScheduler::new();
        s.add_tenant("heavy", 2);
        s.add_tenant("light", 1);
        s.enqueue("heavy", 0, 100);
        s.enqueue("light", 1, 100);
        let g = grants(&mut s, 30);
        let heavy = g.iter().filter(|&&x| x == 0).count();
        assert_eq!(heavy, 20, "weight 2 of 3 total → 2/3 of grants: {g:?}");
    }

    #[test]
    fn grant_sequence_is_deterministic() {
        let build = || {
            let mut s = FairScheduler::new();
            s.add_tenant("a", 2);
            s.add_tenant("b", 1);
            s.add_tenant("c", 3);
            s.enqueue("a", 0, 7);
            s.enqueue("b", 1, 9);
            s.enqueue("c", 2, 3);
            s.enqueue("a", 3, 4);
            s
        };
        let a = grants(&mut build(), 12);
        let b = grants(&mut build(), 12);
        assert_eq!(a, b);
    }

    #[test]
    fn removal_releases_the_tenants_share() {
        let mut s = FairScheduler::new();
        s.add_tenant("a", 1);
        s.add_tenant("b", 1);
        s.enqueue("a", 0, 4);
        s.enqueue("b", 1, 4);
        let _ = s.grant();
        s.remove(0);
        assert_eq!(grants(&mut s, 3), vec![1, 1, 1], "b inherits every round");
        s.remove(1);
        assert_eq!(s.grant(), None, "no study is runnable");
    }

    #[test]
    fn a_tenant_idle_while_others_run_does_not_hoard_credit() {
        let mut s = FairScheduler::new();
        s.add_tenant("a", 1);
        s.add_tenant("b", 1);
        s.enqueue("a", 0, 100);
        let _ = grants(&mut s, 10);
        // b arrives late; idle rounds earned it nothing, so it does not
        // monopolise the scheduler to "catch up".
        s.enqueue("b", 1, 100);
        let g = grants(&mut s, 10);
        let b_share = g.iter().filter(|&&x| x == 1).count();
        assert_eq!(b_share, 5, "late arrival still gets its fair half: {g:?}");
    }

    #[test]
    fn admission_order_breaks_equal_budgets() {
        let mut s = FairScheduler::new();
        s.add_tenant("a", 1);
        s.enqueue("a", 7, 4);
        s.enqueue("a", 3, 4);
        assert_eq!(s.grant(), Some(7), "earlier admission wins the tie");
    }
}
