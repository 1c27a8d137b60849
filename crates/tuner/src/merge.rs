//! Deterministic merging of per-shard trial histories.
//!
//! When a study is partitioned across engine shards, each shard owns a
//! slice of every rung and records its trials locally. To hand back one
//! [`History`] — and one byte-stable report — the coordinator stamps
//! every record with its simulated start time and the bracket that
//! produced it, and [`HistoryMerge`] interleaves the shard histories by
//! `(simulated start, bracket, trial id)`.
//!
//! That key reproduces the unsharded execution order exactly: within a
//! rung, list-scheduled start times are non-decreasing in trial-id
//! order (each trial takes the least-loaded slot, and loads only grow);
//! across rungs and brackets the simulated clock only advances; and
//! trial ids are globally unique, so the key is a total order. Merging
//! is therefore a pure sort — independent of how many shards there were
//! or in which order their histories arrive.
//!
//! The engine no longer calls this: its shards only measure rung slices
//! and the coordinator keeps the study's one history, so there is
//! nothing to merge. The module stays for `benchmark/`
//! (`tuner.merge.merge_ms`) and `tests/properties.rs` until a benchmark
//! change retires the metric and the module together.

use std::cmp::Ordering;

use edgetune_util::units::Seconds;

use crate::trial::{History, TrialRecord};

/// One trial record plus the provenance stamps sharding needs to put it
/// back in global order.
#[derive(Debug, Clone, PartialEq)]
pub struct StampedTrial {
    /// The recorded trial.
    pub record: TrialRecord,
    /// Simulated timestamp at which the trial started.
    pub start: Seconds,
    /// Index (in execution order) of the scheduler bracket that ran it.
    pub bracket: u32,
}

/// The trials one shard executed, in the order it executed them.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardHistory {
    /// The shard's index in the study coordinator's partition.
    pub shard: usize,
    /// The shard's stamped trial records.
    pub trials: Vec<StampedTrial>,
}

/// Deterministic interleaving of per-shard trial histories.
#[derive(Debug, Clone, Copy, Default)]
pub struct HistoryMerge;

impl HistoryMerge {
    /// Merges shard histories into one [`History`] ordered by
    /// `(simulated start, bracket, trial id)` — the unsharded execution
    /// order. The result is identical for any partition of the same
    /// trials into shards and any permutation of the `shards` argument.
    #[must_use]
    pub fn merge(shards: Vec<ShardHistory>) -> History {
        let mut stamped: Vec<StampedTrial> =
            shards.into_iter().flat_map(|shard| shard.trials).collect();
        stamped.sort_by(Self::execution_order);
        let mut history = History::new();
        history.extend(stamped.into_iter().map(|trial| trial.record));
        history
    }

    /// The total order merged histories are emitted in.
    #[must_use]
    pub fn execution_order(a: &StampedTrial, b: &StampedTrial) -> Ordering {
        a.start
            .value()
            .total_cmp(&b.start.value())
            .then_with(|| a.bracket.cmp(&b.bracket))
            .then_with(|| a.record.id.cmp(&b.record.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::TrialBudget;
    use crate::space::Config;
    use crate::trial::TrialOutcome;
    use edgetune_util::units::Joules;

    fn stamped(id: u64, start: f64, bracket: u32) -> StampedTrial {
        let outcome = TrialOutcome::new(
            id as f64,
            0.5,
            Seconds::new(10.0 + id as f64),
            Joules::new(1.0),
        );
        StampedTrial {
            record: TrialRecord {
                id,
                config: Config::new(),
                budget: TrialBudget::new(1.0, 1.0),
                outcome,
            },
            start: Seconds::new(start),
            bracket,
        }
    }

    #[test]
    fn merge_restores_global_execution_order() {
        let even = ShardHistory {
            shard: 0,
            trials: vec![stamped(0, 0.0, 0), stamped(2, 40.0, 0)],
        };
        let odd = ShardHistory {
            shard: 1,
            trials: vec![stamped(1, 20.0, 0), stamped(3, 60.0, 0)],
        };
        let merged = HistoryMerge::merge(vec![odd, even]);
        let ids: Vec<u64> = merged.records().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn ties_on_start_break_by_bracket_then_id() {
        // Parallel slots start a rung's first trials at the same instant.
        let shard = ShardHistory {
            shard: 0,
            trials: vec![stamped(5, 0.0, 1), stamped(4, 0.0, 1), stamped(2, 0.0, 0)],
        };
        let merged = HistoryMerge::merge(vec![shard]);
        let ids: Vec<u64> = merged.records().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![2, 4, 5]);
    }

    #[test]
    fn merging_no_shards_or_empty_shards_yields_an_empty_history() {
        assert!(HistoryMerge::merge(Vec::new()).records().is_empty());
        let empty = ShardHistory {
            shard: 0,
            trials: Vec::new(),
        };
        assert!(HistoryMerge::merge(vec![empty]).records().is_empty());
    }
}
