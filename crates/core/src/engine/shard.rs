//! The shard side of a sharded study: the plan a rung is cut into.
//!
//! Every rung of every bracket is partitioned into contiguous
//! [`ShardPlan`]s; a *shard* is one plan plus a backend snapshot
//! ([`parallel_snapshot`]) — nothing else, and no type of its own. The
//! rung executor
//! ([`ShardFabric`](crate::fabric::ShardFabric)) pairs the two and
//! decides where the plan's slice is actually measured: `run_trial` per
//! trial, on a thread, in a worker process or on a remote host. A
//! measurement is a function of (configuration, budget), so a shard
//! keeps no time of its own; the measurements flow back in plan order
//! and are replayed through the *same* sequential accounting path an
//! unsharded run uses, where the evaluator adds their runtimes to the
//! one study clock. Shards hold no history of their own either: the
//! evaluator's one trial log is the study's history, so the report —
//! and every checkpoint — is byte-identical for any shard count and
//! needs no split or merge.
//!
//! Shards never reach the Inference Tuning Server or its
//! `HistoricalCache`: asynchrony is accounted, not threaded — each
//! request is answered at trial start on the evaluator's thread
//! ([`InferenceEndpoint`](crate::inference::InferenceEndpoint)), in the
//! sequential replay, and its simulated cost is overlapped with the
//! trial's. An architecture is therefore swept once whatever the shard
//! count — Algorithm 1's memoisation survives sharding untouched.
//!
//! Shard execution (phase A) is deliberately *untraced*: shards only
//! precompute raw measurements on wall-clock threads, and every trace
//! event is emitted from the sequential phase-B accounting path that
//! replays them. Tracing here would key tracks to real threads and
//! break the trace's byte-identity across shard counts — the same law
//! `tests/golden_trace.rs` pins for the report.
//!
//! [`parallel_snapshot`]: crate::backend::TrainingBackend::parallel_snapshot

/// One shard's contiguous slice of a rung.
/// Serialisable because the fabric ships plans to shard workers and
/// hosts inside their tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ShardPlan {
    /// The shard's index in the partition.
    pub shard: usize,
    /// First item of the slice.
    pub start: usize,
    /// Number of items in the slice.
    pub len: usize,
}

impl ShardPlan {
    /// Partitions `len` items into at most `shards` contiguous,
    /// maximally balanced plans (slice lengths differ by at most one).
    /// Always yields at least one plan, and never an empty plan unless
    /// `len` itself is zero — extra shards simply go unused.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn partition(len: usize, shards: usize) -> Vec<ShardPlan> {
        assert!(shards >= 1, "need at least one shard");
        let effective = shards.min(len).max(1);
        let base = len / effective;
        let extra = len % effective;
        let mut plans = Vec::with_capacity(effective);
        let mut start = 0;
        for shard in 0..effective {
            let slice_len = base + usize::from(shard < extra);
            plans.push(ShardPlan {
                shard,
                start,
                len: slice_len,
            });
            start += slice_len;
        }
        plans
    }

    /// The plan's slice of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is shorter than the partitioned length.
    #[must_use]
    pub fn slice<'t, T>(&self, items: &'t [T]) -> &'t [T] {
        &items[self.start..self.start + self.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_contiguous_balanced_and_complete() {
        for (len, shards) in [(10, 4), (8, 2), (3, 5), (7, 1), (1, 3)] {
            let plans = ShardPlan::partition(len, shards);
            assert!(plans.len() <= shards);
            let mut covered = 0;
            for (i, plan) in plans.iter().enumerate() {
                assert_eq!(plan.shard, i);
                assert_eq!(plan.start, covered, "plans are contiguous");
                assert!(plan.len >= 1, "no empty plan for non-empty input");
                covered += plan.len;
            }
            assert_eq!(covered, len, "partition covers every item");
            let min = plans.iter().map(|p| p.len).min().unwrap();
            let max = plans.iter().map(|p| p.len).max().unwrap();
            assert!(max - min <= 1, "maximally balanced");
        }
    }

    #[test]
    fn partition_of_nothing_is_one_empty_plan() {
        let plans = ShardPlan::partition(0, 4);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].len, 0);
    }
}
