//! The shard side of a sharded study: the plan a rung is cut into and
//! the narrowed engine that measures one slice of it.
//!
//! Every rung of every bracket is partitioned into contiguous
//! [`ShardPlan`]s; each plan is executed by an [`EngineShard`] — a
//! narrowed engine instance owning its own backend snapshot and a clock
//! forked from the study clock — under the rung executor
//! ([`ShardFabric`](crate::fabric::ShardFabric)), which decides where
//! the shard's slice is actually measured. The measurements flow back
//! in plan order and are replayed through the *same* sequential
//! accounting path an unsharded run uses. Shards hold no history of
//! their own: the evaluator's one trial log is the study's history,
//! so the report — and every checkpoint — is byte-identical for any
//! shard count and needs no split or merge.
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

use edgetune_runtime::SharedClock;
use edgetune_tuner::budget::TrialBudget;
use edgetune_tuner::space::Config;
use edgetune_util::units::Seconds;

use crate::backend::{TrainingBackend, TrialMeasurement};

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

/// A narrowed engine instance: measures an assigned slice of a rung on
/// its own backend snapshot, advancing a clock forked from the study
/// clock so the shard keeps a local simulated timeline.
pub struct EngineShard {
    plan: ShardPlan,
    backend: Box<dyn TrainingBackend + Send>,
    clock: SharedClock,
}

impl std::fmt::Debug for EngineShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineShard")
            .field("plan", &self.plan)
            .field("clock", &self.clock)
            .finish_non_exhaustive()
    }
}

impl EngineShard {
    /// Creates a shard from its plan, a backend snapshot, and a clock
    /// forked from the study clock.
    #[must_use]
    pub fn new(
        plan: ShardPlan,
        backend: Box<dyn TrainingBackend + Send>,
        clock: SharedClock,
    ) -> Self {
        EngineShard {
            plan,
            backend,
            clock,
        }
    }

    /// The shard's assignment.
    #[must_use]
    pub fn plan(&self) -> ShardPlan {
        self.plan
    }

    /// Measures a slice of trials in order on the shard's snapshot,
    /// advancing the shard-local clock past each measurement. By the
    /// snapshot contract
    /// ([`TrainingBackend::parallel_snapshot`]) every measurement is
    /// exactly what the primary backend would have produced.
    pub fn measure(&mut self, trials: &[(u64, Config, TrialBudget)]) -> Vec<TrialMeasurement> {
        trials
            .iter()
            .map(|(_, config, budget)| {
                let measurement = self.backend.run_trial(config, *budget);
                self.clock.advance(measurement.runtime);
                measurement
            })
            .collect()
    }

    /// Simulated time the shard's local clock has reached.
    #[must_use]
    pub fn elapsed(&self) -> Seconds {
        self.clock.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimTrainingBackend;
    use edgetune_runtime::SimClock;
    use edgetune_util::rng::SeedStream;
    use edgetune_workloads::catalog::{Workload, WorkloadId};

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

    #[test]
    fn shard_clocks_fork_from_the_study_clock() {
        let plan = ShardPlan {
            shard: 0,
            start: 0,
            len: 1,
        };
        let backend = SimTrainingBackend::new(Workload::by_id(WorkloadId::Ic), SeedStream::new(5));
        let snapshot = backend.parallel_snapshot().unwrap();
        let shard = EngineShard::new(
            plan,
            snapshot,
            SharedClock::from_clock(SimClock::at(Seconds::new(100.0))),
        );
        assert_eq!(shard.plan(), plan);
        assert_eq!(shard.elapsed(), Seconds::new(100.0));
    }
}
