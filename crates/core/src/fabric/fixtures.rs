//! Test fixtures shared by the fabric's unit tests: one small backend,
//! a deterministic batch of trials, and the task that ships them.

use edgetune_tuner::budget::TrialBudget;
use edgetune_tuner::space::Config;
use edgetune_util::rng::SeedStream;
use edgetune_util::units::Seconds;
use edgetune_workloads::catalog::{Workload, WorkloadId};

use crate::backend::{SimTrainingBackend, TrainingBackend, TrialMeasurement};
use crate::engine::shard::ShardPlan;
use crate::fabric::protocol::{RungKey, ShardTask, TaskTrial};

pub(crate) fn backend() -> SimTrainingBackend {
    SimTrainingBackend::new(Workload::by_id(WorkloadId::Ic), SeedStream::new(5))
}

pub(crate) fn sample_trials(n: u64) -> Vec<(u64, Config, TrialBudget)> {
    let space = backend().search_space();
    (0..n)
        .map(|id| {
            (
                id,
                space.sample(&mut SeedStream::new(6).rng(&format!("trial-{id}"))),
                TrialBudget::new(2.0, 1.0),
            )
        })
        .collect()
}

/// A first-attempt, chaos-free task measuring all of `trials` as shard 0.
pub(crate) fn task_for(
    trials: &[(u64, Config, TrialBudget)],
    now: Seconds,
    key: Option<RungKey>,
) -> ShardTask {
    ShardTask {
        attempt: 1,
        plan: ShardPlan {
            shard: 0,
            start: 0,
            len: trials.len(),
        },
        spec: backend().process_spec().expect("fault-free backend"),
        now,
        trials: trials
            .iter()
            .map(|(id, config, budget)| TaskTrial {
                id: *id,
                config: config.clone(),
                budget: *budget,
            })
            .collect(),
        chaos: None,
        key,
    }
}

/// What measuring `trials` split across `shards` must produce: each
/// plan's slice on a fresh snapshot, in plan order.
pub(crate) fn expected_measurements(
    trials: &[(u64, Config, TrialBudget)],
    shards: usize,
) -> Vec<TrialMeasurement> {
    let mut out = Vec::new();
    for plan in ShardPlan::partition(trials.len(), shards) {
        let mut snapshot = backend().parallel_snapshot().expect("fault-free backend");
        out.extend(
            plan.slice(trials)
                .iter()
                .map(|(_, config, budget)| snapshot.run_trial(config, *budget)),
        );
    }
    out
}
