//! The shard worker: what runs inside `edgetune __shard-worker`, and
//! the one way any fabric executor measures a task.
//!
//! `execute_task` rebuilds the backend from the task's
//! [`BackendSpec`](crate::backend::BackendSpec) once — a shard is a plan
//! plus a backend — and calls `run_trial` per trial. It heartbeats on a
//! clock: after the first trial to end [`HEARTBEAT_EVERY`] or more after
//! the task started or its last heartbeat. A slice that finishes sooner
//! answers with its result frame alone, which is its liveness signal, so
//! the supervisor's deadline must outlast one trial plus the interval.
//! The loop around it — read a task, replay it if keyed and cached,
//! measure it under `catch_unwind` otherwise, answer with a result or
//! error frame, read the next — is the shard host's `serve_tasks`; a
//! worker process runs it on its own stdin/stdout, a host session on
//! its socket.

use std::time::{Duration, Instant};

use crate::fabric::host::{serve_tasks, HostShared};
use crate::fabric::protocol::{ChaosAction, ShardHeartbeat, ShardResultMsg, ShardTask};

/// The hidden CLI subcommand that turns the binary into a shard worker.
pub const WORKER_SUBCOMMAND: &str = "__shard-worker";

/// How long an executor measures before it sends a heartbeat frame: one
/// goes out after the first trial to end at least this long after the
/// task started or after the previous heartbeat, so a healthy executor
/// is silent for at most this plus one trial. A fabric deadline must be
/// longer (`StudyRun::start` rejects one that is not).
pub const HEARTBEAT_EVERY: Duration = Duration::from_millis(100);

/// Executes a planted chaos instruction. Never returns for `Kill` and
/// `Panic`; `Hang` sleeps far past any reasonable heartbeat deadline.
fn execute_chaos(action: ChaosAction) {
    match action {
        ChaosAction::Kill => {
            // A genuine SIGKILL — no unwinding, no atexit, exactly the
            // failure mode the supervisor must contain. `abort` is the
            // fallback if no `kill` utility exists.
            let _ = std::process::Command::new("kill")
                .arg("-9")
                .arg(std::process::id().to_string())
                .status();
            std::thread::sleep(std::time::Duration::from_millis(200));
            std::process::abort();
        }
        ChaosAction::Panic => panic!("fabric chaos: injected worker panic"),
        ChaosAction::Hang => std::thread::sleep(std::time::Duration::from_secs(3600)),
    }
}

/// Measures one task's slice trial by trial, calling `heartbeat` after
/// a trial once `heartbeat_every` has passed since the task started or
/// since the last call (after every trial for `Duration::ZERO`), and
/// firing any planted chaos right after the first trial. This is the
/// one measurement discipline of every fabric link, so a rung measures
/// identically whether the task arrived over stdin or a socket.
///
/// # Errors
///
/// Propagates the first heartbeat-delivery failure (a dead pipe or
/// socket), so a detached supervisor stops the slice early.
pub(crate) fn execute_task(
    task: &ShardTask,
    heartbeat_every: Duration,
    mut heartbeat: impl FnMut(ShardHeartbeat) -> Result<(), String>,
) -> Result<ShardResultMsg, String> {
    let mut last_beat = Instant::now();
    let mut backend = task.spec.instantiate();
    let mut measurements = Vec::with_capacity(task.trials.len());
    for (index, trial) in task.trials.iter().enumerate() {
        measurements.push(backend.run_trial(&trial.config, trial.budget));
        if last_beat.elapsed() >= heartbeat_every {
            heartbeat(ShardHeartbeat {
                shard: task.plan.shard,
                completed: index + 1,
            })?;
            last_beat = Instant::now();
        }
        if index == 0 {
            if let Some(action) = task.chaos {
                execute_chaos(action);
            }
        }
    }
    if task.trials.is_empty() {
        // Chaos still fires on an empty slice, so kill tests do not
        // silently depend on the partition shape.
        if let Some(action) = task.chaos {
            execute_chaos(action);
        }
    }
    Ok(ShardResultMsg {
        shard: task.plan.shard,
        measurements,
    })
}

/// Entry point for the hidden `__shard-worker` subcommand: a worker is
/// a shard host on stdin/stdout — it runs the host's task loop with a
/// cache and counters private to the process, until its supervisor
/// closes stdin. The exit code carries no meaning: the supervisor judges
/// an attempt by the frames that arrived.
pub fn worker_main() -> ! {
    serve_tasks(
        std::io::stdin().lock(),
        &mut std::io::stdout().lock(),
        &HostShared::default(),
    );
    std::process::exit(0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::fixtures::{expected_measurements, sample_trials, task_for};
    use edgetune_util::units::Seconds;

    /// Measures `task` under `heartbeat_every`, returning the heartbeats
    /// it sent, in order, and its result.
    fn heartbeats_and_result(
        task: &ShardTask,
        heartbeat_every: Duration,
    ) -> (Vec<ShardHeartbeat>, ShardResultMsg) {
        let mut heartbeats = Vec::new();
        let result = execute_task(task, heartbeat_every, |heartbeat| {
            heartbeats.push(heartbeat);
            Ok(())
        })
        .unwrap();
        (heartbeats, result)
    }

    #[test]
    fn a_zero_interval_heartbeats_after_every_trial_then_answers() {
        let trials = sample_trials(4);
        let (heartbeats, result) =
            heartbeats_and_result(&task_for(&trials, Seconds::ZERO, None), Duration::ZERO);
        let completed: Vec<usize> = heartbeats.iter().map(|h| h.completed).collect();
        assert_eq!(completed, [1, 2, 3, 4]);
        assert!(heartbeats.iter().all(|h| h.shard == 0));
        assert_eq!(result.measurements, expected_measurements(&trials, 1));
    }

    #[test]
    fn a_slice_faster_than_the_interval_sends_no_heartbeat() {
        let trials = sample_trials(4);
        let (heartbeats, result) =
            heartbeats_and_result(&task_for(&trials, Seconds::ZERO, None), HEARTBEAT_EVERY);
        assert!(heartbeats.is_empty(), "{heartbeats:?}");
        assert_eq!(result.measurements, expected_measurements(&trials, 1));
    }

    #[test]
    fn a_failed_heartbeat_stops_the_slice() {
        let task = task_for(&sample_trials(4), Seconds::ZERO, None);
        let mut sent = 0;
        let outcome = execute_task(&task, Duration::ZERO, |_| {
            sent += 1;
            Err("broken pipe".to_string())
        });
        assert_eq!(outcome, Err("broken pipe".to_string()));
        assert_eq!(sent, 1, "the slice went on past a dead stream");
    }
}
