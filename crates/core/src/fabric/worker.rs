//! The shard worker: what runs inside `edgetune __shard-worker`, and
//! the one way any fabric executor measures a task.
//!
//! `execute_task` rebuilds the backend from the task's
//! [`BackendSpec`](crate::backend::BackendSpec) once — a shard is a plan
//! plus a backend — and calls `run_trial` per trial, heartbeating after
//! every trial.
//! The loop around it — read a task, replay it if keyed and cached,
//! measure it under `catch_unwind` otherwise, answer with a result or
//! error frame, read the next — is the shard host's `serve_tasks`; a
//! worker process runs it on its own stdin/stdout, a host session on
//! its socket.

use crate::fabric::host::{serve_tasks, HostShared};
use crate::fabric::protocol::{ChaosAction, ShardHeartbeat, ShardResultMsg, ShardTask};

/// The hidden CLI subcommand that turns the binary into a shard worker.
pub const WORKER_SUBCOMMAND: &str = "__shard-worker";

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
/// every trial and firing any planted chaos mid-slice. This is the one
/// measurement discipline of every fabric link, so a rung measures
/// identically whether the task arrived over stdin or a socket.
///
/// # Errors
///
/// Propagates the first heartbeat-delivery failure (a dead pipe or
/// socket), so a detached supervisor stops the slice early.
pub(crate) fn execute_task(
    task: &ShardTask,
    mut heartbeat: impl FnMut(ShardHeartbeat) -> Result<(), String>,
) -> Result<ShardResultMsg, String> {
    let mut backend = task.spec.instantiate();
    let mut measurements = Vec::with_capacity(task.trials.len());
    for (index, trial) in task.trials.iter().enumerate() {
        measurements.push(backend.run_trial(&trial.config, trial.budget));
        heartbeat(ShardHeartbeat {
            shard: task.plan.shard,
            completed: index + 1,
        })?;
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
