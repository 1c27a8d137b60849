//! End-to-end invariants of the process shard fabric.
//!
//! Every test drives the same study twice — once with in-process shard
//! threads, once with supervised worker processes self-exec'd from the
//! real `edgetune` binary — and demands byte-identical report and trace
//! JSON. The chaos variants plant worker faults (SIGKILL, panic, hang)
//! or remove the worker executable entirely, and *still* demand
//! identical bytes: crash containment is only containment if the study
//! cannot tell anything happened. Clean or not, a study that returns
//! has reaped every worker it started.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use edgetune::config::ShardExec;
use edgetune::fabric::{ChaosAction, FabricChaos, FabricPolicy, HEARTBEAT_EVERY};
use edgetune::prelude::*;
use edgetune_util::units::Seconds;
use edgetune_util::Error;

/// The real CLI binary, which dispatches the hidden `__shard-worker`
/// subcommand. The test harness binary does not, so the policy must
/// point at the CLI explicitly.
fn worker_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_edgetune"))
}

fn process_policy() -> FabricPolicy {
    FabricPolicy {
        worker_exe: Some(worker_exe()),
        ..FabricPolicy::default()
    }
}

fn study(shards: usize) -> EdgeTuneConfig {
    EdgeTuneConfig::for_workload(WorkloadId::Ic)
        .with_scheduler(SchedulerConfig::new(4, 2.0, 4))
        .with_study_shards(shards)
        .with_seed(11)
}

/// [`study`] with its shards measured in worker processes under `policy`.
fn process_study(shards: usize, policy: FabricPolicy) -> EdgeTuneConfig {
    let mut config = study(shards).with_shard_exec(ShardExec::Process);
    config.fabric = policy;
    config
}

/// One study at a time in this test process, so the child-process
/// check in [`run`] sees only the workers of the study it follows.
static ONE_STUDY: Mutex<()> = Mutex::new(());

/// Runs a study and returns its byte-stability surface: the report JSON
/// and the study trace JSON, plus the report for stats assertions.
/// Whatever its workers did, the study must have reaped every one of
/// them by the time it returns.
fn run(config: &EdgeTuneConfig) -> (String, String, TuningReport) {
    let _alone = ONE_STUDY.lock().unwrap_or_else(PoisonError::into_inner);
    let (report, trace) = EdgeTune::new(config.clone())
        .run_traced()
        .expect("study runs");
    if let Some(children) = children() {
        assert!(children.is_empty(), "the study left children {children:?}");
    }
    let json = report.to_json().expect("report serialises");
    (json, trace.to_json_pretty(), report)
}

/// This process's child processes, zombies included — or `None` where
/// the kernel does not list them (`/proc/<pid>/task/<tid>/children`).
fn children() -> Option<Vec<String>> {
    if !Path::new("/proc/thread-self/children").exists() {
        return None;
    }
    let mut children = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
        // A thread that exited since the listing has no children left.
        if let Ok(listed) = std::fs::read_to_string(task.path().join("children")) {
            children.extend(listed.split_whitespace().map(str::to_string));
        }
    }
    Some(children)
}

#[test]
fn process_mode_reproduces_thread_bytes_across_shard_counts() {
    for shards in [1, 4] {
        let (thread_json, thread_trace, thread_report) = run(&study(shards));
        let (proc_json, proc_trace, proc_report) = run(&process_study(shards, process_policy()));
        assert_eq!(
            thread_json, proc_json,
            "report bytes differ at {shards} shards"
        );
        assert_eq!(
            thread_trace, proc_trace,
            "trace bytes differ at {shards} shards"
        );
        assert!(thread_report.fabric_stats().is_none());
        if shards > 1 {
            let stats = proc_report.fabric_stats().expect("fabric engaged");
            assert_eq!(
                stats.links, shards as u64,
                "one worker per shard for the whole study: {stats:?}"
            );
            assert!(
                stats.spawns > stats.links,
                "no rung reused a link: {stats:?}"
            );
            // Sim rungs finish long before a heartbeat falls due: the
            // result frame alone answers almost every attempt.
            assert!(
                stats.heartbeats < stats.spawns,
                "more than a heartbeat per attempt: {stats:?}"
            );
            assert_eq!(stats.crashes, 0, "clean run crashed: {stats:?}");
        }
    }
}

#[test]
fn sigkilled_worker_is_retried_without_disturbing_the_study() {
    let (thread_json, thread_trace, _) = run(&study(4));
    let mut policy = process_policy();
    policy.chaos = Some(FabricChaos {
        shard: 0,
        action: ChaosAction::Kill,
    });
    let (proc_json, proc_trace, report) = run(&process_study(4, policy));
    assert_eq!(thread_json, proc_json, "kill chaos changed report bytes");
    assert_eq!(thread_trace, proc_trace, "kill chaos changed trace bytes");
    let stats = report.fabric_stats().expect("fabric engaged");
    assert!(stats.crashes > 0, "planted SIGKILL never fired: {stats:?}");
    assert!(stats.retries > 0, "crash was not retried: {stats:?}");
    assert_eq!(stats.fallbacks, 0, "retry should have sufficed: {stats:?}");
}

#[test]
fn panicking_worker_is_retried_without_disturbing_the_study() {
    let (thread_json, thread_trace, _) = run(&study(2));
    let mut policy = process_policy();
    policy.chaos = Some(FabricChaos {
        shard: 1,
        action: ChaosAction::Panic,
    });
    let (proc_json, proc_trace, report) = run(&process_study(2, policy));
    assert_eq!(thread_json, proc_json, "panic chaos changed report bytes");
    assert_eq!(thread_trace, proc_trace, "panic chaos changed trace bytes");
    let stats = report.fabric_stats().expect("fabric engaged");
    assert!(stats.crashes > 0, "planted panic never fired: {stats:?}");
    assert!(stats.retries > 0, "crash was not retried: {stats:?}");
}

#[test]
fn hung_worker_trips_the_heartbeat_deadline_and_is_retried() {
    let (thread_json, thread_trace, _) = run(&study(2));
    let mut policy = process_policy();
    policy.deadline = Seconds::new(0.3);
    policy.chaos = Some(FabricChaos {
        shard: 0,
        action: ChaosAction::Hang,
    });
    let (proc_json, proc_trace, report) = run(&process_study(2, policy));
    assert_eq!(thread_json, proc_json, "hang chaos changed report bytes");
    assert_eq!(thread_trace, proc_trace, "hang chaos changed trace bytes");
    let stats = report.fabric_stats().expect("fabric engaged");
    assert!(stats.timeouts > 0, "deadline never fired: {stats:?}");
    assert!(stats.retries > 0, "hang was not retried: {stats:?}");
}

#[test]
fn a_deadline_or_backoff_the_supervisor_cannot_wait_on_is_rejected_up_front() {
    let deadline = |limit: f64| {
        let mut policy = process_policy();
        policy.deadline = Seconds::new(limit);
        policy
    };
    let field = "fabric.deadline";
    let cases = [
        deadline(f64::INFINITY),
        deadline(f64::NAN),
        deadline(-1.0),
        // Not longer than the heartbeat interval: a healthy worker may
        // stay silent that long.
        deadline(HEARTBEAT_EVERY.as_secs_f64()),
    ];
    for exec in [ShardExec::Process, ShardExec::Remote] {
        for policy in &cases {
            // Nothing listens on the remote address: a rejected study
            // must not get as far as dialing it.
            let mut config = study(4)
                .with_shard_exec(exec)
                .with_shard_hosts(vec!["127.0.0.1:9".to_string()]);
            config.fabric = policy.clone();
            match EdgeTune::new(config).run() {
                Err(Error::InvalidConfig(message)) => {
                    assert!(message.contains(field), "{exec:?}: {message}");
                }
                other => panic!("{exec:?}, {policy:?}: not rejected: {other:?}"),
            }
        }
    }
}

#[test]
fn exhausted_retry_budget_degrades_to_in_process_execution() {
    let (thread_json, thread_trace, _) = run(&study(4));
    // No such executable: every spawn fails, every retry fails, and the
    // ladder's terminal rung runs each slice on the supervising thread.
    let mut policy = process_policy();
    policy.worker_exe = Some(PathBuf::from("/nonexistent/edgetune-worker"));
    let (proc_json, proc_trace, report) = run(&process_study(4, policy));
    assert_eq!(thread_json, proc_json, "fallback changed report bytes");
    assert_eq!(thread_trace, proc_trace, "fallback changed trace bytes");
    let stats = report.fabric_stats().expect("fabric engaged");
    assert!(
        stats.fallbacks > 0,
        "retry budget never exhausted: {stats:?}"
    );
    assert_eq!(stats.spawns, 0, "nothing spawnable existed: {stats:?}");
}
