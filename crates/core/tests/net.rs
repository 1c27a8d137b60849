//! End-to-end invariants of the remote shard fabric.
//!
//! Every test drives the same study at least twice — once with
//! in-process shard threads, once against real `edgetune shard-host`
//! daemons over loopback TCP — and demands byte-identical report and
//! trace JSON. The chaos variants hang a host mid-rung (forcing a
//! heartbeat timeout, a reconnect, and an idempotent resend), point the
//! coordinator at dead addresses, or SIGKILL the host outright, and
//! *still* demand identical bytes.

mod common;

use common::child_host;
use edgetune::config::ShardExec;
use edgetune::fabric::{ChaosAction, FabricChaos, FabricPolicy, HostHandle, ShardHost};
use edgetune::prelude::*;
use edgetune_util::units::Seconds;

fn study(shards: usize) -> EdgeTuneConfig {
    EdgeTuneConfig::for_workload(WorkloadId::Ic)
        .with_scheduler(SchedulerConfig::new(4, 2.0, 4))
        .with_study_shards(shards)
        .with_seed(11)
}

fn remote_study(shards: usize, hosts: Vec<String>) -> EdgeTuneConfig {
    study(shards)
        .with_shard_exec(ShardExec::Remote)
        .with_shard_hosts(hosts)
}

/// Runs a study and returns its byte-stability surface: the report JSON
/// and the study trace JSON, plus the report for stats assertions.
fn run(config: &EdgeTuneConfig) -> (String, String, TuningReport) {
    let (report, trace) = EdgeTune::new(config.clone())
        .run_traced()
        .expect("study runs");
    let json = report.to_json().expect("report serialises");
    (json, trace.to_json_pretty(), report)
}

/// An in-process host on a kernel-assigned loopback port. Safe for
/// every scenario except `ChaosAction::Kill`, which takes the whole
/// process down and therefore needs [`child_host`].
fn spawn_host() -> HostHandle {
    ShardHost::bind("127.0.0.1:0")
        .expect("bind loopback")
        .spawn()
        .expect("spawn host")
}

#[test]
fn remote_mode_reproduces_thread_bytes_across_shard_counts() {
    let host = spawn_host();
    for shards in [1, 4] {
        let (thread_json, thread_trace, _) = run(&study(shards));
        let sessions_before = host.stats().sessions;
        let (remote_json, remote_trace, remote_report) =
            run(&remote_study(shards, vec![host.addr().to_string()]));
        // Every session answered a task before the study returned, and
        // the host counts a session before answering on it.
        let sessions = host.stats().sessions - sessions_before;
        assert_eq!(
            thread_json, remote_json,
            "report bytes differ at {shards} shards"
        );
        assert_eq!(
            thread_trace, remote_trace,
            "trace bytes differ at {shards} shards"
        );
        if shards > 1 {
            let stats = remote_report.fabric_stats().expect("fabric engaged");
            assert_eq!(sessions, 4, "one session per shard for the whole study");
            assert_eq!(stats.links, 4, "{stats:?}");
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
        } else {
            // One shard never engages the fabric, exactly like process
            // mode — the flag is safe to leave on.
            assert!(remote_report.fabric_stats().is_none());
            assert_eq!(sessions, 0);
        }
    }
    assert!(host.stats().tasks_executed > 0);
    assert_eq!(host.stats().rejects, 0);
}

#[test]
fn rerunning_a_study_replays_cached_rungs_idempotently() {
    let host = spawn_host();
    let hosts = vec![host.addr().to_string()];
    let (first_json, first_trace, _) = run(&remote_study(4, hosts.clone()));
    let executed = host.stats().tasks_executed;
    assert!(executed > 0, "first run executed nothing");

    // The second run regenerates the identical rung keys (same study
    // seed, same brackets), so every keyed task is answered from the
    // host's idempotency cache — and the bytes still cannot move.
    let (second_json, second_trace, _) = run(&remote_study(4, hosts));
    assert_eq!(first_json, second_json, "cache replay changed the report");
    assert_eq!(first_trace, second_trace, "cache replay changed the trace");
    let stats = host.stats();
    assert!(
        stats.cache_hits >= executed.min(64),
        "expected cached replays, got {stats:?}"
    );
    assert_eq!(
        stats.tasks_executed, executed,
        "a cached rung was re-executed: {stats:?}"
    );
}

#[test]
fn hung_host_forces_reconnect_and_resend_without_disturbing_the_study() {
    let (thread_json, thread_trace, _) = run(&study(2));
    let host = spawn_host();
    // Hang chaos sleeps the host's executor after the first trial: the
    // coordinator's heartbeat deadline fires, the session is abandoned,
    // and the retry dials a fresh one. The resend carries the same rung
    // key; the rung never completed, so it executes (once) and the
    // backoff jitter the retry consumed came from the fabric's own
    // seed stream — the report cannot tell any of this happened.
    let mut policy = FabricPolicy {
        deadline: Seconds::new(0.5),
        ..FabricPolicy::default()
    };
    policy.chaos = Some(FabricChaos {
        shard: 0,
        action: ChaosAction::Hang,
    });
    let mut config = remote_study(2, vec![host.addr().to_string()]);
    config.fabric = policy;
    let (remote_json, remote_trace, report) = run(&config);
    assert_eq!(
        thread_json, remote_json,
        "forced reconnect changed report bytes"
    );
    assert_eq!(
        thread_trace, remote_trace,
        "forced reconnect changed trace bytes"
    );
    let stats = report.fabric_stats().expect("fabric engaged");
    assert!(stats.timeouts > 0, "deadline never fired: {stats:?}");
    assert!(stats.retries > 0, "hang was not retried: {stats:?}");
    assert_eq!(stats.fallbacks, 0, "retry should have sufficed: {stats:?}");
}

#[test]
fn dead_hosts_degrade_to_in_process_execution() {
    let (thread_json, thread_trace, _) = run(&study(4));
    // Bind-then-drop: the port is allocatable but unserved, so every
    // connect is refused, the retry budget spends, and the in-process
    // fallback measures each slice on the supervising thread.
    let dead_addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        listener.local_addr().expect("bound address").to_string()
    };
    let config = remote_study(4, vec![dead_addr]);
    let (remote_json, remote_trace, report) = run(&config);
    assert_eq!(thread_json, remote_json, "fallback changed report bytes");
    assert_eq!(thread_trace, remote_trace, "fallback changed trace bytes");
    let stats = report.fabric_stats().expect("fabric engaged");
    assert!(stats.fallbacks > 0, "budget never exhausted: {stats:?}");
    assert_eq!(stats.spawns, 0, "no session could open: {stats:?}");
}

#[test]
fn a_host_that_never_answers_the_hello_degrades_to_in_process_execution() {
    let (thread_json, thread_trace, _) = run(&study(2));
    // A listener that is never accepted from: the kernel completes every
    // connect, then nothing answers the hello. The answer is read under
    // the heartbeat deadline, so each attempt times out and the retry
    // budget spends into the in-process fallback.
    let silent = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = silent.local_addr().expect("bound address").to_string();
    let policy = FabricPolicy {
        deadline: Seconds::new(0.2),
        ..FabricPolicy::default()
    };
    let mut config = remote_study(2, vec![addr]);
    config.fabric = policy;
    // A hang must fail this test, not stall the suite.
    let (done, outcome) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(run(&config));
    });
    let (remote_json, remote_trace, report) = outcome
        .recv_timeout(std::time::Duration::from_secs(20))
        .expect("the study hung on a silent host");
    drop(silent);
    assert_eq!(thread_json, remote_json, "fallback changed report bytes");
    assert_eq!(thread_trace, remote_trace, "fallback changed trace bytes");
    let stats = report.fabric_stats().expect("fabric engaged");
    // Every shard of every fabric rung spent its budget at the
    // handshake: each attempt dialed a link, and each timed out.
    assert_eq!(stats.fallbacks, 12, "{stats:?}");
    assert_eq!(stats.crashes, stats.retries + stats.fallbacks, "{stats:?}");
    assert_eq!(stats.links, stats.crashes, "{stats:?}");
    assert_eq!(stats.timeouts, stats.crashes, "{stats:?}");
}

#[test]
fn sigkilled_shard_host_degrades_without_disturbing_the_study() {
    let (thread_json, thread_trace, _) = run(&study(4));
    let daemon = child_host();
    // Kill chaos SIGKILLs the *daemon* mid-rung. Every later attempt is
    // refused, the budget spends, and in-process execution delivers the
    // exact same measurements.
    let policy = FabricPolicy {
        chaos: Some(FabricChaos {
            shard: 0,
            action: ChaosAction::Kill,
        }),
        ..FabricPolicy::default()
    };
    let mut config = remote_study(4, vec![daemon.addr.clone()]);
    config.fabric = policy;
    let (remote_json, remote_trace, report) = run(&config);
    assert_eq!(thread_json, remote_json, "host kill changed report bytes");
    assert_eq!(thread_trace, remote_trace, "host kill changed trace bytes");
    let stats = report.fabric_stats().expect("fabric engaged");
    assert!(stats.crashes > 0, "planted SIGKILL never fired: {stats:?}");
    assert!(stats.fallbacks > 0, "dead host never degraded: {stats:?}");
}

#[test]
fn remote_mode_without_hosts_is_an_invalid_config() {
    let err = EdgeTune::new(study(4).with_shard_exec(ShardExec::Remote))
        .run()
        .expect_err("must be rejected");
    assert!(
        err.to_string().contains("--shard-hosts"),
        "unhelpful error: {err}"
    );
}
