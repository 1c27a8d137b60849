//! `fabric-placement`: many small sharded studies under process and
//! remote placement, so spawn, spec/task JSON, the frame codec, the
//! handshake and the RPC are the cost; thread placement bypasses all of
//! it and serves as the baseline and the byte-identity reference.

use std::hint::black_box;
use std::time::{Duration, Instant};

use edgetune::backend::{BackendSpec, SimTrainingBackend, TrainingBackend};
use edgetune::config::ShardExec;
use edgetune::engine::ShardPlan;
use edgetune::fabric::{FabricStats, HostHandle, RungKey, ShardHost, ShardTask, TaskTrial};
use edgetune::{EdgeTune, EdgeTuneConfig};
use edgetune_net::{client_hello, FramedTcp, Hello};
use edgetune_runtime::frame::{crc32, encode_frame, read_frame, write_frame, FrameKind};
use edgetune_tuner::{HistoryMerge, SchedulerConfig, ShardHistory, StampedTrial, TrialBudget};
use edgetune_util::rng::SeedStream;
use edgetune_util::units::Seconds;
use edgetune_workloads::{Workload as Catalog, WorkloadId};

use super::{fold_digests, scaled, set_residual, Env, Layers, Result, Traced, Verdict, Workload};
use crate::procfs;
use crate::spans::Spans;
use crate::stats::median_call_s;

/// Self-exec argument the spawn probe uses: the binary exits at once.
pub const NOOP_SUBCOMMAND: &str = "__noop";

const SHARDS: usize = 2;

pub struct FabricInput {
    studies: Vec<EdgeTuneConfig>,
    /// Fresh daemons per pass: their result cache is keyed by study seed.
    hosts: Vec<HostHandle>,
}

impl Drop for FabricInput {
    fn drop(&mut self) {
        for host in &mut self.hosts {
            host.shutdown();
        }
    }
}

#[derive(Debug, Default)]
pub struct Arm {
    wall_s: f64,
    /// CRC-32 of each finished study's report JSON, in study order.
    digests: Vec<u32>,
    unit_ms: Vec<f64>,
    stats: FabricStats,
    failures: Vec<String>,
}

#[derive(Debug, Default)]
pub struct FabricOutput {
    process: Arm,
    remote: Arm,
    /// Time spent on digests inside the loops; not part of the workload.
    untimed_s: f64,
}

fn run_arm(
    input: &FabricInput,
    exec: ShardExec,
    name: &str,
    spans: Option<&mut Spans>,
    untimed_s: &mut f64,
) -> Arm {
    let hosts: Vec<String> = input.hosts.iter().map(|h| h.addr().to_string()).collect();
    let mut arm = Arm::default();
    let span = spans.map(|s| (s.open(name), s));
    let start = Instant::now();
    let mut paused = 0.0;
    for config in &input.studies {
        let mut config = config.clone().with_shard_exec(exec);
        if exec == ShardExec::Remote {
            config = config.with_shard_hosts(hosts.clone());
        }
        let study_start = Instant::now();
        let run = EdgeTune::new(config).run();
        arm.unit_ms.push(study_start.elapsed().as_secs_f64() * 1e3);
        // Off the clock: digest the report.
        let pause = Instant::now();
        match run
            .and_then(|report| report.to_json().map(|json| (report, json)))
            .map_err(|e| e.to_string())
        {
            Ok((report, json)) => {
                arm.digests.push(crc32(json.as_bytes()));
                if let Some(stats) = report.fabric_stats() {
                    arm.stats.spawns += stats.spawns;
                    arm.stats.heartbeats += stats.heartbeats;
                    arm.stats.crashes += stats.crashes;
                    arm.stats.retries += stats.retries;
                    arm.stats.fallbacks += stats.fallbacks;
                }
            }
            Err(e) => arm.failures.push(format!("{name}: {e}")),
        }
        paused += pause.elapsed().as_secs_f64();
    }
    arm.wall_s = start.elapsed().as_secs_f64() - paused;
    *untimed_s += paused;
    if let Some((id, spans)) = span {
        spans.close(id);
    }
    arm
}

fn sample_spec() -> BackendSpec {
    SimTrainingBackend::new(Catalog::by_id(WorkloadId::Ic), SeedStream::new(7))
        .process_spec()
        .expect("fault-free backend has a process spec")
}

pub struct FabricPlacement;

impl Workload for FabricPlacement {
    const NAME: &'static str = "fabric-placement";
    type Input = FabricInput;
    type Output = FabricOutput;

    fn prepare(env: &Env, divisor: u32) -> Result<FabricInput> {
        let studies = (0..scaled(48, divisor, 4))
            .map(|i| {
                EdgeTuneConfig::for_workload(WorkloadId::Ic)
                    .with_scheduler(SchedulerConfig::new(32, 2.0, 16))
                    .with_study_shards(SHARDS)
                    .with_seed(
                        env.seed
                            .child(Self::NAME)
                            .child_indexed("study", i as u64)
                            .seed(),
                    )
            })
            .collect();
        let hosts = (0..SHARDS)
            .map(|_| ShardHost::bind("127.0.0.1:0").and_then(ShardHost::spawn))
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(|e| format!("spawning a loopback shard host: {e}"))?;
        Ok(FabricInput { studies, hosts })
    }

    fn execute(input: &mut FabricInput, mut spans: Option<&mut Spans>) -> Result<FabricOutput> {
        let mut untimed_s = 0.0;
        let process = run_arm(
            input,
            ShardExec::Process,
            "fabric.process",
            spans.as_deref_mut(),
            &mut untimed_s,
        );
        let remote = run_arm(
            input,
            ShardExec::Remote,
            "fabric.remote",
            spans,
            &mut untimed_s,
        );
        Ok(FabricOutput {
            process,
            remote,
            untimed_s,
        })
    }

    fn untimed_s(output: &FabricOutput) -> f64 {
        output.untimed_s
    }

    fn verdict(input: &FabricInput, output: &FabricOutput) -> Verdict {
        let mut verdict = Verdict::default();
        for (name, arm) in [("process", &output.process), ("remote", &output.remote)] {
            verdict.attempted += input.studies.len() as u64;
            verdict.units += arm.stats.spawns;
            let stats = &arm.stats;
            verdict.failed +=
                arm.failures.len() as u64 + stats.crashes + stats.retries + stats.fallbacks;
            verdict.errors.extend(arm.failures.iter().cloned());
            if stats.crashes + stats.retries + stats.fallbacks > 0 {
                verdict.errors.push(format!(
                    "{name}: {} crashes, {} retries, {} fallbacks",
                    stats.crashes, stats.retries, stats.fallbacks
                ));
            }
            // Placement never changes a reported byte.
            if arm.digests != output.process.digests {
                verdict.failed += 1;
                verdict.errors.push(format!(
                    "{name}: report bytes differ from process placement"
                ));
            }
            verdict.unit_ms.extend(&arm.unit_ms);
        }
        let replays: u64 = input.hosts.iter().map(|h| h.stats().cache_hits).sum();
        if replays > 0 {
            verdict.failed += replays;
            verdict.errors.push(format!(
                "shard hosts answered {replays} rungs from their cache"
            ));
        }
        verdict.digests.insert(
            "reports".to_string(),
            fold_digests(output.process.digests.iter().copied()),
        );
        verdict
    }

    fn attribute(
        _: &Env,
        input: &FabricInput,
        passes: Traced<'_, Self>,
        spans: &mut Spans,
        layers: &mut Layers,
    ) -> Result<()> {
        let traced = passes.traced;
        let (process, remote) = (&traced.process, &traced.remote);
        // Thread placement: the overhead baseline and the byte-identity
        // reference. It bypasses the fabric, so it stays out of the
        // timed region.
        // Its shard threads start from this thread, which is pinned to one
        // CPU for the timed arms; give them both cores.
        procfs::allow_all_cpus();
        let thread = run_arm(
            input,
            ShardExec::Thread,
            "fabric.thread",
            Some(spans),
            &mut 0.0,
        );
        procfs::pin_to_one_cpu();
        if !thread.failures.is_empty() || thread.digests != process.digests {
            return Err(format!(
                "thread placement disagrees with process placement ({} failures)",
                thread.failures.len()
            ));
        }
        layers.set("fabric.thread.wall_s", thread.wall_s);
        layers.set("fabric.process.wall_s", process.wall_s);
        layers.set("fabric.remote.wall_s", remote.wall_s);
        let per_rung = |arm: &Arm| {
            let rungs = (arm.stats.spawns as f64 / SHARDS as f64).max(1.0);
            (arm.wall_s - thread.wall_s) / rungs * 1e3
        };
        layers.set("fabric.process.rung_overhead_ms", per_rung(process));
        layers.set("fabric.remote.rung_overhead_ms", per_rung(remote));
        layers.set(
            "fabric.spawns",
            (process.stats.spawns + remote.stats.spawns) as f64,
        );
        layers.set(
            "fabric.heartbeats",
            (process.stats.heartbeats + remote.stats.heartbeats) as f64,
        );
        layers.set(
            "fabric.retries",
            (process.stats.retries + remote.stats.retries) as f64,
        );
        layers.set(
            "fabric.fallbacks",
            (process.stats.fallbacks + remote.stats.fallbacks) as f64,
        );
        layers.set(
            "fabric.host.cached_replays",
            input
                .hosts
                .iter()
                .map(|h| h.stats().cache_hits)
                .sum::<u64>() as f64,
        );

        let spec = sample_spec();
        let spec_json = serde_json::to_string(&spec).map_err(|e| e.to_string())?;

        let spawn_s = spans.scope("fabric.process.spawn_replay", |_| -> Result<f64> {
            let exe = std::env::current_exe().map_err(|e| e.to_string())?;
            Ok(median_call_s(100, || {
                let status = std::process::Command::new(&exe)
                    .arg(NOOP_SUBCOMMAND)
                    .status()
                    .expect("self-exec spawns");
                assert!(status.success());
            }))
        })?;
        layers.set("fabric.process.spawn_ms", spawn_s * 1e3);

        let codec_s = spans.scope("core.fabric.codec_replay", |_| -> Result<f64> {
            let ser = median_call_s(2000, || {
                black_box(serde_json::to_string(black_box(&spec)).expect("spec serialises"));
            });
            let de = median_call_s(2000, || {
                black_box(
                    serde_json::from_str::<BackendSpec>(black_box(&spec_json))
                        .expect("spec parses"),
                );
            });
            layers.set("core.backend.spec_ser_us", ser * 1e6);
            layers.set("core.backend.spec_de_us", de * 1e6);

            // A first-rung shard task of these studies: 16 trials.
            let backend = spec.instantiate();
            let space = backend.search_space();
            let trials: Vec<TaskTrial> = (0..16u64)
                .map(|id| TaskTrial {
                    id,
                    config: space.sample(&mut SeedStream::new(6).rng_indexed("trial", id)),
                    budget: TrialBudget::new(1.0, 0.1),
                })
                .collect();
            let task = ShardTask {
                attempt: 1,
                plan: ShardPlan {
                    shard: 0,
                    start: 0,
                    len: trials.len(),
                },
                spec: spec.clone(),
                now: Seconds::ZERO,
                trials,
                chaos: None,
                key: Some(RungKey {
                    study: 7,
                    bracket: 0,
                    rung: 0,
                    shard: 0,
                }),
            };
            let payload = serde_json::to_string(&task)
                .map_err(|e| e.to_string())?
                .into_bytes();
            layers.set("core.fabric.task_json_kb", payload.len() as f64 / 1e3);
            let frame = median_call_s(2000, || {
                let bytes = encode_frame(FrameKind::Task, black_box(&payload));
                black_box(read_frame(&mut bytes.as_slice()).expect("frame decodes"));
            });
            layers.set("runtime.frame.roundtrip_us", frame * 1e6);
            Ok(ser + de + frame)
        })?;

        let net_s = spans.scope("net.replay", |_| -> Result<f64> {
            let addr = input.hosts[0].addr().to_string();
            let timeout = Duration::from_secs(5);
            let handshake = median_call_s(300, || {
                let mut conn = FramedTcp::connect(&addr, timeout).expect("host reachable");
                black_box(
                    client_hello(&mut conn, &Hello::new(7, spec_json.as_str()))
                        .expect("hello accepted"),
                );
            });
            layers.set("net.handshake_us", handshake * 1e6);

            let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
            let echo_addr = listener
                .local_addr()
                .map_err(|e| e.to_string())?
                .to_string();
            let echo = std::thread::spawn(move || {
                let (mut stream, _) = listener.accept().expect("one client");
                stream.set_nodelay(true).expect("nodelay");
                while let Ok(Some(frame)) = read_frame(&mut stream) {
                    if write_frame(&mut stream, frame.kind, &frame.payload).is_err() {
                        break;
                    }
                }
            });
            let payload: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
            let mut conn = FramedTcp::connect(&echo_addr, timeout).map_err(|e| e.to_string())?;
            let roundtrip = median_call_s(3000, || {
                conn.send(FrameKind::Heartbeat, black_box(&payload))
                    .expect("frame sent");
                black_box(conn.recv().expect("echo alive").expect("echoed frame"));
            });
            conn.shutdown();
            drop(conn);
            echo.join().map_err(|_| "echo thread panicked")?;
            layers.set("net.tcp_frame.roundtrip_us", roundtrip * 1e6);
            Ok(handshake + roundtrip)
        })?;

        spans.scope("tuner.merge.replay", |_| -> Result<()> {
            let report = EdgeTune::new(input.studies[0].clone())
                .run()
                .map_err(|e| e.to_string())?;
            let shards: Vec<ShardHistory> = (0..SHARDS)
                .map(|shard| ShardHistory {
                    shard,
                    trials: report
                        .history()
                        .records()
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % SHARDS == shard)
                        .map(|(i, record)| StampedTrial {
                            record: record.clone(),
                            start: Seconds::new(i as f64),
                            bracket: 0,
                        })
                        .collect(),
                })
                .collect();
            let merge = median_call_s(100, || {
                black_box(HistoryMerge::merge(black_box(shards.clone())));
            });
            layers.set("tuner.merge.merge_ms", merge * 1e3);
            Ok(())
        })?;

        // Computed, not measured: each timed arm repeats the thread arm's study
        // compute; each attempt pays the replayed fixed costs on top.
        set_residual(
            layers,
            passes.traced_wall_s,
            &[
                2.0 * thread.wall_s,
                process.stats.spawns as f64 * (spawn_s + codec_s),
                remote.stats.spawns as f64 * (net_s + codec_s),
            ],
        );
        Ok(())
    }
}
