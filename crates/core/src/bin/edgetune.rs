//! `edgetune` — command-line front end to the tuning middleware.
//!
//! ```text
//! edgetune --workload ic                        # tune ResNet/CIFAR10 with defaults
//! edgetune --workload od --metric energy       # energy-oriented objectives
//! edgetune --workload sr --budget epoch        # a different trial budget
//! edgetune --workload ic --device intel        # target a different edge device
//! edgetune --workload ic --json report.json    # dump the full report as JSON
//! edgetune --workload ic --trial-slots 4       # simulated parallel trial slots
//! edgetune --workload ic --study-shards 4      # measure each rung on 4 engine
//!                                              # shards at once; report bytes
//!                                              # are unchanged
//! edgetune shard-host --listen 127.0.0.1:7070  # a standing shard-execution
//!                                              # daemon; pair with
//!                                              # --shard-exec remote
//!                                              # --shard-hosts 127.0.0.1:7070
//! edgetune --workload ic --scenario multistream:10
//!                                              # add a scenario-aware batching
//!                                              # recommendation (§3.4); also
//!                                              # accepts server:<n>:<period>
//! edgetune --workload ic --pareto 5            # vector objective: report the
//!                                              # top-5 Pareto frontier of
//!                                              # accuracy vs train vs inference
//!                                              # cost alongside the winner
//! edgetune serve --workload ic --traffic shift --frontier 6
//!                                              # pre-compute a 6-point frontier
//!                                              # so drift is answered by instant
//!                                              # config selection, re-tuning
//!                                              # only when nothing feasible
//! edgetune serve --workload ic --traffic burst --seed 42
//!                                              # deploy the tuned configuration
//!                                              # into the serving runtime and
//!                                              # print the JSON serving report
//! edgetune --workload ic --trace study.trace.json
//!                                              # also export a Chrome trace of
//!                                              # every span on the simulated
//!                                              # clock (chrome://tracing)
//! edgetune chaos --workload ic --rate 0.1 --seed 7
//!                                              # tune under deterministic fault
//!                                              # injection and print how the
//!                                              # run degraded
//! edgetune --workload ic --checkpoint study.json
//!                                              # checkpoint after every rung;
//!                                              # add --resume to continue an
//!                                              # interrupted run
//! ```

use std::process::ExitCode;

use edgetune::batching::{MultiStreamScenario, ServerScenario};
use edgetune::config::ShardExec;
use edgetune::fabric::{self, ChaosAction, FabricChaos};
use edgetune::prelude::*;
use edgetune::scenario::{tune_for_scenario, Scenario};
use edgetune::serve::{frontier_rates, ScenarioRetuner};
use edgetune_device::spec::DeviceSpec;
use edgetune_serving::{RuntimeOptions, ServingRuntime, SloPolicy, TrafficProfile};
use edgetune_trace::{ChromeTrace, Tracer};
use edgetune_util::rng::SeedStream;
use edgetune_util::units::Seconds;
use edgetune_workloads::catalog::Workload;

struct Args {
    workload: WorkloadId,
    device: Option<String>,
    metric: Metric,
    budget: BudgetPolicy,
    seed: u64,
    initial: usize,
    max_iteration: u32,
    trial_slots: usize,
    study_shards: usize,
    shard_exec: ShardExec,
    shard_hosts: Vec<String>,
    fabric_trace: Option<String>,
    cache: Option<String>,
    json: Option<String>,
    pipelining: bool,
    historical_cache: bool,
    scenario: Option<Scenario>,
    checkpoint: Option<String>,
    resume: bool,
    trace: Option<String>,
    pareto: Option<usize>,
}

struct ChaosArgs {
    workload: WorkloadId,
    metric: Metric,
    seed: u64,
    rate: f64,
    initial: usize,
    max_iteration: u32,
    checkpoint: Option<String>,
    resume: bool,
    halt_after_rungs: Option<u32>,
    json: Option<String>,
    trace: Option<String>,
}

struct ServeArgs {
    workload: WorkloadId,
    device: Option<String>,
    traffic: String,
    rate: f64,
    horizon: f64,
    slo: f64,
    seed: u64,
    workers: u32,
    static_serving: bool,
    shed: bool,
    json: Option<String>,
    trace: Option<String>,
    frontier: Option<usize>,
}

fn parse_workload(value: &str) -> Result<WorkloadId, String> {
    match value.to_lowercase().as_str() {
        "ic" => Ok(WorkloadId::Ic),
        "sr" => Ok(WorkloadId::Sr),
        "nlp" => Ok(WorkloadId::Nlp),
        "od" => Ok(WorkloadId::Od),
        other => Err(format!("unknown workload '{other}' (ic|sr|nlp|od)")),
    }
}

/// Parses `server:<samples>:<period-s>` or `multistream:<rate>`.
fn parse_scenario(value: &str) -> Result<Scenario, String> {
    let parts: Vec<&str> = value.split(':').collect();
    match parts.as_slice() {
        ["server", samples, period] => {
            let samples: u32 = samples
                .parse()
                .map_err(|e| format!("bad sample count in --scenario: {e}"))?;
            let period: f64 = period
                .parse()
                .map_err(|e| format!("bad period in --scenario: {e}"))?;
            if samples == 0 || !(period > 0.0 && period.is_finite()) {
                return Err("--scenario server needs samples >= 1 and period > 0".into());
            }
            Ok(Scenario::Server(ServerScenario::new(
                samples,
                Seconds::new(period),
            )))
        }
        ["multistream", rate] => {
            let rate: f64 = rate
                .parse()
                .map_err(|e| format!("bad rate in --scenario: {e}"))?;
            if !(rate > 0.0 && rate.is_finite()) {
                return Err("--scenario multistream needs rate > 0".into());
            }
            Ok(Scenario::MultiStream(MultiStreamScenario::new(rate, 400)))
        }
        _ => Err(format!(
            "bad --scenario '{value}' (server:<samples>:<period>|multistream:<rate>)"
        )),
    }
}

/// Parses a count flag's value and refuses zero, which the scheduler
/// and config constructors would otherwise reject with a panic.
fn parse_count<T>(text: String, flag: &str, what: &str) -> Result<T, String>
where
    T: std::str::FromStr + Default + PartialEq,
    T::Err: std::fmt::Display,
{
    let count: T = text.parse().map_err(|e| format!("bad {what}: {e}"))?;
    if count == T::default() {
        return Err(format!("{flag} must be >= 1"));
    }
    Ok(count)
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: WorkloadId::Ic,
        device: None,
        metric: Metric::Runtime,
        budget: BudgetPolicy::multi_default(),
        seed: 42,
        initial: 8,
        max_iteration: 10,
        trial_slots: 1,
        study_shards: 1,
        shard_exec: ShardExec::Thread,
        shard_hosts: Vec::new(),
        fabric_trace: None,
        cache: None,
        json: None,
        pipelining: true,
        historical_cache: true,
        scenario: None,
        checkpoint: None,
        resume: false,
        trace: None,
        pareto: None,
    };
    let mut argv = argv;
    let value = |argv: &mut dyn Iterator<Item = String>, flag: &str| {
        argv.next()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--workload" | "-w" => {
                args.workload = parse_workload(&value(&mut argv, "--workload")?)?
            }
            "--device" | "-d" => args.device = Some(value(&mut argv, "--device")?),
            "--metric" | "-m" => {
                args.metric = match value(&mut argv, "--metric")?.to_lowercase().as_str() {
                    "runtime" => Metric::Runtime,
                    "energy" => Metric::Energy,
                    other => return Err(format!("unknown metric '{other}' (runtime|energy)")),
                }
            }
            "--budget" | "-b" => {
                args.budget = match value(&mut argv, "--budget")?.to_lowercase().as_str() {
                    "epoch" | "epochs" => BudgetPolicy::epoch_default(),
                    "dataset" => BudgetPolicy::dataset_default(),
                    "multi" | "multi-budget" => BudgetPolicy::multi_default(),
                    other => return Err(format!("unknown budget '{other}' (epoch|dataset|multi)")),
                }
            }
            "--seed" | "-s" => {
                args.seed = value(&mut argv, "--seed")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--trials" | "-n" => {
                args.initial =
                    parse_count(value(&mut argv, "--trials")?, "--trials", "trial count")?;
            }
            "--max-iter" => {
                args.max_iteration = parse_count(
                    value(&mut argv, "--max-iter")?,
                    "--max-iter",
                    "iteration count",
                )?;
            }
            "--trial-slots" => {
                args.trial_slots = parse_count(
                    value(&mut argv, "--trial-slots")?,
                    "--trial-slots",
                    "slot count",
                )?;
            }
            "--study-shards" => {
                args.study_shards = parse_count(
                    value(&mut argv, "--study-shards")?,
                    "--study-shards",
                    "shard count",
                )?;
            }
            "--shard-exec" => {
                args.shard_exec = ShardExec::parse(&value(&mut argv, "--shard-exec")?)?;
            }
            "--shard-hosts" => {
                args.shard_hosts = value(&mut argv, "--shard-hosts")?
                    .split(',')
                    .map(str::trim)
                    .filter(|host| !host.is_empty())
                    .map(str::to_string)
                    .collect();
                if args.shard_hosts.is_empty() {
                    return Err("--shard-hosts needs at least one host:port address".into());
                }
            }
            "--fabric-trace" => args.fabric_trace = Some(value(&mut argv, "--fabric-trace")?),
            "--cache" => args.cache = Some(value(&mut argv, "--cache")?),
            "--json" => args.json = Some(value(&mut argv, "--json")?),
            "--no-pipelining" => args.pipelining = false,
            "--no-cache" => args.historical_cache = false,
            "--scenario" => args.scenario = Some(parse_scenario(&value(&mut argv, "--scenario")?)?),
            "--checkpoint" => args.checkpoint = Some(value(&mut argv, "--checkpoint")?),
            "--resume" => args.resume = true,
            "--trace" => args.trace = Some(value(&mut argv, "--trace")?),
            "--pareto" => {
                let k: usize = value(&mut argv, "--pareto")?
                    .parse()
                    .map_err(|e| format!("bad frontier size: {e}"))?;
                if k == 0 {
                    return Err("--pareto needs a frontier size >= 1".into());
                }
                args.pareto = Some(k);
            }
            "--help" | "-h" => {
                println!(
                    "usage: edgetune [--workload ic|sr|nlp|od] [--device NAME] \
                     [--metric runtime|energy] [--budget epoch|dataset|multi] [--seed N] \
                     [--trials N] [--max-iter N] [--trial-slots N] \
                     [--study-shards N] [--shard-exec thread|process|remote] \
                     [--shard-hosts HOST:PORT,...] [--fabric-trace FILE] [--cache FILE] \
                     [--json FILE] [--no-pipelining] [--no-cache] \
                     [--checkpoint FILE] [--resume] [--trace FILE] [--pareto K] \
                     [--scenario server:<samples>:<period>|multistream:<rate>]\n\
                     \n\
                     --shard-exec process runs each engine shard in a supervised child\n\
                     process (heartbeats, capped retry, in-process fallback); report and\n\
                     trace bytes are identical to thread mode. --shard-exec remote dials\n\
                     standing `edgetune shard-host` daemons (--shard-hosts, shard i uses\n\
                     host i mod N) under the same supervision and the same bytes.\n\
                     EDGETUNE_FABRIC_KILL, EDGETUNE_FABRIC_PANIC or\n\
                     EDGETUNE_FABRIC_HANG=<shard> plant a fault in that shard's first\n\
                     attempt to exercise crash containment.\n\
                     \n\
                     subcommands:\n  \
                     edgetune shard-host [--listen ADDR]\n  \
                     edgetune serve [--workload ic|sr|nlp|od] [--device NAME] \
                     [--traffic poisson|server|burst|diurnal|shift] [--rate R] [--horizon S] \
                     [--slo S] [--seed N] [--workers N] [--static] [--no-shed] [--json FILE] \
                     [--trace FILE] [--frontier N]\n  \
                     edgetune chaos [--workload ic|sr|nlp|od] [--metric runtime|energy] \
                     [--rate P] [--seed N] [--trials N] [--max-iter N] [--checkpoint FILE] \
                     [--resume] [--halt-after-rungs N] [--json FILE] [--trace FILE]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    Ok(args)
}

fn parse_serve_args(argv: impl Iterator<Item = String>) -> Result<ServeArgs, String> {
    let mut args = ServeArgs {
        workload: WorkloadId::Ic,
        device: None,
        traffic: "poisson".to_string(),
        rate: 10.0,
        horizon: 120.0,
        slo: 2.0,
        seed: 42,
        workers: 1,
        static_serving: false,
        shed: true,
        json: None,
        trace: None,
        frontier: None,
    };
    let mut argv = argv;
    let value = |argv: &mut dyn Iterator<Item = String>, flag: &str| {
        argv.next()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--workload" | "-w" => {
                args.workload = parse_workload(&value(&mut argv, "--workload")?)?
            }
            "--device" | "-d" => args.device = Some(value(&mut argv, "--device")?),
            "--traffic" | "-t" => {
                let traffic = value(&mut argv, "--traffic")?.to_lowercase();
                match traffic.as_str() {
                    "poisson" | "server" | "burst" | "diurnal" | "shift" => args.traffic = traffic,
                    other => {
                        return Err(format!(
                            "unknown traffic '{other}' (poisson|server|burst|diurnal|shift)"
                        ))
                    }
                }
            }
            "--rate" | "-r" => {
                args.rate = value(&mut argv, "--rate")?
                    .parse()
                    .map_err(|e| format!("bad rate: {e}"))?;
                if !(args.rate > 0.0 && args.rate.is_finite()) {
                    return Err("--rate must be > 0".into());
                }
            }
            "--horizon" => {
                args.horizon = value(&mut argv, "--horizon")?
                    .parse()
                    .map_err(|e| format!("bad horizon: {e}"))?;
                if !(args.horizon > 0.0 && args.horizon.is_finite()) {
                    return Err("--horizon must be > 0".into());
                }
            }
            "--slo" => {
                args.slo = value(&mut argv, "--slo")?
                    .parse()
                    .map_err(|e| format!("bad SLO target: {e}"))?;
                if !(args.slo > 0.0 && args.slo.is_finite()) {
                    return Err("--slo must be > 0".into());
                }
            }
            "--seed" | "-s" => {
                args.seed = value(&mut argv, "--seed")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--workers" => {
                args.workers =
                    parse_count(value(&mut argv, "--workers")?, "--workers", "worker count")?;
            }
            "--static" => args.static_serving = true,
            "--no-shed" => args.shed = false,
            "--json" => args.json = Some(value(&mut argv, "--json")?),
            "--trace" => args.trace = Some(value(&mut argv, "--trace")?),
            "--frontier" => {
                let n: usize = value(&mut argv, "--frontier")?
                    .parse()
                    .map_err(|e| format!("bad frontier size: {e}"))?;
                if n == 0 {
                    return Err("--frontier needs a ladder size >= 1".into());
                }
                args.frontier = Some(n);
            }
            "--help" | "-h" => {
                println!(
                    "usage: edgetune serve [--workload ic|sr|nlp|od] [--device NAME] \
                     [--traffic poisson|server|burst|diurnal|shift] [--rate R] [--horizon S] \
                     [--slo S] [--seed N] [--workers N] [--static] [--no-shed] [--json FILE] \
                     [--trace FILE] [--frontier N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    Ok(args)
}

fn parse_chaos_args(argv: impl Iterator<Item = String>) -> Result<ChaosArgs, String> {
    let mut args = ChaosArgs {
        workload: WorkloadId::Ic,
        metric: Metric::Runtime,
        seed: 42,
        rate: 0.1,
        initial: 8,
        max_iteration: 8,
        checkpoint: None,
        resume: false,
        halt_after_rungs: None,
        json: None,
        trace: None,
    };
    let mut argv = argv;
    let value = |argv: &mut dyn Iterator<Item = String>, flag: &str| {
        argv.next()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--workload" | "-w" => {
                args.workload = parse_workload(&value(&mut argv, "--workload")?)?
            }
            "--metric" | "-m" => {
                args.metric = match value(&mut argv, "--metric")?.to_lowercase().as_str() {
                    "runtime" => Metric::Runtime,
                    "energy" => Metric::Energy,
                    other => return Err(format!("unknown metric '{other}' (runtime|energy)")),
                }
            }
            "--seed" | "-s" => {
                args.seed = value(&mut argv, "--seed")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--rate" | "-r" => {
                args.rate = value(&mut argv, "--rate")?
                    .parse()
                    .map_err(|e| format!("bad fault rate: {e}"))?;
                if !(0.0..=1.0).contains(&args.rate) {
                    return Err("--rate must be within [0, 1]".into());
                }
            }
            "--trials" | "-n" => {
                args.initial =
                    parse_count(value(&mut argv, "--trials")?, "--trials", "trial count")?;
            }
            "--max-iter" => {
                args.max_iteration = parse_count(
                    value(&mut argv, "--max-iter")?,
                    "--max-iter",
                    "iteration count",
                )?;
            }
            "--checkpoint" => args.checkpoint = Some(value(&mut argv, "--checkpoint")?),
            "--resume" => args.resume = true,
            "--halt-after-rungs" => {
                args.halt_after_rungs = Some(
                    value(&mut argv, "--halt-after-rungs")?
                        .parse()
                        .map_err(|e| format!("bad rung count: {e}"))?,
                );
            }
            "--json" => args.json = Some(value(&mut argv, "--json")?),
            "--trace" => args.trace = Some(value(&mut argv, "--trace")?),
            "--help" | "-h" => {
                println!(
                    "usage: edgetune chaos [--workload ic|sr|nlp|od] [--metric runtime|energy] \
                     [--rate P] [--seed N] [--trials N] [--max-iter N] [--checkpoint FILE] \
                     [--resume] [--halt-after-rungs N] [--json FILE] [--trace FILE]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    Ok(args)
}

fn run_chaos(args: &ChaosArgs) -> Result<(), String> {
    let mut config = EdgeTuneConfig::for_workload(args.workload)
        .with_metric(args.metric)
        .with_scheduler(SchedulerConfig::new(args.initial, 2.0, args.max_iteration))
        .with_seed(args.seed)
        .with_fault_plan(FaultPlan::uniform(args.rate));
    if let Some(path) = &args.checkpoint {
        config = config.with_checkpoint_path(path);
    }
    if args.resume {
        config = config.resuming();
    }
    if let Some(rungs) = args.halt_after_rungs {
        config = config.with_halt_after_rungs(rungs);
    }
    if let Some(path) = &args.trace {
        config = config.with_trace_path(path);
    }

    eprintln!(
        "chaos-tuning {} at fault rate {:.0}% (seed {})...",
        args.workload,
        args.rate * 100.0,
        args.seed
    );
    let report = EdgeTune::new(config).run().map_err(|e| e.to_string())?;
    println!("{}", report.summary());
    if let Some(faults) = report.faults() {
        let d = &faults.degradation;
        println!("== fault report ==");
        println!("failed trials    : {}", faults.failed_trials);
        println!(
            "trial faults     : {} crashes, {} stragglers, {} timeouts",
            d.trial_crashes, d.trial_stragglers, d.trial_timeouts
        );
        println!(
            "trial recovery   : {} retries, {} skipped with penalty",
            d.trial_retries, d.trials_skipped
        );
        println!(
            "inference faults : {} lost replies, {} injected losses, {} outages, {} real panics",
            d.worker_losses, faults.injected_losses, faults.injected_outages, faults.worker_panics
        );
        println!(
            "inference rescue : {} retries, {} stale-cache answers, {} default recommendations",
            d.inference_retries, d.stale_cache_served, d.default_recommendations
        );
    }
    if let Some(path) = &args.json {
        let json = report.to_json().map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("chaos report written to {path}");
    }
    if let Some(path) = &args.trace {
        eprintln!("chrome trace written to {path} (open in chrome://tracing or Perfetto)");
    }
    Ok(())
}

/// Maps a trace name and design rate onto a concrete traffic profile.
fn traffic_for(trace: &str, rate: f64, horizon: f64) -> TrafficProfile {
    match trace {
        "server" => TrafficProfile::ServerQueries {
            samples_per_query: 16,
            period: Seconds::new(16.0 / rate),
        },
        "burst" => TrafficProfile::OnOff {
            on_rate: 3.0 * rate,
            off_rate: rate / 3.0,
            mean_on: Seconds::new(15.0),
            mean_off: Seconds::new(30.0),
        },
        "diurnal" => TrafficProfile::Diurnal {
            base_rate: 0.5 * rate,
            peak_rate: 2.0 * rate,
            period: Seconds::new(horizon),
        },
        "shift" => TrafficProfile::RateShift {
            initial_rate: rate,
            shifted_rate: 4.0 * rate,
            at: Seconds::new(horizon / 3.0),
        },
        _ => TrafficProfile::Poisson { rate },
    }
}

fn run_serve(args: &ServeArgs) -> Result<(), String> {
    let device = match &args.device {
        Some(name) => DeviceSpec::by_name(name).ok_or_else(|| {
            let catalog: Vec<String> = DeviceSpec::catalog().into_iter().map(|d| d.name).collect();
            format!("unknown device '{name}'; catalog: {}", catalog.join(", "))
        })?,
        None => DeviceSpec::raspberry_pi_3b(),
    };
    let workload = Workload::by_id(args.workload);
    let profile = workload.profile(workload.model_hp_values[0]);
    let space = InferenceSpace::for_device(&device);
    let retuner = ScenarioRetuner::new(device.clone(), space, profile);

    let traffic = traffic_for(&args.traffic, args.rate, args.horizon);
    let seed = SeedStream::new(args.seed);
    eprintln!(
        "tuning the initial configuration for {} at {:.1} items/s...",
        device.name,
        traffic.design_rate()
    );
    let scenario = Scenario::MultiStream(MultiStreamScenario::new(traffic.design_rate(), 400));
    let config = retuner
        .recommend(&scenario, seed.child("offline"))
        .map_err(|e| e.to_string())?;
    eprintln!(
        "deploying batch={} cores={} freq={:.2} GHz (predicted mean response {:.3} s)",
        config.batch_cap,
        config.cores,
        config.freq.as_ghz(),
        config
            .predicted_mean_response
            .map_or(f64::NAN, |s| s.value()),
    );

    let mut slo = SloPolicy::new(Seconds::new(args.slo));
    if !args.shed {
        slo = slo.without_shedding();
    }
    let mut options = RuntimeOptions::new(slo).with_workers(args.workers);
    if args.static_serving {
        options = options.static_serving();
    }
    let mut runtime =
        ServingRuntime::new(device, profile, config, options).map_err(|e| e.to_string())?;
    if let Some(n) = args.frontier {
        let rates = frontier_rates(traffic.design_rate(), n);
        let selector = retuner.precompute_frontier(&rates, seed.child("frontier"));
        eprintln!(
            "pre-computed {} frontier configuration(s) over {:.1}..{:.1} items/s",
            selector.len(),
            rates.first().copied().unwrap_or(0.0),
            rates.last().copied().unwrap_or(0.0),
        );
        runtime = runtime.with_selector(selector);
    }
    let tuner = (!args.static_serving).then_some(&retuner as &dyn edgetune_serving::OnlineTuner);
    let tracer = args.trace.as_ref().map(|_| Tracer::new());
    let report = runtime
        .serve_traced(
            &traffic,
            Seconds::new(args.horizon),
            tuner,
            seed,
            tracer.as_ref(),
        )
        .map_err(|e| e.to_string())?;
    if let (Some(path), Some(tracer)) = (&args.trace, &tracer) {
        ChromeTrace::from_tracer(tracer)
            .write(path)
            .map_err(|e| e.to_string())?;
        eprintln!("chrome trace written to {path} (open in chrome://tracing or Perfetto)");
    }

    eprintln!("{}", report.summary());
    let json = report.to_json().map_err(|e| e.to_string())?;
    println!("{json}");
    if let Some(path) = &args.json {
        std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("serving report written to {path}");
    }
    Ok(())
}

/// `edgetune trace-summary FILE [--top N]`: a span-level profile of an
/// exported Chrome trace — the top spans ranked by *self* time (span
/// duration minus the spans nested directly inside it on its track), so
/// the hot accounting paths show up by themselves instead of being
/// buried under their enclosing rung/bracket spans.
fn run_trace_summary(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    const USAGE: &str = "usage: edgetune trace-summary FILE [--top N]";
    let mut file: Option<String> = None;
    let mut top = 10usize;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--top" => {
                let value = args.next().ok_or("--top requires a count")?;
                top = value
                    .parse()
                    .map_err(|e| format!("bad --top value '{value}': {e}"))?;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            other if file.is_none() && !other.starts_with('-') => file = Some(other.to_string()),
            other => return Err(format!("unknown argument '{other}'; {USAGE}")),
        }
    }
    let path = file.ok_or(USAGE)?;
    let json = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let trace = ChromeTrace::from_json(&json).map_err(|e| format!("parsing {path}: {e}"))?;
    trace
        .validate()
        .map_err(|e| format!("invalid trace {path}: {e}"))?;
    let stats = edgetune_trace::span_summary(&trace);
    let spans: u64 = stats.iter().map(|s| s.count).sum();
    let busy_us: f64 = stats.iter().map(|s| s.self_us).sum();
    println!(
        "{} spans, {} distinct names, {:.3} ms total self time",
        spans,
        stats.len(),
        busy_us / 1e3
    );
    println!(
        "{:<32} {:>7} {:>12} {:>12} {:>7}",
        "span", "count", "total(ms)", "self(ms)", "self%"
    );
    for stat in stats.iter().take(top) {
        let share = if busy_us > 0.0 {
            100.0 * stat.self_us / busy_us
        } else {
            0.0
        };
        println!(
            "{:<32} {:>7} {:>12.3} {:>12.3} {:>6.1}%",
            stat.name,
            stat.count,
            stat.total_us / 1e3,
            stat.self_us / 1e3,
            share
        );
    }
    Ok(())
}

/// `edgetune shard-host --listen ADDR`: a standing shard-execution
/// daemon. Binds the listener, prints the bound address to stdout (the
/// one stdout line, parseable — `--listen 127.0.0.1:0` gets a
/// kernel-assigned port), and serves coordinator sessions forever.
fn run_shard_host(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    const USAGE: &str = "usage: edgetune shard-host [--listen ADDR]";
    let mut listen = "127.0.0.1:0".to_string();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" | "-l" => {
                listen = args.next().ok_or("--listen requires an address")?;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            other => return Err(format!("unknown argument '{other}'; {USAGE}")),
        }
    }
    let host = fabric::ShardHost::bind(&listen).map_err(|e| format!("binding {listen}: {e}"))?;
    host.run().map_err(|e| e.to_string())
}

/// Reads a planted fabric fault from the environment:
/// `EDGETUNE_FABRIC_KILL`, `EDGETUNE_FABRIC_PANIC` or
/// `EDGETUNE_FABRIC_HANG`, each naming a shard index. Environment
/// variables rather than flags so the byte-identity checks
/// (`.github/cli_matrix.sh`) run the exact same command line with and
/// without chaos.
fn fabric_chaos_from_env() -> Result<Option<FabricChaos>, String> {
    let plants = [
        ("EDGETUNE_FABRIC_KILL", ChaosAction::Kill),
        ("EDGETUNE_FABRIC_PANIC", ChaosAction::Panic),
        ("EDGETUNE_FABRIC_HANG", ChaosAction::Hang),
    ];
    for (name, action) in plants {
        if let Ok(text) = std::env::var(name) {
            let shard = text
                .parse()
                .map_err(|e| format!("bad shard index in {name}: {e}"))?;
            return Ok(Some(FabricChaos { shard, action }));
        }
    }
    Ok(None)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    // The hidden self-exec subcommand dispatches before everything
    // else: shard workers speak length-prefixed frames on stdin/stdout
    // and must never touch the normal CLI surface.
    if argv.peek().map(String::as_str) == Some(fabric::WORKER_SUBCOMMAND) {
        fabric::worker_main();
    }
    if argv.peek().map(String::as_str) == Some(fabric::HOST_SUBCOMMAND) {
        argv.next();
        return match run_shard_host(argv) {
            Ok(()) => ExitCode::SUCCESS,
            Err(err) => {
                eprintln!("error: {err}");
                ExitCode::FAILURE
            }
        };
    }
    if argv.peek().map(String::as_str) == Some("chaos") {
        argv.next();
        let args = match parse_chaos_args(argv) {
            Ok(args) => args,
            Err(err) => {
                eprintln!("error: {err}");
                return ExitCode::FAILURE;
            }
        };
        return match run_chaos(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(err) => {
                eprintln!("error: {err}");
                ExitCode::FAILURE
            }
        };
    }
    if argv.peek().map(String::as_str) == Some("serve") {
        argv.next();
        let args = match parse_serve_args(argv) {
            Ok(args) => args,
            Err(err) => {
                eprintln!("error: {err}");
                return ExitCode::FAILURE;
            }
        };
        return match run_serve(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(err) => {
                eprintln!("error: {err}");
                ExitCode::FAILURE
            }
        };
    }
    if argv.peek().map(String::as_str) == Some("trace-summary") {
        argv.next();
        return match run_trace_summary(argv) {
            Ok(()) => ExitCode::SUCCESS,
            Err(err) => {
                eprintln!("error: {err}");
                ExitCode::FAILURE
            }
        };
    }

    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::FAILURE;
        }
    };

    let mut config = EdgeTuneConfig::for_workload(args.workload)
        .with_metric(args.metric)
        .with_budget(args.budget)
        .with_scheduler(SchedulerConfig::new(args.initial, 2.0, args.max_iteration))
        .with_trial_slots(args.trial_slots)
        .with_study_shards(args.study_shards)
        .with_seed(args.seed);
    if let Some(name) = &args.device {
        match DeviceSpec::by_name(name) {
            Some(device) => config = config.with_edge_device(device),
            None => {
                eprintln!("error: unknown device '{name}'; catalog:");
                for d in DeviceSpec::catalog() {
                    eprintln!("  {}", d.name);
                }
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &args.cache {
        config = config.with_cache_path(path);
    }
    if let Some(path) = &args.checkpoint {
        config = config.with_checkpoint_path(path);
    }
    if args.resume {
        config = config.resuming();
    }
    if !args.pipelining {
        config = config.without_pipelining();
    }
    if !args.historical_cache {
        config = config.without_historical_cache();
    }
    if let Some(path) = &args.trace {
        config = config.with_trace_path(path);
    }
    if let Some(k) = args.pareto {
        config = config.with_pareto(k);
    }
    config = config.with_shard_exec(args.shard_exec);
    if !args.shard_hosts.is_empty() {
        config = config.with_shard_hosts(args.shard_hosts.clone());
    }
    if let Some(path) = &args.fabric_trace {
        config = config.with_fabric_trace_path(path);
    }
    match fabric_chaos_from_env() {
        Ok(chaos) => config.fabric.chaos = chaos,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::FAILURE;
        }
    }

    let edge_device = config.edge_device.clone();
    eprintln!(
        "tuning {} for {} ({} objective, {} budget, seed {})...",
        args.workload,
        edge_device.name,
        args.metric,
        config.budget.name(),
        args.seed
    );
    let report = match EdgeTune::new(config).run() {
        Ok(report) => report,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.trace {
        eprintln!("chrome trace written to {path} (open in chrome://tracing or Perfetto)");
    }
    // Fabric counters are wall-clock noise, so they go to stderr —
    // stdout stays deterministic for a fixed seed.
    if let Some(stats) = report.fabric_stats() {
        eprintln!(
            "fabric: {} shard attempts over {} links, {} heartbeats, \
             {} crashes ({} timeouts), {} retries, {} in-process fallbacks, \
             {} stragglers",
            stats.spawns,
            stats.links,
            stats.heartbeats,
            stats.crashes,
            stats.timeouts,
            stats.retries,
            stats.fallbacks,
            stats.stragglers,
        );
    }
    if let Some(path) = &args.fabric_trace {
        eprintln!("fabric telemetry trace written to {path}");
    }

    println!("== winning trial ==");
    println!("configuration : {}", report.best_config());
    println!("accuracy      : {:.1}%", report.best_accuracy() * 100.0);
    println!("trials run    : {}", report.history().len());
    println!(
        "tuning cost   : {:.1} min, {:.1} kJ (stall {:.1} s)",
        report.tuning_runtime().as_minutes(),
        report.tuning_energy().as_kilojoules(),
        report.stall_time().value(),
    );
    let rec = report.recommendation();
    println!("== deployment recommendation ==");
    println!("device        : {}", rec.device);
    println!("batch/cores   : {} / {}", rec.batch, rec.cores);
    println!("frequency     : {:.2} GHz", rec.freq.as_ghz());
    println!("throughput    : {:.1} items/s", rec.throughput.value());
    println!("energy        : {:.3} J/item", rec.energy_per_item.value());

    if !report.frontier().is_empty() {
        println!("== pareto frontier ==");
        println!(
            "{:>5} {:>9} {:>12} {:>12}  configuration",
            "trial", "accuracy", "train-cost", "infer-cost"
        );
        for point in report.frontier() {
            println!(
                "{:>5} {:>8.1}% {:>12.2} {:>12.4}  {}",
                point.trial,
                point.vector.accuracy * 100.0,
                point.vector.train_cost,
                point.vector.inference_cost,
                point.config,
            );
        }
    }

    if let Some(scenario) = &args.scenario {
        use edgetune::backend::PARAM_MODEL_HP;
        let hp = report
            .best_config()
            .get(PARAM_MODEL_HP)
            .unwrap_or_else(|| Workload::by_id(args.workload).model_hp_values[0]);
        let profile = Workload::by_id(args.workload).profile(hp);
        let space = InferenceSpace::for_device(&edge_device);
        match tune_for_scenario(
            &edge_device,
            &space,
            &profile,
            scenario,
            SeedStream::new(args.seed).child("scenario"),
        ) {
            Ok(rec) => {
                println!("== scenario recommendation ==");
                println!("scenario      : {scenario:?}");
                println!("batch/cores   : {} / {}", rec.batch, rec.cores);
                println!("frequency     : {:.2} GHz", rec.freq.as_ghz());
                println!("mean response : {:.3} s", rec.mean_response.value());
            }
            Err(err) => {
                eprintln!("error: scenario tuning failed: {err}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = &args.json {
        match report.to_json() {
            Ok(json) => {
                if let Err(err) = std::fs::write(path, json) {
                    eprintln!("error writing {path}: {err}");
                    return ExitCode::FAILURE;
                }
                eprintln!("report written to {path}");
            }
            Err(err) => {
                eprintln!("error: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
