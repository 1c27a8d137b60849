//! `edgetune` — command-line front end to the tuning middleware.
//!
//! The bare command runs one tuning study (the paper's Algorithm 1) and
//! prints its winner and deployment recommendation; every study option —
//! faults, checkpoints, shards, traces — is a flag on it.
//!
//! ```text
//! edgetune --workload od --metric energy        # energy-oriented objectives
//! edgetune --workload sr --budget epoch         # a different trial budget
//! edgetune --workload ic --device intel         # a different edge device
//! edgetune --workload ic --json report.json     # the full report as JSON
//! edgetune --workload ic --trace study.trace.json   # Chrome trace (simulated clock)
//! edgetune --workload ic --study-shards 4       # 4 engine shards, same bytes
//! edgetune --workload ic --scenario multistream:10  # scenario batching (§3.4)
//! edgetune --workload ic --pareto 5             # top-5 Pareto frontier too
//! edgetune --workload ic --max-iter 8 --fault-rate 0.1 --seed 7
//!                                               # seeded fault injection + report
//! edgetune --workload ic --checkpoint ck.json --halt-after-rungs 3
//! edgetune --workload ic --checkpoint ck.json --resume   # finish that study
//! edgetune serve --workload ic --traffic shift --frontier 6
//!                                               # serve the tuned configuration
//! edgetune shard-host --listen 127.0.0.1:7070   # daemon for --shard-exec remote
//! edgetune trace-summary study.trace.json --top 5   # spans by self time
//! ```
//!
//! Every subcommand returns `Result<(), String>`; `main` prints a failure
//! once, as `error: <message>`, and exits 1.

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

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

const TUNE_USAGE: &str = "usage: edgetune [--workload ic|sr|nlp|od] [--device NAME] \
     [--metric runtime|energy] [--budget epoch|dataset|multi] [--seed N] \
     [--trials N] [--max-iter N] [--trial-slots N] \
     [--study-shards N] [--shard-exec thread|process|remote] \
     [--shard-hosts HOST:PORT,...] [--fabric-trace FILE] [--cache FILE] \
     [--json FILE] [--no-pipelining] [--no-cache] \
     [--checkpoint FILE] [--resume] [--halt-after-rungs N] [--fault-rate P] \
     [--trace FILE] [--pareto K] \
     [--scenario server:<samples>:<period>|multistream:<rate>]\n\
     \n\
     --fault-rate P injects seeded trial and inference faults at rate P in\n\
     [0, 1] and adds a fault report. --halt-after-rungs N stops the study\n\
     after N rungs; with --checkpoint FILE, --resume continues it.\n\
     \n\
     --shard-exec process runs each engine shard in a supervised child\n\
     process (heartbeat deadline, capped retry, in-process fallback); report and\n\
     trace bytes are identical to thread mode. --shard-exec remote dials\n\
     standing `edgetune shard-host` daemons (--shard-hosts, shard i uses\n\
     host i mod N) under the same supervision and the same bytes.\n\
     EDGETUNE_FABRIC_KILL=<shard> kills that shard's first attempt to\n\
     exercise crash containment.\n\
     \n\
     subcommands (each answers --help):\n  \
     edgetune serve          serve the tuned configuration under live traffic\n  \
     edgetune shard-host     a standing shard-execution daemon\n  \
     edgetune trace-summary  the spans of a --trace file ranked by self time";
const SERVE_USAGE: &str = "usage: edgetune serve [--workload ic|sr|nlp|od] [--device NAME] \
     [--traffic poisson|server|burst|diurnal|shift] [--rate R] [--horizon S] \
     [--slo S] [--seed N] [--workers N] [--static] [--no-shed] [--json FILE] \
     [--trace FILE] [--frontier N]";
const TRACE_SUMMARY_USAGE: &str = "usage: edgetune trace-summary FILE [--top N]";
const SHARD_HOST_USAGE: &str = "usage: edgetune shard-host [--listen ADDR]";

/// One subcommand's arguments, read flag by flag: the one place a
/// flag's value is fetched and parsed, and `--help` is answered.
struct Flags {
    argv: std::vec::IntoIter<String>,
    usage: &'static str,
}

impl Flags {
    fn new(argv: Vec<String>, usage: &'static str) -> Self {
        Flags {
            argv: argv.into_iter(),
            usage,
        }
    }

    /// The next argument; `--help` prints the usage and exits.
    fn next(&mut self) -> Option<String> {
        let arg = self.argv.next()?;
        if arg == "--help" || arg == "-h" {
            println!("{}", self.usage);
            std::process::exit(0);
        }
        Some(arg)
    }

    fn value(&mut self, flag: &str) -> Result<String, String> {
        self.argv
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))
    }

    /// `flag`'s value parsed as a `T`; `what` names it in the error.
    fn parse<T>(&mut self, flag: &str, what: &str) -> Result<T, String>
    where
        T: FromStr,
        T::Err: Display,
    {
        self.value(flag)?
            .parse()
            .map_err(|e| format!("bad {what}: {e}"))
    }

    /// A count that must be ≥ 1, which the scheduler and config
    /// constructors would otherwise reject with a panic.
    fn count<T>(&mut self, flag: &str, what: &str) -> Result<T, String>
    where
        T: FromStr + Default + PartialEq,
        T::Err: Display,
    {
        let count: T = self.parse(flag, what)?;
        if count == T::default() {
            return Err(format!("{flag} must be >= 1"));
        }
        Ok(count)
    }

    /// A finite number > 0.
    fn positive(&mut self, flag: &str, what: &str) -> Result<f64, String> {
        let x: f64 = self.parse(flag, what)?;
        if !(x > 0.0 && x.is_finite()) {
            return Err(format!("{flag} must be > 0"));
        }
        Ok(x)
    }
}

fn unknown_flag(flag: &str) -> String {
    format!("unknown flag '{flag}' (try --help)")
}

/// The flags the tune and serve commands share.
struct Common {
    workload: WorkloadId,
    device: Option<DeviceSpec>,
    seed: u64,
    json: Option<String>,
    trace: Option<String>,
}

impl Common {
    fn new() -> Self {
        Common {
            workload: WorkloadId::Ic,
            device: None,
            seed: 42,
            json: None,
            trace: None,
        }
    }

    /// Reads `flag` when it is a shared one; `Ok(false)` when it is not.
    fn read(&mut self, flag: &str, flags: &mut Flags) -> Result<bool, String> {
        match flag {
            "--workload" | "-w" => self.workload = flags.value("--workload")?.parse()?,
            "--device" | "-d" => self.device = Some(device_by_name(&flags.value("--device")?)?),
            "--seed" | "-s" => self.seed = flags.parse("--seed", "seed")?,
            "--json" => self.json = Some(flags.value("--json")?),
            "--trace" => self.trace = Some(flags.value("--trace")?),
            _ => return Ok(false),
        }
        Ok(true)
    }
}

struct TuneArgs {
    common: Common,
    metric: Metric,
    budget: BudgetPolicy,
    initial: usize,
    max_iteration: u32,
    trial_slots: usize,
    study_shards: usize,
    shard_exec: ShardExec,
    shard_hosts: Vec<String>,
    fabric_trace: Option<String>,
    cache: Option<String>,
    pipelining: bool,
    historical_cache: bool,
    scenario: Option<Scenario>,
    checkpoint: Option<String>,
    resume: bool,
    halt_after_rungs: Option<u32>,
    fault_rate: f64,
    pareto: Option<usize>,
}

struct ServeArgs {
    common: Common,
    traffic: String,
    rate: f64,
    horizon: f64,
    slo: f64,
    workers: u32,
    static_serving: bool,
    shed: bool,
    frontier: Option<usize>,
}

fn device_by_name(name: &str) -> Result<DeviceSpec, String> {
    DeviceSpec::by_name(name).ok_or_else(|| {
        let catalog: Vec<String> = DeviceSpec::catalog().into_iter().map(|d| d.name).collect();
        format!("unknown device '{name}'; catalog: {}", catalog.join(", "))
    })
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

fn parse_tune_args(argv: Vec<String>) -> Result<TuneArgs, String> {
    let mut args = TuneArgs {
        common: Common::new(),
        metric: Metric::Runtime,
        budget: BudgetPolicy::multi_default(),
        initial: 8,
        max_iteration: 10,
        trial_slots: 1,
        study_shards: 1,
        shard_exec: ShardExec::Thread,
        shard_hosts: Vec::new(),
        fabric_trace: None,
        cache: None,
        pipelining: true,
        historical_cache: true,
        scenario: None,
        checkpoint: None,
        resume: false,
        halt_after_rungs: None,
        fault_rate: 0.0,
        pareto: None,
    };
    let mut flags = Flags::new(argv, TUNE_USAGE);
    while let Some(arg) = flags.next() {
        match arg.as_str() {
            "--metric" | "-m" => {
                args.metric = flags.value("--metric")?.parse()?;
            }
            "--budget" | "-b" => {
                args.budget = match flags.value("--budget")?.to_lowercase().as_str() {
                    "epoch" | "epochs" => BudgetPolicy::epoch_default(),
                    "dataset" => BudgetPolicy::dataset_default(),
                    "multi" | "multi-budget" => BudgetPolicy::multi_default(),
                    other => return Err(format!("unknown budget '{other}' (epoch|dataset|multi)")),
                }
            }
            "--trials" | "-n" => args.initial = flags.count("--trials", "trial count")?,
            "--max-iter" => args.max_iteration = flags.count("--max-iter", "iteration count")?,
            "--trial-slots" => args.trial_slots = flags.count("--trial-slots", "slot count")?,
            "--study-shards" => args.study_shards = flags.count("--study-shards", "shard count")?,
            "--shard-exec" => args.shard_exec = ShardExec::parse(&flags.value("--shard-exec")?)?,
            "--shard-hosts" => {
                args.shard_hosts = flags
                    .value("--shard-hosts")?
                    .split(',')
                    .map(str::trim)
                    .filter(|host| !host.is_empty())
                    .map(str::to_string)
                    .collect();
                if args.shard_hosts.is_empty() {
                    return Err("--shard-hosts needs at least one host:port address".into());
                }
            }
            "--fabric-trace" => args.fabric_trace = Some(flags.value("--fabric-trace")?),
            "--cache" => args.cache = Some(flags.value("--cache")?),
            "--no-pipelining" => args.pipelining = false,
            "--no-cache" => args.historical_cache = false,
            "--scenario" => args.scenario = Some(parse_scenario(&flags.value("--scenario")?)?),
            "--checkpoint" => args.checkpoint = Some(flags.value("--checkpoint")?),
            "--resume" => args.resume = true,
            "--halt-after-rungs" => {
                args.halt_after_rungs = Some(flags.parse("--halt-after-rungs", "rung count")?);
            }
            "--fault-rate" => {
                let rate: f64 = flags.parse("--fault-rate", "fault rate")?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err("--fault-rate must be within [0, 1]".into());
                }
                args.fault_rate = rate;
            }
            "--pareto" => args.pareto = Some(flags.count("--pareto", "frontier size")?),
            other => {
                if !args.common.read(other, &mut flags)? {
                    return Err(unknown_flag(other));
                }
            }
        }
    }
    if args.resume && args.checkpoint.is_none() {
        return Err("--resume needs --checkpoint FILE".into());
    }
    if !args.shard_hosts.is_empty() && args.shard_exec != ShardExec::Remote {
        return Err("--shard-hosts needs --shard-exec remote".into());
    }
    Ok(args)
}

fn parse_serve_args(argv: Vec<String>) -> Result<ServeArgs, String> {
    let mut args = ServeArgs {
        common: Common::new(),
        traffic: "poisson".to_string(),
        rate: 10.0,
        horizon: 120.0,
        slo: 2.0,
        workers: 1,
        static_serving: false,
        shed: true,
        frontier: None,
    };
    let mut flags = Flags::new(argv, SERVE_USAGE);
    while let Some(arg) = flags.next() {
        match arg.as_str() {
            "--traffic" | "-t" => {
                let traffic = flags.value("--traffic")?.to_lowercase();
                match traffic.as_str() {
                    "poisson" | "server" | "burst" | "diurnal" | "shift" => args.traffic = traffic,
                    other => {
                        return Err(format!(
                            "unknown traffic '{other}' (poisson|server|burst|diurnal|shift)"
                        ))
                    }
                }
            }
            "--rate" | "-r" => args.rate = flags.positive("--rate", "rate")?,
            "--horizon" => args.horizon = flags.positive("--horizon", "horizon")?,
            "--slo" => args.slo = flags.positive("--slo", "SLO target")?,
            "--workers" => args.workers = flags.count("--workers", "worker count")?,
            "--static" => args.static_serving = true,
            "--no-shed" => args.shed = false,
            "--frontier" => args.frontier = Some(flags.count("--frontier", "frontier size")?),
            other => {
                if !args.common.read(other, &mut flags)? {
                    return Err(unknown_flag(other));
                }
            }
        }
    }
    Ok(args)
}

/// The tune command: one study, its report on stdout, and optionally
/// its JSON, trace and scenario recommendation.
fn run_tune(argv: Vec<String>) -> Result<(), String> {
    let args = parse_tune_args(argv)?;
    let common = &args.common;
    let mut config = EdgeTuneConfig::for_workload(common.workload)
        .with_metric(args.metric)
        .with_budget(args.budget)
        .with_scheduler(SchedulerConfig::new(args.initial, 2.0, args.max_iteration))
        .with_trial_slots(args.trial_slots)
        .with_study_shards(args.study_shards)
        .with_seed(common.seed)
        .with_shard_exec(args.shard_exec);
    if let Some(device) = &common.device {
        config = config.with_edge_device(device.clone());
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
    if let Some(rungs) = args.halt_after_rungs {
        config = config.with_halt_after_rungs(rungs);
    }
    config = config.with_fault_rate(args.fault_rate);
    if !args.pipelining {
        config = config.without_pipelining();
    }
    if !args.historical_cache {
        config = config.without_historical_cache();
    }
    if let Some(path) = &common.trace {
        config = config.with_trace_path(path);
    }
    if let Some(k) = args.pareto {
        config = config.with_pareto(k);
    }
    if !args.shard_hosts.is_empty() {
        config = config.with_shard_hosts(args.shard_hosts.clone());
    }
    if let Some(path) = &args.fabric_trace {
        config = config.with_fabric_trace_path(path);
    }
    config.fabric.chaos = fabric_chaos_from_env()?;

    let edge_device = config.edge_device.clone();
    eprintln!(
        "tuning {} for {} ({} objective, {} budget, seed {})...",
        common.workload,
        edge_device.name,
        args.metric,
        config.budget.name(),
        common.seed
    );
    let report = EdgeTune::new(config).run().map_err(|e| e.to_string())?;
    if let Some(path) = &common.trace {
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

    if let Some(faults) = report.faults() {
        let d = &faults.degradation;
        println!("== fault report ==");
        println!("failed trials    : {}", faults.failed_trials);
        println!(
            "trial faults     : {} crashes, {} stragglers",
            d.trial_crashes, d.trial_stragglers
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

    if let Some(scenario) = &args.scenario {
        use edgetune::backend::PARAM_MODEL_HP;
        let workload = Workload::by_id(common.workload);
        let hp = report
            .best_config()
            .get(PARAM_MODEL_HP)
            .unwrap_or_else(|| workload.model_hp_values[0]);
        let rec = tune_for_scenario(
            &edge_device,
            &InferenceSpace::for_device(&edge_device),
            &workload.profile(hp),
            scenario,
            SeedStream::new(common.seed).child("scenario"),
        )
        .map_err(|e| format!("scenario tuning failed: {e}"))?;
        println!("== scenario recommendation ==");
        println!("scenario      : {scenario:?}");
        println!("batch/cores   : {} / {}", rec.batch, rec.cores);
        println!("frequency     : {:.2} GHz", rec.freq.as_ghz());
        println!("mean response : {:.3} s", rec.mean_response.value());
    }

    if let Some(path) = &common.json {
        let json = report.to_json().map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("report written to {path}");
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

fn run_serve(argv: Vec<String>) -> Result<(), String> {
    let args = parse_serve_args(argv)?;
    let device = args
        .common
        .device
        .clone()
        .unwrap_or_else(DeviceSpec::raspberry_pi_3b);
    let workload = Workload::by_id(args.common.workload);
    let profile = workload.profile(workload.model_hp_values[0]);
    let space = InferenceSpace::for_device(&device);
    let retuner = ScenarioRetuner::new(device.clone(), space, profile);

    let traffic = traffic_for(&args.traffic, args.rate, args.horizon);
    let seed = SeedStream::new(args.common.seed);
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
    let tracer = args.common.trace.as_ref().map(|_| Tracer::new());
    let report = runtime
        .serve_traced(
            &traffic,
            Seconds::new(args.horizon),
            tuner,
            seed,
            tracer.as_ref(),
        )
        .map_err(|e| e.to_string())?;
    if let (Some(path), Some(tracer)) = (&args.common.trace, &tracer) {
        ChromeTrace::from_tracer(tracer)
            .write(path)
            .map_err(|e| e.to_string())?;
        eprintln!("chrome trace written to {path} (open in chrome://tracing or Perfetto)");
    }

    eprintln!("{}", report.summary());
    let json = report.to_json().map_err(|e| e.to_string())?;
    println!("{json}");
    if let Some(path) = &args.common.json {
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
fn run_trace_summary(argv: Vec<String>) -> Result<(), String> {
    let mut flags = Flags::new(argv, TRACE_SUMMARY_USAGE);
    let mut file: Option<String> = None;
    let mut top = 10usize;
    while let Some(arg) = flags.next() {
        match arg.as_str() {
            "--top" => top = flags.parse("--top", "row count")?,
            other if file.is_none() && !other.starts_with('-') => file = Some(other.to_string()),
            other => return Err(format!("unknown argument '{other}'; {TRACE_SUMMARY_USAGE}")),
        }
    }
    let path = file.ok_or(TRACE_SUMMARY_USAGE)?;
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
fn run_shard_host(argv: Vec<String>) -> Result<(), String> {
    let mut flags = Flags::new(argv, SHARD_HOST_USAGE);
    let mut listen = "127.0.0.1:0".to_string();
    while let Some(arg) = flags.next() {
        match arg.as_str() {
            "--listen" | "-l" => listen = flags.value("--listen")?,
            other => return Err(format!("unknown argument '{other}'; {SHARD_HOST_USAGE}")),
        }
    }
    let host = fabric::ShardHost::bind(&listen).map_err(|e| format!("binding {listen}: {e}"))?;
    host.run().map_err(|e| e.to_string())
}

/// Reads a planted fabric fault from the environment:
/// `EDGETUNE_FABRIC_KILL` names the shard whose first attempt is killed.
/// An environment variable rather than a flag so the byte-identity
/// checks (`.github/cli_matrix.sh`) run the exact same command line with
/// and without chaos.
fn fabric_chaos_from_env() -> Result<Option<FabricChaos>, String> {
    let Ok(text) = std::env::var("EDGETUNE_FABRIC_KILL") else {
        return Ok(None);
    };
    let shard = text
        .parse()
        .map_err(|e| format!("bad shard index in EDGETUNE_FABRIC_KILL: {e}"))?;
    Ok(Some(FabricChaos {
        shard,
        action: ChaosAction::Kill,
    }))
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        // Shard workers speak length-prefixed frames on stdin/stdout and
        // must never touch the normal CLI surface.
        Some(fabric::WORKER_SUBCOMMAND) => fabric::worker_main(),
        Some(fabric::HOST_SUBCOMMAND) => run_shard_host(argv.split_off(1)),
        Some("serve") => run_serve(argv.split_off(1)),
        Some("trace-summary") => run_trace_summary(argv.split_off(1)),
        _ => run_tune(argv),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}
