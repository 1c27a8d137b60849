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
//! Every subcommand returns `Result<(), String>` and appends its stdout
//! text to a buffer; `main` writes that buffer, then prints a failure
//! once, as `error: <message>`, and exits 1. A reader that closes stdout
//! early (`| head`) ends the output quietly; files are written anyway.

use std::fmt::Display;
use std::io::{ErrorKind, Write};
use std::process::ExitCode;
use std::str::FromStr;

use edgetune::batching::{MultiStreamScenario, ServerScenario};
use edgetune::config::ShardExec;
use edgetune::fabric;
use edgetune::prelude::*;
use edgetune::scenario::{frontier_rates, Scenario, ScenarioRetuner};
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

/// Appends one formatted line to a subcommand's stdout text.
macro_rules! outln {
    ($out:expr; $($arg:tt)*) => {{
        *$out += &format!($($arg)*);
        $out.push('\n');
    }};
}

/// Writes `text` to stdout. A broken pipe means the reader wanted no
/// more, so it ends the output without an error.
fn write_stdout(text: &str) -> Result<(), String> {
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => Err(format!("writing stdout: {e}")),
        _ => Ok(()),
    }
}

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
            let code = match write_stdout(&format!("{}\n", self.usage)) {
                Ok(()) => 0,
                Err(err) => {
                    eprintln!("error: {err}");
                    1
                }
            };
            std::process::exit(code);
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

struct ServeArgs {
    workload: WorkloadId,
    device: DeviceSpec,
    seed: u64,
    json: Option<String>,
    trace: Option<String>,
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

/// The tune command's flags: the study they configure, from the CLI's
/// defaults, and the two flags only the command reads (`--json` and
/// `--scenario`).
fn parse_tune_args(
    argv: Vec<String>,
) -> Result<(EdgeTuneConfig, Option<String>, Option<Scenario>), String> {
    let mut config = EdgeTuneConfig::for_workload(WorkloadId::Ic)
        .with_scheduler(SchedulerConfig::new(8, 2.0, 10))
        .with_seed(42);
    let (mut json, mut scenario) = (None, None);
    let mut flags = Flags::new(argv, TUNE_USAGE);
    while let Some(arg) = flags.next() {
        config = match arg.as_str() {
            "--workload" | "-w" => {
                config.workload = flags.value("--workload")?.parse()?;
                config
            }
            "--device" | "-d" => {
                config.with_edge_device(device_by_name(&flags.value("--device")?)?)
            }
            "--seed" | "-s" => config.with_seed(flags.parse("--seed", "seed")?),
            "--json" => {
                json = Some(flags.value("--json")?);
                config
            }
            "--trace" => config.with_trace_path(flags.value("--trace")?),
            "--metric" | "-m" => config.with_metric(flags.value("--metric")?.parse()?),
            "--budget" | "-b" => {
                config.with_budget(match flags.value("--budget")?.to_lowercase().as_str() {
                    "epoch" | "epochs" => BudgetPolicy::epoch_default(),
                    "dataset" => BudgetPolicy::dataset_default(),
                    "multi" | "multi-budget" => BudgetPolicy::multi_default(),
                    other => return Err(format!("unknown budget '{other}' (epoch|dataset|multi)")),
                })
            }
            "--trials" | "-n" => {
                config.scheduler.initial_configs = flags.count("--trials", "trial count")?;
                config
            }
            "--max-iter" => {
                config.scheduler.max_iteration = flags.count("--max-iter", "iteration count")?;
                config
            }
            "--trial-slots" => config.with_trial_slots(flags.count("--trial-slots", "slot count")?),
            "--study-shards" => {
                config.with_study_shards(flags.count("--study-shards", "shard count")?)
            }
            "--shard-exec" => {
                config.with_shard_exec(ShardExec::parse(&flags.value("--shard-exec")?)?)
            }
            "--shard-hosts" => {
                let hosts: Vec<String> = flags
                    .value("--shard-hosts")?
                    .split(',')
                    .map(str::trim)
                    .filter(|host| !host.is_empty())
                    .map(str::to_string)
                    .collect();
                if hosts.is_empty() {
                    return Err("--shard-hosts needs at least one host:port address".into());
                }
                config.with_shard_hosts(hosts)
            }
            "--fabric-trace" => config.with_fabric_trace_path(flags.value("--fabric-trace")?),
            "--cache" => config.with_cache_path(flags.value("--cache")?),
            "--no-pipelining" => config.without_pipelining(),
            "--no-cache" => config.without_historical_cache(),
            "--scenario" => {
                scenario = Some(parse_scenario(&flags.value("--scenario")?)?);
                config
            }
            "--checkpoint" => config.with_checkpoint_path(flags.value("--checkpoint")?),
            "--resume" => config.resuming(),
            "--halt-after-rungs" => {
                config.with_halt_after_rungs(flags.parse("--halt-after-rungs", "rung count")?)
            }
            "--fault-rate" => {
                let rate: f64 = flags.parse("--fault-rate", "fault rate")?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err("--fault-rate must be within [0, 1]".into());
                }
                config.with_fault_rate(rate)
            }
            "--pareto" => config.with_pareto(flags.count("--pareto", "frontier size")?),
            other => return Err(unknown_flag(other)),
        };
    }
    if config.resume && config.checkpoint_path.is_none() {
        return Err("--resume needs --checkpoint FILE".into());
    }
    if !config.shard_hosts.is_empty() && config.shard_exec != ShardExec::Remote {
        return Err("--shard-hosts needs --shard-exec remote".into());
    }
    Ok((config, json, scenario))
}

fn parse_serve_args(argv: Vec<String>) -> Result<ServeArgs, String> {
    let mut args = ServeArgs {
        workload: WorkloadId::Ic,
        device: DeviceSpec::raspberry_pi_3b(),
        seed: 42,
        json: None,
        trace: None,
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
            "--workload" | "-w" => args.workload = flags.value("--workload")?.parse()?,
            "--device" | "-d" => args.device = device_by_name(&flags.value("--device")?)?,
            "--seed" | "-s" => args.seed = flags.parse("--seed", "seed")?,
            "--json" => args.json = Some(flags.value("--json")?),
            "--trace" => args.trace = Some(flags.value("--trace")?),
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
            other => return Err(unknown_flag(other)),
        }
    }
    Ok(args)
}

/// The tune command: one study, its report on stdout, and optionally
/// its JSON, trace and scenario recommendation.
fn run_tune(argv: Vec<String>, out: &mut String) -> Result<(), String> {
    let (config, json, scenario) = parse_tune_args(argv)?;

    let (workload, seed) = (config.workload, config.seed);
    let edge_device = config.edge_device.clone();
    let trace = config.trace_path.clone();
    let cache = config.cache_path.clone();
    let fabric_trace = config.fabric_trace_path.clone();
    eprintln!(
        "tuning {} for {} ({} objective, {} budget, seed {})...",
        workload,
        edge_device.name,
        config.inference_metric,
        config.budget.name(),
        seed
    );
    let report = EdgeTune::new(config).run().map_err(|e| e.to_string())?;
    if let Some(path) = &trace {
        eprintln!(
            "chrome trace written to {} (open in chrome://tracing or Perfetto)",
            path.display()
        );
    }
    // Fabric counters are wall-clock noise, so they go to stderr —
    // stdout stays deterministic for a fixed seed.
    if let Some(stats) = report.fabric_stats() {
        eprintln!(
            "fabric: {} shard attempts over {} links, {} heartbeats, \
             {} crashes ({} timeouts), {} retries, {} in-process fallbacks",
            stats.spawns,
            stats.links,
            stats.heartbeats,
            stats.crashes,
            stats.timeouts,
            stats.retries,
            stats.fallbacks,
        );
    }
    if let Some(path) = &fabric_trace {
        eprintln!("fabric telemetry trace written to {}", path.display());
    }
    if let (n @ 1.., Some(path)) = (report.skipped_cache_entries(), &cache) {
        eprintln!(
            "cache: skipped {n} unreadable item(s) of {}: an entry that is not a deployment \
             for its key, or the whole file if it is not a cache",
            path.display()
        );
    }

    outln!(out; "== winning trial ==");
    outln!(out; "configuration : {}", report.best_config());
    outln!(out; "accuracy      : {:.1}%", report.best_accuracy() * 100.0);
    outln!(out; "trials run    : {}", report.history().len());
    outln!(out;
        "tuning cost   : {:.1} min, {:.1} kJ (stall {:.1} s)",
        report.tuning_runtime().as_minutes(),
        report.tuning_energy().as_kilojoules(),
        report.stall_time().value(),
    );
    let rec = report.recommendation();
    outln!(out; "== deployment recommendation ==");
    outln!(out; "device        : {}", rec.device);
    outln!(out; "batch/cores   : {} / {}", rec.batch, rec.cores);
    outln!(out; "frequency     : {:.2} GHz", rec.freq.as_ghz());
    outln!(out; "throughput    : {:.1} items/s", rec.throughput().value());
    outln!(out; "energy        : {:.3} J/item", rec.energy_per_item.value());

    if !report.frontier().is_empty() {
        outln!(out; "== pareto frontier ==");
        outln!(out;
            "{:>5} {:>9} {:>12} {:>12}  configuration",
            "trial", "accuracy", "train-cost", "infer-cost"
        );
        for point in report.frontier() {
            outln!(out;
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
        outln!(out; "== fault report ==");
        outln!(out; "failed trials    : {}", faults.failed_trials);
        outln!(out;
            "trial faults     : {} crashes, {} stragglers",
            d.trial_crashes, d.trial_stragglers
        );
        outln!(out;
            "trial recovery   : {} retries, {} skipped with penalty",
            d.trial_retries, d.trials_skipped
        );
        outln!(out;
            "inference faults : {} lost replies, {} injected losses, {} outages, {} real panics",
            d.worker_losses, faults.injected_losses, faults.injected_outages, faults.worker_panics
        );
        outln!(out;
            "inference rescue : {} retries, {} stale-cache answers, {} default recommendations",
            d.inference_retries, d.stale_cache_served, d.default_recommendations
        );
    }

    if let Some(scenario) = &scenario {
        use edgetune::backend::PARAM_MODEL_HP;
        let workload = Workload::by_id(workload);
        let hp = report
            .best_config()
            .get(PARAM_MODEL_HP)
            .unwrap_or_else(|| workload.model_hp_values[0]);
        let space = InferenceSpace::for_device(&edge_device);
        let config = ScenarioRetuner::new(edge_device, space, workload.profile(hp))
            .recommend(scenario, SeedStream::new(seed).child("scenario"))
            .map_err(|e| format!("scenario tuning failed: {e}"))?;
        let response = config
            .predicted_mean_response
            .map_or(f64::NAN, |s| s.value());
        outln!(out; "== scenario recommendation ==");
        outln!(out; "scenario      : {scenario:?}");
        outln!(out; "batch/cores   : {} / {}", config.batch_cap, config.cores);
        outln!(out; "frequency     : {:.2} GHz", config.freq.as_ghz());
        outln!(out; "mean response : {response:.3} s");
    }

    if let Some(path) = &json {
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

fn run_serve(argv: Vec<String>, out: &mut String) -> Result<(), String> {
    let args = parse_serve_args(argv)?;
    let device = args.device;
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
    let arrivals = traffic.generate(Seconds::new(args.horizon), seed);
    let report = runtime
        .serve_trace_traced(&arrivals, traffic.name(), tuner, seed, tracer.as_ref())
        .map_err(|e| e.to_string())?;
    if let (Some(path), Some(tracer)) = (&args.trace, &tracer) {
        ChromeTrace::from_tracer(tracer)
            .write(path)
            .map_err(|e| e.to_string())?;
        eprintln!("chrome trace written to {path} (open in chrome://tracing or Perfetto)");
    }

    eprintln!("{}", report.summary());
    let json = report.to_json().map_err(|e| e.to_string())?;
    outln!(out; "{json}");
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
fn run_trace_summary(argv: Vec<String>, out: &mut String) -> Result<(), String> {
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
    outln!(out;
        "{} spans, {} distinct names, {:.3} ms total self time",
        spans,
        stats.len(),
        busy_us / 1e3
    );
    outln!(out;
        "{:<32} {:>7} {:>12} {:>12} {:>7}",
        "span", "count", "total(ms)", "self(ms)", "self%"
    );
    for stat in stats.iter().take(top) {
        let share = if busy_us > 0.0 {
            100.0 * stat.self_us / busy_us
        } else {
            0.0
        };
        outln!(out;
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

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::new();
    let result = match argv.first().map(String::as_str) {
        // Shard workers speak length-prefixed frames on stdin/stdout and
        // must never touch the normal CLI surface.
        Some(fabric::WORKER_SUBCOMMAND) => fabric::worker_main(),
        Some(fabric::HOST_SUBCOMMAND) => run_shard_host(argv.split_off(1)),
        Some("serve") => run_serve(argv.split_off(1), &mut out),
        Some("trace-summary") => run_trace_summary(argv.split_off(1), &mut out),
        _ => run_tune(argv, &mut out),
    };
    let written = write_stdout(&out);
    match result.and(written) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}
