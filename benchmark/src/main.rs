//! `edgetune-benchmark` — the repo's ruler: six wall-clock workloads with
//! outside-in layer attribution. Run it through `benchmark/run.sh`.
//!
//! Three ways in:
//!
//! - `--workload W --seed N --seconds S --trace 0|1` measures one workload
//!   and prints one JSON result line (the contract of `BENCHMARK.json`).
//! - no `--workload` runs every workload, prints every metric by name and
//!   unit, writes `baseline.json` and appends `history.jsonl`; `--check`
//!   compares against the committed baseline instead of replacing it, and
//!   `--smoke` runs everything at 1/16 size with one repetition.
//! - hidden subcommands: the parent self-execs `__child` once per
//!   repetition, the process shard fabric self-execs the shard-worker
//!   subcommand, and the spawn probe self-execs `__noop`.

mod child;
mod harness;
mod procfs;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use serde_json::{json, Map, Value};

use harness::{Budget, Launcher, Measured, Repetition};

const USAGE: &str = "usage: run.sh [--seed S] [--check] [--smoke]\n       \
                     run.sh --workload W --seed S --seconds N --trace 0|1\n       \
                     run.sh --emit-manifest | --describe";

#[derive(Debug)]
struct Args {
    bench_dir: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    smoke: bool,
    emit_manifest: bool,
    describe: bool,
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("bad {flag} value '{value}'"))
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        bench_dir: PathBuf::from("benchmark"),
        workload: None,
        seed: 42,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        check: false,
        smoke: false,
        emit_manifest: false,
        describe: false,
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--bench-dir" => args.bench_dir = parse(&flag, argv.next())?,
            "--workload" => args.workload = Some(parse(&flag, argv.next())?),
            "--seed" => args.seed = parse(&flag, argv.next())?,
            "--seconds" => args.seconds = parse(&flag, argv.next())?,
            "--trace" => args.trace = parse::<u8>(&flag, argv.next())? != 0,
            "--check" => args.check = true,
            "--smoke" => args.smoke = true,
            "--emit-manifest" => args.emit_manifest = true,
            "--describe" => args.describe = true,
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    if let Some(name) = &args.workload {
        if spec::workload(name).is_none() {
            let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload '{name}' (one of {})",
                names.join(", ")
            ));
        }
    }
    Ok(args)
}

fn parse_child_args(mut argv: impl Iterator<Item = String>) -> Result<child::ChildArgs, String> {
    let mut args = child::ChildArgs {
        workload: String::new(),
        seed: 0,
        divisor: 1,
        traced: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--workload" => args.workload = parse(&flag, argv.next())?,
            "--seed" => args.seed = parse(&flag, argv.next())?,
            "--divisor" => args.divisor = parse(&flag, argv.next())?,
            "--trace" => args.traced = parse::<u8>(&flag, argv.next())? != 0,
            "--out-dir" => args.out_dir = parse(&flag, argv.next())?,
            other => return Err(format!("unknown child argument '{other}'")),
        }
    }
    Ok(args)
}

fn metric_json(value: f64, unit: &str) -> Value {
    json!({"value": value, "unit": unit})
}

/// One workload, one result line: the contract of `BENCHMARK.json`.
fn run_one(args: &Args, workload: &str) -> ExitCode {
    let launcher = Launcher {
        bench_dir: args.bench_dir.clone(),
        seed: args.seed,
        divisor: 1,
    };
    let mut metrics = Map::new();
    let (correct, attempted, failed, errors) = if args.trace {
        match launcher.repetition(workload, true) {
            Ok(rep) => {
                for layer in spec::PER_LAYER {
                    // 0 stands for "this workload does not exercise the layer".
                    let value = rep.layers.get(layer.name).copied().unwrap_or(0.0);
                    metrics.insert(layer.name, metric_json(value, layer.unit));
                }
                let verdict = rep.verdict;
                (
                    verdict.failed == 0 && verdict.errors.is_empty(),
                    verdict.attempted,
                    verdict.failed,
                    verdict.errors,
                )
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let measured = harness::measure(&launcher, workload, Budget::Seconds(args.seconds));
        if measured.repetitions.is_empty() {
            for e in &measured.errors {
                eprintln!("error: {e}");
            }
            return ExitCode::FAILURE;
        }
        for metric in &spec::END_TO_END {
            let summary = measured.summary(metric.name);
            eprintln!(
                "{workload} {:<12} {:>14.4} {:<5} (q1 {:.4}, q3 {:.4}, n {})",
                metric.name, summary.median, metric.unit, summary.q1, summary.q3, summary.n
            );
            metrics.insert(metric.name, metric_json(summary.median, metric.unit));
        }
        (
            measured.correct(),
            measured.attempted,
            measured.failed,
            measured.errors,
        )
    };
    for e in &errors {
        eprintln!("check failed: {e}");
    }
    let result = json!({
        "correct": correct,
        "attempted": (attempted.max(1)),
        "failed": failed,
        "metrics": (Value::Object(metrics))
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serialises")
    );
    ExitCode::SUCCESS
}

fn print_workload(name: &str, measured: &Measured, traced: Option<&Repetition>) {
    println!("\n== {name} ==");
    for metric in &spec::END_TO_END {
        let s = measured.summary(metric.name);
        println!(
            "  {:<44} {:>16.4} {:<8} q1 {:.4}  q3 {:.4}  n {}  spread {:.1}%",
            metric.name,
            s.median,
            metric.unit,
            s.q1,
            s.q3,
            s.n,
            s.spread() * 100.0
        );
    }
    let pooled = measured.pooled_unit_ms();
    if let Some(p90) = stats::percentile(&pooled, 0.9) {
        println!(
            "  {:<44} {:>16.4} {:<8} n {}",
            "unit_ms_p50",
            stats::median(&pooled),
            "ms",
            pooled.len()
        );
        println!(
            "  {:<44} {:>16.4} {:<8} n {}",
            "unit_ms_p90",
            p90,
            "ms",
            pooled.len()
        );
    }
    println!(
        "  {:<44} {:>16} {:<8} ({} attempted)",
        "failed", measured.failed, "count", measured.attempted
    );
    for (digest, crc) in measured.digests() {
        println!("  {:<44} {:>16} crc32", format!("digest.{digest}"), crc);
    }
    let Some(traced) = traced else { return };
    for layer in spec::PER_LAYER {
        if let Some(value) = traced.layers.get(layer.name) {
            println!(
                "  {:<44} {:>16.4} {:<8} -> {}",
                layer.name, value, layer.unit, layer.moves
            );
        }
    }
    println!(
        "  harness spans by self time (edgetune trace-summary benchmark/out/{name}.trace.json):"
    );
    let mut rows: Vec<_> = traced.self_times.iter().collect();
    rows.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
    for (span, t) in rows {
        println!(
            "    {span:<42} {:>8} x  total {:>9.4} s  self {:>9.4} s",
            t.count, t.total_s, t.self_s
        );
    }
}

/// `--describe`: the glossary the README is written from.
fn describe() {
    println!("workloads:");
    for w in &spec::WORKLOADS {
        println!(
            "  {} (unit: {})\n    size: {}\n    why:  {}",
            w.name, w.unit, w.size, w.why
        );
    }
    println!("end-to-end metrics:");
    for m in spec::END_TO_END.iter().chain(&spec::UNIT_LATENCY) {
        println!(
            "  {:<12} {:<4} better {:<6} bound {:>3.0}% + {} — {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.floor,
            m.what
        );
    }
    println!("per-layer metrics:");
    for l in spec::PER_LAYER {
        println!(
            "  {:<44} {:<8} on {:<32} -> {}",
            l.name, l.unit, l.on, l.moves
        );
    }
}

/// Every workload: timed repetitions, then the traced one.
fn run_all(args: &Args) -> ExitCode {
    let launcher = Launcher {
        bench_dir: args.bench_dir.clone(),
        seed: args.seed,
        divisor: if args.smoke { spec::SMOKE_DIVISOR } else { 1 },
    };
    let budget = Budget::Repetitions(if args.smoke {
        1
    } else {
        spec::FULL_RUN_REPETITIONS
    });
    let mut sections = Map::new();
    let mut failures: Vec<String> = Vec::new();
    for workload in &spec::WORKLOADS {
        eprintln!("running {} ...", workload.name);
        let mut measured = harness::measure(&launcher, workload.name, budget);
        let traced = match launcher.repetition(workload.name, true) {
            Ok(rep) => {
                measured.attempted += rep.verdict.attempted;
                measured.failed += rep.verdict.failed;
                measured.errors.extend(rep.verdict.errors.iter().cloned());
                Some(rep)
            }
            Err(e) => {
                measured.failed += 1;
                measured.errors.push(e);
                None
            }
        };
        print_workload(workload.name, &measured, traced.as_ref());
        failures.extend(
            measured
                .errors
                .iter()
                .map(|e| format!("{}: {e}", workload.name)),
        );
        if measured.failed > 0 && measured.errors.is_empty() {
            failures.push(format!(
                "{}: {} failed operations",
                workload.name, measured.failed
            ));
        }
        sections.insert(
            workload.name,
            harness::workload_json(workload, &measured, traced.as_ref()),
        );
    }

    let document = json!({
        "seed": (args.seed),
        "host": (harness::fingerprint(&args.bench_dir)),
        "workloads": (Value::Object(sections))
    });

    if args.smoke {
        println!("\nsmoke run: nothing written");
    } else {
        let baseline_path = args.bench_dir.join("baseline.json");
        if args.check {
            match check(&baseline_path, &document) {
                Ok(findings) => failures.extend(findings),
                Err(e) => failures.push(e),
            }
        } else {
            let text = serde_json::to_string_pretty(&document).expect("baseline serialises");
            if let Err(e) = std::fs::write(&baseline_path, text + "\n") {
                failures.push(format!("{}: {e}", baseline_path.display()));
            } else {
                println!("\nbaseline written to {}", baseline_path.display());
            }
        }
        if let Err(e) = harness::append_history(&args.bench_dir, args.seed, &document) {
            failures.push(e);
        }
    }

    if failures.is_empty() {
        println!("\nall output checks passed");
        ExitCode::SUCCESS
    } else {
        println!();
        for failure in &failures {
            println!("FAILED {failure}");
        }
        ExitCode::FAILURE
    }
}

/// Compares a fresh run against the committed baseline.
fn check(baseline_path: &std::path::Path, current: &Value) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("{}: {e}", baseline_path.display()))?;
    let baseline: Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", baseline_path.display()))?;
    let same_seed = baseline["seed"] == current["seed"];
    if !same_seed {
        println!("\nseed differs from the baseline's: counts and digests are not compared");
    }
    let mut findings = Vec::new();
    for workload in &spec::WORKLOADS {
        findings.extend(harness::compare(
            workload.name,
            &baseline["workloads"][workload.name],
            &current["workloads"][workload.name],
            same_seed,
        ));
    }
    if findings.is_empty() {
        println!("\ncheck: within every bound of {}", baseline_path.display());
    }
    Ok(findings)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let mut argv = std::env::args().skip(1).peekable();
    match argv.peek().map(String::as_str) {
        Some(edgetune::fabric::WORKER_SUBCOMMAND) => {
            // Spawned by a supervisor pinned to one CPU; shards run side by side.
            procfs::allow_all_cpus();
            edgetune::fabric::worker_main()
        }
        Some(workloads::fabric::NOOP_SUBCOMMAND) => return ExitCode::SUCCESS,
        _ => {}
    }
    if cfg!(debug_assertions) {
        eprintln!("error: refusing to measure a debug build; use benchmark/run.sh");
        return ExitCode::from(2);
    }
    if argv.peek().map(String::as_str) == Some(harness::CHILD_SUBCOMMAND) {
        argv.next();
        let result = parse_child_args(argv).and_then(|args| child::run(&args, started));
        return match result {
            Ok(doc) => {
                println!(
                    "{}",
                    serde_json::to_string(&doc).expect("result serialises")
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.emit_manifest {
        println!(
            "{}",
            serde_json::to_string_pretty(&spec::manifest()).expect("manifest serialises")
        );
        return ExitCode::SUCCESS;
    }
    if args.describe {
        describe();
        return ExitCode::SUCCESS;
    }
    match &args.workload {
        Some(workload) => run_one(&args, workload),
        None => run_all(&args),
    }
}
