//! The parent side: self-exec one child per (workload, repetition),
//! strictly one at a time, fold their results into medians, and compare
//! a run against the committed baseline.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use serde::{Deserialize, Serialize};
use serde_json::{json, Map, Value};

use crate::procfs;
use crate::spans::SelfTime;
use crate::spec::{self, Better, EndToEnd, MIN_REPETITIONS};
use crate::stats::{median, percentile, Summary};
use crate::workloads::Verdict;

/// Argument that routes a self-exec'd process into [`crate::child`].
pub const CHILD_SUBCOMMAND: &str = "__child";

/// Timed repetitions a run may take however slow the host is.
const MAX_REPETITIONS: usize = 12;

/// What one child reports to its parent: one JSON line on stdout,
/// written and read through this one type.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Repetition {
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub verdict: Verdict,
    /// Per-layer metrics by the names of [`spec::PER_LAYER`]; traced only.
    pub layers: BTreeMap<String, f64>,
    /// The harness's spans folded by name; traced only.
    pub self_times: BTreeMap<String, SelfTime>,
}

impl Repetition {
    fn units_per_s(&self) -> f64 {
        self.verdict.units as f64 / self.wall_s
    }

    /// The end-to-end metric `name` of this repetition.
    fn end_to_end(&self, name: &str) -> f64 {
        match name {
            "wall_s" => self.wall_s,
            "units_per_s" => self.units_per_s(),
            "cpu_s" => self.cpu_s,
            "peak_rss_mb" => self.peak_rss_mb,
            "setup_s" => self.setup_s,
            other => unreachable!("'{other}' is not an end-to-end metric"),
        }
    }
}

/// Where and how children run.
#[derive(Debug, Clone)]
pub struct Launcher {
    pub bench_dir: PathBuf,
    pub seed: u64,
    pub divisor: u32,
}

impl Launcher {
    pub fn out_dir(&self) -> PathBuf {
        self.bench_dir.join("out")
    }

    /// Runs one repetition in a child process and waits for it.
    pub fn repetition(&self, workload: &str, traced: bool) -> Result<Repetition, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
        let output = Command::new(exe)
            .arg(CHILD_SUBCOMMAND)
            .args(["--workload", workload])
            .args(["--seed", &self.seed.to_string()])
            .args(["--divisor", &self.divisor.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .arg("--out-dir")
            .arg(self.out_dir())
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("spawning the {workload} child: {e}"))?;
        if !output.status.success() {
            // The program under test logs to stderr (shard hosts announce
            // every session); it is worth reading only after a failure.
            let stderr = String::from_utf8_lossy(&output.stderr);
            let tail: Vec<&str> = stderr.lines().rev().take(20).collect();
            for line in tail.iter().rev() {
                eprintln!("  {workload} child: {line}");
            }
            return Err(format!("{workload} child exited with {}", output.status));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout
            .lines()
            .last()
            .ok_or_else(|| format!("{workload} child printed no result"))?;
        serde_json::from_str(line).map_err(|e| format!("{workload} child result: {e}"))
    }
}

/// How many timed repetitions a measurement takes.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Until the timed walls sum to this many seconds.
    Seconds(f64),
    /// Exactly this many.
    Repetitions(usize),
}

/// The timed repetitions of one workload, tracing off.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    pub repetitions: Vec<Repetition>,
    /// Output-check mismatches and children that did not finish.
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Measured {
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0 && !self.repetitions.is_empty()
    }

    pub fn summary(&self, metric: &str) -> Summary {
        let values: Vec<f64> = self
            .repetitions
            .iter()
            .map(|r| r.end_to_end(metric))
            .collect();
        Summary::of(&values)
    }

    /// Per-study latencies pooled over the repetitions.
    pub fn pooled_unit_ms(&self) -> Vec<f64> {
        self.repetitions
            .iter()
            .flat_map(|r| r.verdict.unit_ms.iter().copied())
            .collect()
    }

    /// The digests every repetition agreed on.
    pub fn digests(&self) -> BTreeMap<String, u32> {
        self.repetitions
            .first()
            .map(|r| r.verdict.digests.clone())
            .unwrap_or_default()
    }

    /// Folds in one more repetition, checking its outputs against the
    /// first's: the same seed must give the same bytes.
    fn push(&mut self, workload: &str, result: Result<Repetition, String>) {
        match result {
            Ok(rep) => {
                self.attempted += rep.verdict.attempted;
                self.failed += rep.verdict.failed;
                self.errors.extend(rep.verdict.errors.iter().cloned());
                if let Some(first) = self.repetitions.first() {
                    if first.verdict.digests != rep.verdict.digests {
                        self.failed += 1;
                        self.errors.push(format!(
                            "{workload}: repetition {} produced different output bytes",
                            self.repetitions.len() + 1
                        ));
                    }
                }
                self.repetitions.push(rep);
            }
            Err(e) => {
                self.attempted += 1;
                self.failed += 1;
                self.errors.push(e);
            }
        }
    }
}

/// Runs the timed repetitions of `workload`, one child at a time.
pub fn measure(launcher: &Launcher, workload: &str, budget: Budget) -> Measured {
    let mut measured = Measured::default();
    let mut spawned = 0;
    loop {
        let timed: f64 = measured.repetitions.iter().map(|r| r.wall_s).sum();
        let done = match budget {
            Budget::Seconds(seconds) => spawned >= MIN_REPETITIONS && timed >= seconds,
            Budget::Repetitions(n) => spawned >= n,
        };
        // A child that cannot finish will not finish next time either.
        if done || spawned >= MAX_REPETITIONS || measured.repetitions.len() < spawned {
            return measured;
        }
        measured.push(workload, launcher.repetition(workload, false));
        spawned += 1;
    }
}

/// Whether `current` is worse than `baseline` by more than the metric's
/// relative bound plus its absolute floor.
pub fn regressed(metric: &EndToEnd, baseline: f64, current: f64) -> bool {
    let slack = baseline.abs() * metric.bound + metric.floor;
    match metric.better {
        Better::Lower => current > baseline + slack,
        Better::Higher => current < baseline - slack,
    }
}

fn summary_json(summary: &Summary, unit: &str) -> Value {
    json!({
        "median": (summary.median),
        "q1": (summary.q1),
        "q3": (summary.q3),
        "n": (summary.n),
        "unit": unit
    })
}

/// One workload's section of the baseline file.
pub fn workload_json(
    workload: &spec::WorkloadSpec,
    measured: &Measured,
    traced: Option<&Repetition>,
) -> Value {
    let mut end_to_end = Map::new();
    for metric in &spec::END_TO_END {
        end_to_end.insert(
            metric.name,
            summary_json(&measured.summary(metric.name), metric.unit),
        );
    }
    let pooled = measured.pooled_unit_ms();
    if let Some(p90) = percentile(&pooled, 0.9) {
        end_to_end.insert(
            "unit_ms_p50",
            json!({"median": (median(&pooled)), "n": (pooled.len()), "unit": "ms"}),
        );
        end_to_end.insert(
            "unit_ms_p90",
            json!({"median": p90, "n": (pooled.len()), "unit": "ms"}),
        );
    }
    let mut digests = Map::new();
    for (name, crc) in measured.digests() {
        digests.insert(name, json!(crc));
    }
    let mut per_layer = Map::new();
    if let Some(traced) = traced {
        for layer in spec::PER_LAYER {
            if let Some(value) = traced.layers.get(layer.name) {
                per_layer.insert(layer.name, json!({"value": (*value), "unit": (layer.unit)}));
            }
        }
    }
    json!({
        "unit": (workload.unit),
        "size": (workload.size),
        "why": (workload.why),
        "attempted": (measured.attempted),
        "failed": (measured.failed),
        "end_to_end": (Value::Object(end_to_end)),
        "digests": (Value::Object(digests)),
        "per_layer": (Value::Object(per_layer))
    })
}

/// Compares one workload's fresh section against its baseline section;
/// returns one line per regression or mismatch.
pub fn compare(name: &str, baseline: &Value, current: &Value, same_seed: bool) -> Vec<String> {
    let mut findings = Vec::new();
    if current["failed"].as_u64() != Some(0) {
        findings.push(format!(
            "{name}: failed operations: {}",
            current["failed"].as_u64().unwrap_or(0)
        ));
    }
    for metric in spec::END_TO_END.iter().chain(&spec::UNIT_LATENCY) {
        let read = |doc: &Value| doc["end_to_end"][metric.name]["median"].as_f64();
        if let (Some(old), Some(new)) = (read(baseline), read(current)) {
            if regressed(metric, old, new) {
                findings.push(format!(
                    "{name}: {} regressed: {old:.4} -> {new:.4} {} (bound {:.0}% + {})",
                    metric.name,
                    metric.unit,
                    metric.bound * 100.0,
                    metric.floor
                ));
            }
        }
    }
    if !same_seed {
        // Counts and digests are functions of the seed.
        return findings;
    }
    if baseline["digests"] != current["digests"] {
        findings.push(format!(
            "{name}: output digests moved: {} -> {}",
            serde_json::to_string(&baseline["digests"]).unwrap_or_default(),
            serde_json::to_string(&current["digests"]).unwrap_or_default()
        ));
    }
    for layer in spec::PER_LAYER.iter().filter(|l| l.is_exact()) {
        let read = |doc: &Value| doc["per_layer"][layer.name]["value"].as_f64();
        if let (Some(old), Some(new)) = (read(baseline), read(current)) {
            if old != new {
                findings.push(format!("{name}: {} moved: {old} -> {new}", layer.name));
            }
        }
    }
    findings
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let output = Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// What identifies the host and the commit a run was made on.
pub fn fingerprint(bench_dir: &Path) -> Value {
    let unknown = || "unknown".to_string();
    json!({
        "commit": (command_line("git", &["rev-parse", "HEAD"], bench_dir).unwrap_or_else(unknown)),
        "rustc": (command_line("rustc", &["--version"], bench_dir).unwrap_or_else(unknown)),
        "nproc": (std::thread::available_parallelism().map_or(0, usize::from)),
        "cpu_model": (procfs::cpu_model())
    })
}

/// Appends one line to `history.jsonl`: the fingerprint, the seed and the
/// end-to-end medians of every workload.
pub fn append_history(bench_dir: &Path, seed: u64, document: &Value) -> Result<(), String> {
    use std::io::Write;
    let mut medians = Map::new();
    if let Some(workloads) = document["workloads"].as_object() {
        for (name, section) in workloads {
            let mut row = Map::new();
            if let Some(metrics) = section["end_to_end"].as_object() {
                for (metric, summary) in metrics {
                    row.insert(metric.as_str(), summary["median"].clone());
                }
            }
            row.insert("failed", section["failed"].clone());
            medians.insert(name.as_str(), Value::Object(row));
        }
    }
    let mut line = Map::new();
    if let Some(host) = document["host"].as_object() {
        for (key, value) in host {
            line.insert(key.as_str(), value.clone());
        }
    }
    line.insert("seed", json!(seed));
    line.insert("workloads", Value::Object(medians));
    let path = bench_dir.join("history.jsonl");
    let text = serde_json::to_string(&Value::Object(line)).map_err(|e| e.to_string())?;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(file, "{text}").map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, bound: f64, floor: f64) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "s",
            better,
            bound,
            floor,
            what: "",
        }
    }

    #[test]
    fn lower_is_better_regresses_past_bound_plus_floor() {
        let m = metric(Better::Lower, 0.10, 0.0);
        assert!(!regressed(&m, 2.0, 2.2));
        assert!(regressed(&m, 2.0, 2.21));
        assert!(!regressed(&m, 2.0, 1.0), "an improvement never regresses");
    }

    #[test]
    fn higher_is_better_regresses_downwards() {
        let m = metric(Better::Higher, 0.10, 0.0);
        assert!(!regressed(&m, 1000.0, 900.0));
        assert!(regressed(&m, 1000.0, 899.0));
        assert!(!regressed(&m, 1000.0, 5000.0));
    }

    #[test]
    fn floor_absorbs_noise_on_small_values() {
        // setup_s: 25 % of 0.04 s is 0.01 s, but the floor grants 0.1 s.
        let m = metric(Better::Lower, 0.25, 0.1);
        assert!(!regressed(&m, 0.04, 0.14));
        assert!(regressed(&m, 0.04, 0.16));
        // peak_rss_mb-style floor on a higher-is-better metric too.
        let m = metric(Better::Higher, 0.10, 4.0);
        assert!(!regressed(&m, 10.0, 5.5));
        assert!(regressed(&m, 10.0, 4.9));
    }

    fn section(wall: f64, digest: u64, calls: f64) -> Value {
        json!({
            "failed": 0,
            "end_to_end": {"wall_s": {"median": wall}},
            "digests": {"reports": digest},
            "per_layer": {"backend.run_trial.calls": {"value": calls}}
        })
    }

    #[test]
    fn compare_is_banded_for_times_and_exact_for_counts_and_digests() {
        let base = section(2.0, 7, 100.0);
        assert!(compare("w", &base, &section(2.1, 7, 100.0), true).is_empty());
        assert_eq!(compare("w", &base, &section(3.0, 7, 100.0), true).len(), 1);
        assert_eq!(compare("w", &base, &section(2.0, 8, 100.0), true).len(), 1);
        assert_eq!(compare("w", &base, &section(2.0, 7, 101.0), true).len(), 1);
        // Another seed moves counts and digests legitimately.
        assert!(compare("w", &base, &section(2.0, 8, 101.0), false).is_empty());
    }

    #[test]
    fn a_failed_operation_is_a_finding() {
        let mut current = section(2.0, 7, 100.0);
        current["failed"] = json!(2);
        let findings = compare("w", &section(2.0, 7, 100.0), &current, true);
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn repetitions_must_agree_on_their_digests() {
        let rep = |digest: u32| Repetition {
            wall_s: 1.0,
            verdict: Verdict {
                attempted: 1,
                digests: [("reports".to_string(), digest)].into(),
                ..Verdict::default()
            },
            ..Repetition::default()
        };
        let mut measured = Measured::default();
        measured.push("w", Ok(rep(1)));
        measured.push("w", Ok(rep(1)));
        assert!(measured.correct());
        measured.push("w", Ok(rep(2)));
        assert!(!measured.correct());
        assert_eq!(measured.failed, 1);
        measured.push("w", Err("child died".to_string()));
        assert_eq!((measured.attempted, measured.failed), (4, 2));
    }
}
