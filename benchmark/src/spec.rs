//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics with the end-to-end metric
//! each one is predicted to move. `BENCHMARK.json` at the repo root is
//! generated from these tables (`--emit-manifest`) and a unit test keeps
//! the two in step.

use serde_json::{json, Map, Value};

/// How long one driver run measures: timed repetitions are added until
/// their walls sum to this (three at least).
pub const RUN_SECONDS: u64 = 10;

/// Timed repetitions of a full `run.sh` run (the driver's runs size
/// themselves from `--seconds` instead).
pub const FULL_RUN_REPETITIONS: usize = 5;

/// Least timed repetitions behind any reported median.
pub const MIN_REPETITIONS: usize = 3;

/// Size divisors: the warm-up runs at quarter size, `--smoke` at 1/16.
pub const WARMUP_DIVISOR: u32 = 4;
pub const SMOKE_DIVISOR: u32 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// What `units_per_s` counts.
    pub unit: &'static str,
    /// Full-size inputs, for the README and the baseline file.
    pub size: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "study-hb",
        unit: "trial",
        size: "1 BOHB study, ic, SchedulerConfig(1536, 3.0, 27): 22272 trials, 4 brackets",
        why: "Headline BOHB study sized so tuner orchestration is ~90% of wall and the backend ~1%; the quadratic inter-bracket history cost shows only here.",
    },
    WorkloadSpec {
        name: "study-sweep",
        unit: "trial",
        size: "32 single-bracket studies (4096, 3.0, 16) over {ic,sr,nlp,od} x {runtime,energy} x 4 seeds, each with its JSON report",
        why: "Same engine on the linear per-trial path (evaluator, backend, device models, cache, report serde); a sampler/history fix must show no change here.",
    },
    WorkloadSpec {
        name: "study-nn",
        unit: "trial",
        size: "NnTrainingBackend MLP (64, 2.0, 16) = 736 trials, then convnet (16, 2.0, 8) = 104 trials, grid sampler",
        why: "Real gradient-descent training: the only workload where edgetune-nn kernels and run_trial dominate (>90%) and the tuner is noise.",
    },
    WorkloadSpec {
        name: "serve-des",
        unit: "request",
        size: "Pi 3B+/ic, SLO 4 s, adaptive + live re-tuner: Poisson 10/s x 400000 s, burst 30<->3/s x 100000 s, shift 10->40/s x 100000 s",
        why: "The serving DES under three traffic shapes: Poisson is the pure event loop, burst the drift-to-retune path, shift the shedding path.",
    },
    WorkloadSpec {
        name: "service-batch",
        unit: "study",
        size: "64 studies, 4 tenants weights 1-4, trials 8, max_iter 9, rung_quantum 1, every second study warm-started",
        why: "Multi-tenant batch whose study compute is negligible, so checkpoint park/resume I/O, serde, the fair scheduler and the transfer index are the work.",
    },
    WorkloadSpec {
        name: "fabric-placement",
        unit: "shard-attempt",
        size: "48 HyperBand studies (32, 2.0, 16), study_shards 2, under process workers then two loopback shard hosts",
        why: "Small rungs under process and remote shard placement, so spawn, spec/task JSON, frame codec, handshake and RPC are the cost threads bypass.",
    },
];

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median the metric may worsen by.
    pub bound: f64,
    /// Absolute slack `--check` grants on top, in the metric's unit.
    pub floor: f64,
    pub what: &'static str,
}

/// Reported by every workload, each the median over the timed
/// repetitions. Failures travel beside them as `failed`/`attempted`.
///
/// Every bound is the widest the contract allows. The box this was sized
/// on slows down by 15-25 % for half a minute every few minutes, so ten
/// runs of one workload spread (IQR / median) by 4-13 % on the time
/// metrics and up to 22 % when an episode falls inside the ten; a bound
/// should be three spreads wide. `peak_rss_mb` is steady to 1 % except on
/// `fabric-placement`, whose 9 MB moves by 8 %.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
        what: "host wall of the timed region",
    },
    EndToEnd {
        name: "units_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        floor: 0.0,
        what: "the workload's unit count divided by wall_s",
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.02,
        what: "user + sys CPU of the child and its reaped children over the timed region",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        floor: 4.0,
        what: "VmHWM of the child process",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.1,
        what: "child start to first timed call: input generation, temp dirs, daemons, quarter-size warm-up",
    },
];

/// Per-study latency percentiles, pooled over repetitions; only the
/// workloads that run ≥100 studies per run report them.
pub const UNIT_LATENCY: [EndToEnd; 2] = [
    EndToEnd {
        name: "unit_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
        what: "median per-study latency",
    },
    EndToEnd {
        name: "unit_ms_p90",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
        what: "90th-percentile per-study latency",
    },
];

#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Workloads whose traced run measures it (0 is reported elsewhere).
    pub on: &'static str,
    /// The end-to-end metric and workload it is predicted to move.
    pub moves: &'static str,
}

impl Layer {
    /// Whether the value is a pure function of the seed: `--check`
    /// compares these exactly instead of within a bound.
    pub fn is_exact(&self) -> bool {
        [EXACT, SIMULATED, STAYS_ZERO].contains(&self.moves)
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        on,
        moves,
    }
}

use Better::{Higher, Lower};

const STUDY: &str = "study-hb, study-sweep, study-nn";
const SERVE: &str = "serve-des";
const SERVICE: &str = "service-batch";
const FABRIC: &str = "fabric-placement";
const ALL: &str = "all";

const TUNER_MOVES: &str = "wall_s/units_per_s/cpu_s on study-hb; none elsewhere";
const BACKEND_MOVES: &str = "wall_s on study-nn; unresolved (<=1%) on study-hb";
const REPORT_MOVES: &str = "wall_s on study-sweep; peak_rss_mb on study-hb/study-sweep";
const INFER_MOVES: &str = "wall_s on study-sweep; ~0 on study-hb";
const SERVICE_MOVES: &str = "wall_s/units_per_s/cpu_s on service-batch only";
const POISSON_MOVES: &str = "units_per_s on serve-des (event loop)";
const BURST_MOVES: &str = "wall_s on serve-des (burst third)";
const SHIFT_MOVES: &str = "wall_s on serve-des (shift third)";
const PROCESS_MOVES: &str = "wall_s on fabric-placement via fabric.process.rung_overhead_ms";
const REMOTE_MOVES: &str = "wall_s on fabric-placement via fabric.remote.rung_overhead_ms";
const NOTHING: &str = "nothing with tracing off";
const EXACT: &str = "count; must repeat exactly";
const SIMULATED: &str = "simulated statistic; must repeat exactly";
const STAYS_ZERO: &str = "must stay 0";

pub const PER_LAYER: &[Layer] = &[
    // core backend, interposed TrainingBackend
    layer("backend.run_trial.calls", "count", Lower, STUDY, EXACT),
    layer("backend.run_trial.busy_s", "s", Lower, STUDY, BACKEND_MOVES),
    layer(
        "backend.run_trial.share",
        "ratio",
        Lower,
        STUDY,
        BACKEND_MOVES,
    ),
    // tuner, replayed
    layer(
        "tuner.hyperband.null_eval_s",
        "s",
        Lower,
        STUDY,
        TUNER_MOVES,
    ),
    layer("tuner.hyperband.share", "ratio", Lower, STUDY, TUNER_MOVES),
    layer("tuner.sampler.suggest_us", "us", Lower, STUDY, TUNER_MOVES),
    layer(
        "tuner.history.observations_us_h1k",
        "us",
        Lower,
        STUDY,
        TUNER_MOVES,
    ),
    layer(
        "tuner.history.observations_us_h16k",
        "us",
        Lower,
        STUDY,
        TUNER_MOVES,
    ),
    layer(
        "tuner.merge.merge_ms",
        "ms",
        Lower,
        FABRIC,
        "wall_s on fabric-placement",
    ),
    // core inference server and historical cache
    layer("core.inference.tune_us", "us", Lower, STUDY, INFER_MOVES),
    layer("core.inference.sweeps", "count", Lower, STUDY, EXACT),
    layer("core.cache.hit_ratio", "ratio", Higher, STUDY, INFER_MOVES),
    layer("core.cache.lookup_ns", "ns", Lower, STUDY, INFER_MOVES),
    // core report serde
    layer("core.report.to_json_s", "s", Lower, STUDY, REPORT_MOVES),
    layer("core.report.from_json_s", "s", Lower, STUDY, REPORT_MOVES),
    layer("core.report.json_mb", "MB", Lower, STUDY, REPORT_MOVES),
    // what outside-in timing cannot see
    layer(
        "core.engine.residual_s",
        "s",
        Lower,
        ALL,
        "the unattributed part of traced wall",
    ),
    layer(
        "core.engine.attributed_share",
        "ratio",
        Higher,
        ALL,
        "reported, never gated",
    ),
    // the program's own tracer
    layer(
        "trace.run_traced.overhead_share",
        "ratio",
        Lower,
        STUDY,
        NOTHING,
    ),
    layer("trace.export_s", "s", Lower, STUDY, NOTHING),
    layer("trace.events", "count", Lower, STUDY, EXACT),
    // nn kernels, replayed
    layer("nn.matmul_256_us", "us", Lower, "study-nn", BACKEND_MOVES),
    layer(
        "nn.matmul_gflops",
        "GFLOP/s",
        Higher,
        "study-nn",
        "computed: 2*256^3 / matmul time",
    ),
    layer(
        "nn.fit_epoch_ms.mlp",
        "ms",
        Lower,
        "study-nn",
        BACKEND_MOVES,
    ),
    layer(
        "nn.fit_epoch_ms.conv",
        "ms",
        Lower,
        "study-nn",
        BACKEND_MOVES,
    ),
    // serving
    layer(
        "serving.traffic.generate_s",
        "s",
        Lower,
        SERVE,
        "setup_s/peak_rss_mb on serve-des, not wall_s",
    ),
    layer("serving.traffic.arrivals", "count", Lower, SERVE, EXACT),
    layer(
        "serving.runtime.serve_s.poisson",
        "s",
        Lower,
        SERVE,
        POISSON_MOVES,
    ),
    layer(
        "serving.runtime.serve_s.burst",
        "s",
        Lower,
        SERVE,
        BURST_MOVES,
    ),
    layer(
        "serving.runtime.serve_s.shift",
        "s",
        Lower,
        SERVE,
        SHIFT_MOVES,
    ),
    layer(
        "serving.runtime.requests.poisson",
        "count",
        Lower,
        SERVE,
        EXACT,
    ),
    layer(
        "serving.runtime.requests.burst",
        "count",
        Lower,
        SERVE,
        EXACT,
    ),
    layer(
        "serving.runtime.requests.shift",
        "count",
        Lower,
        SERVE,
        EXACT,
    ),
    layer(
        "serving.runtime.req_per_s.poisson",
        "1/s",
        Higher,
        SERVE,
        POISSON_MOVES,
    ),
    layer(
        "serving.runtime.req_per_s.burst",
        "1/s",
        Higher,
        SERVE,
        BURST_MOVES,
    ),
    layer(
        "serving.runtime.req_per_s.shift",
        "1/s",
        Higher,
        SERVE,
        SHIFT_MOVES,
    ),
    layer(
        "serving.runtime.switches.poisson",
        "count",
        Lower,
        SERVE,
        SIMULATED,
    ),
    layer(
        "serving.runtime.switches.burst",
        "count",
        Lower,
        SERVE,
        SIMULATED,
    ),
    layer(
        "serving.runtime.switches.shift",
        "count",
        Lower,
        SERVE,
        SIMULATED,
    ),
    layer(
        "serving.runtime.shed_share.poisson",
        "ratio",
        Lower,
        SERVE,
        SIMULATED,
    ),
    layer(
        "serving.runtime.shed_share.burst",
        "ratio",
        Lower,
        SERVE,
        SIMULATED,
    ),
    layer(
        "serving.runtime.shed_share.shift",
        "ratio",
        Lower,
        SERVE,
        SIMULATED,
    ),
    layer(
        "serving.runtime.slo_violation_share.poisson",
        "ratio",
        Lower,
        SERVE,
        SIMULATED,
    ),
    layer(
        "serving.runtime.slo_violation_share.burst",
        "ratio",
        Lower,
        SERVE,
        SIMULATED,
    ),
    layer(
        "serving.runtime.slo_violation_share.shift",
        "ratio",
        Lower,
        SERVE,
        SIMULATED,
    ),
    layer("core.serve.retune.calls", "count", Lower, SERVE, EXACT),
    layer("core.serve.retune.busy_s", "s", Lower, SERVE, BURST_MOVES),
    layer(
        "serving.selector.select_ns",
        "ns",
        Lower,
        SERVE,
        "nothing today: no workload installs a frontier",
    ),
    // service
    layer("service.grants", "count", Lower, SERVICE, EXACT),
    layer("service.grant_ms", "ms", Lower, SERVICE, SERVICE_MOVES),
    layer(
        "service.solo_sum_s",
        "s",
        Lower,
        SERVICE,
        "the floor of wall_s on service-batch",
    ),
    layer(
        "service.park_resume.overhead_share",
        "ratio",
        Lower,
        SERVICE,
        SERVICE_MOVES,
    ),
    layer(
        "service.scheduler.grant_ns",
        "ns",
        Lower,
        SERVICE,
        SERVICE_MOVES,
    ),
    layer(
        "service.workdir_mb",
        "MB",
        Lower,
        SERVICE,
        "cpu_s (sys) on service-batch",
    ),
    layer("service.warm.trials_saved", "count", Higher, SERVICE, EXACT),
    layer(
        "core.checkpoint.save_ms",
        "ms",
        Lower,
        SERVICE,
        SERVICE_MOVES,
    ),
    layer(
        "core.checkpoint.load_ms",
        "ms",
        Lower,
        SERVICE,
        SERVICE_MOVES,
    ),
    layer("core.checkpoint.kb", "kB", Lower, SERVICE, SERVICE_MOVES),
    layer(
        "core.transfer.suggest_us",
        "us",
        Lower,
        SERVICE,
        SERVICE_MOVES,
    ),
    layer("core.transfer.save_ms", "ms", Lower, SERVICE, SERVICE_MOVES),
    // fabric / net / runtime
    layer(
        "fabric.thread.wall_s",
        "s",
        Lower,
        FABRIC,
        "the overhead baseline; not in wall_s",
    ),
    layer("fabric.process.wall_s", "s", Lower, FABRIC, PROCESS_MOVES),
    layer("fabric.remote.wall_s", "s", Lower, FABRIC, REMOTE_MOVES),
    layer(
        "fabric.process.rung_overhead_ms",
        "ms",
        Lower,
        FABRIC,
        "wall_s and unit_ms_p50/p90 on fabric-placement",
    ),
    layer(
        "fabric.remote.rung_overhead_ms",
        "ms",
        Lower,
        FABRIC,
        "wall_s and unit_ms_p50/p90 on fabric-placement",
    ),
    layer("fabric.spawns", "count", Lower, FABRIC, EXACT),
    layer(
        "fabric.heartbeats",
        "count",
        Lower,
        FABRIC,
        "timing-dependent count",
    ),
    layer("fabric.retries", "count", Lower, FABRIC, STAYS_ZERO),
    layer("fabric.fallbacks", "count", Lower, FABRIC, STAYS_ZERO),
    layer(
        "fabric.host.cached_replays",
        "count",
        Lower,
        FABRIC,
        STAYS_ZERO,
    ),
    layer(
        "fabric.process.spawn_ms",
        "ms",
        Lower,
        FABRIC,
        PROCESS_MOVES,
    ),
    layer(
        "core.backend.spec_ser_us",
        "us",
        Lower,
        FABRIC,
        PROCESS_MOVES,
    ),
    layer(
        "core.backend.spec_de_us",
        "us",
        Lower,
        FABRIC,
        PROCESS_MOVES,
    ),
    layer(
        "core.fabric.task_json_kb",
        "kB",
        Lower,
        FABRIC,
        PROCESS_MOVES,
    ),
    layer(
        "runtime.frame.roundtrip_us",
        "us",
        Lower,
        FABRIC,
        PROCESS_MOVES,
    ),
    layer("net.handshake_us", "us", Lower, FABRIC, REMOTE_MOVES),
    layer(
        "net.tcp_frame.roundtrip_us",
        "us",
        Lower,
        FABRIC,
        REMOTE_MOVES,
    ),
    // per-study latency, pooled over the traced child's passes
    layer(
        "unit_ms_p50",
        "ms",
        Lower,
        "study-sweep, fabric-placement",
        "follows wall_s on the same workload",
    ),
    layer(
        "unit_ms_p90",
        "ms",
        Lower,
        "study-sweep, fabric-placement",
        "moves before p50: the slowest shard sets each rung",
    ),
    layer(
        "unit_ms_samples",
        "count",
        Higher,
        "study-sweep, fabric-placement",
        "n behind the two percentiles",
    ),
    // the harness itself
    layer(
        "harness.traced_wall_s",
        "s",
        Lower,
        ALL,
        "wall of the interposed repetition",
    ),
    layer(
        "harness.overhead_s",
        "s",
        Lower,
        ALL,
        "traced wall minus plain wall in the same child",
    ),
    layer(
        "harness.spans",
        "count",
        Lower,
        ALL,
        "spans the harness recorded",
    ),
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The `BENCHMARK.json` document the driver reads.
pub fn manifest() -> Value {
    let workloads: Vec<Value> = WORKLOADS
        .iter()
        .map(|w| json!({"name": (w.name), "why": (w.why)}))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| {
            json!({
                "name": (m.name),
                "unit": (m.unit),
                "better": (m.better.as_str()),
                "bound": (m.bound)
            })
        })
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|m| json!({"name": (m.name), "unit": (m.unit), "better": (m.better.as_str())}))
        .collect();
    let mut doc = Map::new();
    doc.insert("command", json!(["bash", "benchmark/run.sh"]));
    doc.insert("paths", json!(["benchmark"]));
    doc.insert("run_seconds", json!(RUN_SECONDS));
    doc.insert("workloads", Value::Array(workloads));
    doc.insert("end_to_end", Value::Array(end_to_end));
    doc.insert("per_layer", Value::Array(per_layer));
    Value::Object(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_stay_inside_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, largest, "setup_s takes the largest bound");
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        // `cargo test` runs in the package directory.
        let text = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at root");
        let committed: Value = serde_json::from_str(&text).expect("manifest parses");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with run.sh --emit-manifest"
        );
        assert!(text.len() <= 64 * 1024);
    }
}
