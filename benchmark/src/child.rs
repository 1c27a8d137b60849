//! One child process = one repetition of one workload: warm up at quarter
//! size, set up, run the timed region once, check the outputs, and — in
//! the traced repetition — run it again under interposition and replay
//! calls for the per-layer numbers. The result goes to the parent as one
//! JSON line on stdout.

use std::path::PathBuf;
use std::time::Instant;

use edgetune_util::rng::SeedStream;

use crate::harness::Repetition;
use crate::procfs;
use crate::spans::Spans;
use crate::spec::WARMUP_DIVISOR;
use crate::stats::{median, percentile};
use crate::workloads::fabric::FabricPlacement;
use crate::workloads::serve::ServeDes;
use crate::workloads::service::ServiceBatch;
use crate::workloads::study::{StudyHb, StudyNn, StudySweep};
use crate::workloads::{Env, Layers, Result, Traced, Verdict, Workload};

/// Samples the per-study percentiles want before they are reported, and
/// how many extra plain passes the traced child may spend to get there.
const LATENCY_SAMPLES: usize = 100;
const MAX_EXTRA_PASSES: usize = 3;

#[derive(Debug, Clone)]
pub struct ChildArgs {
    pub workload: String,
    pub seed: u64,
    /// Size divisor: 1 is full size, 16 the smoke size.
    pub divisor: u32,
    pub traced: bool,
    /// The benchmark's `out/` directory.
    pub out_dir: PathBuf,
}

/// Runs the repetition `args` describes; `started` is the process start.
pub fn run(args: &ChildArgs, started: Instant) -> Result<Repetition> {
    match args.workload.as_str() {
        StudyHb::NAME => repetition::<StudyHb>(args, started),
        StudySweep::NAME => repetition::<StudySweep>(args, started),
        StudyNn::NAME => repetition::<StudyNn>(args, started),
        ServeDes::NAME => repetition::<ServeDes>(args, started),
        ServiceBatch::NAME => repetition::<ServiceBatch>(args, started),
        FabricPlacement::NAME => repetition::<FabricPlacement>(args, started),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// Set-up on every CPU, so the daemons it starts keep both cores; then
/// this thread — and with it the engine's own threads, which start during
/// the timed region and inherit its mask — on one CPU (see
/// [`procfs::pin_to_one_cpu`]). Shard workers undo the pin for themselves.
fn prepared<W: Workload>(env: &Env, divisor: u32) -> Result<W::Input> {
    procfs::allow_all_cpus();
    let input = W::prepare(env, divisor);
    if !procfs::pin_to_one_cpu() {
        eprintln!("note: could not pin {} to one CPU", W::NAME);
    }
    input
}

/// One pass through the timed region: output, wall and CPU seconds.
fn timed_pass<W: Workload>(
    input: &mut W::Input,
    spans: Option<&mut Spans>,
) -> Result<(W::Output, f64, f64)> {
    let cpu = procfs::cpu_s();
    let start = Instant::now();
    let output = W::execute(input, spans)?;
    let wall = start.elapsed().as_secs_f64() - W::untimed_s(&output);
    Ok((output, wall, procfs::cpu_s() - cpu))
}

fn repetition<W: Workload>(args: &ChildArgs, started: Instant) -> Result<Repetition> {
    let scratch = args
        .out_dir
        .join("tmp")
        .join(format!("{}-{}", W::NAME, std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let env = Env {
        seed: SeedStream::new(args.seed),
        scratch: scratch.clone(),
    };
    let result = measured::<W>(args, &env, started);
    std::fs::remove_dir_all(&scratch).ok();
    result
}

fn measured<W: Workload>(args: &ChildArgs, env: &Env, started: Instant) -> Result<Repetition> {
    {
        // Untimed warm-up: caches fill and lazy set-up finishes before
        // anything is measured.
        let mut warm = prepared::<W>(env, args.divisor * WARMUP_DIVISOR)?;
        W::execute(&mut warm, None)?;
    }
    let mut input = prepared::<W>(env, args.divisor)?;
    let setup_s = started.elapsed().as_secs_f64();
    let (plain, wall_s, cpu_s) = timed_pass::<W>(&mut input, None)?;
    let mut rep = Repetition {
        setup_s,
        wall_s,
        cpu_s,
        verdict: W::verdict(&input, &plain),
        ..Repetition::default()
    };
    if args.traced {
        let mut layers = Layers::default();
        let spans = traced_pass::<W>(args, env, &plain, wall_s, &mut rep.verdict, &mut layers)?;
        rep.layers = layers.0;
        rep.self_times = spans.self_times();
    }
    drop(input);
    rep.peak_rss_mb = procfs::peak_rss_mb();
    Ok(rep)
}

/// The traced repetition: the same inputs again on fresh daemons and
/// directories, under interposition, then the replay blocks. Returns the
/// spans it recorded, already written to `out/<workload>.trace.json`.
fn traced_pass<W: Workload>(
    args: &ChildArgs,
    env: &Env,
    plain: &W::Output,
    plain_wall_s: f64,
    verdict: &mut Verdict,
    layers: &mut Layers,
) -> Result<Spans> {
    let mut spans = Spans::new(W::NAME);
    let child = spans.open("harness.traced_child");
    let mut input = prepared::<W>(env, args.divisor)?;
    let root = spans.open(W::NAME);
    let (traced, traced_wall_s, _) = timed_pass::<W>(&mut input, Some(&mut spans))?;
    spans.close(root);

    // Interposition must not move a byte.
    let traced_verdict = W::verdict(&input, &traced);
    if traced_verdict.digests != verdict.digests {
        verdict.failed += 1;
        verdict
            .errors
            .push("interposed pass produced different output bytes".to_string());
    }
    verdict.failed += traced_verdict.failed;
    verdict.attempted += traced_verdict.attempted;
    verdict.errors.extend(traced_verdict.errors);
    let mut unit_ms = verdict.unit_ms.clone();
    unit_ms.extend(traced_verdict.unit_ms);

    W::attribute(
        env,
        &input,
        Traced {
            plain,
            traced: &traced,
            traced_wall_s,
        },
        &mut spans,
        layers,
    )?;
    drop(input);

    // Workloads that run many studies report per-study percentiles; a
    // tail needs its samples, so add plain passes until there are enough.
    let wants_more = |unit_ms: &[f64]| !unit_ms.is_empty() && unit_ms.len() < LATENCY_SAMPLES;
    if args.divisor == 1 && wants_more(&unit_ms) {
        spans.scope("harness.latency_passes", |_| -> Result<()> {
            for _ in 0..MAX_EXTRA_PASSES {
                if !wants_more(&unit_ms) {
                    break;
                }
                let mut input = prepared::<W>(env, args.divisor)?;
                let (output, _, _) = timed_pass::<W>(&mut input, None)?;
                unit_ms.extend(W::verdict(&input, &output).unit_ms);
            }
            Ok(())
        })?;
    }
    if !unit_ms.is_empty() {
        layers.set("unit_ms_p50", median(&unit_ms));
        layers.set("unit_ms_p90", percentile(&unit_ms, 0.9).unwrap_or(0.0));
        layers.set("unit_ms_samples", unit_ms.len() as f64);
    }

    spans.close(child);
    layers.set("harness.traced_wall_s", traced_wall_s);
    layers.set("harness.overhead_s", traced_wall_s - plain_wall_s);
    layers.set("harness.spans", spans.len() as f64);
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    spans.write(&args.out_dir.join(format!("{}.trace.json", W::NAME)))?;
    Ok(spans)
}
