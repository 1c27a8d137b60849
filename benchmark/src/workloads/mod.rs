//! The six workloads and the shape they share: generate inputs from the
//! seed, run the timed region through public functions only, check the
//! outputs, and — in the traced repetition — attribute the wall to layers
//! by interposing on and replaying calls.

use std::collections::BTreeMap;
use std::path::PathBuf;

use edgetune_util::rng::SeedStream;
use serde::{Deserialize, Serialize};

use crate::spans::Spans;
use crate::spec;

pub mod fabric;
pub mod serve;
pub mod service;
pub mod study;

pub type Result<T> = std::result::Result<T, String>;

/// What a workload may depend on besides its size.
#[derive(Debug, Clone)]
pub struct Env {
    /// Root of every generated input: the same seed gives the same inputs.
    pub seed: SeedStream,
    /// A directory of this child's own, inside the benchmark's `out/`.
    pub scratch: PathBuf,
}

/// The untimed reading of one pass's outputs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Verdict {
    /// What `units_per_s` counts.
    pub units: u64,
    /// Operations attempted: studies, serve runs, service studies.
    pub attempted: u64,
    /// Operations that failed, were rejected, retried or fell back.
    pub failed: u64,
    /// CRC-32 of every output artefact, by name. Equal across
    /// repetitions of one seed, and stored in the baseline.
    pub digests: BTreeMap<String, u32>,
    /// Per-study latencies, where the workload runs many studies.
    pub unit_ms: Vec<f64>,
    /// Output-check mismatches; any entry fails the run.
    pub errors: Vec<String>,
}

/// Per-layer metrics of the traced repetition, by the names of
/// [`spec::PER_LAYER`].
#[derive(Debug, Default)]
pub struct Layers(pub BTreeMap<String, f64>);

impl Layers {
    /// Records a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from the per-layer table: a typo must
    /// fail the smoke run, not vanish from the output.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            spec::PER_LAYER.iter().any(|m| m.name == name),
            "'{name}' is not in spec::PER_LAYER"
        );
        self.0.insert(name.to_string(), value);
    }
}

/// Both passes of the traced child, handed to [`Workload::attribute`].
pub struct Traced<'a, W: Workload + ?Sized> {
    /// The pass without interposition.
    pub plain: &'a W::Output,
    /// The interposed pass and its wall.
    pub traced: &'a W::Output,
    pub traced_wall_s: f64,
}

pub trait Workload {
    const NAME: &'static str;
    type Input;
    type Output;

    /// Generates inputs, temp dirs and daemons at `1/divisor` size.
    fn prepare(env: &Env, divisor: u32) -> Result<Self::Input>;

    /// The timed region. With `spans` set, calls into layers run through
    /// the harness's timing wrappers and land as children of the
    /// innermost open span.
    fn execute(input: &mut Self::Input, spans: Option<&mut Spans>) -> Result<Self::Output>;

    /// Seconds of `execute` the harness spent on its own checks (digests
    /// taken inside the loop); taken out of the pass's wall.
    fn untimed_s(_output: &Self::Output) -> f64 {
        0.0
    }

    /// Reads and checks the outputs of a pass.
    fn verdict(input: &Self::Input, output: &Self::Output) -> Verdict;

    /// Replays calls on the run's own outputs and fills in the per-layer
    /// metrics, one span per replay block.
    fn attribute(
        env: &Env,
        input: &Self::Input,
        passes: Traced<'_, Self>,
        spans: &mut Spans,
        layers: &mut Layers,
    ) -> Result<()>;
}

/// `full / divisor`, never below `min`.
pub fn scaled(full: usize, divisor: u32, min: usize) -> usize {
    (full / divisor as usize).max(min)
}

/// Folds CRC-32 digests of several artefacts into one, order-sensitive.
pub fn fold_digests(digests: impl IntoIterator<Item = u32>) -> u32 {
    let bytes: Vec<u8> = digests.into_iter().flat_map(u32::to_le_bytes).collect();
    edgetune_runtime::frame::crc32(&bytes)
}

/// Engine residual: what is left of `wall_s` once the `attributed`
/// layer times are taken out, and the share that was attributed.
pub fn set_residual(layers: &mut Layers, wall_s: f64, attributed: &[f64]) {
    let attributed_s: f64 = attributed.iter().sum();
    layers.set("core.engine.residual_s", (wall_s - attributed_s).max(0.0));
    let share = if wall_s > 0.0 {
        (attributed_s / wall_s).min(1.0)
    } else {
        0.0
    };
    layers.set("core.engine.attributed_share", share);
}
