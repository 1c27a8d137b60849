//! The round-trip oracle: a seeded generator for every type the program
//! writes and later reads back, held to three laws against the
//! program's own writer and reader.
//!
//! 1. `read(write(v)) == v`, every float compared by its bits (the
//!    `Debug` text, which tells `-0.0` from `0.0` and spells every
//!    finite float in its shortest round-trip digits).
//! 2. Writing is idempotent: `write(read(write(v)))` is `write(v)`,
//!    byte for byte.
//! 3. A persisted float is finite: `1e400` or `-1e400` spliced into any
//!    float of `write(v)`, or `null` where a number is required, is an
//!    error naming the object keys down to that float.
//! 4. A persisted value is one the program could have built: each of
//!    [`REFUSED`] spliced into its field of any budget, recommendation
//!    or timeline span of `write(v)` is an error naming the object keys
//!    down to that field.
//!
//! The generated values reach for the edges: `±0.0`, the smallest
//! subnormal, `f64::MAX`, `0.1 + 0.2` and random bit patterns; `+∞`
//! where a trial score allows it; strings of quotes, backslashes,
//! control and non-BMP characters; empty and one-element collections;
//! and ids of `u64::MAX`. Budgets, recommendations and backend specs
//! are drawn admissible: subnormal epochs and a fraction of exactly
//! `1.0`, only points of a device's inference grid, and only catalogue
//! devices and workloads. The service's submission file has its own generator, in
//! `edgetune-service`.

use std::fmt::Debug;
use std::io::Cursor;
use std::path::PathBuf;

use edgetune_device::spec::DeviceSpec;
use edgetune_faults::{DegradationStats, TrialFault};
use edgetune_net::handshake::HandshakeReject;
use edgetune_net::{accept_hello, hello_answer, send_hello, Hello, HelloAck, NetError};
use edgetune_runtime::frame::{encode_frame, read_frame, FrameKind};
use edgetune_trace::{ChromeEvent, ChromeTrace};
use edgetune_tuner::pareto::{FrontPoint, ObjectiveVector};
use edgetune_tuner::{
    Config, History, Metric, TrialBudget, TrialFailure, TrialOutcome, TrialRecord,
};
use edgetune_util::rng::SeedStream;
use edgetune_util::units::{Joules, JoulesPerItem, Seconds};
use edgetune_workloads::catalog::{Workload, WorkloadId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::{Number, Value};

use crate::backend::{BackendSpec, SimTrainingBackend, TrainingBackend, TrialMeasurement};
use crate::cache::{CacheKey, CacheStats, HistoricalCache};
use crate::checkpoint::{StudyCheckpoint, StudyGlobals};
use crate::engine::{FaultReport, ShardPlan, TuningReport};
use crate::fabric::protocol::{
    decode, encode, ChaosAction, RungKey, ShardHeartbeat, ShardResultMsg, ShardTask, TaskTrial,
    WorkerFailure,
};
use crate::inference::{InferenceRecommendation, InferenceSpace};
use crate::timeline::{Lane, Timeline};
use crate::transfer::{TransferIndex, TransferKey};

/// Values drawn per type.
const CASES: u64 = 24;

/// Floats that have broken JSON round trips somewhere.
const EDGE_FLOATS: [f64; 10] = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    f64::MAX,
    f64::MIN,
    0.1 + 0.2,
    1e21,
    1e-7,
    -1.5,
];

/// Values a checked reader refuses, by the type and field
/// [`checked_field`] finds them at.
const REFUSED: [(&str, &str, &str); 18] = [
    ("budget", "epochs", "0"),
    ("budget", "epochs", "-1"),
    ("budget", "epochs", "-5e-324"),
    ("budget", "data_fraction", "0"),
    ("budget", "data_fraction", "1.0000000000000002"),
    ("budget", "data_fraction", "1.7976931348623157e308"),
    ("recommendation", "device", "\"Nokia 3310\""),
    ("recommendation", "batch", "0"),
    ("recommendation", "batch", "1000000000"),
    ("recommendation", "cores", "0"),
    // Within every catalogue device's cores, in no device's grid.
    ("recommendation", "cores", "3"),
    ("recommendation", "cores", "99"),
    // Below and above every catalogue device's DVFS range.
    ("recommendation", "freq", "1e8"),
    ("recommendation", "freq", "1e10"),
    // Inside the ARMv7's and the Pi's ranges, but no device's grid point
    // (1.2 GHz is the i7's lowest).
    ("recommendation", "freq", "1.1e9"),
    ("recommendation", "latency_per_item", "0"),
    ("recommendation", "energy_per_item", "-5"),
    // Before every start `Gen::timeline` draws.
    ("span", "end", "-1.7976931348623157e308"),
];

/// The checked type and field the object keys `keys` lead to: a
/// budget's, a recommendation's (a report's or a cache entry's) or a
/// timeline span's.
fn checked_field<'a>(keys: &[&'a str]) -> Option<(&'static str, &'a str)> {
    match *keys {
        [.., "budget", field] => Some(("budget", field)),
        [.., "recommendation", field] | [.., "entries", _, field] => {
            Some(("recommendation", field))
        }
        [.., "spans", field] => Some(("span", field)),
        _ => None,
    }
}

/// String pieces a writer must escape, or must not.
const PIECES: [&str; 13] = [
    "a", "\"", "\\", "\n", "\t", "\u{0}", "\u{1f}", "\u{7f}", "é", "\u{2028}", "😀", "/", "|",
];

/// A seeded source of awkward values.
struct Gen(StdRng);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(StdRng::seed_from_u64(seed))
    }

    fn below(&mut self, n: usize) -> usize {
        self.0.gen_range(0..n)
    }

    fn float(&mut self) -> f64 {
        if self.below(2) == 0 {
            return EDGE_FLOATS[self.below(EDGE_FLOATS.len())];
        }
        loop {
            let x = f64::from_bits(self.0.gen());
            if x.is_finite() {
                return x;
            }
        }
    }

    fn string(&mut self) -> String {
        (0..self.below(5))
            .map(|_| PIECES[self.below(PIECES.len())])
            .collect()
    }

    /// A collection length: mostly empty or one, sometimes a few.
    fn count(&mut self) -> usize {
        [0, 1, 1, 2, 3][self.below(5)]
    }

    fn id(&mut self) -> u64 {
        match self.below(3) {
            0 => u64::MAX,
            1 => self.below(10) as u64,
            _ => self.0.gen(),
        }
    }

    fn vec<T>(&mut self, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
        (0..self.count()).map(|_| item(self)).collect()
    }

    fn option<T>(&mut self, item: impl FnOnce(&mut Self) -> T) -> Option<T> {
        (self.below(2) == 0).then(|| item(self))
    }

    fn seconds(&mut self) -> Seconds {
        Seconds::new(self.float())
    }

    fn joules(&mut self) -> Joules {
        Joules::new(self.float())
    }

    fn metric(&mut self) -> Metric {
        [Metric::Runtime, Metric::Energy][self.below(2)]
    }

    fn config(&mut self) -> Config {
        (0..self.count())
            .map(|_| (self.string(), self.float()))
            .collect()
    }

    /// A positive finite float.
    fn positive(&mut self) -> f64 {
        loop {
            let x = self.float().abs();
            if x > 0.0 {
                return x;
            }
        }
    }

    /// An admissible budget: any positive epochs, and a fraction in
    /// `(0, 1]`.
    fn budget(&mut self) -> TrialBudget {
        let epochs = self.positive();
        let data_fraction = match self.below(3) {
            0 => 1.0,
            1 => [5e-324, 1e-7, 0.1 + 0.2][self.below(3)],
            _ => 1.0 - self.0.gen::<f64>(),
        };
        TrialBudget::new(epochs, data_fraction)
    }

    fn vector(&mut self) -> ObjectiveVector {
        ObjectiveVector::new(self.float(), self.float(), self.float())
    }

    fn outcome(&mut self) -> TrialOutcome {
        let (runtime, energy) = (self.seconds(), self.joules());
        match self.below(3) {
            0 => TrialOutcome::failed(TrialFailure::Crash, runtime, energy),
            1 => TrialOutcome::new(f64::INFINITY, self.float(), runtime, energy),
            _ => {
                let outcome = TrialOutcome::new(self.float(), self.float(), runtime, energy);
                match self.option(Self::vector) {
                    Some(vector) => outcome.with_vector(vector),
                    None => outcome,
                }
            }
        }
    }

    fn record(&mut self) -> TrialRecord {
        TrialRecord {
            id: self.id(),
            config: self.config(),
            budget: self.budget(),
            outcome: self.outcome(),
        }
    }

    fn history(&mut self) -> History {
        let mut history = History::new();
        for record in self.vec(Self::record) {
            history.push(record);
        }
        history
    }

    /// An admissible recommendation: a catalogue device, any batch, and
    /// cores and a frequency (its ends included) the device supports.
    fn recommendation(&mut self) -> InferenceRecommendation {
        let devices = DeviceSpec::catalog();
        let device = &devices[self.below(devices.len())];
        let grid = InferenceSpace::for_device(device);
        InferenceRecommendation {
            device: device.name.clone(),
            batch: grid.batches[self.below(grid.batches.len())],
            cores: grid.cores[self.below(grid.cores.len())],
            freq: grid.freqs[self.below(grid.freqs.len())],
            latency_per_item: Seconds::new(self.positive()),
            energy_per_item: JoulesPerItem::new(self.positive()),
        }
    }

    /// Spans that start above `f64::MIN`, so an end of `f64::MIN` is
    /// before each.
    fn timeline(&mut self) -> Timeline {
        let mut timeline = Timeline::default();
        for _ in 0..self.count() {
            let lane = [Lane::ModelServer, Lane::InferenceServer][self.below(2)];
            let (a, b) = (self.float(), self.float());
            let [start, end] =
                [a.min(b), a.max(b)].map(|x| Seconds::new(x.max(f64::MIN.next_up())));
            timeline.record(lane, self.string(), start, end);
        }
        timeline
    }

    fn degradation(&mut self) -> DegradationStats {
        DegradationStats {
            trial_crashes: self.id(),
            trial_stragglers: self.id(),
            trial_retries: self.id(),
            trials_skipped: self.id(),
            worker_losses: self.id(),
            inference_retries: self.id(),
            stale_cache_served: self.id(),
            default_recommendations: self.id(),
        }
    }

    fn cache(&mut self) -> HistoricalCache {
        let mut cache = HistoricalCache::new();
        for _ in 0..self.count() {
            let recommendation = self.recommendation();
            let key = CacheKey::new(&recommendation.device, self.string(), self.metric());
            cache.store(&key, recommendation);
        }
        cache
    }

    fn cache_stats(&mut self) -> CacheStats {
        CacheStats {
            hits: self.id(),
            misses: self.id(),
        }
    }

    fn globals(&mut self) -> StudyGlobals {
        StudyGlobals {
            clock: self.seconds(),
            cache: self.cache(),
            cache_stats: self.cache_stats(),
            timeline: self.timeline(),
            stall: self.seconds(),
            inference_energy: self.joules(),
            degradation: self.degradation(),
            backoff_draws: self.id(),
            fault_cursor: self.id(),
            inference_cursor: self.id(),
            injected_losses: self.id(),
            injected_outages: self.id(),
        }
    }

    fn report(&mut self) -> TuningReport {
        TuningReport {
            history: self.history(),
            best: self.record(),
            recommendation: self.recommendation(),
            timeline: self.timeline(),
            cache_stats: self.cache_stats(),
            makespan: self.seconds(),
            stall_time: self.seconds(),
            inference_energy: self.joules(),
            faults: self.option(|g| FaultReport {
                rate: g.float(),
                degradation: g.degradation(),
                worker_panics: g.id(),
                injected_losses: g.id(),
                injected_outages: g.id(),
                failed_trials: g.id(),
            }),
            frontier: self.vec(|g| FrontPoint {
                config: g.config(),
                vector: g.vector(),
                trial: g.id(),
            }),
            fabric: None,
            skipped_cache_entries: 0,
        }
    }

    fn checkpoint(&mut self) -> StudyCheckpoint {
        StudyCheckpoint::new(self.id(), &self.history(), self.globals())
    }

    fn transfer_index(&mut self) -> TransferIndex {
        let mut index = TransferIndex::new();
        for _ in 0..self.count() {
            let key = TransferKey::new(
                self.string(),
                self.string(),
                self.string(),
                self.metric(),
                self.string(),
            );
            // `record` drops an empty donation, as the service's does.
            let configs = self.vec(Self::config);
            index.record(key, configs, self.float());
        }
        index
    }

    fn trace(&mut self) -> ChromeTrace {
        ChromeTrace {
            trace_events: self.vec(|g| ChromeEvent {
                name: g.string(),
                cat: g.option(Self::string),
                ph: g.string(),
                ts: g.float(),
                dur: g.option(Self::float),
                pid: g.0.gen(),
                tid: g.0.gen(),
                s: g.option(Self::string),
                args: g.option(|g| {
                    (0..g.count())
                        .map(|_| {
                            let value = match g.below(3) {
                                0 => Value::from(g.float()),
                                1 => Value::from(g.id()),
                                _ => Value::String(g.string()),
                            };
                            (g.string(), value)
                        })
                        .collect()
                }),
            }),
            display_time_unit: self.string(),
            other_data: (0..self.count())
                .map(|_| (self.string(), self.string()))
                .collect(),
        }
    }

    fn spec(&mut self) -> BackendSpec {
        let workload = Workload::by_id(WorkloadId::all()[self.below(4)]);
        let backend = SimTrainingBackend::new(workload, SeedStream::new(self.id()));
        let backend = if self.below(2) == 0 {
            backend.with_fixed_gpus(1)
        } else {
            backend
        };
        backend
            .process_spec()
            .expect("a fault-free backend has a spec")
    }

    fn task(&mut self) -> ShardTask {
        ShardTask {
            attempt: self.0.gen(),
            plan: ShardPlan {
                shard: self.id() as usize,
                start: self.id() as usize,
                len: self.id() as usize,
            },
            spec: self.spec(),
            now: self.seconds(),
            trials: self.vec(|g| TaskTrial {
                id: g.id(),
                config: g.config(),
                budget: g.budget(),
            }),
            chaos: self
                .option(|g| [ChaosAction::Kill, ChaosAction::Panic, ChaosAction::Hang][g.below(3)]),
            key: self.option(|g| RungKey {
                study: g.id(),
                bracket: g.0.gen(),
                rung: g.0.gen(),
                shard: g.id() as usize,
            }),
        }
    }

    fn result(&mut self) -> ShardResultMsg {
        ShardResultMsg {
            shard: self.id() as usize,
            measurements: self.vec(|g| TrialMeasurement {
                accuracy: g.float(),
                runtime: g.seconds(),
                energy: g.joules(),
                injected: g.option(|g| [TrialFault::Crash, TrialFault::Straggle][g.below(2)]),
            }),
        }
    }
}

/// How the program writes one persisted type, and reads it back.
struct Persisted<T> {
    write: fn(&T) -> String,
    read: fn(&str) -> Result<T, String>,
    /// Keys whose float may be written as `null`: an optional float, or
    /// a trial score's `+∞`.
    nullable: &'static [&'static str],
    /// Keys holding free-form JSON, whose numbers are no fields.
    opaque: &'static [&'static str],
}

/// A type whose every float is a required number.
fn persisted<T>(write: fn(&T) -> String, read: fn(&str) -> Result<T, String>) -> Persisted<T> {
    Persisted {
        write,
        read,
        nullable: &[],
        opaque: &[],
    }
}

/// One step down a JSON document.
#[derive(Clone)]
enum Step {
    Key(String),
    Index(usize),
}

impl<T: Debug> Persisted<T> {
    /// Draws [`CASES`] values from `generate` and holds each to the
    /// three laws.
    fn holds_for(&self, generate: impl Fn(&mut Gen) -> T) {
        for seed in 0..CASES {
            self.holds(&generate(&mut Gen::new(seed)));
        }
    }

    fn holds(&self, value: &T) {
        let text = (self.write)(value);
        let back = (self.read)(&text).unwrap_or_else(|e| panic!("{e}\nreading {text}"));
        assert_eq!(
            format!("{back:?}"),
            format!("{value:?}"),
            "read(write(v)) is not v; the text was {text}"
        );
        assert_eq!((self.write)(&back), text, "writing is not idempotent");

        let document: Value = serde_json::from_str(&text).expect("the writer writes JSON");
        let mut leaves = Vec::new();
        self.leaf_paths(&document, &mut Vec::new(), &mut leaves);
        for (path, float) in &leaves {
            let keys: Vec<&str> = path
                .iter()
                .filter_map(|step| match step {
                    Step::Key(key) => Some(key.as_str()),
                    Step::Index(_) => None,
                })
                .collect();
            let nullable = keys.last().is_some_and(|key| self.nullable.contains(key));
            for spelling in ["1e400", "-1e400", "null"] {
                if *float && !(spelling == "null" && nullable) {
                    self.refuses(&document, path, &keys, spelling);
                }
            }
            if let Some(checked) = checked_field(&keys) {
                for (.., spelling) in REFUSED.iter().filter(|(t, f, _)| (*t, *f) == checked) {
                    self.refuses(&document, path, &keys, spelling);
                }
            }
        }
    }

    /// Holds that `document` with `spelling` at `path` does not read,
    /// and that the error names `keys`.
    fn refuses(&self, document: &Value, path: &[Step], keys: &[&str], spelling: &str) {
        let spliced = splice(document, path, spelling);
        match (self.read)(&spliced) {
            Ok(_) => panic!("{spelling} at {keys:?} was read: {spliced}"),
            Err(e) => assert!(
                e.contains(&keys.join(": ")),
                "the error for {spelling} at {keys:?} does not name it: {e}"
            ),
        }
    }

    /// Collects the path of every scalar in `value`, and whether it is
    /// a float.
    fn leaf_paths(&self, value: &Value, path: &mut Vec<Step>, out: &mut Vec<(Vec<Step>, bool)>) {
        match value {
            Value::Array(items) => {
                for (i, item) in items.iter().enumerate() {
                    path.push(Step::Index(i));
                    self.leaf_paths(item, path, out);
                    path.pop();
                }
            }
            Value::Object(map) => {
                for (key, item) in map.iter() {
                    if !self.opaque.contains(&key.as_str()) {
                        path.push(Step::Key(key.clone()));
                        self.leaf_paths(item, path, out);
                        path.pop();
                    }
                }
            }
            leaf => out.push((path.clone(), matches!(leaf, Value::Number(Number::F64(_))))),
        }
    }
}

/// `document` as compact text, with `spelling` in place of the value at
/// `path`.
fn splice(document: &Value, path: &[Step], spelling: &str) -> String {
    const MARK: &str = "\u{1}splice\u{2}";
    let mut document = document.clone();
    let mut at = &mut document;
    for step in path {
        at = match step {
            Step::Key(key) => at.as_object_mut().and_then(|m| m.get_mut(key)),
            Step::Index(i) => at.as_array_mut().and_then(|a| a.get_mut(*i)),
        }
        .expect("the path was read off this document");
    }
    *at = Value::String(MARK.to_string());
    let marked = serde_json::to_string(&document).expect("a document serialises");
    let quoted = serde_json::to_string(MARK).expect("a string serialises");
    marked.replace(&quoted, spelling)
}

/// A file for one test's writes, so tests running at once do not share.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "edgetune-round-trip-{}-{name}.json",
        std::process::id()
    ))
}

/// The payload the frame codec reads off `wire`.
fn through_frame(wire: &[u8]) -> Result<Vec<u8>, String> {
    read_frame(&mut &wire[..])
        .map_err(|e| e.to_string())?
        .map(|frame| frame.payload)
        .ok_or_else(|| "no frame".to_string())
}

/// The program's writer for a fabric payload or a backend spec.
fn to_string<T: serde::Serialize>(value: &T) -> String {
    String::from_utf8(encode(value)).expect("the writer writes UTF-8")
}

fn from_str<T: serde::Deserialize>(text: &str) -> Result<T, String> {
    serde_json::from_str(text).map_err(|e| e.to_string())
}

#[test]
fn tuning_reports_round_trip() {
    Persisted {
        nullable: &["score"],
        ..persisted(
            |report: &TuningReport| report.to_json().expect("a report serialises"),
            |text| TuningReport::from_json(text).map_err(|e| e.to_string()),
        )
    }
    .holds_for(Gen::report);
}

#[test]
fn study_checkpoints_round_trip() {
    Persisted {
        nullable: &["score"],
        ..persisted(
            |checkpoint: &StudyCheckpoint| {
                checkpoint
                    .save(&scratch("checkpoint"))
                    .expect("a checkpoint saves");
                std::fs::read_to_string(scratch("checkpoint")).expect("it reads")
            },
            |text| {
                std::fs::write(scratch("checkpoint"), text).expect("a checkpoint writes");
                StudyCheckpoint::load(&scratch("checkpoint")).map_err(|e| e.to_string())
            },
        )
    }
    .holds_for(Gen::checkpoint);
    std::fs::remove_file(scratch("checkpoint")).ok();
}

/// `HistoricalCache::load` reads a clean file with this strict parse; a
/// file it refuses is salvaged entry by entry (the cache's own tests).
#[test]
fn cache_files_round_trip() {
    persisted(
        |cache: &HistoricalCache| {
            cache.save(&scratch("cache")).expect("a cache saves");
            std::fs::read_to_string(scratch("cache")).expect("it reads")
        },
        from_str::<HistoricalCache>,
    )
    .holds_for(Gen::cache);
    std::fs::remove_file(scratch("cache")).ok();
}

#[test]
fn transfer_indexes_round_trip() {
    persisted(
        |index: &TransferIndex| {
            index.save(&scratch("transfer")).expect("an index saves");
            std::fs::read_to_string(scratch("transfer")).expect("it reads")
        },
        |text| {
            std::fs::write(scratch("transfer"), text).expect("an index writes");
            TransferIndex::load(&scratch("transfer")).map_err(|e| e.to_string())
        },
    )
    .holds_for(Gen::transfer_index);
    std::fs::remove_file(scratch("transfer")).ok();
}

#[test]
fn chrome_traces_round_trip() {
    Persisted {
        nullable: &["dur"],
        opaque: &["args"],
        ..persisted(ChromeTrace::to_json_pretty, |text| {
            ChromeTrace::from_json(text).map_err(|e| e.to_string())
        })
    }
    .holds_for(Gen::trace);
}

#[test]
fn backend_specs_round_trip() {
    persisted(to_string::<BackendSpec>, from_str::<BackendSpec>).holds_for(Gen::spec);
}

#[test]
fn hellos_and_their_acks_round_trip_through_the_frame_codec() {
    persisted(
        |hello: &Hello| {
            let mut wire = Vec::new();
            send_hello(&mut wire, hello).expect("a hello sends");
            String::from_utf8(through_frame(&wire).expect("one frame")).expect("JSON")
        },
        |text| {
            // The host answers into the same buffer, after the hello.
            let mut wire = Cursor::new(encode_frame(FrameKind::Hello, text.as_bytes()));
            accept_hello(&mut wire).map_err(|e| e.to_string())
        },
    )
    .holds_for(|g| Hello::new(g.id(), g.string()));
    persisted(to_string::<HelloAck>, |text| {
        let wire = encode_frame(FrameKind::HelloAck, text.as_bytes());
        hello_answer(&mut wire.as_slice()).map_err(|e| e.to_string())
    })
    .holds_for(|g| HelloAck {
        magic: g.0.gen(),
        version: g.0.gen(),
    });
    // A host turns a session away with a rejection in an `Error` frame;
    // the coordinator reads its reason back.
    persisted(to_string::<HandshakeReject>, |text| {
        let wire = encode_frame(FrameKind::Error, text.as_bytes());
        match hello_answer(&mut wire.as_slice()) {
            Err(NetError::Rejected(reason)) => Ok(HandshakeReject { reason }),
            Err(e) => Err(e.to_string()),
            Ok(ack) => Err(format!("a rejection read as {ack:?}")),
        }
    })
    .holds_for(|g| HandshakeReject { reason: g.string() });
}

#[test]
fn fabric_messages_round_trip_through_the_frame_codec() {
    fn framed<T: serde::Deserialize>(kind: FrameKind, text: &str) -> Result<T, String> {
        decode(&through_frame(&encode_frame(kind, text.as_bytes()))?)
    }
    persisted(to_string::<ShardTask>, |text| framed(FrameKind::Task, text)).holds_for(Gen::task);
    persisted(to_string::<ShardHeartbeat>, |text| {
        framed(FrameKind::Heartbeat, text)
    })
    .holds_for(|g| ShardHeartbeat {
        shard: g.id() as usize,
        completed: g.id() as usize,
    });
    persisted(to_string::<ShardResultMsg>, |text| {
        framed(FrameKind::Result, text)
    })
    .holds_for(Gen::result);
    persisted(to_string::<WorkerFailure>, |text| {
        framed(FrameKind::Error, text)
    })
    .holds_for(|g| WorkerFailure {
        message: g.string(),
    });
}
