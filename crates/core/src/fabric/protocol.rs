//! The fabric's wire vocabulary: what travels inside pipe frames.
//!
//! Every message is JSON inside one [frame](edgetune_runtime::frame):
//! a [`ShardTask`] goes down to the worker, [`ShardHeartbeat`]s and one
//! [`ShardResultMsg`] come back. JSON keeps the protocol debuggable
//! (`f64` round-trips exactly through serde's shortest-roundtrip
//! formatting, which is what makes worker measurements bit-identical to
//! in-process ones); the frame layer supplies integrity.

use edgetune_tuner::budget::TrialBudget;
use edgetune_tuner::space::Config;
use edgetune_util::units::Seconds;
use serde::{Deserialize, Serialize};

use crate::backend::{BackendSpec, TrialMeasurement};
use crate::engine::shard::ShardPlan;

/// A chaos instruction the supervisor can plant inside a task to test
/// its own crash containment. The worker executes it right after
/// measuring (and heartbeating) its first trial — mid-rung, so the
/// retry path is exercised with real partial progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ChaosAction {
    /// SIGKILL the worker process (no cleanup, no exit code ceremony).
    Kill,
    /// Panic on the worker's main thread.
    Panic,
    /// Stop heartbeating and sleep forever, forcing the heartbeat
    /// deadline to fire.
    Hang,
}

/// Identity of one rung execution on one shard — the idempotency key
/// of the remote fabric. A coordinator that reconnects after a lost
/// session resends the task under the same key; a host that already
/// executed it replays the cached [`ShardResultMsg`] instead of
/// measuring again, so reconnect-and-resend can never double-execute
/// a rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RungKey {
    /// The study's root seed.
    pub study: u64,
    /// HyperBand bracket index within the study.
    pub bracket: u32,
    /// Study-global rung counter (unique across brackets).
    pub rung: u32,
    /// Shard index within the rung.
    pub shard: usize,
}

/// The rung-level part of a [`RungKey`], carried by the supervisor into
/// `measure_rung`; each shard fills in its own index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RungScope {
    /// The study's root seed.
    pub study: u64,
    /// HyperBand bracket index within the study.
    pub bracket: u32,
    /// Study-global rung counter (unique across brackets).
    pub rung: u32,
}

impl RungScope {
    /// The full idempotency key for `shard`.
    #[must_use]
    pub fn key_for(self, shard: usize) -> RungKey {
        RungKey {
            study: self.study,
            bracket: self.bracket,
            rung: self.rung,
            shard,
        }
    }
}

/// One trial of a shard's slice, in execution order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskTrial {
    /// The trial's study-global id.
    pub id: u64,
    /// Configuration to measure.
    pub config: Config,
    /// Budget the trial runs under.
    pub budget: TrialBudget,
}

/// Orchestrator → worker: everything a shard worker needs to measure
/// its slice of a rung.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardTask {
    /// Supervision attempt (1-based) this task is part of — diagnostic
    /// only, the measurements do not depend on it.
    pub attempt: u32,
    /// The shard's slice assignment.
    pub plan: ShardPlan,
    /// Recipe for rebuilding the backend in the worker process.
    pub spec: BackendSpec,
    /// Simulated study time at which the rung was dispatched. Nothing
    /// measures with it — a measurement is a function of (spec, trial) —
    /// but it is part of a shard host's replay digest: two executions of
    /// one [`RungKey`] at different study times are different tasks.
    pub now: Seconds,
    /// The slice's trials, in order.
    pub trials: Vec<TaskTrial>,
    /// Planted fault, if the supervisor is chaos-testing itself.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub chaos: Option<ChaosAction>,
    /// Idempotency key for remote dispatch: shard hosts use it to replay
    /// cached results on reconnect-and-resend. Tasks for pipe workers
    /// carry none (a worker process lives exactly as long as its
    /// supervisor's attempt, so a resend can never find its cache).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub key: Option<RungKey>,
}

/// Worker → orchestrator: liveness plus progress, sent after every
/// measured trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardHeartbeat {
    /// The worker's shard index.
    pub shard: usize,
    /// Trials measured so far.
    pub completed: usize,
}

/// Worker → orchestrator: the finished slice.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardResultMsg {
    /// The worker's shard index.
    pub shard: usize,
    /// Measurements in slice order, bit-identical to what the
    /// orchestrator's own backend would have produced.
    pub measurements: Vec<TrialMeasurement>,
}

/// Worker → orchestrator: a structured failure the worker could still
/// report before exiting (e.g. an undecodable task).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerFailure {
    /// What went wrong, for the supervisor's crash event.
    pub message: String,
}

/// Serialises a message for a frame payload.
pub(crate) fn encode<T: Serialize>(message: &T) -> Vec<u8> {
    serde_json::to_string(message)
        .expect("fabric messages are plain data and always serialise")
        .into_bytes()
}

/// Deserialises a frame payload.
pub(crate) fn decode<T: Deserialize>(payload: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("payload is not UTF-8: {e}"))?;
    serde_json::from_str(text).map_err(|e| format!("payload does not decode: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::fixtures::{sample_trials, task_for};

    fn sample_task() -> ShardTask {
        task_for(&sample_trials(3), Seconds::new(40.0), None)
    }

    #[test]
    fn task_round_trips_through_json() {
        let task = sample_task();
        let decoded: ShardTask = decode(&encode(&task)).unwrap();
        assert_eq!(decoded, task);
    }

    #[test]
    fn chaos_round_trips_and_absence_is_omitted() {
        let mut task = sample_task();
        let bytes = encode(&task);
        assert!(!String::from_utf8(bytes).unwrap().contains("chaos"));
        task.chaos = Some(ChaosAction::Kill);
        let decoded: ShardTask = decode(&encode(&task)).unwrap();
        assert_eq!(decoded.chaos, Some(ChaosAction::Kill));
    }

    #[test]
    fn rung_key_round_trips_and_absence_is_omitted() {
        let mut task = sample_task();
        let bytes = encode(&task);
        assert!(!String::from_utf8(bytes).unwrap().contains("key"));
        task.key = Some(
            RungScope {
                study: 11,
                bracket: 2,
                rung: 5,
            }
            .key_for(3),
        );
        let decoded: ShardTask = decode(&encode(&task)).unwrap();
        assert_eq!(
            decoded.key,
            Some(RungKey {
                study: 11,
                bracket: 2,
                rung: 5,
                shard: 3
            })
        );
    }

    #[test]
    fn result_with_exact_floats_round_trips() {
        use edgetune_util::units::Joules;
        let msg = ShardResultMsg {
            shard: 2,
            measurements: vec![crate::backend::TrialMeasurement {
                accuracy: 0.123_456_789_012_345_67,
                runtime: Seconds::new(1.0 / 3.0),
                energy: Joules::new(std::f64::consts::PI),
                injected: None,
            }],
        };
        let decoded: ShardResultMsg = decode(&encode(&msg)).unwrap();
        assert_eq!(decoded, msg);
        assert!(decoded.measurements[0].runtime.value().to_bits() == (1.0f64 / 3.0).to_bits());
    }

    #[test]
    fn garbage_payload_is_a_clean_error() {
        assert!(decode::<ShardTask>(b"not json").is_err());
        assert!(decode::<ShardTask>(&[0xFF, 0xFE]).is_err());
    }
}
