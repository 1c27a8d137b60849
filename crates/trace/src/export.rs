//! Chrome trace-event JSON export (`chrome://tracing` / Perfetto).
//!
//! The exported object uses the JSON Object Format of the trace-event
//! spec: `{"traceEvents": [...], "displayTimeUnit": "ms", "otherData":
//! {...}}`. Metadata events name the processes and tracks; spans become
//! complete (`"X"`) events, instants `"i"` events, counters `"C"`
//! events. Timestamps are microseconds, as the format requires, so one
//! simulated second renders as one million viewer microseconds.

use std::collections::BTreeMap;
use std::path::Path;

use edgetune_util::Error;
use serde::{Deserialize, Serialize};
use serde_json::Value;

use crate::event::{EventKind, TraceEvent};
use crate::tracer::{Tracer, Track};

/// One entry of the `traceEvents` array.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChromeEvent {
    /// Event name.
    pub name: String,
    /// Category list (comma-separated in the spec; one category here).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub cat: Option<String>,
    /// Phase: "M" metadata, "X" complete, "i" instant, "C" counter.
    pub ph: String,
    /// Timestamp in microseconds.
    pub ts: f64,
    /// Duration in microseconds (complete events only).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub dur: Option<f64>,
    /// Process id.
    pub pid: u32,
    /// Thread id.
    pub tid: u32,
    /// Instant scope ("t" = thread).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub s: Option<String>,
    /// Event arguments.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub args: Option<BTreeMap<String, Value>>,
}

/// A complete exportable trace document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChromeTrace {
    /// The event stream: metadata first, then events in stable
    /// timestamp order (ties keep emission order).
    #[serde(rename = "traceEvents")]
    pub trace_events: Vec<ChromeEvent>,
    /// Viewer display unit.
    #[serde(rename = "displayTimeUnit")]
    pub display_time_unit: String,
    /// Compact self-describing summary of the trace.
    #[serde(rename = "otherData")]
    pub other_data: BTreeMap<String, String>,
}

impl ChromeTrace {
    /// Builds the export document from a tracer's current contents.
    #[must_use]
    pub fn from_tracer(tracer: &Tracer) -> Self {
        tracer.with(Self::build)
    }

    fn build(tracks: &[Track], events: &[TraceEvent]) -> Self {
        // One pid per distinct process, in track-registration order.
        let mut processes: Vec<&str> = Vec::new();
        for track in tracks {
            if !processes.contains(&track.process.as_str()) {
                processes.push(&track.process);
            }
        }
        let pid_of = |process: &str| -> u32 {
            (processes
                .iter()
                .position(|p| *p == process)
                .expect("registered")
                + 1) as u32
        };

        let mut out: Vec<ChromeEvent> = Vec::new();
        for (index, process) in processes.iter().enumerate() {
            out.push(ChromeEvent {
                name: "process_name".to_string(),
                cat: None,
                ph: "M".to_string(),
                ts: 0.0,
                dur: None,
                pid: (index + 1) as u32,
                tid: 0,
                s: None,
                args: Some(BTreeMap::from([(
                    "name".to_string(),
                    Value::String((*process).to_string()),
                )])),
            });
        }
        for (index, track) in tracks.iter().enumerate() {
            let tid = (index + 1) as u32;
            out.push(ChromeEvent {
                name: "thread_name".to_string(),
                cat: None,
                ph: "M".to_string(),
                ts: 0.0,
                dur: None,
                pid: pid_of(&track.process),
                tid,
                s: None,
                args: Some(BTreeMap::from([(
                    "name".to_string(),
                    Value::String(track.name.clone()),
                )])),
            });
            out.push(ChromeEvent {
                name: "thread_sort_index".to_string(),
                cat: None,
                ph: "M".to_string(),
                ts: 0.0,
                dur: None,
                pid: pid_of(&track.process),
                tid,
                s: None,
                args: Some(BTreeMap::from([(
                    "sort_index".to_string(),
                    Value::from(tid),
                )])),
            });
        }

        let mut spans = 0u64;
        let mut instants = 0u64;
        let mut counters = 0u64;
        let mut t_min = f64::INFINITY;
        let mut t_max = f64::NEG_INFINITY;

        // The log is in emission order; a *stable* sort by timestamp
        // keeps that order for ties, so the export is a pure function
        // of the trace contents.
        let mut ordered: Vec<&TraceEvent> = events.iter().collect();
        ordered.sort_by(|a, b| a.ts.value().total_cmp(&b.ts.value()));

        for event in ordered {
            let pid = pid_of(&tracks[event.track.index()].process);
            let tid = (event.track.index() + 1) as u32;
            let ts = event.ts.value() * 1e6;
            t_min = t_min.min(event.ts.value());
            t_max = t_max.max(event.ts.value());
            let args_map = |args: &[(String, String)]| -> Option<BTreeMap<String, Value>> {
                if args.is_empty() {
                    None
                } else {
                    Some(
                        args.iter()
                            .map(|(k, v)| (k.clone(), Value::String(v.clone())))
                            .collect(),
                    )
                }
            };
            match &event.kind {
                EventKind::Span { end } => {
                    spans += 1;
                    t_max = t_max.max(end.value());
                    out.push(ChromeEvent {
                        name: event.name.clone(),
                        cat: Some(event.category.clone()),
                        ph: "X".to_string(),
                        ts,
                        dur: Some((end.value() - event.ts.value()) * 1e6),
                        pid,
                        tid,
                        s: None,
                        args: args_map(&event.args),
                    });
                }
                EventKind::Instant => {
                    instants += 1;
                    out.push(ChromeEvent {
                        name: event.name.clone(),
                        cat: Some(event.category.clone()),
                        ph: "i".to_string(),
                        ts,
                        dur: None,
                        pid,
                        tid,
                        s: Some("t".to_string()),
                        args: args_map(&event.args),
                    });
                }
                EventKind::Counter { values } => {
                    counters += 1;
                    out.push(ChromeEvent {
                        name: event.name.clone(),
                        cat: Some(event.category.clone()),
                        ph: "C".to_string(),
                        ts,
                        dur: None,
                        pid,
                        tid,
                        s: None,
                        args: Some(
                            values
                                .iter()
                                .map(|(k, v)| (k.clone(), Value::from(*v)))
                                .collect(),
                        ),
                    });
                }
            }
        }

        let mut other_data = BTreeMap::new();
        other_data.insert("format".to_string(), "edgetune-trace".to_string());
        other_data.insert("processes".to_string(), processes.len().to_string());
        other_data.insert("tracks".to_string(), tracks.len().to_string());
        other_data.insert("spans".to_string(), spans.to_string());
        other_data.insert("instants".to_string(), instants.to_string());
        other_data.insert("counters".to_string(), counters.to_string());
        if t_min.is_finite() {
            other_data.insert("time_start_s".to_string(), format!("{t_min}"));
            other_data.insert("time_end_s".to_string(), format!("{t_max}"));
        }

        ChromeTrace {
            trace_events: out,
            display_time_unit: "ms".to_string(),
            other_data,
        }
    }

    /// Pretty JSON, deterministic for identical contents (object keys
    /// come from `BTreeMap`s, floats print shortest-round-trip).
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        let mut json = serde_json::to_string_pretty(self).expect("trace serialization cannot fail");
        json.push('\n');
        json
    }

    /// Parses a trace document back from JSON.
    pub fn from_json(json: &str) -> Result<Self, Error> {
        serde_json::from_str(json).map_err(|err| Error::storage(format!("trace parse: {err}")))
    }

    /// Writes the trace to `path` as pretty JSON.
    pub fn write(&self, path: impl AsRef<Path>) -> Result<(), Error> {
        let path = path.as_ref();
        std::fs::write(path, self.to_json_pretty())
            .map_err(|err| Error::storage(format!("write trace {}: {err}", path.display())))
    }

    /// Checks the document against the trace-event format's required
    /// keys: known phases, finite timestamps, durations exactly on
    /// complete events, scopes on instants, and addressable pids/tids.
    pub fn validate(&self) -> Result<(), String> {
        for (index, event) in self.trace_events.iter().enumerate() {
            let fail = |msg: &str| Err(format!("traceEvents[{index}] ({}): {msg}", event.name));
            if event.name.is_empty() {
                return fail("empty name");
            }
            if !event.ts.is_finite() {
                return fail("non-finite ts");
            }
            match event.ph.as_str() {
                "M" => {
                    if event.args.is_none() {
                        return fail("metadata event without args");
                    }
                }
                "X" => match event.dur {
                    Some(dur) if dur.is_finite() && dur >= 0.0 => {}
                    _ => return fail("complete event without a finite non-negative dur"),
                },
                "i" => {
                    if event.s.as_deref() != Some("t") {
                        return fail("instant event without thread scope");
                    }
                }
                "C" => {
                    if event.args.as_ref().is_none_or(BTreeMap::is_empty) {
                        return fail("counter event without values");
                    }
                }
                other => return fail(&format!("unknown phase {other:?}")),
            }
            if event.ph != "X" && event.dur.is_some() {
                return fail("dur on a non-complete event");
            }
            if event.ph != "M" && (event.pid == 0 || event.tid == 0) {
                return fail("unaddressed pid/tid");
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use edgetune_util::units::Seconds;

    use super::*;

    fn sample() -> ChromeTrace {
        let tracer = Tracer::new();
        let model = tracer.track("model-server", "trial-slot-0");
        let inference = tracer.track("inference-server", "sweeps");
        tracer.span(
            model,
            "trial-1",
            "model",
            Seconds::new(0.0),
            Seconds::new(4.0),
        );
        tracer.span(
            inference,
            "resnet-18",
            "inference",
            Seconds::new(0.0),
            Seconds::new(1.5),
        );
        tracer.instant(model, "cache-hit", "cache", Seconds::new(2.0));
        tracer.counter(
            inference,
            "cache",
            "cache",
            Seconds::new(2.0),
            vec![("hits".to_string(), 1.0), ("misses".to_string(), 2.0)],
        );
        ChromeTrace::from_tracer(&tracer)
    }

    #[test]
    fn export_passes_its_own_validation() {
        sample().validate().expect("valid");
    }

    #[test]
    fn metadata_events_lead_and_name_every_track() {
        let trace = sample();
        // 2 processes + 2 tracks × (thread_name + thread_sort_index).
        let metadata: Vec<&ChromeEvent> = trace
            .trace_events
            .iter()
            .take_while(|event| event.ph == "M")
            .collect();
        assert_eq!(metadata.len(), 6);
        assert!(metadata.iter().any(|m| {
            m.name == "process_name"
                && m.args.as_ref().unwrap()["name"] == Value::from("inference-server")
        }));
        assert!(metadata.iter().any(|m| m.name == "thread_name"
            && m.args.as_ref().unwrap()["name"] == Value::from("trial-slot-0")));
    }

    #[test]
    fn timestamps_are_microseconds_and_spans_carry_dur() {
        let trace = sample();
        let trial = trace
            .trace_events
            .iter()
            .find(|event| event.name == "trial-1")
            .unwrap();
        assert_eq!(trial.ph, "X");
        assert_eq!(trial.ts, 0.0);
        assert_eq!(trial.dur, Some(4.0e6));
    }

    #[test]
    fn equal_timestamps_keep_emission_order() {
        let tracer = Tracer::new();
        let track = tracer.track("engine", "t");
        tracer.instant(track, "first", "test", Seconds::new(1.0));
        tracer.instant(track, "second", "test", Seconds::new(1.0));
        tracer.instant(track, "earlier", "test", Seconds::new(0.5));
        let trace = ChromeTrace::from_tracer(&tracer);
        let names: Vec<&str> = trace
            .trace_events
            .iter()
            .filter(|event| event.ph == "i")
            .map(|event| event.name.as_str())
            .collect();
        assert_eq!(names, vec!["earlier", "first", "second"]);
    }

    #[test]
    fn json_round_trips_and_summary_is_self_describing() {
        let trace = sample();
        let json = trace.to_json_pretty();
        let back = ChromeTrace::from_json(&json).expect("parse");
        assert_eq!(back, trace);
        assert_eq!(trace.other_data["spans"], "2");
        assert_eq!(trace.other_data["instants"], "1");
        assert_eq!(trace.other_data["counters"], "1");
        assert_eq!(trace.other_data["tracks"], "2");
        assert_eq!(trace.other_data["time_end_s"], "4");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"displayTimeUnit\": \"ms\""));
    }

    #[test]
    fn validation_rejects_malformed_events() {
        let mut trace = sample();
        trace.trace_events.push(ChromeEvent {
            name: "bad".to_string(),
            cat: None,
            ph: "X".to_string(),
            ts: 1.0,
            dur: None,
            pid: 1,
            tid: 1,
            s: None,
            args: None,
        });
        assert!(trace.validate().is_err());
    }

    #[test]
    fn counters_export_numeric_args() {
        let trace = sample();
        let counter = trace
            .trace_events
            .iter()
            .find(|event| event.ph == "C")
            .unwrap();
        let args = counter.args.as_ref().unwrap();
        assert_eq!(args["hits"], Value::from(1.0));
        assert_eq!(args["misses"], Value::from(2.0));
    }
}
