//! The harness's own spans: recorded in memory around the calls into each
//! layer, folded into per-name self times, and written out once at exit
//! through `edgetune_trace::ChromeTrace` so `edgetune trace-summary`
//! ranks them.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use edgetune_trace::{ChromeTrace, Tracer};
use edgetune_util::units::Seconds;
use serde::{Deserialize, Serialize};

/// One recorded span. Times are seconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    /// Index of the span that caused this one; `None` for the root.
    pub parent: Option<usize>,
    /// Calls this span stands for: 1, or more where a long run of
    /// interposed calls was folded into one span.
    pub calls: u64,
}

/// Per-name totals of a span tree.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SelfTime {
    pub count: u64,
    pub total_s: f64,
    /// Duration minus the part covered by direct children.
    pub self_s: f64,
}

/// Most spans one `add_calls` leaves behind.
pub const MAX_CALL_SPANS: usize = 512;

/// In-memory span recorder for one workload run. Spans of one run share
/// the workload's name as their identifier.
#[derive(Debug)]
pub struct Spans {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(workload: &str) -> Self {
        Spans {
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Seconds since the recorder was created.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// The instant offsets are measured from — interposed wrappers stamp
    /// their calls against it.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn open(&mut self, name: &str) -> usize {
        let now = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start: now,
            end: now,
            parent: self.open.last().copied(),
            calls: 1,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.open(name);
        let out = f(self);
        self.close(id);
        out
    }

    /// Adds already-measured interposed calls — `(start, end)` pairs in
    /// call order — as children of `parent`. Past [`MAX_CALL_SPANS`] calls,
    /// consecutive ones are folded: a folded span starts with its first
    /// call and lasts the sum of its calls' durations, so busy time and
    /// the call count survive while a 200 000-call study stays loadable.
    pub fn add_calls(&mut self, name: &str, calls: &[(f64, f64)], parent: usize) {
        let fold = calls.len().div_ceil(MAX_CALL_SPANS).max(1);
        for chunk in calls.chunks(fold) {
            let busy: f64 = chunk.iter().map(|(s, e)| e - s).sum();
            self.spans.push(Span {
                name: name.to_string(),
                start: chunk[0].0,
                end: chunk[0].0 + busy,
                parent: Some(parent),
                calls: chunk.len() as u64,
            });
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per-name count, total and self time.
    pub fn self_times(&self) -> BTreeMap<String, SelfTime> {
        self_times(&self.spans)
    }

    /// Writes the spans as Chrome trace-event JSON.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let tracer = Tracer::new();
        let track = tracer.track("benchmark", &self.workload);
        for span in &self.spans {
            let mut args = vec![("workload".to_string(), self.workload.clone())];
            if span.calls > 1 {
                args.push(("calls".to_string(), span.calls.to_string()));
            }
            if let Some(parent) = span.parent {
                args.push(("parent".to_string(), self.spans[parent].name.clone()));
            }
            tracer.span_with_args(
                track,
                span.name.as_str(),
                "harness",
                Seconds::new(span.start),
                Seconds::new(span.end.max(span.start)),
                args,
            );
        }
        ChromeTrace::from_tracer(&tracer)
            .write(path)
            .map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

/// Self time of a span = its duration minus the durations of its direct
/// children, clamped at zero; summed per name.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, SelfTime> {
    let mut children = vec![0.0f64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent] += span.end - span.start;
        }
    }
    let mut by_name: BTreeMap<String, SelfTime> = BTreeMap::new();
    for (span, covered) in spans.iter().zip(children) {
        let duration = span.end - span.start;
        let entry = by_name.entry(span.name.clone()).or_default();
        entry.count += span.calls;
        entry.total_s += duration;
        entry.self_s += (duration - covered).max(0.0);
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start,
            end,
            parent,
            calls: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        // root 0..10
        //   a 1..4            (child b 2..3)
        //   a 5..9            (children b 5..6, c 6..8)
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("b", 2.0, 3.0, Some(1)),
            span("a", 5.0, 9.0, Some(0)),
            span("b", 5.0, 6.0, Some(3)),
            span("c", 6.0, 8.0, Some(3)),
        ];
        let t = self_times(&spans);
        // root: 10 − (3 + 4); grandchildren do not count against it.
        assert_eq!(t["root"].self_s, 3.0);
        assert_eq!(t["root"].count, 1);
        // a: (3 − 1) + (4 − 3) over two spans.
        assert_eq!(t["a"].count, 2);
        assert_eq!(t["a"].total_s, 7.0);
        assert_eq!(t["a"].self_s, 3.0);
        assert_eq!(t["b"].self_s, 2.0);
        assert_eq!(t["c"].self_s, 2.0);
        // Self times partition the root.
        let sum: f64 = t.values().map(|s| s.self_s).sum();
        assert_eq!(sum, 10.0);
    }

    #[test]
    fn recorder_nests_scopes_and_added_calls() {
        let mut spans = Spans::new("w");
        let root = spans.open("root");
        spans.scope("inner", |s| {
            let at = s.now();
            let inner = s.len() - 1;
            s.add_calls("call", &[(at, at)], inner);
        });
        spans.close(root);
        assert_eq!(spans.len(), 3);
        let t = spans.self_times();
        assert_eq!(t["call"].count, 1);
        assert!(t["root"].total_s >= t["inner"].total_s);
    }

    #[test]
    fn long_call_runs_fold_without_losing_busy_time_or_count() {
        let mut spans = Spans::new("w");
        let root = spans.open("root");
        spans.close(root);
        // 3 × MAX_CALL_SPANS calls of 1 s busy each, 1 s apart.
        let calls: Vec<(f64, f64)> = (0..3 * MAX_CALL_SPANS)
            .map(|i| (2.0 * i as f64, 2.0 * i as f64 + 1.0))
            .collect();
        spans.add_calls("call", &calls, root);
        assert_eq!(spans.len(), 1 + MAX_CALL_SPANS);
        let t = spans.self_times();
        assert_eq!(t["call"].count, calls.len() as u64);
        assert_eq!(t["call"].total_s, calls.len() as f64);
        // Folded spans keep call order and never overlap.
        let folded = &spans.spans[1..];
        assert!(folded.windows(2).all(|w| w[0].end <= w[1].start));
    }
}
