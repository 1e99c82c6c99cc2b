//! The benchmark's own spans, recorded around each call it makes into a
//! layer's public functions (nothing inside the program is traced).
//!
//! Spans are kept in memory and written out as JSONL when the run ends.
//! A span records its name, the trace it belongs to (one trace per round,
//! chunk or batch), its parent span, and its start and end on the
//! recorder's monotonic clock.

use crate::stats::Samples;
use std::io::Write;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Layer-qualified name, e.g. `audit.federate`.
    pub name: &'static str,
    /// Trace id shared by the spans of one round, chunk or batch.
    pub trace: u64,
    /// This span's id (unique within the recorder, never 0).
    pub id: u64,
    /// Enclosing span's id, 0 for a root.
    pub parent: u64,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Wall time covered by the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder.
pub struct Recorder {
    origin: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<u64>,
    next_id: u64,
    trace: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_id: 1,
            trace: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new trace: spans opened from now on share its id.
    pub fn begin_trace(&mut self) {
        self.trace += 1;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().copied().unwrap_or(0);
        self.open.push(id);
        let start_ns = self.now_ns();
        let out = f(self);
        let end_ns = self.now_ns();
        self.open.pop();
        self.spans.push(SpanRecord {
            name,
            trace: self.trace,
            id,
            parent,
            start_ns,
            end_ns,
        });
        out
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations, in nanoseconds, of every span named `name`.
    pub fn durations_ns(&self, name: &str) -> Samples {
        let mut s = Samples::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            s.push(span.duration_ns() as f64);
        }
        s
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"trace\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.trace, s.id, s.parent, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Measured cost of recording one empty span, in nanoseconds (median of
/// batches), so the traced run can report its own overhead.
pub fn span_cost_ns() -> f64 {
    const PER_BATCH: u64 = 10_000;
    let mut batches = Samples::new();
    for _ in 0..9 {
        let mut r = Recorder::new();
        let start = Instant::now();
        for _ in 0..PER_BATCH {
            r.span("trace.calibrate", |_| ());
        }
        batches.push(start.elapsed().as_nanos() as f64 / PER_BATCH as f64);
    }
    batches.median().map_or(0.0, |q| q.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_trace() {
        let mut r = Recorder::new();
        r.begin_trace();
        r.span("core.round", |r| {
            r.span("audit.federate", |_| ());
            r.span("audit.ground", |_| ());
        });
        let spans = &r.spans;
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "core.round").unwrap();
        assert_eq!(root.parent, 0);
        for child in spans.iter().filter(|s| s.name != "core.round") {
            assert_eq!(child.parent, root.id);
            assert_eq!(child.trace, root.trace);
            assert!(child.start_ns >= root.start_ns && child.end_ns <= root.end_ns);
        }
        let mut out = Vec::new();
        r.write_jsonl(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 3);
    }
}
