//! Span recording for the traced run. Spans are opened and closed by the
//! benchmark's own code around each call into a layer's public function;
//! nothing inside the program is instrumented. They stay in memory and are
//! written once, at exit, in the Chrome `trace_event` shape the repository's
//! db-scope traces already use (loadable in Perfetto / chrome://tracing).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// The operation the span belongs to — batch, scenario or query-block
    /// number — shared by every span of that operation.
    op: u64,
}

/// A count sampled at a span boundary (Chrome counter event).
#[derive(Debug, Clone)]
struct CountRec {
    name: &'static str,
    at_ns: u64,
    value: f64,
}

/// In-memory span and counter log with a parent stack.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<SpanRec>,
    counts: Vec<CountRec>,
    stack: Vec<usize>,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty log; timestamps are relative to now.
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            counts: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Close a span (and any span opened inside it that was left open).
    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == id.0 {
                break;
            }
        }
    }

    /// Time one call as a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, op);
        let r = f();
        self.end(id);
        r
    }

    /// Record a count at this boundary.
    pub fn count(&mut self, name: &'static str, value: f64) {
        let at_ns = self.now_ns();
        self.counts.push(CountRec { name, at_ns, value });
    }

    /// Spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Per span name: `(calls, total ns, self ns)`, where self time is the
    /// span's duration minus the part its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Render the Chrome `trace_event` document: one `ph:"X"` complete event
    /// per span (µs timestamps, `args.op` the shared operation number,
    /// `args.parent` the causing span) and one `ph:"C"` event per count.
    pub fn to_trace_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        for (i, s) in self.spans.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = s.parent.map_or(-1, |p| i64::try_from(p).unwrap_or(-1));
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
            );
        }
        for c in &self.counts {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{:.3},\"pid\":1,\"tid\":1,\
                 \"args\":{{\"value\":{}}}}}",
                c.name,
                c.at_ns as f64 / 1e3,
                c.value,
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut t = Tracer::new();
        let outer = t.begin("batch", 7);
        let a = t.begin("decode", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(a);
        let b = t.begin("ingest", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(b);
        t.end(outer);
        let st = t.self_times();
        let (calls, total, own) = st["batch"];
        assert_eq!(calls, 1);
        assert_eq!(own, total - st["decode"].1 - st["ingest"].1);
        assert!(st["decode"].2 >= 2_000_000 && st["ingest"].2 >= 2_000_000);
        assert!(!st.contains_key("absent"));
    }

    #[test]
    fn ending_an_outer_span_closes_what_was_left_open_inside() {
        let mut t = Tracer::new();
        let outer = t.begin("outer", 0);
        let _leaked = t.begin("inner", 0);
        t.end(outer);
        assert!(t.stack.is_empty());
        assert_eq!(t.span_count(), 2);
    }

    #[test]
    fn trace_json_has_one_complete_event_per_span_with_parent_and_op() {
        let mut t = Tracer::new();
        t.span("batch", 3, || {});
        let outer = t.begin("batch", 4);
        t.span("decode", 4, || {});
        t.count("carriers", 12.0);
        t.end(outer);
        let doc = t.to_trace_json();
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert_eq!(doc.matches("\"ph\":\"X\"").count(), 3);
        assert_eq!(doc.matches("\"ph\":\"C\"").count(), 1);
        assert!(doc.contains("\"args\":{\"id\":2,\"parent\":1,\"op\":4}"));
        assert!(doc.contains("\"args\":{\"id\":0,\"parent\":-1,\"op\":3}"));
        assert!(doc.trim_end().ends_with("\"displayTimeUnit\":\"ms\"}"));
    }
}
