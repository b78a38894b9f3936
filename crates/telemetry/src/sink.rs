//! Pluggable span sinks: where closed spans are streamed as they finish.

use std::io::Write;
use std::sync::{Arc, Mutex};

use crate::span::{format_duration_ns, SpanRecord};

/// Receives every closed span as it finishes.
///
/// `depth` is the nesting depth at close time (0 = root). Children close
/// before their parents, so a sink sees a stage's sub-steps stream in live
/// and then the enclosing stage's total.
pub trait Sink: Send {
    /// Called once per closed span.
    fn span_closed(&mut self, span: &SpanRecord, depth: usize);

    /// Whether this sink ignores every span. While such a sink is
    /// installed, span closes skip rebuilding the record and never lock
    /// the sink.
    fn discards(&self) -> bool {
        false
    }
}

/// Discards everything. The default sink: spans stay on the event rings
/// and metrics in the registry for [`crate::snapshot`]; nothing is
/// printed.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Sink for NullSink {
    fn span_closed(&mut self, _span: &SpanRecord, _depth: usize) {}

    fn discards(&self) -> bool {
        true
    }
}

/// Pretty-prints closed spans to stderr, indented by depth — the live
/// progress view behind `noodle train --trace`.
#[derive(Debug, Clone, Copy)]
pub struct StderrPretty {
    /// Spans deeper than this are suppressed to keep the stream readable.
    pub max_depth: usize,
}

impl Default for StderrPretty {
    fn default() -> Self {
        Self { max_depth: 3 }
    }
}

impl Sink for StderrPretty {
    fn span_closed(&mut self, span: &SpanRecord, depth: usize) {
        if depth > self.max_depth {
            return;
        }
        let indent = "  ".repeat(depth);
        let mut attrs = String::new();
        for (k, v) in &span.attrs {
            attrs.push_str(&format!(" {k}={v}"));
        }
        eprintln!(
            "[trace] {indent}{name}{attrs} ... {dur}",
            name = span.name,
            dur = format_duration_ns(span.duration_ns),
        );
    }
}

/// Streams one JSON object per closed span to a writer (stderr by default):
/// `{"type":"span","depth":N,"span":{...}}`. Root spans (`depth == 0`)
/// embed their full child tree; filter on `depth` to deduplicate.
pub struct JsonLines {
    writer: Box<dyn Write + Send>,
}

impl JsonLines {
    /// A JSON-lines sink over an arbitrary writer.
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        Self { writer }
    }

    /// A JSON-lines sink over stderr.
    pub fn stderr() -> Self {
        Self::new(Box::new(std::io::stderr()))
    }
}

impl Sink for JsonLines {
    fn span_closed(&mut self, span: &SpanRecord, depth: usize) {
        #[derive(serde::Serialize)]
        struct Line<'a> {
            r#type: &'static str,
            depth: usize,
            span: &'a SpanRecord,
        }
        if let Ok(line) = serde_json::to_string(&Line { r#type: "span", depth, span }) {
            let _ = writeln!(self.writer, "{line}");
        }
    }
}

/// Collects closed spans in memory, for tests. Clones share storage, so a
/// test can keep one handle and install the other with [`crate::set_sink`].
#[derive(Debug, Default, Clone)]
pub struct MemorySink {
    records: Arc<Mutex<Vec<(usize, SpanRecord)>>>,
}

impl MemorySink {
    /// An empty in-memory sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Everything recorded so far, as `(depth, span)` pairs in close order.
    pub fn records(&self) -> Vec<(usize, SpanRecord)> {
        self.records.lock().expect("memory sink poisoned").clone()
    }
}

impl Sink for MemorySink {
    fn span_closed(&mut self, span: &SpanRecord, depth: usize) {
        self.records.lock().expect("memory sink poisoned").push((depth, span.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            attrs: vec![("k".into(), "v".into())],
            start_ns: 0,
            duration_ns: 1_500,
            children: Vec::new(),
            trace_id: String::new(),
        }
    }

    #[test]
    fn memory_sink_shares_storage_across_clones() {
        let sink = MemorySink::new();
        let mut installed = sink.clone();
        installed.span_closed(&span("a"), 1);
        assert_eq!(sink.records().len(), 1);
        assert_eq!(sink.records()[0].0, 1);
        assert_eq!(sink.records()[0].1.name, "a");
    }

    #[test]
    fn json_lines_writes_one_line_per_span() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonLines::new(Box::new(Shared(buf.clone())));
        sink.span_closed(&span("x"), 0);
        sink.span_closed(&span("y"), 2);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let parsed: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(parsed["type"], "span");
        assert_eq!(parsed["span"]["name"], "x");
        assert_eq!(parsed["depth"], 0);
    }

    #[test]
    fn null_sink_is_silent() {
        NullSink.span_closed(&span("a"), 0);
    }
}
