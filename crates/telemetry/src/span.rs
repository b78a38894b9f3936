//! Hierarchical spans with wall-clock timing and key/value attributes.
//!
//! Opening a span and closing it each write one event to the calling
//! thread's ring in `noodle-trace` (plus one event per attribute) and
//! nothing else: no name string, no parent bookkeeping, no registry. A
//! span opened while another is open on the same thread is its child.
//! [`SpanRecord`] trees are rebuilt from the ring when read: by
//! [`crate::snapshot`] for the run report, and at close time for a live
//! [`crate::Sink`] (only when one that keeps records is installed).

use std::fmt;

use noodle_trace::{self as trace, Event, EventKind, OpenSpan};
use serde::{Deserialize, Serialize};

use crate::{enabled, sink_live, with_sink};

/// A finished span: name, attributes, timing and nested children.
///
/// Durations are wall-clock nanoseconds; `start_ns` is the offset from the
/// process epoch ([`noodle_trace::epoch`]), so records from one run share
/// a common timeline with flight and kernel events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Span name, dotted by convention (`"cnn.fit"`), truncated to
    /// [`noodle_trace::NAME_CAP`] bytes.
    pub name: String,
    /// Key/value attributes attached at open time (each key and value
    /// together truncated to [`noodle_trace::NAME_CAP`] bytes).
    pub attrs: Vec<(String, String)>,
    /// Start offset from the process epoch, in nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration, in nanoseconds.
    pub duration_ns: u64,
    /// Child spans, in completion order.
    pub children: Vec<SpanRecord>,
    /// Trace id (16 hex digits) of the request active when the span
    /// opened; empty when no request context was ambient. Joins the span
    /// to its audit record and profiler events.
    #[serde(default, skip_serializing_if = "String::is_empty")]
    pub trace_id: String,
}

impl SpanRecord {
    /// Total duration of the direct children, in nanoseconds.
    ///
    /// Children run strictly inside their parent, so this never exceeds
    /// [`SpanRecord::duration_ns`] beyond clock granularity.
    pub fn child_time_ns(&self) -> u64 {
        self.children.iter().map(|c| c.duration_ns).sum()
    }

    /// Time spent in this span but not in any direct child, in nanoseconds.
    pub fn self_time_ns(&self) -> u64 {
        self.duration_ns.saturating_sub(self.child_time_ns())
    }

    /// Depth-first search for the first descendant (or self) with `name`.
    pub fn find(&self, name: &str) -> Option<&SpanRecord> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }
}

/// RAII guard returned by [`crate::span!`] / [`start_span`]; closing (by
/// drop) records the span.
///
/// Guards must be dropped in reverse open order (the natural scoping
/// behaviour) and on the thread that opened them; interleaved drops would
/// attach children to the wrong parent.
#[must_use = "a span measures the scope that holds its guard"]
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

impl SpanGuard {
    /// A guard that does nothing on drop, used when telemetry is disabled.
    pub fn disabled() -> Self {
        Self { open: None }
    }

    /// Records a key/value attribute of this span: one more ring event,
    /// with `value` formatted inline (truncated like the name). No-op on
    /// a disabled guard.
    pub fn attr(&self, key: &str, value: &dyn fmt::Display) {
        if let Some(open) = &self.open {
            trace::span_attr(open, key, value);
        }
    }
}

/// Opens a span. Prefer the [`crate::span!`] macro, which also records
/// attributes and skips evaluating them when telemetry is disabled.
pub fn start_span(name: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard::disabled();
    }
    SpanGuard { open: Some(trace::open_span(name)) }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        trace::close_span(&open);
        if sink_live() {
            if let Some(record) = closed_record(&open) {
                with_sink(|sink| sink.span_closed(&record, usize::from(open.depth)));
            }
        }
    }
}

/// The record of the span `open` that just closed on this thread, rebuilt
/// from this thread's ring: everything from its open event on.
fn closed_record(open: &OpenSpan) -> Option<SpanRecord> {
    let mut trees = SpanTrees::of(&trace::thread_events_since(open.seq));
    if open.depth == 0 {
        trees.roots.pop()
    } else {
        trees.pending.pop().map(|(_, record)| record)
    }
}

/// Span trees rebuilt from one thread's events, oldest first.
///
/// A close event carries its span's name, start, duration and depth, so
/// a span whose open the ring already overwrote still yields a record
/// (without its attributes, which follow the open).
#[derive(Default)]
pub(crate) struct SpanTrees {
    /// Attributes of the span open at each depth, once its open is seen.
    attrs: Vec<Option<Vec<(String, String)>>>,
    /// Closed spans whose parent has not closed yet, with their depth.
    pending: Vec<(u16, SpanRecord)>,
    /// Closed root spans, in completion order.
    pub(crate) roots: Vec<SpanRecord>,
}

impl SpanTrees {
    pub(crate) fn of(events: &[Event]) -> Self {
        let mut trees = SpanTrees::default();
        for event in events {
            trees.feed(event);
        }
        trees
    }

    fn feed(&mut self, event: &Event) {
        let depth = usize::from(event.depth);
        match event.kind {
            EventKind::SpanOpen => {
                if self.attrs.len() <= depth {
                    self.attrs.resize(depth + 1, None);
                }
                self.attrs[depth] = Some(Vec::new());
            }
            EventKind::SpanAttr => {
                if let Some(Some(attrs)) = self.attrs.get_mut(depth) {
                    let (key, value) = event.attr();
                    attrs.push((key.to_owned(), value.to_owned()));
                }
            }
            EventKind::SpanClose => {
                let first_child = self
                    .pending
                    .iter()
                    .rposition(|(d, _)| usize::from(*d) <= depth)
                    .map_or(0, |i| i + 1);
                let record = SpanRecord {
                    name: event.name().to_owned(),
                    attrs: self.attrs.get_mut(depth).and_then(Option::take).unwrap_or_default(),
                    start_ns: event.t_ns,
                    duration_ns: event.dur_ns,
                    children: self.pending.drain(first_child..).map(|(_, r)| r).collect(),
                    trace_id: trace::format_trace_id(event.trace_id),
                };
                if depth == 0 {
                    self.roots.push(record);
                } else {
                    self.pending.push((event.depth, record));
                }
            }
            _ => {}
        }
    }
}

/// Formats a nanosecond duration for humans (`412ns`, `3.1us`, `27ms`,
/// `1.42s`).
pub fn format_duration_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(name: &str, duration_ns: u64) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            attrs: Vec::new(),
            start_ns: 0,
            duration_ns,
            children: Vec::new(),
            trace_id: String::new(),
        }
    }

    #[test]
    fn child_and_self_time() {
        let mut root = leaf("root", 100);
        root.children.push(leaf("a", 30));
        root.children.push(leaf("b", 50));
        assert_eq!(root.child_time_ns(), 80);
        assert_eq!(root.self_time_ns(), 20);
    }

    #[test]
    fn self_time_saturates() {
        let mut root = leaf("root", 10);
        root.children.push(leaf("a", 30));
        assert_eq!(root.self_time_ns(), 0);
    }

    #[test]
    fn find_walks_the_tree() {
        let mut root = leaf("root", 100);
        let mut mid = leaf("mid", 60);
        mid.children.push(leaf("deep", 20));
        root.children.push(mid);
        assert_eq!(root.find("deep").unwrap().duration_ns, 20);
        assert!(root.find("missing").is_none());
    }

    fn event(kind: EventKind, name: &str, depth: u16, t_ns: u64, dur_ns: u64) -> Event {
        let mut e = Event::new(kind, name).at(t_ns, dur_ns);
        e.depth = depth;
        e
    }

    fn attr(key: &str, value: &str, depth: u16) -> Event {
        let mut e = Event::new(EventKind::SpanAttr, &format!("{key}{value}"));
        e.depth = depth;
        e.a = key.len() as u64;
        e
    }

    #[test]
    fn trees_nest_by_depth_and_keep_attributes() {
        let trees = SpanTrees::of(&[
            event(EventKind::SpanOpen, "root", 0, 0, 0),
            attr("seed", "3", 0),
            event(EventKind::SpanOpen, "a", 1, 10, 0),
            event(EventKind::SpanOpen, "deep", 2, 12, 0),
            event(EventKind::SpanClose, "deep", 2, 12, 3),
            event(EventKind::SpanClose, "a", 1, 10, 20),
            event(EventKind::SpanOpen, "b", 1, 40, 0),
            attr("k", "v", 1),
            event(EventKind::SpanClose, "b", 1, 40, 5),
            event(EventKind::SpanClose, "root", 0, 0, 100),
            event(EventKind::SpanOpen, "open", 0, 200, 0),
            event(EventKind::SpanOpen, "closed.child", 1, 201, 0),
            event(EventKind::SpanClose, "closed.child", 1, 201, 1),
        ]);
        assert_eq!(trees.roots.len(), 1, "a root still open is not reported");
        let root = &trees.roots[0];
        assert_eq!(root.attrs, vec![("seed".to_string(), "3".to_string())]);
        assert_eq!((root.start_ns, root.duration_ns), (0, 100));
        let names: Vec<&str> = root.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(root.children[0].children[0].name, "deep");
        assert_eq!(root.children[1].attrs, vec![("k".to_string(), "v".to_string())]);
        assert!(root.children[0].attrs.is_empty());
    }

    #[test]
    fn a_span_whose_open_was_overwritten_still_closes_into_a_record() {
        // The ring kept only the tail: an attribute and a child of a root
        // whose open event is gone.
        let trees = SpanTrees::of(&[
            attr("lost", "1", 0),
            event(EventKind::SpanOpen, "child", 1, 5, 0),
            event(EventKind::SpanClose, "child", 1, 5, 2),
            event(EventKind::SpanClose, "root", 0, 0, 10),
        ]);
        let root = &trees.roots[0];
        assert_eq!((root.name.as_str(), root.duration_ns), ("root", 10));
        assert!(root.attrs.is_empty());
        assert_eq!(root.children.len(), 1);
    }

    #[test]
    fn duration_formatting_picks_units() {
        assert_eq!(format_duration_ns(412), "412ns");
        assert_eq!(format_duration_ns(3_100), "3.1us");
        assert_eq!(format_duration_ns(27_000_000), "27.0ms");
        assert_eq!(format_duration_ns(1_420_000_000), "1.42s");
    }
}
