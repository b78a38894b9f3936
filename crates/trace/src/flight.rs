//! The flight view: recent span opens/closes, monitor transitions and
//! request summaries, read from the per-thread event rings.
//!
//! Think of it as a black box for the detector. Writers pay one ring
//! write ([`flight_record`]); nothing is kept anywhere else. When
//! `StreamingMonitors` trips into Alert — or on demand via
//! `GET /debug/flight` — [`flight_snapshot`] merges the rings' flight
//! events into one timeline for a self-contained diagnostics bundle.

use serde::{Deserialize, Serialize};

use crate::ring::{rings, Event, EventKind, FLIGHT_CAPACITY};
use crate::{format_trace_id, now_ns};

/// The kinds the flight view shows; the same enum as every ring event.
pub type FlightKind = EventKind;

/// Records one instant event on the calling thread's ring, stamped now.
/// Never blocks; after the thread's first event this is allocation-free.
/// `name` is truncated to [`crate::NAME_CAP`] bytes.
pub fn flight_record(kind: FlightKind, trace_id: u64, span_id: u64, a: u64, b: u64, name: &str) {
    crate::push(&Event::new(kind, name).ids(trace_id, span_id).at(now_ns(), 0).payload(a, b));
}

/// One event as drained from the rings: the serializable, human-readable
/// form used in flight bundles and `/debug/trace/<id>`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FlightRecordEvent {
    /// The event's position among all events its thread recorded (0 =
    /// the thread's first); `(tid, seq)` identifies an event.
    pub seq: u64,
    /// Thread that recorded the event (threads are numbered in the order
    /// of their first event).
    #[serde(default)]
    pub tid: u32,
    /// Event kind.
    pub kind: FlightKind,
    /// Owning trace id as 16 hex digits; empty if the event had no
    /// ambient context.
    #[serde(default)]
    pub trace_id: String,
    /// Root span id as 16 hex digits; empty if none.
    #[serde(default)]
    pub span_id: String,
    /// Nanoseconds since the process [`crate::epoch`]: when the event
    /// happened, or when its interval started.
    pub t_ns: u64,
    /// Interval length in nanoseconds (a closed span's duration; 0 for
    /// instants).
    #[serde(default)]
    pub dur_ns: u64,
    /// Event name (span name, design name, monitor name...).
    pub name: String,
    /// Kind-specific payload (see [`FlightKind`]).
    pub a: u64,
    /// Kind-specific payload (see [`FlightKind`]).
    pub b: u64,
}

/// Snapshots the newest 4096 flight events across all rings, ordered by
/// when they were recorded (an interval when it ended). Safe to call
/// concurrently with writers; the result holds fully written events only.
pub fn flight_snapshot() -> Vec<FlightRecordEvent> {
    let mut out: Vec<(u64, FlightRecordEvent)> = Vec::new();
    for thread in rings() {
        for (seq, e) in (thread.dropped..).zip(&thread.events).filter(|(_, e)| e.kind.is_flight()) {
            let view = FlightRecordEvent {
                seq,
                tid: thread.tid,
                kind: e.kind,
                trace_id: format_trace_id(e.trace_id),
                span_id: format_trace_id(e.span_id),
                t_ns: e.t_ns,
                dur_ns: e.dur_ns,
                name: e.name().to_owned(),
                a: e.a,
                b: e.b,
            };
            out.push((e.end_ns(), view));
        }
    }
    out.sort_by_key(|(end, e)| (*end, e.tid, e.seq));
    let older = out.len().saturating_sub(FLIGHT_CAPACITY);
    out.into_iter().skip(older).map(|(_, e)| e).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The rings are process-global, so these tests only assert properties
    // that hold regardless of what other tests record.

    fn mine(ctx: crate::TraceContext) -> Vec<FlightRecordEvent> {
        let hex = format_trace_id(ctx.trace_id);
        flight_snapshot().into_iter().filter(|e| e.trace_id == hex).collect()
    }

    #[test]
    fn recorded_events_come_back_in_order_with_payloads() {
        let ctx = crate::TraceContext::mint();
        flight_record(FlightKind::Request, ctx.trace_id, ctx.span_id, 7, 1, "uart_007");
        flight_record(FlightKind::MonitorTransition, ctx.trace_id, ctx.span_id, 0, 2, "overall");
        let mine = mine(ctx);
        assert_eq!(mine.len(), 2);
        assert!(mine[0].seq < mine[1].seq);
        assert_eq!(mine[0].kind, FlightKind::Request);
        assert_eq!(mine[0].name, "uart_007");
        assert_eq!(mine[0].a, 7);
        assert_eq!(mine[1].kind, FlightKind::MonitorTransition);
        assert_eq!(mine[1].b, 2);
    }

    #[test]
    fn seq_numbers_each_threads_events_from_its_first() {
        let ctx = crate::TraceContext::mint();
        std::thread::spawn(move || {
            for i in 0..3 {
                flight_record(FlightKind::Request, ctx.trace_id, 0, i, 0, "seq");
            }
        })
        .join()
        .unwrap();
        let seqs: Vec<u64> = mine(ctx).iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 1, 2]);
    }

    #[test]
    fn long_names_are_truncated_not_dropped() {
        let ctx = crate::TraceContext::mint();
        let long = "x".repeat(crate::NAME_CAP + 50);
        flight_record(FlightKind::Request, ctx.trace_id, 0, 0, 0, &long);
        assert_eq!(mine(ctx)[0].name.len(), crate::NAME_CAP);
    }

    #[test]
    fn kernel_events_stay_out_of_the_flight_view() {
        let ctx = crate::TraceContext::mint();
        crate::push(&Event::new(EventKind::Gemm, "").ids(ctx.trace_id, 0));
        assert!(mine(ctx).is_empty());
    }

    #[test]
    fn span_closes_carry_their_duration_in_a() {
        let ctx = crate::TraceContext::mint();
        let _t = crate::set_current(ctx);
        let open = crate::open_span("flight.span");
        crate::close_span(&open);
        let close = mine(ctx).into_iter().find(|e| e.kind == EventKind::SpanClose).unwrap();
        assert_eq!(close.a, close.dur_ns);
    }

    #[test]
    fn the_view_keeps_the_newest_events_across_rings() {
        let ctx = crate::TraceContext::mint();
        let writers: Vec<_> = (0..2)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..3_000 {
                        flight_record(FlightKind::Request, ctx.trace_id, t, i, 0, "cap");
                    }
                })
            })
            .collect();
        writers.into_iter().for_each(|w| w.join().unwrap());
        let snap = flight_snapshot();
        assert_eq!(snap.len(), FLIGHT_CAPACITY);
        let hex = format_trace_id(ctx.trace_id);
        let newest = snap.iter().filter(|e| e.trace_id == hex && e.a == 2_999);
        assert_eq!(newest.count(), 2, "each thread's newest event is kept");
    }

    #[test]
    fn events_serialize_round_trip() {
        let ctx = crate::TraceContext::mint();
        flight_record(FlightKind::MonitorTransition, ctx.trace_id, 0, 0, 2, "overall");
        let snap = mine(ctx);
        let json = serde_json::to_string(&snap).unwrap();
        let back: Vec<FlightRecordEvent> = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
        assert!(json.contains("monitor_transition"));
    }
}
