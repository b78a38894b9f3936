//! Kernel timing, and the profile view drained from the rings.
//!
//! Kernels record through [`KernelTimer`], which costs one relaxed load
//! while profiling is off. [`drain`] keeps every ring's interval events
//! (closed spans, requests, pool jobs, kernels) as a [`Profile`] for the
//! Chrome-trace writer and the summary.

use crate::ring::{rings, Event, EventKind, ThreadEvents};
use crate::{enabled, now_ns};

/// RAII kernel timer: holds the kernel's event from construction and
/// records it, timed and stamped with the ambient trace id, on drop.
/// Disarmed (zero work beyond one relaxed load) when profiling is
/// disabled; never allocates in either state once the thread's ring
/// exists.
#[must_use = "a kernel timer measures the scope that holds it"]
pub struct KernelTimer(Option<Event>);

impl KernelTimer {
    /// Starts timing a kernel with the given FLOP and byte payloads.
    #[inline]
    pub fn start(kind: EventKind, flops: u64, bytes: u64) -> Self {
        Self(enabled().then(|| Event::new(kind, "").at(now_ns(), 0).payload(flops, bytes)))
    }
}

impl Drop for KernelTimer {
    #[inline]
    fn drop(&mut self) {
        if let Some(event) = self.0 {
            let trace = crate::current().map_or(0, |c| c.trace_id);
            crate::push(&event.ids(trace, 0).at(event.t_ns, now_ns().saturating_sub(event.t_ns)));
        }
    }
}

/// A drained run profile: one timeline per recording thread.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Per-thread timelines, ordered by `tid`. Their events are the
    /// completed intervals: `SpanClose` for spans (request markers
    /// included, named `detect.request`), otherwise a pool or kernel kind.
    /// `a` holds a kernel's FLOPs or a pool job's chunks, `b` the bytes a
    /// kernel touched; both are 0 for spans.
    pub threads: Vec<ThreadEvents>,
}

impl Profile {
    /// The largest event end offset, i.e. the observed wall clock of the
    /// profiled run in nanoseconds since the epoch.
    pub fn wall_ns(&self) -> u64 {
        self.threads.iter().flat_map(|t| t.events.iter()).map(Event::end_ns).max().unwrap_or(0)
    }
}

/// The profile view of one ring event, if it is an interval.
fn interval(e: &Event) -> Option<Event> {
    match e.kind {
        // A closed span's `a` holds its duration for the flight view.
        EventKind::SpanClose => Some(e.payload(0, 0)),
        // A request's share of its micro-batch, on the timeline as a span.
        EventKind::Request => Some(
            Event::new(EventKind::SpanClose, "detect.request")
                .ids(e.trace_id, 0)
                .at(e.t_ns, e.dur_ns),
        ),
        k if k == EventKind::QueueWait || k == EventKind::PoolJob || k.is_kernel() => Some(*e),
        _ => None,
    }
}

/// Reads every thread's ring into a [`Profile`].
///
/// Intended to run at the end of a run, after parallel work has
/// quiesced; events still being written are simply not yet visible.
/// Rings are left in place, so a second drain returns the same events
/// plus any recorded since (minus any overwritten).
pub fn drain() -> Profile {
    let mut threads = rings();
    for thread in &mut threads {
        thread.events = thread.events.iter().filter_map(interval).collect();
    }
    threads.sort_by_key(|t| t.tid);
    Profile { threads }
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;
    use crate::set_enabled;

    /// The enabled switch is process-global and the harness runs tests
    /// concurrently; the toggling tests serialize on this.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn all_events() -> Vec<Event> {
        drain().threads.into_iter().flat_map(|t| t.events).collect()
    }

    #[test]
    fn disabled_timers_are_disarmed() {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        let t = KernelTimer::start(EventKind::Gemm, 1, 2);
        assert!(t.0.is_none());
    }

    #[test]
    fn kernel_events_round_trip_through_drain() {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        {
            let _t = KernelTimer::start(EventKind::GemmBt, 77, 11);
        }
        set_enabled(false);
        let events = all_events();
        assert!(events.iter().any(|e| e.kind == EventKind::GemmBt && e.a == 77 && e.b == 11));
    }

    #[test]
    fn closed_spans_and_requests_become_span_intervals() {
        let ctx = crate::TraceContext::mint();
        {
            let _t = crate::set_current(ctx);
            let open = crate::open_span("profiled.span");
            crate::close_span(&open);
            crate::push(
                &Event::new(EventKind::Request, "design")
                    .ids(ctx.trace_id, 0)
                    .at(3, 4)
                    .payload(1, 1),
            );
        }
        let events = all_events();
        let span = events
            .iter()
            .find(|e| e.name() == "profiled.span" && e.trace_id == ctx.trace_id)
            .expect("closed span");
        assert_eq!((span.kind, span.a), (EventKind::SpanClose, 0), "no payload on spans");
        let request = events
            .iter()
            .find(|e| e.name() == "detect.request" && e.trace_id == ctx.trace_id)
            .expect("request marker");
        assert_eq!((request.kind, request.t_ns, request.dur_ns), (EventKind::SpanClose, 3, 4));
        assert_eq!((request.a, request.b), (0, 0));
    }

    #[test]
    fn events_carry_the_ambient_trace_id() {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        let ctx = crate::TraceContext::mint();
        {
            let _t = crate::set_current(ctx);
            let _k = KernelTimer::start(EventKind::Im2col, 3, 4);
        }
        drop(KernelTimer::start(EventKind::Im2col, 7, 8));
        set_enabled(false);
        let events = all_events();
        assert!(events
            .iter()
            .any(|e| e.kind == EventKind::Im2col && e.a == 3 && e.trace_id == ctx.trace_id));
        assert!(events.iter().any(|e| e.kind == EventKind::Im2col && e.a == 7 && e.trace_id == 0));
    }
}
