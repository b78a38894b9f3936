//! # noodle-trace
//!
//! The NOODLE pipeline's one event path.
//!
//! * [`TraceContext`] — a `Copy` (trace id, span id) pair minted once per
//!   detect request and carried through every layer via the ambient slot
//!   ([`current`] / [`set_current`]); the compute pool re-installs the
//!   submitter's context on its workers. One 16-hex-digit id joins a
//!   design's audit record, spans and kernels.
//! * **Event rings** — every span open, attribute and close, monitor
//!   transition, request, pool job and kernel is one fixed-size [`Event`]
//!   [`push`]ed onto the calling thread's lock-free ring: no lock, no
//!   allocation once the ring exists. Pool and kernel events are recorded
//!   only while profiling is [`enabled`].
//! * **Views, built when read** — [`flight_snapshot`] (flight bundles,
//!   `/debug/trace/<id>`), [`drain`] (the profile behind `--profile`,
//!   [`write_chrome_trace`], [`summarize`]) and, in `noodle-telemetry`,
//!   the run report's stage tree.
//! * [`CountingAllocator`] — a global allocator that, when enabled,
//!   counts allocations, bytes and the peak live footprint.
//!
//! Recording only writes timestamps and counters, so pipeline outputs
//! are bit-identical with profiling on or off at any thread count.
//!
//! ```
//! use noodle_trace as trace;
//!
//! trace::set_enabled(true);
//! {
//!     let _k = trace::KernelTimer::start(trace::EventKind::Gemm, 1_000, 4_096);
//! }
//! let span = trace::open_span("demo.stage");
//! trace::close_span(&span);
//! assert!(trace::drain().threads.iter().any(|t| !t.events.is_empty()));
//! trace::set_enabled(false);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod alloc;
mod chrome;
mod context;
mod flight;
mod profile;
mod ring;
mod summary;

pub use alloc::{mem_stats, set_mem_enabled, CountingAllocator, MemStats};
pub use chrome::{read_chrome_trace, write_chrome_trace, TraceMeta};
pub use context::{
    current, format_trace_id, parse_trace_id, set_current, swap_current, ContextGuard, TraceContext,
};
pub use flight::{flight_record, flight_snapshot, FlightKind, FlightRecordEvent};
pub use profile::{drain, KernelTimer, Profile};
pub use ring::{
    close_span, open_span, push, ring_capacity, rings, span_attr, thread_events_since, Event,
    EventKind, OpenSpan, ThreadEvents, NAME_CAP,
};
pub use summary::{
    render_summary, summarize, KernelSummary, ProfileSummary, SpanSelfTime, ThreadSummary,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();
static PROFILING: AtomicBool = AtomicBool::new(false);

/// The process-wide monotonic time origin. First touch pins it, so
/// spans, kernel events and flight events share one timeline.
pub fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the [`epoch`]. Allocation-free.
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Whether profiling is on: pool and kernel events are recorded, and
/// rings created from now on take the profile capacity. One relaxed
/// atomic load — the only cost instrumented kernels pay when it is off.
#[inline]
pub fn enabled() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

/// Turns profiling on or off. Turn it on before the run records its
/// first event, so every thread's ring is created at the profile size.
pub fn set_enabled(on: bool) {
    if on {
        let _ = epoch();
    }
    PROFILING.store(on, Ordering::Relaxed);
}
