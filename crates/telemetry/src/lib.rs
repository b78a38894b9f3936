//! # noodle-telemetry
//!
//! A lightweight (`serde`/`serde_json` + `noodle-trace` only) tracing
//! and metrics layer for the NOODLE pipeline:
//!
//! * [`span!`] — hierarchical spans with wall-clock timing and key/value
//!   attributes, recorded as events on the per-thread rings of
//!   [`trace`] (`noodle-trace`) and streamed live to a pluggable [`Sink`]
//!   (stderr pretty-printer, JSON lines, in-memory for tests);
//! * [`counter_add`] / [`gauge_set`] / [`histogram_record`] — monotonic
//!   counters, gauges and fixed-bucket histograms;
//! * [`RunReport`] — a serde-serializable end-of-run summary (stage-timing
//!   trees rebuilt from the rings, metric snapshots, corpus stats, fusion
//!   winner).
//!
//! Telemetry is **disabled by default** and every entry point is a no-op
//! until [`set_enabled`]`(true)` — the `span!` macro does not even format
//! its attributes, so instrumented hot paths (e.g. `detect`) cost one
//! relaxed atomic load and allocate nothing when tracing is off.
//!
//! ## Quickstart
//!
//! ```
//! use noodle_telemetry as telemetry;
//!
//! telemetry::set_enabled(true);
//! {
//!     let _stage = telemetry::span!("gan.amplify", class = "TI");
//!     telemetry::counter_add("gan.synthetic_samples", 38);
//!     telemetry::histogram_record("gan.d_loss", 0.7);
//! }
//! let snapshot = telemetry::snapshot();
//! assert_eq!(snapshot.counters["gan.synthetic_samples"], 38);
//! assert_eq!(snapshot.spans.last().unwrap().name, "gan.amplify");
//! telemetry::reset();
//! telemetry::set_enabled(false);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod report;
mod sink;
mod span;

pub use metrics::{
    counter_add, gauge_set, histogram_record, time_histogram, Exemplar, Histogram,
    HistogramSnapshot, MetricsSnapshot, Quantiles, TelemetrySnapshot, TimerGuard,
};
pub use report::{
    CorpusSummary, EvaluationSummary, ReportError, RunContext, RunReport, SCHEMA_VERSION,
};
pub use sink::{JsonLines, MemorySink, NullSink, Sink, StderrPretty};
pub use span::{format_duration_ns, start_span, SpanGuard, SpanRecord};

/// The event path spans are recorded on, for crates that reach it
/// through telemetry.
pub use noodle_trace as trace;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

static ENABLED: AtomicBool = AtomicBool::new(false);
static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
static SINK: OnceLock<Mutex<Box<dyn Sink>>> = OnceLock::new();
/// Whether the installed sink keeps span records (anything but [`NullSink`]).
static SINK_LIVE: AtomicBool = AtomicBool::new(false);
/// [`trace::now_ns`] at the last [`reset`]: root spans that closed
/// before it are left out of [`snapshot`].
static RESET_NS: AtomicU64 = AtomicU64::new(0);

/// The metrics the collector accumulates between [`reset`] calls. Spans
/// are not stored here: they live on the event rings.
#[derive(Default)]
pub(crate) struct Registry {
    pub(crate) counters: BTreeMap<String, u64>,
    pub(crate) gauges: BTreeMap<String, f64>,
    pub(crate) histograms: BTreeMap<String, Histogram>,
}

/// Whether telemetry is currently collecting. One relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enables or disables telemetry collection.
pub fn set_enabled(on: bool) {
    if on {
        // Pin the epoch before the first span so offsets stay positive.
        let _ = trace::epoch();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

pub(crate) fn registry() -> &'static Mutex<Registry> {
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

/// Replaces the global sink. The default sink is [`NullSink`]; while it
/// is installed, span closes neither rebuild records nor touch the sink.
pub fn set_sink(sink: Box<dyn Sink>) {
    let slot = SINK.get_or_init(|| Mutex::new(Box::new(NullSink)));
    let mut installed = slot.lock().expect("telemetry sink poisoned");
    SINK_LIVE.store(!sink.discards(), Ordering::Relaxed);
    *installed = sink;
}

/// Whether closed spans must be rebuilt and handed to the sink.
#[inline]
pub(crate) fn sink_live() -> bool {
    SINK_LIVE.load(Ordering::Relaxed)
}

pub(crate) fn with_sink(f: impl FnOnce(&mut dyn Sink)) {
    let slot = SINK.get_or_init(|| Mutex::new(Box::new(NullSink)));
    let mut sink = slot.lock().expect("telemetry sink poisoned");
    f(sink.as_mut());
}

/// A scrape-oriented copy of the metric registry: counters, gauges and
/// per-histogram [`HistogramSnapshot`]s.
///
/// The registry lock is held only for the raw map copies; the histogram
/// summaries (which sort retained observations) are computed after the
/// lock is released, so repeated `/metrics` scrapes cannot stall the
/// instrumented hot paths that share the registry mutex.
pub fn metrics_snapshot() -> MetricsSnapshot {
    let (counters, gauges, histograms) = metrics_copy();
    MetricsSnapshot {
        counters,
        gauges,
        histograms: histograms.iter().map(|(name, h)| (name.clone(), h.snapshot())).collect(),
    }
}

/// A point-in-time copy of every metric and of the root spans that
/// closed since the last [`reset`], each with its stage tree.
///
/// The trees are rebuilt from every thread's event ring, so they hold
/// what the rings still retain: at most one ring's capacity of events per
/// thread. Roots come in completion order.
pub fn snapshot() -> TelemetrySnapshot {
    let (counters, gauges, histograms) = metrics_copy();
    TelemetrySnapshot { spans: stage_trees(), counters, gauges, histograms }
}

/// Copies of the metric maps, taken under the registry lock.
fn metrics_copy() -> (BTreeMap<String, u64>, BTreeMap<String, f64>, BTreeMap<String, Histogram>) {
    let reg = registry().lock().expect("telemetry registry poisoned");
    (reg.counters.clone(), reg.gauges.clone(), reg.histograms.clone())
}

/// Root spans rebuilt from the rings, closed after the last [`reset`].
fn stage_trees() -> Vec<SpanRecord> {
    let since = RESET_NS.load(Ordering::Relaxed);
    let mut roots: Vec<SpanRecord> = trace::rings()
        .iter()
        .flat_map(|ring| span::SpanTrees::of(&ring.events).roots)
        .filter(|root| root.start_ns + root.duration_ns > since)
        .collect();
    roots.sort_by_key(|root| root.start_ns + root.duration_ns);
    roots
}

/// Clears all collected metrics and hides every span closed so far from
/// [`snapshot`] (the enabled flag and sink are untouched).
pub fn reset() {
    let mut reg = registry().lock().expect("telemetry registry poisoned");
    *reg = Registry::default();
    RESET_NS.store(trace::now_ns(), Ordering::Relaxed);
}

/// Opens a timed span for the enclosing scope, optionally with key/value
/// attributes: `span!("gan.amplify", class = "TI")`.
///
/// Binds to a [`SpanGuard`]; the span closes (and is recorded) when the
/// guard drops. Each attribute value is formatted with `Display` straight
/// into its ring event. When telemetry is disabled the attribute
/// expressions are not evaluated; either way nothing allocates once the
/// thread's ring exists.
#[macro_export]
macro_rules! span {
    ($name:expr $(,)?) => {
        $crate::start_span($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        if $crate::enabled() {
            let guard = $crate::start_span($name);
            $( guard.attr(::core::stringify!($key), &$value); )+
            guard
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}
