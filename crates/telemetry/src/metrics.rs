//! Metrics: monotonic counters, last-value gauges and fixed-bucket
//! histograms, all keyed by name in a global registry.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::{enabled, registry, Registry};

/// Observations a [`Histogram`] retains for its quantiles: the newest
/// 65,536. Bucket counts, `count`, `sum`, extrema and exemplars stay
/// cumulative; only the raw values roll over, so a long-running daemon's
/// histograms stay bounded.
pub const QUANTILE_WINDOW: usize = 1 << 16;

/// Nearest-rank quantiles of a histogram's retained observations (the
/// newest [`QUANTILE_WINDOW`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Quantiles {
    /// Median (50th percentile).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// One traced observation retained per histogram bucket: the most recent
/// value recorded into that bucket while a request context was ambient.
/// Surfaced on `/metrics` as an OpenMetrics exemplar, so a latency
/// outlier in a bucket links straight to the request that caused it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Exemplar {
    /// The observed value.
    pub value: f64,
    /// Trace id of the request that recorded it (never 0).
    pub trace_id: u64,
}

/// A point-in-time summary of one histogram: everything a scrape or report
/// needs (bucket counts, totals, extrema, window quantiles) without the
/// raw observation vector.
///
/// Produced by [`Histogram::snapshot`], which sorts the retained
/// observations **once** to derive all three quantiles — unlike calling
/// [`Histogram::quantile`] three times, which would clone and sort per
/// call. The snapshot is what the `/metrics` exporter renders and what
/// `RunReport` embeds as `histogram_quantiles`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds of the finite buckets, ascending.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts (one more than `bounds` for overflow).
    pub counts: Vec<u64>,
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation, if any.
    pub min: Option<f64>,
    /// Largest observation, if any.
    pub max: Option<f64>,
    /// p50/p95/p99 over the retained window, when at least one
    /// observation was retained.
    pub quantiles: Option<Quantiles>,
    /// Per-bucket trace-id exemplars (empty when no traced observation
    /// was ever recorded; absent in snapshots written before exemplars).
    #[serde(default)]
    pub exemplars: Vec<Option<Exemplar>>,
}

impl HistogramSnapshot {
    /// Cumulative `(upper_bound, count)` pairs in Prometheus `le` order,
    /// ending with the `+Inf` bucket (whose count equals `count`).
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::with_capacity(self.counts.len());
        let mut running = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            running += c;
            let bound = self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            out.push((bound, running));
        }
        out
    }
}

/// A fixed-bucket histogram with `len(bounds) + 1` buckets.
///
/// Bucket `i` counts values `v` with `v <= bounds[i]` (and
/// `v > bounds[i - 1]` for `i > 0`); the final bucket counts values above
/// every bound. Bounds are sorted ascending at construction. The newest
/// [`QUANTILE_WINDOW`] raw observations are additionally retained for
/// exact quantiles over that window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Inclusive upper bounds of the finite buckets, ascending.
    pub bounds: Vec<f64>,
    /// Observation counts per bucket (one more than `bounds` for overflow).
    pub counts: Vec<u64>,
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation, if any.
    pub min: Option<f64>,
    /// Largest observation, if any.
    pub max: Option<f64>,
    /// The newest [`QUANTILE_WINDOW`] finite observations (absent in
    /// reports written before quantile support). In arrival order until
    /// the window fills; after that a ring whose oldest entry sits at
    /// index `count % QUANTILE_WINDOW`.
    #[serde(default)]
    pub values: Vec<f64>,
    /// Per-bucket trace-id exemplars: the most recent traced observation
    /// that landed in each bucket (absent in reports written before
    /// exemplar support; kept empty until the first traced observation).
    #[serde(default)]
    pub exemplars: Vec<Option<Exemplar>>,
}

impl Histogram {
    /// Creates an empty histogram with the given bucket bounds.
    pub fn new(bounds: &[f64]) -> Self {
        let mut bounds: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
        bounds.sort_by(|a, b| a.total_cmp(b));
        bounds.dedup();
        let counts = vec![0; bounds.len() + 1];
        Self {
            bounds,
            counts,
            count: 0,
            sum: 0.0,
            min: None,
            max: None,
            values: Vec::new(),
            exemplars: Vec::new(),
        }
    }

    /// Default bounds: a 1–2–5 logarithmic ladder from 1e-6 to 1e9, wide
    /// enough for losses, probabilities and microsecond latencies alike.
    pub fn default_bounds() -> Vec<f64> {
        let mut bounds = Vec::with_capacity(48);
        let mut decade = 1e-6;
        while decade < 1e10 {
            for mult in [1.0, 2.0, 5.0] {
                bounds.push(decade * mult);
            }
            decade *= 10.0;
        }
        bounds
    }

    /// Records one observation. Non-finite values are ignored.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.min = Some(self.min.map_or(value, |m| m.min(value)));
        self.max = Some(self.max.map_or(value, |m| m.max(value)));
        if self.values.len() < QUANTILE_WINDOW {
            self.values.push(value);
        } else {
            // The ring's oldest entry sits at `count % window`.
            self.values[((self.count - 1) % QUANTILE_WINDOW as u64) as usize] = value;
        }
        if let Some(ctx) = noodle_trace::current() {
            // Keep the latest traced observation per bucket as its
            // exemplar. The vector stays empty until the first traced
            // observation, so untraced histograms pay nothing.
            if self.exemplars.len() != self.counts.len() {
                self.exemplars.resize(self.counts.len(), None);
            }
            self.exemplars[idx] = Some(Exemplar { value, trace_id: ctx.trace_id });
        }
    }

    /// Mean of the observations, or `None` before the first one.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Nearest-rank quantile of the retained observations (the newest
    /// [`QUANTILE_WINDOW`]): the `ceil(q·n)`-th smallest value.
    ///
    /// Returns `None` when empty or `q` is outside `(0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        (q > 0.0 && q <= 1.0).then(|| self.sorted()).and_then(|sorted| rank(&sorted, q))
    }

    /// The standard p50/p95/p99 summary, or `None` before the first
    /// observation (including histograms restored from pre-quantile
    /// reports, which carry no raw values). Sorts the retained
    /// observations once for all three.
    pub fn quantiles(&self) -> Option<Quantiles> {
        let sorted = self.sorted();
        Some(Quantiles {
            p50: rank(&sorted, 0.5)?,
            p95: rank(&sorted, 0.95)?,
            p99: rank(&sorted, 0.99)?,
        })
    }

    fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.values.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        sorted
    }

    /// A point-in-time [`HistogramSnapshot`]: bucket counts, totals,
    /// extrema and quantiles, computed with a single sort and no retained
    /// raw values — the form served by `/metrics` scrapes and embedded in
    /// run reports.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self.counts.clone(),
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            quantiles: self.quantiles(),
            exemplars: self.exemplars.clone(),
        }
    }
}

/// The `ceil(q·n)`-th smallest of `sorted`, or `None` when it is empty.
fn rank(sorted: &[f64], q: f64) -> Option<f64> {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len().max(1)) - 1).copied()
}

/// A scrape-oriented copy of every metric: counters, gauges and
/// [`HistogramSnapshot`]s — no spans and no raw observation vectors.
///
/// Produced by [`crate::metrics_snapshot`], which holds the registry lock
/// only long enough to copy the raw maps and computes the histogram
/// summaries (the O(n log n) part) after releasing it, so a concurrent
/// scrape never stalls instrumented hot paths.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-value gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// A point-in-time copy of every metric and finished root span.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Finished root spans (each the root of a stage-timing tree).
    pub spans: Vec<crate::SpanRecord>,
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-value gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

/// Applies `f` to the registry under its lock, when telemetry is enabled.
fn update<R>(f: impl FnOnce(&mut Registry) -> R) {
    if enabled() {
        f(&mut registry().lock().expect("telemetry registry poisoned"));
    }
}

/// Adds `delta` to the named monotonic counter. No-op when telemetry is
/// disabled.
pub fn counter_add(name: &str, delta: u64) {
    update(|reg| *reg.counters.entry(name.to_string()).or_insert(0) += delta);
}

/// Sets the named gauge to `value`. Non-finite values are ignored; no-op
/// when telemetry is disabled.
pub fn gauge_set(name: &str, value: f64) {
    if value.is_finite() {
        update(|reg| reg.gauges.insert(name.to_string(), value));
    }
}

/// Records `value` into the named histogram, creating it with
/// [`Histogram::default_bounds`] on first use. No-op when telemetry is
/// disabled.
pub fn histogram_record(name: &str, value: f64) {
    update(|reg| {
        reg.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(&Histogram::default_bounds()))
            .record(value);
    });
}

/// RAII timer: on drop, records the elapsed wall-clock time in
/// **microseconds** into the named histogram. Created disarmed (zero cost)
/// when telemetry is disabled.
#[must_use = "a timer measures the scope that holds it"]
pub struct TimerGuard {
    inner: Option<(std::time::Instant, &'static str)>,
}

impl Drop for TimerGuard {
    fn drop(&mut self) {
        if let Some((start, name)) = self.inner.take() {
            histogram_record(name, start.elapsed().as_secs_f64() * 1e6);
        }
    }
}

/// Starts a [`TimerGuard`] recording into histogram `name` (microseconds).
pub fn time_histogram(name: &'static str) -> TimerGuard {
    if !enabled() {
        return TimerGuard { inner: None };
    }
    TimerGuard { inner: Some((std::time::Instant::now(), name)) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_inclusive_upper() {
        let mut h = Histogram::new(&[1.0, 2.0, 5.0]);
        h.record(0.5); // <= 1.0        -> bucket 0
        h.record(1.0); // == bound      -> bucket 0 (inclusive)
        h.record(1.5); // (1, 2]        -> bucket 1
        h.record(2.0); // == bound      -> bucket 1
        h.record(5.0); // == last bound -> bucket 2
        h.record(9.0); // above all     -> overflow bucket
        assert_eq!(h.counts, vec![2, 2, 1, 1]);
        assert_eq!(h.count, 6);
        assert_eq!(h.min, Some(0.5));
        assert_eq!(h.max, Some(9.0));
    }

    #[test]
    fn non_finite_observations_are_dropped() {
        let mut h = Histogram::new(&[1.0]);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count, 0);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn bounds_are_sorted_and_deduped() {
        let h = Histogram::new(&[5.0, 1.0, 5.0, f64::INFINITY]);
        assert_eq!(h.bounds, vec![1.0, 5.0]);
        assert_eq!(h.counts.len(), 3);
    }

    #[test]
    fn default_bounds_are_ascending() {
        let bounds = Histogram::default_bounds();
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        assert!(bounds.first().unwrap() <= &1e-6);
        assert!(bounds.last().unwrap() >= &1e9);
    }

    #[test]
    fn mean_tracks_sum() {
        let mut h = Histogram::new(&[10.0]);
        h.record(2.0);
        h.record(4.0);
        assert_eq!(h.mean(), Some(3.0));
    }

    #[test]
    fn quantiles_are_exact_nearest_rank() {
        let mut h = Histogram::new(&Histogram::default_bounds());
        // 1..=100 in shuffled-ish order; nearest-rank quantiles are exact.
        for i in 0..100u32 {
            h.record(((i * 37) % 100 + 1) as f64);
        }
        assert_eq!(h.quantile(0.5), Some(50.0));
        assert_eq!(h.quantile(0.95), Some(95.0));
        assert_eq!(h.quantile(0.99), Some(99.0));
        assert_eq!(h.quantile(1.0), Some(100.0));
        let q = h.quantiles().unwrap();
        assert_eq!((q.p50, q.p95, q.p99), (50.0, 95.0, 99.0));
    }

    #[test]
    fn quantiles_of_small_samples_clamp_ranks() {
        let mut h = Histogram::new(&[10.0]);
        h.record(7.0);
        assert_eq!(h.quantile(0.5), Some(7.0));
        assert_eq!(h.quantile(0.99), Some(7.0));
    }

    #[test]
    fn quantiles_need_observations_and_valid_q() {
        let mut h = Histogram::new(&[10.0]);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.quantiles(), None);
        h.record(1.0);
        assert_eq!(h.quantile(0.0), None);
        assert_eq!(h.quantile(1.5), None);
    }

    #[test]
    fn quantiles_cover_the_newest_window_and_counts_stay_cumulative() {
        const N: u64 = 200_000;
        let value = |i: u64| ((i * 7_919) % N) as f64;
        let mut h = Histogram::new(&Histogram::default_bounds());
        for i in 0..N {
            h.record(value(i));
        }
        assert_eq!(h.count, N);
        assert_eq!(h.counts.iter().sum::<u64>(), N);
        assert_eq!(h.values.len(), QUANTILE_WINDOW);
        assert_eq!((h.min, h.max), (Some(0.0), Some((N - 1) as f64)));

        let mut last = Histogram::new(&Histogram::default_bounds());
        for i in N - QUANTILE_WINDOW as u64..N {
            last.record(value(i));
        }
        assert_eq!(h.quantiles(), last.quantiles());
        assert_eq!(h.quantile(0.25), last.quantile(0.25));
        assert_eq!(h.sorted(), last.sorted());
        // The ring's oldest retained value sits at `count % window`.
        assert_eq!(
            h.values[(N % QUANTILE_WINDOW as u64) as usize],
            value(N - QUANTILE_WINDOW as u64)
        );
    }

    #[test]
    fn snapshot_mirrors_the_histogram_with_one_sort() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        for v in [0.5, 2.0, 42.0] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.bounds, h.bounds);
        assert_eq!(snap.counts, h.counts);
        assert_eq!(snap.count, 3);
        assert_eq!(snap.sum, 44.5);
        assert_eq!(snap.min, Some(0.5));
        assert_eq!(snap.max, Some(42.0));
        let q = snap.quantiles.unwrap();
        assert_eq!((q.p50, q.p95, q.p99), (2.0, 42.0, 42.0));
        assert_eq!(q, h.quantiles().unwrap());
    }

    #[test]
    fn empty_snapshot_has_no_quantiles() {
        let snap = Histogram::new(&[1.0]).snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.quantiles, None);
        assert_eq!(snap.cumulative_buckets(), vec![(1.0, 0), (f64::INFINITY, 0)]);
    }

    #[test]
    fn cumulative_buckets_end_at_inf_with_the_total() {
        let mut h = Histogram::new(&[1.0, 2.0, 5.0]);
        for v in [0.5, 1.0, 1.5, 2.0, 5.0, 9.0] {
            h.record(v);
        }
        let cum = h.snapshot().cumulative_buckets();
        assert_eq!(cum, vec![(1.0, 2), (2.0, 4), (5.0, 5), (f64::INFINITY, 6)]);
    }

    #[test]
    fn pre_quantile_reports_deserialize_with_empty_values() {
        // A histogram serialized before the `values` field existed.
        let legacy = r#"{"bounds":[1.0],"counts":[1,0],"count":1,"sum":0.5,"min":0.5,"max":0.5}"#;
        let h: Histogram = serde_json::from_str(legacy).unwrap();
        assert_eq!(h.count, 1);
        assert!(h.values.is_empty());
        assert_eq!(h.quantiles(), None);
    }

    #[test]
    fn traced_observations_leave_bucket_exemplars() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        h.record(0.5); // untraced: no exemplar storage allocated
        assert!(h.exemplars.is_empty());

        let ctx = noodle_trace::TraceContext::mint();
        {
            let _guard = noodle_trace::set_current(ctx);
            h.record(2.0); // bucket 1
            h.record(5.0); // bucket 1 again: exemplar replaced
        }
        h.record(42.0); // untraced: overflow bucket keeps no exemplar
        assert_eq!(h.exemplars.len(), h.counts.len());
        assert_eq!(h.exemplars[0], None);
        assert_eq!(h.exemplars[1], Some(Exemplar { value: 5.0, trace_id: ctx.trace_id }));
        assert_eq!(h.exemplars[2], None);

        // Snapshot carries them through to scrape rendering.
        let snap = h.snapshot();
        assert_eq!(snap.exemplars, h.exemplars);

        // Legacy-deserialized histograms (no exemplar vector) still record.
        let legacy = r#"{"bounds":[1.0],"counts":[0,0],"count":0,"sum":0.0,"min":null,"max":null}"#;
        let mut old: Histogram = serde_json::from_str(legacy).unwrap();
        let _guard = noodle_trace::set_current(ctx);
        old.record(0.5);
        assert_eq!(old.exemplars[0], Some(Exemplar { value: 0.5, trace_id: ctx.trace_id }));
    }
}
