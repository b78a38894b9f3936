//! Profile summarisation: per-thread utilization, top spans by
//! self-time, and per-kernel roofline attribution.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::alloc::MemStats;
use crate::profile::Profile;
use crate::ring::{Event, EventKind};

/// How many spans `top_spans` keeps.
const TOP_SPANS: usize = 10;

/// Per-thread rollup of a profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreadSummary {
    /// Profiler-assigned thread index.
    pub tid: u32,
    /// Thread name.
    pub name: String,
    /// Events recorded by this thread.
    pub events: u64,
    /// Nanoseconds this thread spent executing pool jobs or kernels
    /// (union of intervals, so overlapping kernel-within-job events are
    /// not double counted).
    pub busy_ns: u64,
    /// `busy_ns / wall_ns` — fraction of the run this thread was working.
    pub utilization: f64,
    /// Nanoseconds spent between job submission and this thread claiming
    /// its first chunk.
    pub queue_wait_ns: u64,
    /// `queue_wait_ns / (busy_ns + queue_wait_ns)`.
    pub queue_wait_frac: f64,
    /// Events dropped because this thread's ring filled.
    pub dropped: u64,
}

/// One span aggregated across all its occurrences.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SpanSelfTime {
    /// Span name.
    pub name: String,
    /// Number of occurrences.
    pub count: u64,
    /// Total duration minus time covered by nested spans, summed over
    /// occurrences.
    pub self_ns: u64,
    /// Total duration summed over occurrences.
    pub total_ns: u64,
}

/// One kernel kind aggregated across all calls.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct KernelSummary {
    /// Kernel label (e.g. `gemm`, `im2col`, `conv_fwd`).
    pub name: String,
    /// Number of recorded calls.
    pub calls: u64,
    /// Total nanoseconds across calls.
    pub total_ns: u64,
    /// Total floating-point operations attributed.
    pub flops: u64,
    /// Achieved GFLOP/s: `flops / total_ns` (FLOPs per nanosecond is
    /// numerically GFLOP/s).
    pub gflops: f64,
    /// Total bytes touched, when recorded.
    pub bytes: u64,
    /// `gflops / peak_gflops` — the roofline ratio against the measured
    /// single-core GEMM peak. Zero when no peak was measured.
    pub peak_frac: f64,
}

/// The summary embedded in a `RunReport` and rendered by
/// `noodle profile`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileSummary {
    /// Summary format version.
    pub schema_version: u32,
    /// Observed wall clock of the profiled run, nanoseconds.
    pub wall_ns: u64,
    /// Measured single-core GEMM peak in GFLOP/s (roofline ceiling).
    pub peak_gflops: f64,
    /// Total events across all threads.
    pub total_events: u64,
    /// Total events dropped to full rings.
    pub dropped_events: u64,
    /// Per-thread rollups, ordered by tid.
    pub threads: Vec<ThreadSummary>,
    /// Top spans by self-time, descending.
    pub top_spans: Vec<SpanSelfTime>,
    /// Per-kernel roofline attribution, by total time descending.
    pub kernels: Vec<KernelSummary>,
    /// Allocator counters when `--profile-mem` was on.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub mem: Option<MemStats>,
}

/// Current [`ProfileSummary::schema_version`].
pub const SUMMARY_SCHEMA_VERSION: u32 = 1;

/// Union length of a set of intervals (busy time without double counting
/// kernels nested inside pool jobs).
fn interval_coverage(mut spans: Vec<(u64, u64)>) -> u64 {
    spans.sort_unstable();
    // `reach`: the furthest end seen so far; only time past it is new.
    let (mut covered, mut reach) = (0, 0);
    for (start, end) in spans {
        covered += end.saturating_sub(start.max(reach));
        reach = reach.max(end);
    }
    covered
}

/// Computes span self-time for one thread's events: each span's duration
/// minus the durations of spans directly nested inside it.
fn span_self_times(events: &[Event], acc: &mut BTreeMap<String, SpanSelfTime>) {
    let mut spans: Vec<&Event> = events.iter().filter(|e| e.kind == EventKind::SpanClose).collect();
    // Parents sort before children: earlier start first, longer first on ties.
    spans.sort_by(|a, b| a.t_ns.cmp(&b.t_ns).then(b.dur_ns.cmp(&a.dur_ns)));
    // stack of (end_ns, index into `spans`) for open ancestors
    let mut self_ns: Vec<u64> = spans.iter().map(|s| s.dur_ns).collect();
    let mut stack: Vec<(u64, usize)> = Vec::new();
    for (i, span) in spans.iter().enumerate() {
        let end = span.end_ns();
        while stack.last().is_some_and(|&(parent_end, _)| span.t_ns >= parent_end) {
            stack.pop();
        }
        if let Some(&(parent_end, parent_idx)) = stack.last() {
            if end <= parent_end {
                self_ns[parent_idx] = self_ns[parent_idx].saturating_sub(span.dur_ns);
            }
        }
        stack.push((end, i));
    }
    for (span, self_t) in spans.iter().zip(self_ns) {
        let entry = acc
            .entry(span.name().to_owned())
            .or_insert_with(|| SpanSelfTime { name: span.name().to_owned(), ..Default::default() });
        entry.count += 1;
        entry.self_ns += self_t;
        entry.total_ns += span.dur_ns;
    }
}

/// Folds a drained [`Profile`] into a [`ProfileSummary`].
///
/// `peak_gflops` is the measured single-core GEMM ceiling used for the
/// roofline ratio (pass 0.0 to skip the ratio); `mem` carries allocator
/// counters when memory accounting was enabled.
pub fn summarize(profile: &Profile, peak_gflops: f64, mem: Option<MemStats>) -> ProfileSummary {
    let wall_ns = profile.wall_ns();
    let mut span_acc: BTreeMap<String, SpanSelfTime> = BTreeMap::new();
    let mut kernel_acc: BTreeMap<String, KernelSummary> = BTreeMap::new();
    let mut threads = Vec::with_capacity(profile.threads.len());

    for thread in &profile.threads {
        let busy: Vec<(u64, u64)> = thread
            .events
            .iter()
            .filter(|e| e.kind == EventKind::PoolJob || e.kind.is_kernel())
            .map(|e| (e.t_ns, e.end_ns()))
            .collect();
        let busy_ns = interval_coverage(busy);
        let queue_wait_ns: u64 =
            thread.events.iter().filter(|e| e.kind == EventKind::QueueWait).map(|e| e.dur_ns).sum();
        threads.push(ThreadSummary {
            tid: thread.tid,
            name: thread.name.clone(),
            events: thread.events.len() as u64,
            busy_ns,
            utilization: if wall_ns > 0 { busy_ns as f64 / wall_ns as f64 } else { 0.0 },
            queue_wait_ns,
            queue_wait_frac: if busy_ns + queue_wait_ns > 0 {
                queue_wait_ns as f64 / (busy_ns + queue_wait_ns) as f64
            } else {
                0.0
            },
            dropped: thread.dropped,
        });

        span_self_times(&thread.events, &mut span_acc);

        for e in thread.events.iter().filter(|e| e.kind.is_kernel()) {
            let entry = kernel_acc.entry(e.name().to_owned()).or_insert_with(|| KernelSummary {
                name: e.name().to_owned(),
                ..Default::default()
            });
            entry.calls += 1;
            entry.total_ns += e.dur_ns;
            entry.flops += e.a;
            entry.bytes += e.b;
        }
    }

    let mut top_spans: Vec<SpanSelfTime> = span_acc.into_values().collect();
    top_spans.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
    top_spans.truncate(TOP_SPANS);

    let mut kernels: Vec<KernelSummary> = kernel_acc.into_values().collect();
    for k in &mut kernels {
        if k.total_ns > 0 {
            k.gflops = k.flops as f64 / k.total_ns as f64;
        }
        if peak_gflops > 0.0 {
            k.peak_frac = k.gflops / peak_gflops;
        }
    }
    kernels.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));

    ProfileSummary {
        schema_version: SUMMARY_SCHEMA_VERSION,
        wall_ns,
        peak_gflops,
        total_events: threads.iter().map(|t| t.events).sum(),
        dropped_events: threads.iter().map(|t| t.dropped).sum(),
        threads,
        top_spans,
        kernels,
        mem,
    }
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// Renders a [`ProfileSummary`] as the human-readable table printed by
/// `noodle profile` and after `--profile` runs.
pub fn render_summary(summary: &ProfileSummary) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "profile: wall {} ms, {} events ({} dropped), peak {:.2} GFLOP/s single-core gemm\n",
        fmt_ms(summary.wall_ns),
        summary.total_events,
        summary.dropped_events,
        summary.peak_gflops
    ));
    if let Some(mem) = &summary.mem {
        out.push_str(&format!(
            "memory: {} allocations, {:.1} MiB allocated, {:.1} MiB peak, {:.1} MiB live\n",
            mem.allocations,
            mem.allocated_bytes as f64 / (1 << 20) as f64,
            mem.peak_bytes as f64 / (1 << 20) as f64,
            mem.live_bytes as f64 / (1 << 20) as f64,
        ));
    }

    out.push_str("\nthreads:\n");
    out.push_str(&format!(
        "  {:<22} {:>10} {:>8} {:>10} {:>8} {:>7}\n",
        "name", "busy_ms", "util", "wait_ms", "wait%", "events"
    ));
    for t in &summary.threads {
        out.push_str(&format!(
            "  {:<22} {:>10} {:>7.1}% {:>10} {:>7.1}% {:>7}\n",
            t.name,
            fmt_ms(t.busy_ns),
            t.utilization * 100.0,
            fmt_ms(t.queue_wait_ns),
            t.queue_wait_frac * 100.0,
            t.events
        ));
    }

    if !summary.top_spans.is_empty() {
        out.push_str("\ntop spans by self-time:\n");
        out.push_str(&format!(
            "  {:<32} {:>6} {:>10} {:>10}\n",
            "span", "count", "self_ms", "total_ms"
        ));
        for s in &summary.top_spans {
            out.push_str(&format!(
                "  {:<32} {:>6} {:>10} {:>10}\n",
                s.name,
                s.count,
                fmt_ms(s.self_ns),
                fmt_ms(s.total_ns)
            ));
        }
    }

    if !summary.kernels.is_empty() {
        out.push_str("\nkernels (roofline vs single-core gemm peak):\n");
        out.push_str(&format!(
            "  {:<12} {:>8} {:>10} {:>12} {:>10} {:>7}\n",
            "kernel", "calls", "total_ms", "gflop", "gflop/s", "peak%"
        ));
        for k in &summary.kernels {
            out.push_str(&format!(
                "  {:<12} {:>8} {:>10} {:>12.3} {:>10.2} {:>6.1}%\n",
                k.name,
                k.calls,
                fmt_ms(k.total_ns),
                k.flops as f64 / 1e9,
                k.gflops,
                k.peak_frac * 100.0
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::ThreadEvents;

    fn ev(kind: EventKind, name: &str, start: u64, dur: u64, flops: u64) -> Event {
        Event::new(kind, name).at(start, dur).payload(flops, 0)
    }

    #[test]
    fn interval_coverage_merges_overlaps() {
        assert_eq!(interval_coverage(vec![]), 0);
        assert_eq!(interval_coverage(vec![(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(interval_coverage(vec![(0, 100), (10, 20)]), 100);
    }

    #[test]
    fn self_time_subtracts_nested_spans() {
        let events = vec![
            ev(EventKind::SpanClose, "outer", 0, 100, 0),
            ev(EventKind::SpanClose, "inner", 10, 30, 0),
            ev(EventKind::SpanClose, "inner", 50, 20, 0),
        ];
        let mut acc = BTreeMap::new();
        span_self_times(&events, &mut acc);
        assert_eq!(acc["outer"].self_ns, 50);
        assert_eq!(acc["outer"].total_ns, 100);
        assert_eq!(acc["inner"].self_ns, 50);
        assert_eq!(acc["inner"].count, 2);
    }

    #[test]
    fn summarize_rolls_up_threads_and_kernels() {
        let profile = Profile {
            threads: vec![
                ThreadEvents {
                    tid: 0,
                    name: "main".into(),
                    dropped: 0,
                    events: vec![
                        ev(EventKind::SpanClose, "fit", 0, 1000, 0),
                        ev(EventKind::Gemm, "gemm", 100, 200, 400_000),
                    ],
                },
                ThreadEvents {
                    tid: 1,
                    name: "noodle-compute-0".into(),
                    dropped: 2,
                    events: vec![
                        ev(EventKind::QueueWait, "queue_wait", 90, 10, 0),
                        ev(EventKind::PoolJob, "pool_job", 100, 300, 3),
                        ev(EventKind::Gemm, "gemm", 100, 100, 200_000),
                    ],
                },
            ],
        };
        let s = summarize(&profile, 10.0, None);
        assert_eq!(s.wall_ns, 1000);
        assert_eq!(s.total_events, 5);
        assert_eq!(s.dropped_events, 2);
        // worker busy = union of pool job + nested gemm = 300 ns
        assert_eq!(s.threads[1].busy_ns, 300);
        assert_eq!(s.threads[1].queue_wait_ns, 10);
        let gemm = s.kernels.iter().find(|k| k.name == "gemm").unwrap();
        assert_eq!(gemm.calls, 2);
        assert_eq!(gemm.flops, 600_000);
        // 600k flops / 300 ns = 2000 flops/ns = 2000 GFLOP/s
        assert!((gemm.gflops - 2000.0).abs() < 1e-9);
        assert!((gemm.peak_frac - 200.0).abs() < 1e-9);
        assert_eq!(s.top_spans[0].name, "fit");
        // render shouldn't panic and should mention the kernel table
        let text = render_summary(&s);
        assert!(text.contains("gemm"));
        assert!(text.contains("threads:"));
    }

    #[test]
    fn summary_serde_round_trips() {
        let s = summarize(&Profile::default(), 0.0, Some(MemStats::default()));
        let json = serde_json::to_string(&s).unwrap();
        let back: ProfileSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
