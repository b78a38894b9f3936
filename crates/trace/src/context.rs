//! Trace-context minting and the ambient (thread-local) context slot.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A request-scoped causal identity: `trace_id` names the whole request
/// (one `detect` call, or one design inside `detect_batch`), `span_id`
/// names its root span. `Copy` and two words wide, so it can ride inside
/// pool jobs and fixed-size ring slots for free.
///
/// Ids are never zero — zero is the "no context" sentinel in compact
/// encodings (profiler events, flight slots).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// Identifies the request end to end; rendered as 16 lowercase hex
    /// digits in audit records, Chrome traces and `/debug/trace/<id>`.
    pub trace_id: u64,
    /// Identifies the request's root span within the trace.
    pub span_id: u64,
}

/// SplitMix64 finalizer: a cheap, high-quality bijective mix. Used to
/// turn a sequential counter into well-spread ids without any RNG state.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

static NEXT: AtomicU64 = AtomicU64::new(1);
static SEED: OnceLock<u64> = OnceLock::new();

fn seed() -> u64 {
    *SEED.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5eed);
        splitmix64(nanos ^ (u64::from(std::process::id()) << 32))
    })
}

impl TraceContext {
    /// Mints a fresh process-unique context: one relaxed `fetch_add` plus
    /// a SplitMix64 finalize — allocation-free and safe on any thread.
    pub fn mint() -> Self {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let trace_id = splitmix64(seed() ^ n) | 1;
        TraceContext { trace_id, span_id: splitmix64(trace_id) | 1 }
    }

    /// Deterministically derives the context for sub-request `index`
    /// (e.g. design *i* of a `detect_batch` call): a pure function of
    /// `(self, index)`, so every pipeline stage that knows the batch base
    /// and the design's position computes the *same* id — regardless of
    /// which pool thread runs the stage or how many threads exist.
    pub fn derived(self, index: u64) -> Self {
        let trace_id = splitmix64(self.trace_id ^ splitmix64(index.wrapping_add(1))) | 1;
        TraceContext { trace_id, span_id: splitmix64(trace_id) | 1 }
    }
}

thread_local! {
    static CURRENT: Cell<Option<TraceContext>> = const { Cell::new(None) };
}

/// The context active on this thread, if any. One thread-local read.
#[inline]
pub fn current() -> Option<TraceContext> {
    CURRENT.with(Cell::get)
}

/// Replaces the ambient context, returning the previous one. The
/// compute-pool worker loop uses this pair directly (install the job's
/// context, run, restore); everyone else should prefer the RAII
/// [`set_current`].
#[inline]
pub fn swap_current(ctx: Option<TraceContext>) -> Option<TraceContext> {
    CURRENT.with(|c| c.replace(ctx))
}

/// Installs `ctx` as the ambient context until the returned guard drops,
/// then restores whatever was active before (contexts nest).
#[must_use = "dropping the guard immediately restores the previous context"]
pub fn set_current(ctx: TraceContext) -> ContextGuard {
    ContextGuard { prev: swap_current(Some(ctx)), _not_send: PhantomData }
}

/// RAII restorer for [`set_current`]. Not `Send`: the guard must drop on
/// the thread whose slot it patched.
pub struct ContextGuard {
    prev: Option<TraceContext>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        swap_current(self.prev.take());
    }
}

/// Renders a trace (or span) id as 16 lowercase hex digits — the form
/// audit records, Chrome traces and `/debug/trace/<id>` all use, so a
/// single grep joins them. The "no context" id 0 renders empty.
pub fn format_trace_id(id: u64) -> String {
    if id == 0 {
        String::new()
    } else {
        format!("{id:016x}")
    }
}

/// Parses the 16-hex-digit form back to an id. Lenient about length
/// (1–16 digits) so hand-typed ids work; returns `None` for empty,
/// overlong or non-hex input.
pub fn parse_trace_id(s: &str) -> Option<u64> {
    if s.is_empty() || s.len() > 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minted_ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let ctx = TraceContext::mint();
            assert_ne!(ctx.trace_id, 0);
            assert_ne!(ctx.span_id, 0);
            assert!(seen.insert(ctx.trace_id), "duplicate trace id");
        }
    }

    #[test]
    fn derived_is_deterministic_and_index_sensitive() {
        let base = TraceContext::mint();
        assert_eq!(base.derived(3), base.derived(3));
        assert_ne!(base.derived(3).trace_id, base.derived(4).trace_id);
        assert_ne!(base.derived(0).trace_id, base.trace_id);
    }

    #[test]
    fn ambient_slot_nests_and_restores() {
        assert_eq!(current(), None);
        let a = TraceContext::mint();
        let b = TraceContext::mint();
        {
            let _ga = set_current(a);
            assert_eq!(current(), Some(a));
            {
                let _gb = set_current(b);
                assert_eq!(current(), Some(b));
            }
            assert_eq!(current(), Some(a));
        }
        assert_eq!(current(), None);
    }

    #[test]
    fn hex_form_round_trips() {
        let ctx = TraceContext::mint();
        let s = format_trace_id(ctx.trace_id);
        assert_eq!(s.len(), 16);
        assert_eq!(parse_trace_id(&s), Some(ctx.trace_id));
        assert_eq!(parse_trace_id(""), None);
        assert_eq!(parse_trace_id("zzzz"), None);
        assert_eq!(parse_trace_id("ff"), Some(0xff));
        assert_eq!(format_trace_id(0), "", "0 is no context");
    }
}
