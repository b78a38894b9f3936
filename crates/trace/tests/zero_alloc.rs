//! The event path's overhead contract: once a thread's ring exists,
//! recording allocates nothing — not flight events, not kernel events,
//! not a `span!` open and close with telemetry on — and every disabled
//! hook is free too. This is what lets the rings stay always on.
//!
//! Uses the crate's own [`CountingAllocator`] as the global allocator,
//! which doubles as an integration test of the allocator itself. The
//! counters are process-global and the libtest harness's threads would
//! allocate inside the measured windows, so this target runs without the
//! harness (`harness = false`) and `main` runs the checks in turn.

use noodle_telemetry as telemetry;
use noodle_trace::{
    flight_record, mem_stats, ring_capacity, set_enabled, set_mem_enabled, CountingAllocator,
    Event, EventKind, FlightKind, KernelTimer, TraceContext,
};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator::new();

fn main() {
    counting_allocator_tracks_real_allocations();
    // Warm up: allocate this thread's ring, pin the epoch, seed the id
    // generator, install the default sink.
    telemetry::set_sink(Box::new(telemetry::NullSink));
    let warm = TraceContext::mint();
    flight_record(FlightKind::Request, warm.trace_id, warm.span_id, 0, 0, "warmup");

    disabled_hooks_allocate_nothing();
    warm_flight_events_allocate_nothing();
    warm_kernel_events_allocate_nothing();
    warm_spans_allocate_nothing();
    exited_threads_hand_their_rings_on();
}

/// Allocations made while `f` runs.
fn allocations(f: impl FnOnce()) -> u64 {
    set_mem_enabled(true);
    let before = mem_stats().allocations;
    f();
    let after = mem_stats().allocations;
    set_mem_enabled(false);
    after - before
}

fn counting_allocator_tracks_real_allocations() {
    set_mem_enabled(true);
    let before = mem_stats();
    let v: Vec<u8> = Vec::with_capacity(1 << 16);
    let after = mem_stats();
    drop(v);
    set_mem_enabled(false);
    assert!(after.allocations > before.allocations, "a real Vec allocation must be counted");
    assert!(after.allocated_bytes - before.allocated_bytes >= 1 << 16);
    assert!(after.peak_bytes >= 1 << 16);
}

fn disabled_hooks_allocate_nothing() {
    set_enabled(false);
    telemetry::set_enabled(false);
    let n = allocations(|| {
        for i in 0..1_000u64 {
            let _t = KernelTimer::start(EventKind::DenseFwd, 2_048, 128);
            let _s = telemetry::span!("disabled.span", index = i);
        }
    });
    assert_eq!(n, 0, "disabled hooks must not touch the allocator");
}

fn warm_flight_events_allocate_nothing() {
    let n = allocations(|| {
        for i in 0..1_000u64 {
            let ctx = TraceContext::mint();
            let child = ctx.derived(i);
            let _guard = noodle_trace::set_current(child);
            flight_record(FlightKind::Request, child.trace_id, child.span_id, i, 0, "design");
        }
    });
    assert_eq!(n, 0, "warm flight events must not allocate");
}

fn warm_kernel_events_allocate_nothing() {
    set_enabled(true);
    let n = allocations(|| {
        for i in 0..1_000u64 {
            noodle_trace::push(&Event::new(EventKind::Gemm, "").at(i, 1).payload(1_000, 64));
            let _t = KernelTimer::start(EventKind::DenseFwd, 2_048, 128);
        }
    });
    set_enabled(false);
    assert_eq!(n, 0, "warm kernel events must not allocate");
}

fn warm_spans_allocate_nothing() {
    telemetry::set_enabled(true);
    let plain = allocations(|| {
        for _ in 0..1_000 {
            let _root = telemetry::span!("zero_alloc.root");
            let _child = telemetry::span!("zero_alloc.child");
        }
    });
    let with_attrs = allocations(|| {
        for i in 0..1_000u64 {
            let _s = telemetry::span!("zero_alloc.attrs", index = i, modality = "graph");
        }
    });
    telemetry::set_enabled(false);
    assert_eq!(plain, 0, "a span! open and close with telemetry on must not allocate");
    assert_eq!(with_attrs, 0, "span! attributes are formatted inline, without allocating");
    telemetry::set_enabled(true);
    assert_eq!(telemetry::snapshot().spans.last().map(|s| s.attrs.len()), Some(2));
    telemetry::set_enabled(false);
}

/// A thread's ring outlives the thread and is taken over by the next new
/// thread, so a thread per connection never means a ring per connection;
/// each thread's events stay credited to it.
fn exited_threads_hand_their_rings_on() {
    let spawn_and_record = |name: &str| {
        std::thread::Builder::new()
            .name(name.to_owned())
            .spawn(|| flight_record(FlightKind::Request, 0, 0, 0, 0, "handover"))
            .unwrap()
            .join()
            .unwrap();
    };
    spawn_and_record("first.thread");
    set_mem_enabled(true);
    let before = mem_stats().allocated_bytes;
    for _ in 0..10 {
        spawn_and_record("later.thread");
    }
    let bytes = mem_stats().allocated_bytes - before;
    set_mem_enabled(false);
    let ring_bytes = (ring_capacity() * std::mem::size_of::<Event>()) as u64;
    assert!(bytes < ring_bytes, "ten short threads allocated {bytes} bytes: rings not reused");
    let threads: Vec<String> = noodle_trace::rings()
        .into_iter()
        .filter(|r| r.events.iter().any(|e| e.name() == "handover"))
        .map(|r| r.name)
        .collect();
    assert_eq!(threads.len(), 11, "{threads:?}");
    assert_eq!(threads.iter().filter(|t| *t == "first.thread").count(), 1, "{threads:?}");
}
