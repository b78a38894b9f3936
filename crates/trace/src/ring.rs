//! The one event store: a fixed-size `Copy` [`Event`] and one lazily
//! allocated, lock-free ring per recording thread.
//!
//! Only the owning thread writes its ring. Write `n` goes to slot
//! `n % capacity` under a per-slot seqlock (`2n+1` while writing, `2n+2`
//! when done), then the ring's head is bumped. A reader walks the newest
//! `capacity` sequence numbers and keeps a slot's copy only if its
//! sequence read `2n+2` before and after the copy; a slot being
//! overwritten is never surfaced, and the older events read before it
//! are dropped too, so every read is one unbroken run. The ring keeps
//! the newest events; the ones it overwrote count as `dropped`.
//!
//! Rings are allocated zeroed on a thread's first event, so the pages of
//! a large profile ring are committed only as they are written. When a
//! thread exits its ring goes to a free list and the next new thread
//! that needs a ring of that size takes it over, so a daemon holds as
//! many rings as it ever had recording threads at once. The ring notes
//! the sequence number at each handover, so every retained event stays
//! credited to the thread that wrote it.

use std::alloc::{alloc_zeroed, handle_alloc_error, Layout};
use std::cell::{Cell, OnceCell, UnsafeCell};
use std::fmt::{self, Write as _};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use serde::{Deserialize, Serialize};

/// Bytes of a name kept inline in an [`Event`]; longer names are cut at
/// the last character boundary that fits. Names are never interned:
/// request events carry client-supplied design names, and a table of them
/// would grow with every request.
pub const NAME_CAP: usize = 40;

/// Events a thread's ring keeps when profiling is off: the always-on
/// flight-recorder depth, and the most events the flight view returns.
pub(crate) const FLIGHT_CAPACITY: usize = 4096;

/// Events a thread's ring keeps when it is created while profiling is on.
const PROFILE_CAPACITY: usize = 1 << 18;

/// Declares [`EventKind`] with each variant's stable label.
macro_rules! event_kinds {
    ($($(#[doc = $doc:literal])+ $kind:ident => $label:literal,)+) => {
        /// What one [`Event`] records. The payload fields `a`, `b` and
        /// `dur_ns` mean different things per kind, as documented on each
        /// variant.
        #[derive(
            Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        #[serde(rename_all = "snake_case")]
        #[repr(u8)]
        pub enum EventKind {
            $($(#[doc = $doc])+ $kind,)+
        }

        impl EventKind {
            /// Stable display label; the Chrome-trace event name of pool
            /// and kernel events, and `span` for closed spans.
            pub fn label(self) -> &'static str {
                match self {
                    $(EventKind::$kind => $label,)+
                }
            }

            /// Inverse of [`EventKind::label`], for trace read-back.
            pub fn from_label(label: &str) -> Option<Self> {
                match label {
                    $($label => Some(EventKind::$kind),)+
                    _ => None,
                }
            }
        }
    };
}

event_kinds! {
    /// A telemetry span opened (`name` = span name, `depth` = nesting
    /// depth on its thread, 0 for a root). Discriminant 0, so a zeroed
    /// slot holds a valid event.
    SpanOpen => "span_open",
    /// One key/value attribute of the span opened just before it on the
    /// same thread at the same `depth` (`name` = key then value,
    /// `a` = key length in bytes).
    SpanAttr => "span_attr",
    /// A telemetry span closed (`t_ns` = its start, `dur_ns` and `a` = its
    /// duration, `depth` as at open).
    SpanClose => "span",
    /// The streaming monitors' overall health changed
    /// (`a` = from, `b` = to; 0 healthy, 1 warn, 2 alert).
    MonitorTransition => "monitor_transition",
    /// A detect request completed (`name` = design, `a` = request index
    /// within the call, `b` = 1 if flagged infected; `t_ns`/`dur_ns` =
    /// its micro-batch's start and per-design share when known).
    Request => "request",
    /// Time between a parallel region's submission and a worker claiming
    /// its first chunk of it.
    QueueWait => "queue_wait",
    /// One thread's execution share of one parallel region (`a` = chunks
    /// the thread ran).
    PoolJob => "pool_job",
    /// Cache-blocked `a @ b` GEMM (`a` = FLOPs, `b` = bytes, as for every
    /// kernel kind below).
    Gemm => "gemm",
    /// `a @ b^T` GEMM.
    GemmBt => "gemm_bt",
    /// `a^T @ b` GEMM.
    GemmAt => "gemm_at",
    /// Int8 `a @ b^T` GEMM with i32 accumulation (quantized serving).
    GemmI8 => "gemm_i8",
    /// im2col patch unrolling (1-D or 2-D).
    Im2col => "im2col",
    /// col2im gradient scatter (1-D or 2-D).
    Col2im => "col2im",
    /// Convolution layer forward (train or infer path, 1-D or 2-D).
    ConvFwd => "conv_fwd",
    /// Convolution layer backward.
    ConvBwd => "conv_bwd",
    /// Dense layer forward (train or infer path).
    DenseFwd => "dense_fwd",
    /// Dense layer backward.
    DenseBwd => "dense_bwd",
    /// One micro-batched inference pass through the serving engine.
    BatchInfer => "batch_infer",
}

impl EventKind {
    /// Chrome-trace category: groups the timeline legend and lets the
    /// offline reader recover the kind.
    pub fn category(self) -> &'static str {
        match self {
            EventKind::SpanClose | EventKind::Request => "span",
            EventKind::QueueWait | EventKind::PoolJob => "pool",
            k if k.is_kernel() => "kernel",
            _ => "event",
        }
    }

    /// Whether this kind carries FLOP/byte payloads a roofline summary
    /// should attribute.
    pub fn is_kernel(self) -> bool {
        self >= EventKind::Gemm
    }

    /// Whether the flight view ([`crate::flight_snapshot`]) shows this
    /// kind: span opens and closes, monitor transitions and requests.
    pub fn is_flight(self) -> bool {
        matches!(
            self,
            EventKind::SpanOpen
                | EventKind::SpanClose
                | EventKind::MonitorTransition
                | EventKind::Request
        )
    }
}

/// One recorded moment: fixed size, `Copy`, name inline. All-zero bytes
/// are a valid (empty `SpanOpen`) event, which is what lets rings be
/// allocated zeroed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    /// What the event records.
    pub kind: EventKind,
    /// Span nesting depth on the recording thread (span kinds only).
    pub depth: u16,
    name_len: u8,
    /// Owning request's trace id (0 = no ambient context).
    pub trace_id: u64,
    /// Owning request's root span id (0 = none).
    pub span_id: u64,
    /// Nanoseconds since the process [`crate::epoch`]: when the event
    /// happened, or when its interval started.
    pub t_ns: u64,
    /// Interval length in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// Kind-specific payload (see [`EventKind`]).
    pub a: u64,
    /// Kind-specific payload (see [`EventKind`]).
    pub b: u64,
    name: [u8; NAME_CAP],
}

/// Writes into a fixed byte buffer, cutting at the last character
/// boundary that fits; never fails and never allocates.
struct Inline<'a> {
    buf: &'a mut [u8; NAME_CAP],
    len: usize,
}

impl fmt::Write for Inline<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let room = NAME_CAP - self.len;
        let mut take = s.len().min(room);
        while !s.is_char_boundary(take) {
            take -= 1;
        }
        self.buf[self.len..self.len + take].copy_from_slice(&s.as_bytes()[..take]);
        self.len += take;
        Ok(())
    }
}

impl Event {
    /// An instant event of `kind` named `name` (truncated to
    /// [`NAME_CAP`] bytes), with no ids, time or payload yet.
    pub fn new(kind: EventKind, name: &str) -> Self {
        let mut event = Event {
            kind,
            depth: 0,
            name_len: 0,
            trace_id: 0,
            span_id: 0,
            t_ns: 0,
            dur_ns: 0,
            a: 0,
            b: 0,
            name: [0; NAME_CAP],
        };
        event.append(format_args!("{name}"));
        event
    }

    /// Formats `args` onto the end of the inline name, truncated.
    fn append(&mut self, args: fmt::Arguments<'_>) {
        let mut w = Inline { buf: &mut self.name, len: usize::from(self.name_len) };
        let _ = w.write_fmt(args);
        self.name_len = w.len as u8;
    }

    /// Sets the trace and root-span ids.
    pub fn ids(mut self, trace_id: u64, span_id: u64) -> Self {
        self.trace_id = trace_id;
        self.span_id = span_id;
        self
    }

    /// Sets the start time and interval length.
    pub fn at(mut self, t_ns: u64, dur_ns: u64) -> Self {
        self.t_ns = t_ns;
        self.dur_ns = dur_ns;
        self
    }

    /// Sets the two payload words.
    pub fn payload(mut self, a: u64, b: u64) -> Self {
        self.a = a;
        self.b = b;
        self
    }

    /// The inline name, or the kind's label when it was given none (pool
    /// and kernel events).
    pub fn name(&self) -> &str {
        match self.name_len {
            0 => self.kind.label(),
            // Always valid: `Inline` only ever cuts at character boundaries.
            len => std::str::from_utf8(&self.name[..usize::from(len)]).unwrap_or(""),
        }
    }

    /// A `SpanAttr` event's key and value.
    pub fn attr(&self) -> (&str, &str) {
        let name = self.name();
        let split = (self.a as usize).min(name.len());
        if name.is_char_boundary(split) {
            name.split_at(split)
        } else {
            (name, "")
        }
    }

    /// When the event was recorded: the end of an interval, else `t_ns`.
    pub fn end_ns(&self) -> u64 {
        self.t_ns.saturating_add(self.dur_ns)
    }
}

struct Slot {
    seq: AtomicU64,
    event: UnsafeCell<Event>,
}

/// A thread that wrote to a ring, from the sequence number of its first
/// event there.
#[derive(Clone)]
struct Writer {
    from: u64,
    tid: u32,
    name: String,
}

/// One ring. Only the thread that holds it writes `slots` and `head`.
struct Ring {
    /// Threads whose events the ring may still hold, oldest first.
    writers: Mutex<Vec<Writer>>,
    /// Events ever written.
    head: AtomicU64,
    slots: Box<[Slot]>,
}

// SAFETY: slot contents are guarded by the per-slot seqlock: the one
// writer marks a slot odd while writing it, and readers discard any copy
// whose sequence was odd or moved.
unsafe impl Sync for Ring {}

impl Ring {
    fn new(capacity: usize, writer: Writer) -> Self {
        let layout = Layout::array::<Slot>(capacity).expect("ring capacity overflows");
        // SAFETY: `capacity > 0`, so the layout is non-zero-sized; an
        // all-zero `Slot` is valid (sequence 0, `EventKind::SpanOpen` is
        // discriminant 0 and every other field is an integer or byte
        // array), and the pointer comes from the global allocator with
        // exactly this layout, as `Box<[Slot]>` will free it.
        let slots = unsafe {
            let ptr = alloc_zeroed(layout).cast::<Slot>();
            if ptr.is_null() {
                handle_alloc_error(layout);
            }
            Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, capacity))
        };
        Ring { writers: Mutex::new(vec![writer]), head: AtomicU64::new(0), slots }
    }

    fn writers(&self) -> MutexGuard<'_, Vec<Writer>> {
        self.writers.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Hands the ring to a new thread, forgetting the writers none of
    /// whose events are still retained.
    fn hand_over(&self, tid: u32, name: String) {
        let from = self.head.load(Ordering::Relaxed);
        let oldest = from.saturating_sub(self.slots.len() as u64);
        let mut writers = self.writers();
        let gone = writers.iter().skip(1).take_while(|w| w.from <= oldest).count();
        writers.drain(..gone);
        writers.push(Writer { from, tid, name });
    }

    fn push(&self, event: &Event) -> u64 {
        let n = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(n % self.slots.len() as u64) as usize];
        slot.seq.store(2 * n + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        // SAFETY: only the owning thread writes; the odd sequence above
        // tells readers to discard whatever they copy meanwhile.
        unsafe { std::ptr::write_volatile(slot.event.get(), *event) };
        slot.seq.store(2 * n + 2, Ordering::Release);
        self.head.store(n + 1, Ordering::Release);
        n
    }

    /// Copies the retained events with sequence number `>= from`, oldest
    /// first, with the sequence number of the first. The copy is one
    /// unbroken run: an event overwritten while it was being read is
    /// dropped together with every older one.
    fn read(&self, from: u64) -> (u64, Vec<Event>) {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap).max(from);
        let (mut first, mut out) = (start, Vec::with_capacity(head.saturating_sub(start) as usize));
        for n in start..head {
            let slot = &self.slots[(n % cap) as usize];
            let before = slot.seq.load(Ordering::Acquire);
            // SAFETY: a racing overwrite can tear this copy; the sequence
            // re-check below discards it if so.
            let event = unsafe { std::ptr::read_volatile(slot.event.get()) };
            fence(Ordering::Acquire);
            if before == 2 * n + 2 && slot.seq.load(Ordering::Relaxed) == before {
                out.push(event);
            } else {
                out.clear();
                first = n + 1;
            }
        }
        (first, out)
    }
}

/// Every ring ever allocated, the rings of exited threads waiting to be
/// taken over, and how many threads have recorded.
struct Registry {
    rings: Vec<Arc<Ring>>,
    free: Vec<Arc<Ring>>,
    threads: u32,
}

fn registry() -> MutexGuard<'static, Registry> {
    static REGISTRY: Mutex<Registry> =
        Mutex::new(Registry { rings: Vec::new(), free: Vec::new(), threads: 0 });
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// Events a ring created now keeps: `NOODLE_FLIGHT_CAPACITY` when set
/// (at least 16), else 2^18 while profiling is on and 4096 otherwise.
pub fn ring_capacity() -> usize {
    static OVERRIDE: OnceLock<Option<usize>> = OnceLock::new();
    let fixed = OVERRIDE.get_or_init(|| {
        std::env::var("NOODLE_FLIGHT_CAPACITY")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map(|c| c.max(16))
    });
    fixed.unwrap_or(if crate::enabled() { PROFILE_CAPACITY } else { FLIGHT_CAPACITY })
}

/// Takes over an exited thread's ring of the current capacity, or
/// allocates and registers one.
fn acquire() -> Arc<Ring> {
    let capacity = ring_capacity();
    let mut reg = registry();
    let tid = reg.threads;
    reg.threads += 1;
    let name = std::thread::current().name().map_or_else(|| format!("thread-{tid}"), str::to_owned);
    if let Some(i) = reg.free.iter().position(|r| r.slots.len() == capacity) {
        let ring = reg.free.swap_remove(i);
        ring.hand_over(tid, name);
        return ring;
    }
    let ring = Arc::new(Ring::new(capacity, Writer { from: 0, tid, name }));
    reg.rings.push(Arc::clone(&ring));
    ring
}

/// Hands the ring to the free list when its thread exits.
struct Held(Arc<Ring>);

impl Drop for Held {
    fn drop(&mut self) {
        registry().free.push(Arc::clone(&self.0));
    }
}

struct Local {
    ring: OnceCell<Held>,
    /// Spans open on this thread.
    depth: Cell<u16>,
}

thread_local! {
    static LOCAL: Local = const { Local { ring: OnceCell::new(), depth: Cell::new(0) } };
}

/// Appends `event` to the calling thread's ring (allocating the ring on
/// the thread's first event) and returns its sequence number within that
/// ring. Never blocks; after the first event of a thread it never
/// allocates. Returns `u64::MAX` if the thread is already tearing down
/// its thread-locals.
#[inline]
pub fn push(event: &Event) -> u64 {
    LOCAL.try_with(|l| l.ring.get_or_init(|| Held(acquire())).0.push(event)).unwrap_or(u64::MAX)
}

/// The calling thread's retained events with sequence number `>= seq`,
/// oldest first.
pub fn thread_events_since(seq: u64) -> Vec<Event> {
    LOCAL.try_with(|l| l.ring.get().map(|h| h.0.read(seq).1)).ok().flatten().unwrap_or_default()
}

/// One recording thread's retained events, as read from its ring.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadEvents {
    /// Thread index, in order of each thread's first event (0 = the
    /// first recording thread).
    pub tid: u32,
    /// Thread name.
    pub name: String,
    /// This thread's events its ring overwrote. The retained events
    /// follow them, so `dropped + i` numbers the `i`-th retained event
    /// among all the thread's events.
    pub dropped: u64,
    /// Retained events, oldest first.
    pub events: Vec<Event>,
}

/// Reads every ring, one [`ThreadEvents`] per thread whose events a ring
/// still holds. Safe to call while their threads write: each result is a
/// run of fully written events.
pub fn rings() -> Vec<ThreadEvents> {
    let rings = registry().rings.clone();
    let mut out = Vec::new();
    for ring in &rings {
        // Events first: every thread that wrote one of them is then
        // already listed among the writers.
        let (first, mut events) = ring.read(0);
        let mut end = u64::MAX;
        for writer in ring.writers().clone().into_iter().rev() {
            let own = writer.from.saturating_sub(first).min(events.len() as u64);
            let events = events.split_off(own as usize);
            let dropped = first.min(end).saturating_sub(writer.from);
            end = writer.from;
            if !events.is_empty() || dropped > 0 {
                out.push(ThreadEvents { tid: writer.tid, name: writer.name, dropped, events });
            }
        }
    }
    out
}

/// A span opened with [`open_span`]: what [`close_span`] needs to record
/// the close, carried by the caller instead of a per-thread stack.
#[derive(Clone, Copy, Debug)]
pub struct OpenSpan {
    /// Sequence number of the `SpanOpen` event in this thread's ring.
    pub seq: u64,
    /// Nesting depth (0 = root).
    pub depth: u16,
    event: Event,
}

/// Records a `SpanOpen` event for `name` under the ambient trace context
/// and returns the handle that closes it. One ring write; no allocation
/// after the thread's first event.
pub fn open_span(name: &str) -> OpenSpan {
    let depth = LOCAL.try_with(|l| l.depth.replace(l.depth.get().saturating_add(1))).unwrap_or(0);
    let (trace_id, span_id) = crate::current().map_or((0, 0), |c| (c.trace_id, c.span_id));
    let mut event =
        Event::new(EventKind::SpanOpen, name).ids(trace_id, span_id).at(crate::now_ns(), 0);
    event.depth = depth;
    OpenSpan { seq: push(&event), depth, event }
}

/// Records one key/value attribute of `span`; `value` is formatted into
/// the inline name after `key`, without allocating.
pub fn span_attr(span: &OpenSpan, key: &str, value: &dyn fmt::Display) {
    let mut event =
        Event::new(EventKind::SpanAttr, key).ids(span.event.trace_id, span.event.span_id);
    event.depth = span.depth;
    event.a = u64::from(event.name_len);
    event.append(format_args!("{value}"));
    push(&event);
}

/// Records the `SpanClose` event of `span` (start and duration) and
/// restores this thread's depth. One ring write.
pub fn close_span(span: &OpenSpan) {
    let dur_ns = crate::now_ns().saturating_sub(span.event.t_ns);
    push(
        &Event { kind: EventKind::SpanClose, ..span.event }
            .at(span.event.t_ns, dur_ns)
            .payload(dur_ns, 0),
    );
    let _ = LOCAL.try_with(|l| l.depth.set(span.depth));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_truncated_at_character_boundaries() {
        let long = "x".repeat(NAME_CAP + 50);
        assert_eq!(Event::new(EventKind::Request, &long).name().len(), NAME_CAP);
        // A 4-byte character straddling the cap is dropped whole.
        let straddle = format!("{}\u{1F980}", "y".repeat(NAME_CAP - 2));
        assert_eq!(Event::new(EventKind::Request, &straddle).name(), "y".repeat(NAME_CAP - 2));
    }

    fn writer(from: u64, tid: u32) -> Writer {
        Writer { from, tid, name: format!("t{tid}") }
    }

    #[test]
    fn a_wrapped_ring_keeps_the_newest_events_and_counts_the_rest() {
        let ring = Ring::new(4, writer(0, 0));
        for i in 0..7 {
            ring.push(&Event::new(EventKind::Gemm, "").payload(i, 0));
        }
        let (first, events) = ring.read(0);
        assert_eq!(first, 3);
        let kept: Vec<u64> = events.iter().map(|e| e.a).collect();
        assert_eq!(kept, vec![3, 4, 5, 6]);
        assert_eq!(ring.read(5).1.len(), 2);
    }

    #[test]
    fn a_read_keeps_one_unbroken_run_after_a_slot_being_written() {
        let ring = Ring::new(4, writer(0, 0));
        for i in 0..3 {
            ring.push(&Event::new(EventKind::Gemm, "").payload(i, 0));
        }
        // Slot 1 as its writer leaves it mid-write: odd sequence.
        ring.slots[1].seq.store(3, Ordering::Relaxed);
        let (first, events) = ring.read(0);
        assert_eq!(first, 2);
        assert_eq!(events.iter().map(|e| e.a).collect::<Vec<_>>(), [2]);
    }

    #[test]
    fn a_handover_forgets_only_writers_whose_events_are_all_overwritten() {
        let ring = Ring::new(4, writer(0, 0));
        ring.push(&Event::new(EventKind::Gemm, ""));
        ring.hand_over(1, "t1".into());
        for _ in 0..3 {
            ring.push(&Event::new(EventKind::Gemm, ""));
        }
        ring.hand_over(2, "t2".into());
        let tids = |ring: &Ring| ring.writers().iter().map(|w| (w.from, w.tid)).collect::<Vec<_>>();
        assert_eq!(tids(&ring), [(0, 0), (1, 1), (4, 2)]);
        ring.push(&Event::new(EventKind::Gemm, ""));
        ring.hand_over(3, "t3".into());
        assert_eq!(tids(&ring), [(1, 1), (4, 2), (5, 3)]);
    }

    #[test]
    fn spans_record_depth_attributes_and_duration() {
        let outer = open_span("outer");
        span_attr(&outer, "files", &12);
        let inner = open_span("inner");
        assert_eq!(inner.depth, outer.depth + 1);
        close_span(&inner);
        close_span(&outer);
        let events = thread_events_since(outer.seq);
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                EventKind::SpanOpen,
                EventKind::SpanAttr,
                EventKind::SpanOpen,
                EventKind::SpanClose,
                EventKind::SpanClose
            ]
        );
        assert_eq!(events[1].attr(), ("files", "12"));
        assert_eq!(events[4].name(), "outer");
        assert_eq!(events[4].t_ns, events[0].t_ns);
        assert_eq!(events[4].a, events[4].dur_ns, "the duration is also in `a`, as it always was");
        assert!(events[4].end_ns() >= events[3].end_ns());
        // The next span opens at the depth `outer` had.
        let again = open_span("again");
        assert_eq!(again.depth, outer.depth);
        close_span(&again);
    }

    #[test]
    fn an_exited_threads_events_stay_credited_to_it() {
        let spawn = |name: &str| {
            std::thread::Builder::new()
                .name(name.into())
                .spawn({
                    let name = name.to_owned();
                    move || push(&Event::new(EventKind::Request, &name))
                })
                .unwrap()
                .join()
                .unwrap()
        };
        spawn("ring.test.first");
        spawn("ring.test.second");
        for name in ["ring.test.first", "ring.test.second"] {
            let owner: Vec<String> = rings()
                .into_iter()
                .filter(|r| r.events.iter().any(|e| e.name() == name))
                .map(|r| r.name)
                .collect();
            assert_eq!(owner, [name]);
        }
    }

    #[test]
    fn labels_round_trip() {
        for kind in
            [EventKind::SpanOpen, EventKind::SpanClose, EventKind::PoolJob, EventKind::BatchInfer]
        {
            assert_eq!(EventKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(EventKind::from_label("nope"), None);
        assert!(EventKind::Gemm.is_kernel() && !EventKind::PoolJob.is_kernel());
    }
}
