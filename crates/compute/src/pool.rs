//! A lazily-initialized thread pool with a chunk-claiming work queue.
//!
//! # Design
//!
//! Parallel regions are expressed as *chunked index loops*: the caller
//! supplies a total length and a grain size, the range `0..len` is split
//! into `ceil(len / grain)` contiguous chunks, and idle threads claim
//! chunks off a shared atomic counter (a degenerate work-stealing deque:
//! every chunk lives in one global queue and workers steal the next
//! unclaimed index). Chunk *boundaries* depend only on `len` and `grain`,
//! never on the number of threads, so any reduction that combines
//! per-chunk results in index order is bit-identical at every thread
//! count — including the inline serial path.
//!
//! The pool is created lazily on the first parallel call and its worker
//! threads are reused for the life of the process. The submitting thread
//! always participates in the loop it submitted, so completion never
//! depends on a worker being free, and a parallel region entered from
//! inside another parallel region runs inline (no nested fan-out, no
//! deadlock, no oversubscription).
//!
//! # Thread count
//!
//! The effective thread count is checked on every parallel region, in
//! priority order:
//!
//! 1. [`set_thread_override`] — a programmatic override for tests and
//!    benchmarks;
//! 2. the `NOODLE_THREADS` environment variable;
//! 3. under `cfg(test)` (this crate's own unit tests): serial;
//! 4. [`std::thread::available_parallelism`], queried once per process
//!    and cached: the query walks CPU affinity and cgroup quotas through
//!    several syscalls (~20 µs), which would otherwise dominate the cost
//!    of a small region.
//!
//! `NOODLE_THREADS=1` (or an override of 1) forces the inline serial
//! path: no worker threads are touched and closures run on the calling
//! thread in chunk order.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use noodle_trace::{Event, EventKind};

/// Thread-count override installed by [`set_thread_override`]
/// (0 = no override).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Total floating-point operations reported by kernels via [`add_flops`].
static FLOPS: AtomicU64 = AtomicU64::new(0);

/// Total parallel regions executed (inline or fanned out), for telemetry.
static JOBS: AtomicU64 = AtomicU64::new(0);

/// Total nanoseconds threads spent executing chunk bodies (outermost
/// regions only — nested inline regions are already inside a timed body).
static BUSY_NS: AtomicU64 = AtomicU64::new(0);

/// Total nanoseconds between a region's submission and each participating
/// worker claiming its first chunk of it.
static QUEUE_WAIT_NS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Nesting depth of parallel regions on this thread. Non-zero means we
    /// are already inside a chunk body, so inner regions run inline.
    static REGION_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Overrides the effective thread count for subsequent parallel calls.
///
/// Intended for tests and benchmarks that compare thread counts within one
/// process (the `NOODLE_THREADS` environment variable is only read once
/// per call, so this simply takes priority over it). `None` removes the
/// override.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::SeqCst);
}

/// The effective thread count the next parallel region will use.
pub fn num_threads() -> usize {
    let over = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if over > 0 {
        return over;
    }
    if let Ok(v) = std::env::var("NOODLE_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    if cfg!(test) {
        return 1;
    }
    detected_parallelism()
}

/// [`std::thread::available_parallelism`], resolved on first use and then
/// reused for the life of the process.
fn detected_parallelism() -> usize {
    static DETECTED: OnceLock<usize> = OnceLock::new();
    *DETECTED.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Records `n` floating-point operations executed by a kernel.
///
/// One relaxed atomic add per kernel invocation; used by the telemetry
/// layer to estimate per-stage GFLOP throughput.
#[inline]
pub fn add_flops(n: u64) {
    FLOPS.fetch_add(n, Ordering::Relaxed);
}

/// Total floating-point operations recorded since process start.
pub fn flops() -> u64 {
    FLOPS.load(Ordering::Relaxed)
}

/// Total parallel regions executed since process start.
pub fn jobs() -> u64 {
    JOBS.load(Ordering::Relaxed)
}

/// Total nanoseconds threads have spent executing parallel-region chunk
/// bodies since process start (summed across threads, so this can exceed
/// wall clock). Feeds the `compute.pool_utilization` gauge.
pub fn busy_ns() -> u64 {
    BUSY_NS.load(Ordering::Relaxed)
}

/// Total nanoseconds workers have spent between region submission and
/// claiming their first chunk. Feeds the `compute.queue_wait_frac` gauge.
pub fn queue_wait_ns() -> u64 {
    QUEUE_WAIT_NS.load(Ordering::Relaxed)
}

/// One submitted parallel region: a type-erased chunk body plus the
/// claim/completion state shared between the submitter and the workers.
struct Task {
    /// Calls the erased closure on one chunk range.
    run: unsafe fn(*const (), Range<usize>),
    /// Pointer to the caller's closure; valid until `remaining` hits zero,
    /// which the submitter awaits before returning.
    ctx: *const (),
    len: usize,
    grain: usize,
    chunks: usize,
    /// Profiler timestamp at submission, for queue-wait attribution.
    submit_ns: u64,
    /// The submitter's ambient trace context, adopted by every worker for
    /// the duration of its chunks so causality survives the pool boundary.
    /// Carried *alongside* the chunks — it never influences chunk
    /// boundaries or claim order, so the determinism contract is intact.
    trace: Option<noodle_trace::TraceContext>,
    /// Next unclaimed chunk index.
    next: AtomicUsize,
    /// Chunks not yet finished; completion signal below.
    remaining: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

// SAFETY: `ctx` points at a closure that is `Sync` (enforced by the
// `par_for` bounds) and outlives the task (the submitter blocks until all
// chunks complete before returning, and workers never dereference `ctx`
// after claiming past the last chunk).
unsafe impl Send for Task {}
unsafe impl Sync for Task {}

impl Task {
    fn chunk_range(&self, chunk: usize) -> Range<usize> {
        let lo = chunk * self.grain;
        lo..self.len.min(lo + self.grain)
    }

    /// Claims and runs chunks until the queue is empty; returns how many
    /// chunk bodies this thread actually ran (0 for a stale wake-up, which
    /// tells the caller to skip busy/queue-wait attribution).
    fn work(&self) -> usize {
        let mut ran = 0;
        loop {
            let chunk = self.next.fetch_add(1, Ordering::Relaxed);
            if chunk >= self.chunks {
                return ran;
            }
            ran += 1;
            let range = self.chunk_range(chunk);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // SAFETY: `ctx` is live (see `Send`/`Sync` justification)
                // and `run` was instantiated for the closure's real type.
                unsafe { (self.run)(self.ctx, range) }
            }));
            let mut finished = 1;
            if outcome.is_err() {
                self.panicked.store(true, Ordering::SeqCst);
                // Drain the queue so other threads stop promptly. Chunks
                // that were never claimed must still be accounted for in
                // `remaining`, or the submitter would wait forever; the
                // swap hands them all to this thread exactly once (a
                // second panicker swaps `chunks` for `chunks` and gets 0).
                let claimed = self.next.swap(self.chunks, Ordering::Relaxed).min(self.chunks);
                finished += self.chunks - claimed;
            }
            let mut remaining = self.remaining.lock().unwrap_or_else(|e| e.into_inner());
            *remaining -= finished;
            if *remaining == 0 {
                self.done.notify_all();
            }
        }
    }
}

/// The announcement board workers watch: a sequence number plus the most
/// recently submitted task. Workers that miss a task are harmless — the
/// submitter always completes its own region.
#[derive(Default)]
struct Board {
    seq: u64,
    task: Option<Arc<Task>>,
}

struct Pool {
    board: Mutex<Board>,
    bell: Condvar,
    /// Number of worker threads spawned so far.
    spawned: Mutex<usize>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        board: Mutex::new(Board::default()),
        bell: Condvar::new(),
        spawned: Mutex::new(0),
    })
}

/// Ensures at least `target` worker threads exist.
fn ensure_workers(target: usize) {
    let p = pool();
    let mut spawned = p.spawned.lock().unwrap_or_else(|e| e.into_inner());
    while *spawned < target {
        let id = *spawned;
        std::thread::Builder::new()
            .name(format!("noodle-compute-{id}"))
            .spawn(worker_loop)
            .expect("failed to spawn compute worker");
        *spawned += 1;
    }
}

/// Adds one thread's share of a parallel region, started at `start_ns`
/// and running `chunks` chunks, to the pool's busy (and, for a worker
/// that queued since `submit_ns`, wait) time; while profiling, also
/// records it on the thread's event ring under the ambient trace id.
fn job_done(start_ns: u64, chunks: usize, submit_ns: Option<u64>) {
    let busy = noodle_trace::now_ns().saturating_sub(start_ns);
    BUSY_NS.fetch_add(busy, Ordering::Relaxed);
    let wait = submit_ns.map(|submit| (submit, start_ns.saturating_sub(submit)));
    if let Some((_, wait)) = wait {
        QUEUE_WAIT_NS.fetch_add(wait, Ordering::Relaxed);
    }
    if noodle_trace::enabled() {
        let trace = noodle_trace::current().map_or(0, |c| c.trace_id);
        let interval = |kind, start, dur| Event::new(kind, "").ids(trace, 0).at(start, dur);
        if let Some((submit, wait)) = wait {
            noodle_trace::push(&interval(EventKind::QueueWait, submit, wait));
        }
        noodle_trace::push(&interval(EventKind::PoolJob, start_ns, busy).payload(chunks as u64, 0));
    }
}

fn worker_loop() {
    let p = pool();
    let mut last_seen = 0u64;
    loop {
        let task = {
            let mut board = p.board.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if board.seq != last_seen {
                    last_seen = board.seq;
                    break board.task.clone();
                }
                board = p.bell.wait(board).unwrap_or_else(|e| e.into_inner());
            }
        };
        if let Some(task) = task {
            let start_ns = noodle_trace::now_ns();
            // Adopt the submitter's trace context for the chunks *and* the
            // profiler events below, so kernel and pool-job events recorded
            // on this worker join the submitting request's trace.
            let prev_trace = noodle_trace::swap_current(task.trace);
            REGION_DEPTH.with(|d| d.set(d.get() + 1));
            let ran = task.work();
            REGION_DEPTH.with(|d| d.set(d.get() - 1));
            if ran > 0 {
                job_done(start_ns, ran, Some(task.submit_ns));
            }
            noodle_trace::swap_current(prev_trace);
        }
    }
}

/// Runs `body` over every chunk of `0..len` (chunk size `grain`), in
/// parallel when the effective thread count allows it.
///
/// Chunk boundaries depend only on `len` and `grain`, so writes into
/// disjoint per-index output regions are deterministic at every thread
/// count. The calling thread participates; the call returns only when
/// every chunk has run.
///
/// # Panics
///
/// Propagates a panic from any chunk body (other chunks may be skipped).
pub fn par_for<F>(len: usize, grain: usize, body: F)
where
    F: Fn(Range<usize>) + Sync,
{
    let grain = grain.max(1);
    if len == 0 {
        return;
    }
    JOBS.fetch_add(1, Ordering::Relaxed);
    let chunks = len.div_ceil(grain);
    let threads = num_threads();
    let nested = REGION_DEPTH.with(|d| d.get()) > 0;
    if threads <= 1 || chunks == 1 || nested {
        // Nested regions run inside an already-timed outer chunk body, so
        // timing them again would double-count busy time.
        let start_ns = if nested { 0 } else { noodle_trace::now_ns() };
        let mut lo = 0;
        while lo < len {
            let hi = len.min(lo + grain);
            body(lo..hi);
            lo = hi;
        }
        if !nested {
            job_done(start_ns, chunks, None);
        }
        return;
    }

    ensure_workers(threads.saturating_sub(1));

    unsafe fn call<F: Fn(Range<usize>) + Sync>(ctx: *const (), range: Range<usize>) {
        // SAFETY: `ctx` was produced from `&F` in this function below and
        // is still borrowed by the submitter, which has not returned.
        unsafe { (*ctx.cast::<F>())(range) }
    }

    let task = Arc::new(Task {
        run: call::<F>,
        ctx: (&raw const body).cast(),
        len,
        grain,
        chunks,
        submit_ns: noodle_trace::now_ns(),
        trace: noodle_trace::current(),
        next: AtomicUsize::new(0),
        remaining: Mutex::new(chunks),
        done: Condvar::new(),
        panicked: AtomicBool::new(false),
    });

    let p = pool();
    {
        let mut board = p.board.lock().unwrap_or_else(|e| e.into_inner());
        board.seq = board.seq.wrapping_add(1);
        board.task = Some(Arc::clone(&task));
        p.bell.notify_all();
    }

    // Participate, then wait for stragglers. The submitter never queues,
    // so it records busy time but no queue wait.
    let start_ns = noodle_trace::now_ns();
    REGION_DEPTH.with(|d| d.set(d.get() + 1));
    let ran = task.work();
    REGION_DEPTH.with(|d| d.set(d.get() - 1));
    if ran > 0 {
        job_done(start_ns, ran, None);
    }
    {
        let mut remaining = task.remaining.lock().unwrap_or_else(|e| e.into_inner());
        while *remaining > 0 {
            remaining = task.done.wait(remaining).unwrap_or_else(|e| e.into_inner());
        }
    }

    // Retire the task so idle workers do not keep the Arc (and thus the
    // erased pointer type) alive past this call.
    {
        let mut board = p.board.lock().unwrap_or_else(|e| e.into_inner());
        if board.task.as_ref().is_some_and(|t| Arc::ptr_eq(t, &task)) {
            board.task = None;
        }
    }

    if task.panicked.load(Ordering::SeqCst) {
        panic!("noodle-compute: a parallel chunk body panicked");
    }
}

/// Maps `0..len` through `map` in parallel and returns the results in
/// index order.
///
/// Each index is computed exactly once by exactly one thread, so the
/// result is identical at every thread count.
pub fn par_map_collect<T, F>(len: usize, grain: usize, map: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<Option<T>> = Vec::with_capacity(len);
    out.resize_with(len, || None);
    let slots = SharedSlots(out.as_mut_ptr());
    par_for(len, grain, |range| {
        for i in range {
            // SAFETY: every index is claimed by exactly one chunk, chunks
            // are disjoint, and `out` outlives the region.
            unsafe { *slots.get(i) = Some(map(i)) };
        }
    });
    out.into_iter().map(|v| v.expect("par_for covered every index")).collect()
}

/// Splits `0..len` into fixed chunks of `grain`, maps every chunk to a
/// partial result in parallel, and folds the partials **in chunk order**.
///
/// Because the chunk boundaries and the fold order are independent of the
/// thread count, floating-point reductions built on this are bit-identical
/// at every thread count.
pub fn par_map_reduce<T, M, R>(len: usize, grain: usize, map: M, reduce: R) -> Option<T>
where
    T: Send,
    M: Fn(Range<usize>) -> T + Sync,
    R: FnMut(T, T) -> T,
{
    let grain = grain.max(1);
    if len == 0 {
        return None;
    }
    let chunks = len.div_ceil(grain);
    let partials = par_map_collect(chunks, 1, |c| map(c * grain..len.min(c * grain + grain)));
    partials.into_iter().reduce(reduce)
}

/// Splits `data` into `data.len() / chunk_len` consecutive chunks and
/// processes groups of `grain` chunks in parallel. `body` receives the
/// group's chunk-index range and the mutable sub-slice covering exactly
/// those chunks, so callers get safe disjoint `&mut` access (the layer
/// kernels use one chunk per batch sample).
///
/// # Panics
///
/// Panics if `chunk_len` is zero or does not divide `data.len()`.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, grain: usize, body: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "par_chunks_mut requires a positive chunk length");
    assert_eq!(
        data.len() % chunk_len,
        0,
        "par_chunks_mut: {} elements do not divide into chunks of {chunk_len}",
        data.len()
    );
    let chunks = data.len() / chunk_len;
    let ptr = SharedBuf(data.as_mut_ptr());
    par_for(chunks, grain, |range| {
        // SAFETY: `par_for` hands out disjoint chunk-index ranges, so the
        // derived element ranges are disjoint; the unique borrow of `data`
        // is held by this frame for the whole region.
        let slice = unsafe {
            std::slice::from_raw_parts_mut(
                ptr.get().add(range.start * chunk_len),
                range.len() * chunk_len,
            )
        };
        body(range, slice);
    });
}

/// A mutable buffer pointer shared across workers for disjoint-range
/// writes.
struct SharedBuf<T>(*mut T);

impl<T> SharedBuf<T> {
    /// Returns the base pointer. Going through a method (rather than the
    /// field) makes closures capture the whole `Sync` wrapper instead of
    /// the raw pointer under edition-2021 disjoint capture.
    fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: workers only touch disjoint sub-ranges (one writer per range)
// while the owning slice is exclusively borrowed by `par_chunks_mut`.
unsafe impl<T: Send> Send for SharedBuf<T> {}
unsafe impl<T: Send> Sync for SharedBuf<T> {}

/// A raw pointer into a uniquely borrowed results buffer, shared with
/// worker threads for disjoint per-index writes.
struct SharedSlots<T>(*mut Option<T>);

// SAFETY: workers write disjoint indices (one writer per index) while the
// owning `Vec` is exclusively borrowed by `par_map_collect`.
unsafe impl<T: Send> Send for SharedSlots<T> {}
unsafe impl<T: Send> Sync for SharedSlots<T> {}

impl<T> SharedSlots<T> {
    /// # Safety
    ///
    /// `i` must be in bounds and written by at most one thread.
    unsafe fn get(&self, i: usize) -> *mut Option<T> {
        unsafe { self.0.add(i) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// Forces the parallel path even under `cfg(test)`.
    fn with_threads<Out>(n: usize, f: impl FnOnce() -> Out) -> Out {
        set_thread_override(Some(n));
        let out = f();
        set_thread_override(None);
        out
    }

    #[test]
    fn par_chunks_mut_writes_disjoint_groups() {
        for threads in [1, 3] {
            with_threads(threads, || {
                let mut data = vec![0usize; 24];
                par_chunks_mut(&mut data, 4, 2, |range, slice| {
                    assert_eq!(slice.len(), range.len() * 4);
                    for (offset, cell) in slice.iter_mut().enumerate() {
                        *cell = range.start * 4 + offset;
                    }
                });
                let expect: Vec<usize> = (0..24).collect();
                assert_eq!(data, expect);
            });
        }
    }

    #[test]
    fn par_for_covers_every_index_once() {
        for threads in [1, 4] {
            with_threads(threads, || {
                let hits: Vec<AtomicU32> = (0..103).map(|_| AtomicU32::new(0)).collect();
                par_for(103, 7, |range| {
                    for i in range {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            });
        }
    }

    #[test]
    fn par_map_collect_is_in_order() {
        for threads in [1, 3, 8] {
            let squares = with_threads(threads, || par_map_collect(50, 4, |i| i * i));
            assert_eq!(squares, (0..50).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_reduce_is_thread_count_invariant() {
        // A deliberately non-associative float reduction: results must
        // nevertheless agree because chunking and fold order are fixed.
        let run = |threads| {
            with_threads(threads, || {
                par_map_reduce(
                    1000,
                    16,
                    |range| range.map(|i| (i as f32).sqrt() * 0.01).sum::<f32>(),
                    |a, b| a + b,
                )
                .unwrap()
            })
        };
        let serial = run(1);
        assert_eq!(serial.to_bits(), run(2).to_bits());
        assert_eq!(serial.to_bits(), run(5).to_bits());
    }

    #[test]
    fn empty_and_degenerate_lengths() {
        with_threads(4, || {
            par_for(0, 8, |_| panic!("must not run"));
            assert_eq!(par_map_collect(0, 8, |i| i), Vec::<usize>::new());
            assert_eq!(par_map_reduce(0, 8, |_| 0u32, |a, b| a + b), None);
            assert_eq!(par_map_reduce(1, 8, |r| r.len(), |a, b| a + b), Some(1));
        });
    }

    #[test]
    fn nested_regions_run_inline() {
        with_threads(4, || {
            let total = AtomicU32::new(0);
            par_for(4, 1, |outer| {
                for _ in outer {
                    par_for(10, 2, |inner| {
                        total.fetch_add(inner.len() as u32, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(total.load(Ordering::Relaxed), 40);
        });
    }

    #[test]
    fn child_chunks_inherit_the_submitters_trace_context() {
        let ctx = noodle_trace::TraceContext::mint();
        for threads in [1, 4] {
            with_threads(threads, || {
                let _guard = noodle_trace::set_current(ctx);
                let seen: Vec<_> = par_map_collect(16, 1, |_| noodle_trace::current());
                assert!(
                    seen.iter().all(|&c| c == Some(ctx)),
                    "every chunk sees the submitting job's context at {threads} threads"
                );
            });
        }
        // Workers restore their slot: a later traceless job must not leak
        // the previous job's context into its chunks.
        with_threads(4, || {
            let seen: Vec<_> = par_map_collect(16, 1, |_| noodle_trace::current());
            assert!(seen.iter().all(|&c| c.is_none()), "context must not leak across jobs");
        });
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_for(64, 1, |range| {
                    if range.start == 13 {
                        panic!("boom");
                    }
                });
            });
        });
        assert!(result.is_err());
        set_thread_override(None);
        // The pool must remain usable after a panic.
        with_threads(4, || {
            let v = par_map_collect(8, 1, |i| i + 1);
            assert_eq!(v.iter().sum::<usize>(), 36);
        });
    }

    #[test]
    fn override_beats_env() {
        set_thread_override(Some(3));
        assert_eq!(num_threads(), 3);
        set_thread_override(None);
        // Under cfg(test) with no override and no env var: serial.
        if std::env::var("NOODLE_THREADS").is_err() {
            assert_eq!(num_threads(), 1);
        }
    }

    #[test]
    fn flop_counter_accumulates() {
        let before = flops();
        add_flops(128);
        assert!(flops() >= before + 128);
    }

    #[test]
    fn busy_counter_accumulates_serial_and_parallel() {
        for threads in [1, 4] {
            let before = busy_ns();
            with_threads(threads, || {
                par_for(64, 1, |range| {
                    let mut acc = 0usize;
                    for i in range {
                        acc = acc.wrapping_add(i * i);
                    }
                    std::hint::black_box(acc);
                });
            });
            assert!(busy_ns() > before, "busy_ns must grow at {threads} threads");
        }
        // Queue wait only accrues when workers pick up announced tasks;
        // it may legitimately stay zero, but must never regress.
        let wait = queue_wait_ns();
        with_threads(4, || {
            par_for(32, 1, |r| {
                std::hint::black_box(r.len());
            });
        });
        assert!(queue_wait_ns() >= wait);
    }
}
