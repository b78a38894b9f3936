//! The serving engine: acceptor, per-connection reader/writer threads, and
//! the single batcher thread that owns the detector.
//!
//! Thread model (all std, no async runtime):
//!
//! - **acceptor** polls the listener; each accepted socket gets a
//!   connection thread (refused with a `shed` line beyond
//!   [`ServeConfig::max_clients`]).
//! - **connection reader** parses JSONL submissions, mints one
//!   [`noodle_trace::TraceContext`] per request at admission, and pushes
//!   jobs into the shared [`FairQueue`]; full-queue and draining pushes
//!   are answered immediately with a `shed` line (429-style, with a
//!   retry hint).
//! - **connection writer** drains an mpsc channel of response lines, so
//!   the batcher never blocks on a slow client socket. It writes every
//!   line already waiting before one flush, and the socket has Nagle's
//!   algorithm off, so a batch's responses leave together instead of
//!   each waiting on the client's ACK of the previous one.
//! - **batcher** is work-conserving: the moment it is free it takes
//!   everything queued, up to [`ServeConfig::batch`] items, and runs it
//!   through [`NoodleDetector::screen`] with each request's admission
//!   context, so audit records, `/metrics` exemplars and flight events all
//!   carry the id the client saw. Each job is answered from its own
//!   result: a source that fails to parse gets an `error` line, and the
//!   rest of its batch is served as usual. Batches grow only when
//!   requests arrive faster than batches complete. A non-zero
//!   [`ServeConfig::batch_deadline`] opts into holding a batch open that
//!   long after its first item to fill it.
//!
//! Hot swap: [`ServeController::request_reload`] sets a flag the batcher
//! consumes *between* batches; the model is replaced on the batcher
//! thread only, so no request ever observes a half-swapped model and
//! in-flight batches finish on the old one. Graceful drain:
//! [`ServeController::request_drain`] stops admission (new submissions
//! get `shed`/`"draining"`), the queue flushes, and every accepted
//! request is answered before the engine reports
//! [`ServeController::finished`].

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use noodle_core::{DetectRequest, Detection, NoodleDetector};
use noodle_observe::{AuditSink, ServeInfo, ServeOutcome, StreamingMonitors};

use crate::proto::{ServeRequest, ServeResponse};
use crate::queue::{FairQueue, PopResult};

/// Accept-loop poll interval while no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// Batcher poll interval while the queue is idle (bounds reload/drain
/// reaction latency).
const IDLE_POLL: Duration = Duration::from_millis(50);

/// Connection read timeout: bounds how long a reader blocks before
/// re-checking the drain/finished flags.
const READ_POLL: Duration = Duration::from_millis(250);

/// Per-connection write timeout; a stalled client only wedges its own
/// writer thread, and only for this long per line.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// How long a closing connection keeps discarding client input after its
/// last response, waiting for the client to close its side.
const CLOSE_LINGER: Duration = Duration::from_millis(250);

/// Tuning for one [`ServeEngine`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Request-plane bind address (port 0 for ephemeral).
    pub addr: String,
    /// Maximum requests per inference micro-batch.
    pub batch: usize,
    /// Optional batch-fill wait: a batch that is not full stays open this
    /// long after its first request for more to arrive. Zero (the
    /// default) closes it at once with whatever is queued.
    pub batch_deadline: Duration,
    /// Bounded admission-queue capacity; pushes beyond it are shed.
    pub queue_cap: usize,
    /// Maximum concurrent client connections; extras are refused with a
    /// `shed` line.
    pub max_clients: usize,
    /// Maximum bytes of one request line; longer submissions close the
    /// connection with an error.
    pub max_line_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            batch: 32,
            batch_deadline: Duration::ZERO,
            queue_cap: 256,
            max_clients: 64,
            max_line_bytes: 1 << 20,
        }
    }
}

/// Lifetime counters of one engine, as of the call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Connected clients right now.
    pub clients: u64,
    /// Admitted requests not yet answered.
    pub inflight: u64,
    /// Requests answered with a verdict.
    pub served: u64,
    /// Admissions refused (queue full, draining, too many clients).
    pub shed: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Model hot-swaps applied.
    pub reloads: u64,
    /// Model hot-swaps refused (no loader, or the model did not load); the
    /// engine kept serving the model it had.
    pub reload_failures: u64,
}

#[derive(Debug, Default)]
struct ControlState {
    /// Per-request service time of the last batch, for shed retry hints.
    service_us: AtomicU64,
    draining: AtomicBool,
    reload: AtomicBool,
    done: AtomicBool,
    clients: AtomicU64,
    inflight: AtomicU64,
    served: AtomicU64,
    shed: AtomicU64,
    errors: AtomicU64,
    reloads: AtomicU64,
    reload_failures: AtomicU64,
}

/// Shared control surface of one engine: clones address the same state,
/// so the CLI's signal loop and the HTTP admin hook (`POST /reload`,
/// `POST /drain`) can steer an engine they did not start.
#[derive(Debug, Clone, Default)]
pub struct ServeController {
    inner: Arc<ControlState>,
}

impl ServeController {
    /// A fresh controller, to be handed to [`ServeEngine::start`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests a graceful drain: admission stops (new submissions are
    /// shed with reason `"draining"`), the queue flushes, every accepted
    /// request is answered. Idempotent.
    pub fn request_drain(&self) {
        self.inner.draining.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has been requested.
    pub fn draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// Requests a model hot-swap; the batcher applies it between batches
    /// (never mid-batch), keeping all in-flight requests on the old model.
    pub fn request_reload(&self) {
        self.inner.reload.store(true, Ordering::SeqCst);
    }

    /// Whether the engine has drained completely: queue flushed, every
    /// accepted request answered, batcher exited.
    pub fn finished(&self) -> bool {
        self.inner.done.load(Ordering::SeqCst)
    }

    /// Lifetime counters, read atomically but not as one snapshot.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            clients: self.inner.clients.load(Ordering::SeqCst),
            inflight: self.inner.inflight.load(Ordering::SeqCst),
            served: self.inner.served.load(Ordering::SeqCst),
            shed: self.inner.shed.load(Ordering::SeqCst),
            errors: self.inner.errors.load(Ordering::SeqCst),
            reloads: self.inner.reloads.load(Ordering::SeqCst),
            reload_failures: self.inner.reload_failures.load(Ordering::SeqCst),
        }
    }

    /// The retry hint for a shed response: how long the batcher needs to
    /// serve what is queued now, at the last batch's pace.
    fn retry_hint_ms<T>(&self, queue: &FairQueue<T>) -> u64 {
        retry_hint_ms(queue.depth(), self.inner.service_us.load(Ordering::Relaxed))
    }

    fn note_service(&self, batch: Duration, batch_size: usize) {
        let per_request_us = batch.as_micros() as u64 / batch_size.max(1) as u64;
        self.inner.service_us.store(per_request_us, Ordering::Relaxed);
    }

    fn take_reload_request(&self) -> bool {
        self.inner.reload.swap(false, Ordering::SeqCst)
    }

    fn set_done(&self) {
        self.inner.done.store(true, Ordering::SeqCst);
    }

    fn client_connected(&self) {
        let now = self.inner.clients.fetch_add(1, Ordering::SeqCst) + 1;
        noodle_telemetry::gauge_set("serve.clients", now as f64);
    }

    fn client_disconnected(&self) {
        let now = self.inner.clients.fetch_sub(1, Ordering::SeqCst).saturating_sub(1);
        noodle_telemetry::gauge_set("serve.clients", now as f64);
    }

    fn inflight_up(&self) {
        let now = self.inner.inflight.fetch_add(1, Ordering::SeqCst) + 1;
        noodle_telemetry::gauge_set("serve.inflight", now as f64);
    }

    /// Counts a job in flight, then runs `push` to hand it to the batcher,
    /// and uncounts it if the push is refused. The batcher may answer the
    /// job, and uncount it, as soon as it is queued, so it must be counted
    /// first.
    fn admit<T>(&self, push: impl FnOnce() -> Result<(), T>) -> Result<(), T> {
        self.inflight_up();
        push().inspect_err(|_| self.inflight_down())
    }

    fn inflight_down(&self) {
        let now = self.inner.inflight.fetch_sub(1, Ordering::SeqCst).saturating_sub(1);
        noodle_telemetry::gauge_set("serve.inflight", now as f64);
    }

    fn note_shed(&self, monitors: Option<&StreamingMonitors>) {
        let total = self.inner.shed.fetch_add(1, Ordering::SeqCst) + 1;
        noodle_telemetry::gauge_set("serve.shed_total", total as f64);
        if let Some(m) = monitors {
            m.observe_serve_outcome(ServeOutcome::Shed);
        }
    }

    fn note_error(&self, monitors: Option<&StreamingMonitors>) {
        self.inner.errors.fetch_add(1, Ordering::SeqCst);
        noodle_telemetry::counter_add("serve.errors", 1);
        if let Some(m) = monitors {
            m.observe_serve_outcome(ServeOutcome::Error);
        }
    }

    fn note_served(&self) {
        self.inner.served.fetch_add(1, Ordering::SeqCst);
        noodle_telemetry::counter_add("serve.served", 1);
    }

    fn note_reload(&self) {
        self.inner.reloads.fetch_add(1, Ordering::SeqCst);
        noodle_telemetry::counter_add("serve.reloads", 1);
    }

    fn note_reload_failure(&self) {
        self.inner.reload_failures.fetch_add(1, Ordering::SeqCst);
        noodle_telemetry::counter_add("serve.reload_failures", 1);
    }
}

/// Re-reads a detector from its source of truth (typically the model
/// file) for a hot swap; returns a human-readable error to keep serving
/// the old model on failure.
pub type ModelLoader = Box<dyn FnMut() -> Result<NoodleDetector, String> + Send>;

/// One queued admission.
struct Job {
    design: String,
    source: String,
    label: Option<usize>,
    id: Option<u64>,
    ctx: noodle_trace::TraceContext,
    admitted: Instant,
    reply: mpsc::Sender<String>,
}

/// A running serving daemon. Dropping (or [`ServeEngine::join`]) drains
/// gracefully: accepted requests are all answered first.
#[derive(Debug)]
pub struct ServeEngine {
    addr: SocketAddr,
    ctl: ServeController,
    acceptor: Option<JoinHandle<()>>,
    batcher: Option<JoinHandle<()>>,
}

impl ServeEngine {
    /// Binds the request plane and starts serving.
    ///
    /// `audit` (if any) is attached *after* the engine stamps
    /// [`ServeInfo`] into the detector, so the header that opens the log
    /// already carries the daemon's provenance. `monitors` (if any)
    /// receives per-request SLO observations (latency with trace id,
    /// shed/error outcomes) in addition to whatever audit tee the caller
    /// wired. `ctl` is the shared control surface; pass clones to signal
    /// handlers and admin endpoints.
    ///
    /// # Errors
    ///
    /// Returns an `io::Error` when the address cannot be bound or a
    /// thread cannot be spawned.
    pub fn start(
        mut detector: NoodleDetector,
        loader: Option<ModelLoader>,
        audit: Option<Box<dyn AuditSink>>,
        monitors: Option<StreamingMonitors>,
        config: ServeConfig,
        ctl: ServeController,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let serve_info = ServeInfo {
            addr: addr.to_string(),
            batch_deadline_ms: config.batch_deadline.as_millis() as u64,
            queue_cap: config.queue_cap,
        };
        detector.set_serve_info(Some(serve_info.clone()));
        if let Some(sink) = audit {
            detector.set_audit_sink(sink);
        }

        let queue = Arc::new(FairQueue::new(config.queue_cap));
        noodle_telemetry::gauge_set("serve.queue_depth", 0.0);

        let acceptor = {
            let ctl = ctl.clone();
            let queue = Arc::clone(&queue);
            let config = config.clone();
            let monitors = monitors.clone();
            std::thread::Builder::new()
                .name("noodle-serve-accept".into())
                .spawn(move || accept_loop(listener, ctl, queue, config, monitors))?
        };
        let batcher = {
            let ctl = ctl.clone();
            let queue = Arc::clone(&queue);
            let config = config.clone();
            std::thread::Builder::new().name("noodle-serve-batch".into()).spawn(move || {
                batcher_loop(detector, loader, queue, monitors, config, ctl, serve_info);
            })?
        };
        Ok(Self { addr, ctl, acceptor: Some(acceptor), batcher: Some(batcher) })
    }

    /// The actually-bound request-plane address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A clone of the engine's control surface.
    pub fn controller(&self) -> ServeController {
        self.ctl.clone()
    }

    /// Drains gracefully and blocks until every accepted request has been
    /// answered and all engine threads have exited.
    pub fn join(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.ctl.request_drain();
        if let Some(handle) = self.batcher.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// The retry hint for shed responses: the time to serve `queued`
/// requests at `per_request_us` each, rounded up, at least 1 ms — by then
/// the batcher has worked off the backlog the refused request met.
fn retry_hint_ms(queued: usize, per_request_us: u64) -> u64 {
    (queued as u64 * per_request_us).div_ceil(1000).max(1)
}

fn accept_loop(
    listener: TcpListener,
    ctl: ServeController,
    queue: Arc<FairQueue<Job>>,
    config: ServeConfig,
    monitors: Option<StreamingMonitors>,
) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    let mut next_client: u64 = 0;
    while !ctl.draining() {
        match listener.accept() {
            Ok((stream, _)) => {
                if ctl.stats().clients >= config.max_clients as u64 {
                    refuse_connection(stream, &queue, monitors.as_ref(), &ctl);
                    continue;
                }
                next_client += 1;
                let client = next_client;
                let ctl = ctl.clone();
                let queue = Arc::clone(&queue);
                let config = config.clone();
                let monitors = monitors.clone();
                let spawned = std::thread::Builder::new()
                    .name(format!("noodle-serve-conn-{client}"))
                    .spawn(move || connection(stream, client, ctl, queue, config, monitors));
                if let Ok(handle) = spawned {
                    // Forget connections that already ended, so a daemon
                    // serving many short connections keeps a bounded list.
                    connections.retain(|h| !h.is_finished());
                    connections.push(handle);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    // Stop accepting, then wait for live connections: their readers exit
    // on client EOF or once the batcher reports the drain complete.
    drop(listener);
    for handle in connections {
        let _ = handle.join();
    }
}

/// Answers one over-capacity connection with a shed line and closes it.
fn refuse_connection(
    mut stream: TcpStream,
    queue: &FairQueue<Job>,
    monitors: Option<&StreamingMonitors>,
    ctl: &ServeController,
) {
    ctl.note_shed(monitors);
    let line = ServeResponse::Shed {
        id: None,
        design: String::new(),
        reason: "too many clients".into(),
        retry_after_ms: ctl.retry_hint_ms(queue),
    }
    .to_line();
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = stream.write_all(line.as_bytes());
}

fn connection(
    stream: TcpStream,
    client: u64,
    ctl: ServeController,
    queue: Arc<FairQueue<Job>>,
    config: ServeConfig,
    monitors: Option<StreamingMonitors>,
) {
    ctl.client_connected();
    let _ = run_connection(stream, client, &ctl, &queue, &config, monitors.as_ref());
    ctl.client_disconnected();
}

fn run_connection(
    stream: TcpStream,
    client: u64,
    ctl: &ServeController,
    queue: &FairQueue<Job>,
    config: &ServeConfig,
    monitors: Option<&StreamingMonitors>,
) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_POLL))?;
    let write_half = stream.try_clone()?;
    write_half.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let (tx, rx) = mpsc::channel::<String>();
    let writer = std::thread::Builder::new()
        .name(format!("noodle-serve-write-{client}"))
        .spawn(move || writer_loop(write_half, rx))?;

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        if ctl.finished() {
            break;
        }
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                if line.len() > config.max_line_bytes {
                    let _ = tx.send(oversized_line_error().to_line());
                    break;
                }
                if !line.trim().is_empty() {
                    handle_line(line.trim(), client, ctl, queue, monitors, &tx);
                }
                line.clear();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                // Timeout mid-line: `read_line` keeps the partial bytes in
                // `line` and the next call appends, so nothing is lost —
                // unless the line has already blown the cap.
                if line.len() > config.max_line_bytes {
                    let _ = tx.send(oversized_line_error().to_line());
                    break;
                }
            }
            Err(_) => break,
        }
    }
    drop(tx);
    let _ = writer.join();
    linger_close(reader.into_inner());
    Ok(())
}

/// Closes a connection without a reset. Closing a socket with unread
/// input makes the kernel send RST, which can discard responses still in
/// flight and hands the client a reset instead of end-of-stream. So the
/// write side is shut first (the client reads EOF after the last
/// response), and input is discarded until the client closes or
/// [`CLOSE_LINGER`] passes.
fn linger_close(mut stream: TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(CLOSE_LINGER));
    let give_up = Instant::now() + CLOSE_LINGER;
    let mut sink = [0u8; 4096];
    // EOF or any error, the read timeout included, ends the wait.
    while Instant::now() < give_up && matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
}

fn oversized_line_error() -> ServeResponse {
    ServeResponse::Error {
        id: None,
        design: String::new(),
        error: "request line exceeds the size cap; closing connection".into(),
    }
}

fn writer_loop(stream: TcpStream, rx: mpsc::Receiver<String>) {
    let mut out = BufWriter::new(stream);
    while let Ok(first) = rx.recv() {
        // Coalesce: every line already answered goes out with one flush.
        let written = std::iter::once(first)
            .chain(std::iter::from_fn(|| rx.try_recv().ok()))
            .try_for_each(|line| out.write_all(line.as_bytes()));
        if written.is_err() || out.flush().is_err() {
            break;
        }
    }
}

/// Parses and admits one submission line.
fn handle_line(
    line: &str,
    client: u64,
    ctl: &ServeController,
    queue: &FairQueue<Job>,
    monitors: Option<&StreamingMonitors>,
    tx: &mpsc::Sender<String>,
) {
    let request: ServeRequest = match serde_json::from_str(line) {
        Ok(request) => request,
        Err(e) => {
            ctl.note_error(monitors);
            let response = ServeResponse::Error {
                id: None,
                design: String::new(),
                error: format!("malformed request: {e}"),
            };
            let _ = tx.send(response.to_line());
            return;
        }
    };
    noodle_telemetry::counter_add("serve.requests", 1);
    if ctl.draining() {
        ctl.note_shed(monitors);
        let response = ServeResponse::Shed {
            id: request.id,
            design: request.design,
            reason: "draining".into(),
            retry_after_ms: ctl.retry_hint_ms(queue),
        };
        let _ = tx.send(response.to_line());
        return;
    }
    let job = Job {
        design: request.design,
        source: request.source,
        label: request.label,
        id: request.id,
        ctx: noodle_trace::TraceContext::mint(),
        admitted: Instant::now(),
        reply: tx.clone(),
    };
    // A refused job comes back boxed: only the shed path pays for that.
    if let Err(job) = ctl.admit(|| queue.push(client, job).map_err(Box::new)) {
        ctl.note_shed(monitors);
        let reason = if ctl.draining() { "draining" } else { "queue full" };
        let response = ServeResponse::Shed {
            id: job.id,
            design: job.design,
            reason: reason.into(),
            retry_after_ms: ctl.retry_hint_ms(queue),
        };
        let _ = tx.send(response.to_line());
    }
}

#[allow(clippy::too_many_arguments)]
fn batcher_loop(
    mut detector: NoodleDetector,
    mut loader: Option<ModelLoader>,
    queue: Arc<FairQueue<Job>>,
    monitors: Option<StreamingMonitors>,
    config: ServeConfig,
    ctl: ServeController,
    serve_info: ServeInfo,
) {
    loop {
        if ctl.draining() {
            queue.drain();
        }
        if ctl.take_reload_request() {
            apply_reload(&mut detector, loader.as_mut(), &ctl, &serve_info);
        }
        match queue.pop_until(Instant::now() + IDLE_POLL) {
            PopResult::Drained => break,
            PopResult::TimedOut => continue,
            PopResult::Item(first) => {
                // Batch formation: take what is queued, up to `batch`
                // items; a non-zero `batch_deadline` waits that long after
                // the first item for the batch to fill.
                let mut jobs = vec![(first, Instant::now())];
                let deadline = Instant::now() + config.batch_deadline;
                while jobs.len() < config.batch {
                    match queue.pop_until(deadline) {
                        PopResult::Item(job) => jobs.push((job, Instant::now())),
                        PopResult::TimedOut | PopResult::Drained => break,
                    }
                }
                run_batch(&mut detector, &jobs, monitors.as_ref(), &ctl);
            }
        }
    }
    ctl.set_done();
}

fn apply_reload(
    detector: &mut NoodleDetector,
    loader: Option<&mut ModelLoader>,
    ctl: &ServeController,
    serve_info: &ServeInfo,
) {
    let Some(loader) = loader else {
        ctl.note_reload_failure();
        return;
    };
    match loader() {
        Ok(mut next) => {
            // The swap happens entirely on this thread, between batches:
            // requests only ever see the old model or the new one, never a
            // mix. The audit sink moves across so one log spans the swap
            // (the re-emitted header marks the boundary).
            next.set_serve_info(Some(serve_info.clone()));
            if let Some(sink) = detector.take_audit_sink() {
                next.set_audit_sink(sink);
            }
            *detector = next;
            ctl.note_reload();
        }
        Err(_) => ctl.note_reload_failure(),
    }
}

/// Runs one formed batch and answers every job in it.
fn run_batch(
    detector: &mut NoodleDetector,
    jobs: &[(Job, Instant)],
    monitors: Option<&StreamingMonitors>,
    ctl: &ServeController,
) {
    let batch_closed = Instant::now();
    noodle_telemetry::histogram_record("serve.batch_size", jobs.len() as f64);
    for (job, popped) in jobs {
        // Install each request's admission context so the histogram
        // exemplars carry the trace id the client saw.
        let _ctx = noodle_trace::set_current(job.ctx);
        let queue_us = popped.duration_since(job.admitted).as_secs_f64() * 1e6;
        let wait_us = batch_closed.duration_since(*popped).as_secs_f64() * 1e6;
        noodle_telemetry::histogram_record("serve.queue_us", queue_us);
        noodle_telemetry::histogram_record("serve.batch_wait_us", wait_us);
    }
    let requests: Vec<DetectRequest<'_>> = jobs
        .iter()
        .map(|(job, _)| DetectRequest {
            design: &job.design,
            source: &job.source,
            label: job.label,
            trace: Some(job.ctx),
        })
        .collect();
    let infer_start = Instant::now();
    let results = detector.screen(&requests, requests.len(), None);
    let infer_us = infer_start.elapsed().as_secs_f64() * 1e6;
    for ((job, popped), result) in jobs.iter().zip(results) {
        let result = result.map_err(|e| e.to_string());
        finish_job(job, *popped, result, infer_us, jobs.len(), monitors, ctl);
    }
    ctl.note_service(batch_closed.elapsed(), jobs.len());
}

fn finish_job(
    job: &Job,
    popped: Instant,
    result: Result<Detection, String>,
    infer_us: f64,
    batch_size: usize,
    monitors: Option<&StreamingMonitors>,
    ctl: &ServeController,
) {
    let e2e_us = job.admitted.elapsed().as_secs_f64() * 1e6;
    let queue_us = popped.duration_since(job.admitted).as_secs_f64() * 1e6;
    let line = match result {
        Ok(detection) => {
            {
                let _ctx = noodle_trace::set_current(job.ctx);
                noodle_telemetry::histogram_record("serve.infer_us", infer_us);
                noodle_telemetry::histogram_record("serve.e2e_us", e2e_us);
            }
            if let Some(m) = monitors {
                m.observe_serve_latency(e2e_us, job.ctx.trace_id);
                m.observe_serve_outcome(ServeOutcome::Served);
            }
            ctl.note_served();
            let p = detection.prediction.p_values();
            ServeResponse::Verdict {
                id: job.id,
                design: job.design.clone(),
                trace_id: noodle_trace::format_trace_id(job.ctx.trace_id),
                infected: detection.infected,
                probability_infected: detection.probability_infected,
                p_values: [p[0], p[1]],
                region: detection.region.clone(),
                credibility: detection.credibility,
                confidence: detection.confidence,
                uncertain: detection.uncertain,
                queue_us,
                infer_us,
                e2e_us,
                batch_size,
            }
            .to_line()
        }
        Err(error) => {
            ctl.note_error(monitors);
            ServeResponse::Error { id: job.id, design: job.design.clone(), error }.to_line()
        }
    };
    ctl.inflight_down();
    let _ = job.reply.send(line);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_job_is_counted_in_flight_before_the_batcher_can_answer_it() {
        let ctl = ServeController::new();
        let queue = FairQueue::new(1);
        ctl.admit(|| {
            queue.push(0, ()).unwrap();
            // The batcher takes and answers the job before the reader
            // returns from the push.
            assert!(matches!(queue.pop_until(Instant::now()), PopResult::Item(())));
            ctl.inflight_down();
            assert_eq!(ctl.stats().inflight, 0);
            Ok::<_, ()>(())
        })
        .unwrap();
        assert_eq!(ctl.stats().inflight, 0);

        // A refused push leaves nothing counted.
        queue.push(0, ()).unwrap();
        assert_eq!(ctl.admit(|| queue.push(0, ())), Err(()));
        assert_eq!(ctl.stats().inflight, 0);
    }

    #[test]
    fn retry_hint_covers_the_backlog_at_the_last_batch_pace() {
        let ctl = ServeController::new();
        let queue = FairQueue::new(4);
        // Before the first batch there is no pace to go on: the floor.
        assert_eq!(ctl.retry_hint_ms(&queue), 1);
        // The last batch served 8 requests in 20 ms: 2.5 ms each.
        ctl.note_service(Duration::from_millis(20), 8);
        // Empty queue: nothing is ahead of a retry but the floor.
        assert_eq!(ctl.retry_hint_ms(&queue), 1);
        for client in 0..4 {
            queue.push(client, ()).unwrap();
        }
        assert!(queue.push(9, ()).is_err(), "the queue is full");
        // Full queue: four requests ahead of a retry at 2.5 ms each.
        assert_eq!(ctl.retry_hint_ms(&queue), 10);
    }

    #[test]
    fn retry_hint_rounds_up_to_whole_ms_with_a_one_ms_floor() {
        assert_eq!(retry_hint_ms(0, 0), 1);
        assert_eq!(retry_hint_ms(0, 2_500), 1);
        // 0.3 ms of backlog still asks for the 1 ms floor.
        assert_eq!(retry_hint_ms(3, 100), 1);
        // 1.5 ms of backlog rounds up, never down to "retry now".
        assert_eq!(retry_hint_ms(3, 500), 2);
        assert_eq!(retry_hint_ms(256, 2_500), 640);
    }
}
