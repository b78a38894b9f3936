//! The `noodle` command-line tool: train a detector, persist it, and screen
//! Verilog files with calibrated uncertainty.
//!
//! ```text
//! noodle gen-corpus <dir> [--tf 28] [--ti 12] [--seed N]   write a synthetic corpus as .v files
//! noodle train <model.json> [--corpus-seed N] [--fast]     fit on a generated corpus and save
//!               [--tf N] [--ti N]                          (corpus size, default 28 / 12)
//! noodle detect <model.json> <file.v>... [--audit <log>]   classify Verilog files
//!               [--batch N] [--cache-dir <dir>]            (batched engine + feature cache)
//!               [--audit-rotate-bytes N] [--audit-keep K]  (size-rotated audit segments)
//! noodle serve <model.json> [--addr H:P] [--batch N]       long-running detection daemon
//!               [--batch-deadline-ms MS] [--queue-cap N]   (JSONL over TCP; SIGHUP or
//!               [--max-clients N] [--slo-p99-ms MS]        POST /reload hot-swaps the model;
//!                                                          batches take what is queued, or
//!                                                          wait up to MS to fill, default 0)
//! noodle observe <audit.jsonl> [--out <report.json>]       replay an audit log through monitors
//!               [--follow [--poll-ms MS] [--idle-exit-ms MS]]  tail a growing log live
//! noodle profile <trace.json>                              render a recorded trace's summary
//! noodle inspect <file.v>                                  print both modality feature vectors
//! noodle version                                           print the workspace version
//! ```
//!
//! Every command also accepts the observability flags:
//!
//! ```text
//! --trace[=pretty|json]   stream per-stage span timings to stderr
//! --report <path>         write a RunReport JSON summary at exit
//! --profile <out.json>    record a per-thread Chrome trace + roofline summary
//! --profile-mem           also count allocations (needs --profile)
//! --quiet                 suppress progress output (errors still print)
//! --threads N             compute pool size (default: NOODLE_THREADS or all cores)
//! --observe-addr H:P      serve live /metrics, /monitor and /healthz while running
//!                         (or NOODLE_OBSERVE_ADDR; port 0 picks an ephemeral port,
//!                         echoed on stderr and recorded in the run report)
//! --observe-linger-ms N   keep the observability server up N ms after the
//!                         command finishes (so scripts can scrape /debug/*)
//! ```
//!
//! Every detect request carries a request-scoped trace id: it is stamped
//! into audit records, span records, profiler events and `/metrics`
//! exemplars, and the always-on flight recorder dumps a diagnostics
//! bundle to `results/flight-<ts>.json` whenever the live monitors
//! degrade to Alert.
//!
//! The tool is deliberately dependency-free (hand-rolled argument parsing)
//! so the workspace's only runtime dependencies stay `rand` + `serde`.

use std::error::Error;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use noodle::bench_gen::{corpus_stats, generate_corpus, CorpusConfig, CorpusStats};
use noodle::export::AdminFn;
use noodle::export::ExportServer;
use noodle::observe::{
    parse_audit_log, replay, AuditLine, AuditSink, JsonlAudit, LogFollower, MonitorConfig,
    MonitorReport, RotatingJsonlAudit, SloConfig, StreamingMonitors, TeeAudit,
};
use noodle::profile;
use noodle::serve::{signals, ModelLoader, ServeConfig, ServeController, ServeEngine};
use noodle::telemetry::{self, CorpusSummary, EvaluationSummary, RunContext, RunReport};
use noodle::{
    extract_modalities, DetectRequest, FeatureCache, FusionStrategy, MultimodalDataset,
    NoodleConfig, NoodleDetector, PipelineError,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Counting allocator for `--profile-mem`: a pure pass-through to the
/// system allocator (one relaxed load per call) until the flag arms it.
#[global_allocator]
static ALLOC: profile::CountingAllocator = profile::CountingAllocator::new();

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen-corpus") => cmd_gen_corpus(&args[1..]),
        Some("train") => cmd_train(&args[1..]),
        Some("detect") => cmd_detect(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("observe") => cmd_observe(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("version" | "--version" | "-V") => {
            println!("noodle {}", env!("CARGO_PKG_VERSION"));
            Ok(())
        }
        Some("--help" | "-h" | "help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(CliError::msg(format!("unknown command `{other}` (try `noodle help`)"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("error: {error}");
            let mut cause = error.source();
            while let Some(inner) = cause {
                eprintln!("  caused by: {inner}");
                cause = inner.source();
            }
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "noodle — uncertainty-aware hardware Trojan detection\n\n\
         USAGE:\n  \
         noodle gen-corpus <dir> [--tf N] [--ti N] [--seed N]\n  \
         noodle train <model.json> [--corpus-seed N] [--tf N] [--ti N] [--fast]\n  \
         noodle detect <model.json> <file.v>... [--audit <log.jsonl>]\n         \
         [--batch N] [--cache-dir <dir>] [--quantize]\n         \
         [--audit-rotate-bytes N] [--audit-keep K]\n  \
         noodle serve <model.json> [--addr H:P] [--batch N] [--batch-deadline-ms MS]\n         \
         [--queue-cap N] [--max-clients N] [--quantize] [--slo-p99-ms MS]\n         \
         [--audit <log.jsonl>] [--audit-rotate-bytes N] [--audit-keep K]\n  \
         noodle observe <audit.jsonl> [--epsilon E] [--window N] [--out <report.json>]\n         \
         [--follow [--poll-ms MS] [--idle-exit-ms MS]]\n  \
         noodle profile <trace.json>\n  \
         noodle inspect <file.v>\n  \
         noodle version\n\n\
         OBSERVABILITY (any command):\n  \
         --trace[=pretty|json]   stream per-stage timings to stderr\n  \
         --report <path>         write a RunReport JSON summary\n  \
         --profile <out.json>    record a Chrome/Perfetto trace with one row per\n                          \
         pool thread plus a kernel roofline summary\n  \
         --profile-mem           also count allocations (needs --profile)\n  \
         --quiet                 suppress progress output\n  \
         --threads N             compute pool size (results are identical\n                          \
         at every thread count; default NOODLE_THREADS or all cores)\n  \
         --no-simd               pin compute kernels to their scalar reference\n                          \
         bodies (NOODLE_SIMD=off works too); the active ISA\n                          \
         is recorded in --report and audit headers\n  \
         --observe-addr H:P      serve GET /metrics (Prometheus), /monitor (JSON) and\n                          \
         /healthz (200/503) from a background thread while the\n                          \
         command runs; NOODLE_OBSERVE_ADDR works too; port 0\n                          \
         picks an ephemeral port, echoed on stderr and\n                          \
         recorded in the --report run context\n  \
         --observe-linger-ms N   keep the observability server alive N ms after\n                          \
         the command finishes, so scripts can scrape\n                          \
         /debug/flight and /debug/trace/<id>\n\n\
         `detect` fans feature extraction over the compute pool and runs CNN\n\
         forwards in micro-batches of --batch files (default 32); verdicts are\n\
         bit-identical at every batch size. --cache-dir reuses extracted\n\
         features across runs, keyed by source content + extractor version.\n\
         --quantize serves CNN forwards from the model's int8 post-training-\n\
         quantized twins (i32 accumulation, dequantize at activation); the\n\
         model must have been trained by a build that emits the quantized\n\
         section, and the audit header records quantized=true.\n\n\
         `serve` runs a long-lived daemon: clients connect over TCP and send one\n\
         JSON request per line ({{\"design\":...,\"source\":...,[\"id\":N]}}), answered\n\
         with one JSON verdict/shed/error line each. Submissions from all\n\
         clients share a bounded fair queue (--queue-cap, round-robin across\n\
         connections) feeding a work-conserving micro-batcher: whenever it is\n\
         free it takes everything queued, up to --batch items, so batches grow\n\
         only under load. --batch-deadline-ms MS (default 0) opts into holding\n\
         a batch open up to MS after its first item to fill it. Overload sheds\n\
         429-style with a retry hint (the queued backlog at the last batch's\n\
         per-request pace) instead of queueing unboundedly. With\n\
         --observe-addr the same process serves /metrics,/monitor,/healthz plus\n\
         POST /reload (hot-swap the model file without dropping in-flight\n\
         requests; SIGHUP works too) and POST /drain (answer everything\n\
         accepted, then exit — SIGINT/SIGTERM work too). --slo-p99-ms sets the\n\
         p99 end-to-end latency target the SLO monitors alert on (and /healthz\n\
         flips to 503, dumping a flight bundle naming the slow trace ids).\n\n\
         `detect --audit` appends one JSON prediction record per file (plus a\n\
         header with the model's calibration baseline); `observe` replays such\n\
         a log through the coverage/Brier/drift monitor suite, and `observe\n\
         --follow` tails a growing (or size-rotated) log live, printing a line\n\
         on every monitor health transition. --audit-rotate-bytes caps each\n\
         audit segment (0 = never rotate); rotated segments get .1...K\n\
         suffixes (--audit-keep, default 8) and re-emit the header so each\n\
         replays standalone.\n\n\
         `--profile` drains per-thread event rings at exit into a Chrome Trace\n\
         Event JSON (open in chrome://tracing or ui.perfetto.dev); `noodle\n\
         profile <trace.json>` re-renders its summary offline. Profiling never\n\
         changes results: outputs are bit-identical with it on or off.\n"
    );
}

/// A CLI failure: either a plain message or a pipeline error whose full
/// `source()` chain is printed by `main`.
#[derive(Debug)]
enum CliError {
    Msg(String),
    Pipeline { context: String, source: PipelineError },
}

impl CliError {
    fn msg(message: impl Into<String>) -> Self {
        CliError::Msg(message.into())
    }

    fn pipeline(context: impl Into<String>) -> impl FnOnce(PipelineError) -> Self {
        let context = context.into();
        move |source| CliError::Pipeline { context, source }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Msg(message) => f.write_str(message),
            CliError::Pipeline { context, .. } => f.write_str(context),
        }
    }
}

impl Error for CliError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CliError::Msg(_) => None,
            CliError::Pipeline { source, .. } => Some(source),
        }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Msg(message)
    }
}

/// Flags that take no value; everything else consumes the next argument
/// (or an inline `--flag=value`).
const BOOLEAN_FLAGS: &[&str] =
    &["fast", "quiet", "trace", "profile-mem", "follow", "no-simd", "quantize"];

/// Positional arguments plus `(name, value)` flag pairs.
type ParsedArgs<'a> = (Vec<&'a str>, Vec<(&'a str, &'a str)>);

/// Parses flags from an argument list, returning leftover positional
/// arguments. Supports `--flag value`, inline `--flag=value`, and the
/// declared [`BOOLEAN_FLAGS`] which never consume the next argument
/// (`--trace` may still carry an inline value: `--trace=json`).
fn parse_flags(args: &[String]) -> Result<ParsedArgs<'_>, CliError> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let Some(name) = args[i].strip_prefix("--") else {
            positional.push(args[i].as_str());
            i += 1;
            continue;
        };
        if let Some((name, value)) = name.split_once('=') {
            flags.push((name, value));
            i += 1;
        } else if BOOLEAN_FLAGS.contains(&name) {
            flags.push((name, "true"));
            i += 1;
        } else {
            let value = args
                .get(i + 1)
                .ok_or_else(|| CliError::msg(format!("flag --{name} needs a value")))?;
            flags.push((name, value.as_str()));
            i += 2;
        }
    }
    Ok((positional, flags))
}

fn flag_value<'a>(flags: &[(&str, &'a str)], name: &str) -> Option<&'a str> {
    flags.iter().rev().find(|(n, _)| *n == name).map(|(_, v)| *v)
}

fn parse_num<T: std::str::FromStr>(
    flags: &[(&str, &str)],
    name: &str,
    default: T,
) -> Result<T, CliError> {
    match flag_value(flags, name) {
        None => Ok(default),
        Some(v) => {
            v.parse().map_err(|_| CliError::msg(format!("--{name} expects a number, got `{v}`")))
        }
    }
}

/// Observability options shared by every command: configures the global
/// telemetry and profiling layers from
/// `--trace`/`--report`/`--profile`/`--quiet` and writes the [`RunReport`]
/// and Chrome trace at the end of a run.
struct Observability {
    report: Option<PathBuf>,
    profile: Option<PathBuf>,
    profile_mem: bool,
    quiet: bool,
    /// The live monitor engine shared with the exposition server when
    /// `--observe-addr` (or `NOODLE_OBSERVE_ADDR`) is set. `detect` tees
    /// its audit stream into a clone so `/monitor` and `/healthz` track
    /// predictions in-flight.
    monitors: Option<StreamingMonitors>,
    /// The address the exposition server actually bound (port 0 resolved),
    /// surfaced in the run report's context block.
    observe_addr: Option<String>,
    /// `--observe-linger-ms`: how long to keep the exposition server up
    /// after the command finishes, so scripts can scrape `/debug/*`.
    linger_ms: u64,
    /// Set by [`Observability::finish`]: the command ran to completion.
    /// Error paths never call `finish`, so they skip the linger — a failed
    /// run should exit promptly, not hold its scrape window open.
    completed: std::cell::Cell<bool>,
    /// Keeps the exposition server alive for the duration of the command;
    /// never read, only dropped — dropping joins the accept thread.
    _export: Option<ExportServer>,
}

impl Drop for Observability {
    fn drop(&mut self) {
        // The linger runs in Drop (not `finish`) so the server outlives
        // every late write path; fields drop after this body, so the
        // accept thread is still serving while we sleep. The sleep happens
        // in small slices polling the shutdown flag, so a ctrl-c cuts the
        // window short instead of being ignored for the full duration.
        if self.linger_ms > 0 && self._export.is_some() && self.completed.get() {
            if !self.quiet {
                eprintln!(
                    "lingering {} ms before shutting down observability (ctrl-c to cut short)",
                    self.linger_ms
                );
            }
            signals::install();
            let interrupts_before = signals::shutdown_count();
            let deadline =
                std::time::Instant::now() + std::time::Duration::from_millis(self.linger_ms);
            loop {
                let now = std::time::Instant::now();
                if now >= deadline || signals::shutdown_count() > interrupts_before {
                    break;
                }
                std::thread::sleep((deadline - now).min(std::time::Duration::from_millis(50)));
            }
        }
    }
}

/// Refreshes the compute-pool gauges from live counters. Called at the
/// end of a `--report` run and before every `/metrics` scrape, so the
/// exported `compute.pool_utilization` is current mid-run rather than a
/// stale end-of-run artifact.
fn set_compute_gauges() {
    telemetry::gauge_set("compute.gflop_total", noodle::compute::flops() as f64 / 1e9);
    telemetry::gauge_set("compute.parallel_jobs", noodle::compute::jobs() as f64);
    let busy = noodle::compute::busy_ns() as f64;
    let wait = noodle::compute::queue_wait_ns() as f64;
    // Capacity = wall time since the shared epoch x pool width.
    let capacity = profile::now_ns() as f64 * noodle::compute::num_threads() as f64;
    if capacity > 0.0 {
        telemetry::gauge_set("compute.pool_utilization", busy / capacity);
    }
    if busy + wait > 0.0 {
        telemetry::gauge_set("compute.queue_wait_frac", wait / (busy + wait));
    }
}

impl Observability {
    fn from_flags(flags: &[(&str, &str)]) -> Result<Self, CliError> {
        Self::from_flags_with_admin(flags, None)
    }

    /// Like [`Observability::from_flags`], additionally wiring an admin
    /// hook into the exposition server (the serve daemon answers
    /// `POST /reload` and `POST /drain` on the metrics port this way).
    fn from_flags_with_admin(
        flags: &[(&str, &str)],
        admin: Option<AdminFn>,
    ) -> Result<Self, CliError> {
        if let Some(threads) = flag_value(flags, "threads") {
            let n: usize = threads.parse().map_err(|_| {
                CliError::msg(format!("--threads expects a positive number, got `{threads}`"))
            })?;
            if n == 0 {
                return Err(CliError::msg("--threads expects a positive number, got `0`"));
            }
            noodle::compute::set_thread_override(Some(n));
        }
        // Pin the kernels to their scalar bodies before any compute runs
        // (the NOODLE_SIMD env override is honoured by the compute crate
        // itself; the flag exists so scripts need no env plumbing).
        if flag_value(flags, "no-simd").is_some() {
            noodle::compute::set_simd_override(Some(false));
        }
        let trace = flag_value(flags, "trace");
        let report = flag_value(flags, "report").map(PathBuf::from);
        let profile_path = flag_value(flags, "profile").map(PathBuf::from);
        let profile_mem = flag_value(flags, "profile-mem").is_some();
        if profile_mem && profile_path.is_none() {
            return Err(CliError::msg("--profile-mem requires --profile <trace.json>"));
        }
        let quiet = flag_value(flags, "quiet").is_some();
        let observe_addr = flag_value(flags, "observe-addr")
            .map(str::to_string)
            .or_else(|| std::env::var("NOODLE_OBSERVE_ADDR").ok().filter(|v| !v.is_empty()));
        if trace.is_some() || report.is_some() || profile_path.is_some() || observe_addr.is_some() {
            telemetry::set_enabled(true);
        }
        if profile_path.is_some() {
            profile::set_enabled(true);
        }
        if profile_mem {
            profile::set_mem_enabled(true);
        }
        // After set_enabled: gauges set while telemetry is disabled are
        // dropped, so a `--report` run used to lose this one.
        telemetry::gauge_set("compute.threads", noodle::compute::num_threads() as f64);
        match trace {
            Some("true" | "pretty") if !quiet => {
                telemetry::set_sink(Box::new(telemetry::StderrPretty::default()));
            }
            Some("json") if !quiet => {
                telemetry::set_sink(Box::new(telemetry::JsonLines::stderr()));
            }
            Some("true" | "pretty" | "json") | None => {
                telemetry::set_sink(Box::new(telemetry::NullSink));
            }
            Some(other) => {
                return Err(CliError::msg(format!(
                    "--trace expects `pretty` or `json`, got `{other}`"
                )));
            }
        }
        let linger_ms: u64 = parse_num(flags, "observe-linger-ms", 0)?;
        let (monitors, bound_addr, export) = match observe_addr {
            None => (None, None, None),
            Some(addr) => {
                let monitors = StreamingMonitors::new(MonitorConfig::default());
                // Degrading to Alert dumps a flight bundle (recent ring
                // events + metrics + monitor verdicts) under results/.
                noodle::observe::install_alert_dump(&monitors, Path::new("results"));
                let server = ExportServer::start_with_admin(
                    &addr,
                    monitors.clone(),
                    Some(Box::new(set_compute_gauges)),
                    admin,
                )
                .map_err(|e| CliError::msg(format!("cannot bind --observe-addr {addr}: {e}")))?;
                // Always announced (port 0 resolves to an ephemeral port
                // the caller cannot know otherwise).
                eprintln!("observability endpoints at http://{}", server.addr());
                let bound = server.addr().to_string();
                (Some(monitors), Some(bound), Some(server))
            }
        };
        Ok(Self {
            report,
            profile: profile_path,
            profile_mem,
            quiet,
            monitors,
            observe_addr: bound_addr,
            linger_ms,
            completed: std::cell::Cell::new(false),
            _export: export,
        })
    }

    /// Writes the Chrome trace and run report, if requested. Call after
    /// the root span guard has been dropped so the stage tree is complete.
    fn finish(
        &self,
        command: &str,
        seed: Option<u64>,
        corpus: Option<CorpusSummary>,
        evaluation: Option<EvaluationSummary>,
    ) -> Result<(), CliError> {
        self.completed.set(true);
        // Drain the profiler first: it folds per-kernel timings into
        // telemetry histograms that the snapshot below must include.
        let profile_summary = self.write_profile()?;
        let Some(path) = &self.report else {
            return Ok(());
        };
        set_compute_gauges();
        let mut report = RunReport::from_snapshot(command, telemetry::snapshot());
        report.context = Some(RunContext {
            invocation: invocation_line(),
            seed,
            version: env!("CARGO_PKG_VERSION").to_string(),
            observe_addr: self.observe_addr.clone(),
            simd: Some(noodle::compute::active_isa().name().to_string()),
        });
        report.corpus = corpus;
        report.evaluation = evaluation;
        report.profile = profile_summary;
        report
            .write_to(path)
            .map_err(|e| CliError::msg(format!("cannot write report {}: {e}", path.display())))?;
        if !self.quiet {
            eprintln!("run report written to {}", path.display());
        }
        Ok(())
    }

    /// Drains the per-thread event rings into a Chrome trace (written
    /// through its own file handle — `--audit` may be streaming to a
    /// different file in the same invocation) and returns the roofline
    /// summary for embedding in the run report.
    fn write_profile(&self) -> Result<Option<profile::ProfileSummary>, CliError> {
        let Some(path) = &self.profile else {
            return Ok(None);
        };
        let prof = profile::drain();
        let peak = noodle::compute::gemm_peak_gflops();
        let mem = self.profile_mem.then(profile::mem_stats);
        // Fold per-kernel wall times into telemetry histograms so the run
        // report's metrics section and the trace agree.
        let bounds = telemetry::Histogram::default_bounds();
        let mut by_kernel: std::collections::BTreeMap<&str, telemetry::Histogram> =
            std::collections::BTreeMap::new();
        for thread in &prof.threads {
            for event in &thread.events {
                if event.kind.is_kernel() {
                    by_kernel
                        .entry(event.kind.label())
                        .or_insert_with(|| telemetry::Histogram::new(&bounds))
                        .record(event.dur_ns as f64 / 1e3);
                }
            }
        }
        for (name, hist) in &by_kernel {
            telemetry::merge_histogram(&format!("profile.kernel.{name}_us"), hist);
        }
        let summary = profile::summarize(&prof, peak, mem);
        let meta = profile::TraceMeta {
            tool_version: env!("CARGO_PKG_VERSION").to_string(),
            command: invocation_line(),
            peak_gflops: peak,
            wall_ns: prof.wall_ns(),
            mem,
        };
        let mut file = fs::File::create(path)
            .map_err(|e| CliError::msg(format!("cannot create trace {}: {e}", path.display())))?;
        std::io::Write::write_all(&mut file, profile::write_chrome_trace(&prof, &meta).as_bytes())
            .map_err(|e| CliError::msg(format!("cannot write trace {}: {e}", path.display())))?;
        if !self.quiet {
            eprint!("{}", profile::render_summary(&summary));
            eprintln!(
                "trace written to {} (open in chrome://tracing or ui.perfetto.dev)",
                path.display()
            );
        }
        Ok(Some(summary))
    }
}

/// The command line being run, reconstructed for the report's run-context
/// block (`noodle train model.json --fast ...`).
fn invocation_line() -> String {
    let mut parts = vec!["noodle".to_string()];
    parts.extend(std::env::args().skip(1));
    parts.join(" ")
}

/// Ground-truth label implied by a corpus file name, if any: generated
/// designs are named `{tag}_tf_{i:03}` / `{tag}_ti_{i:03}`.
fn label_from_stem(stem: &str) -> Option<usize> {
    if stem.contains("_ti_") {
        Some(1)
    } else if stem.contains("_tf_") {
        Some(0)
    } else {
        None
    }
}

/// Mirrors corpus statistics into telemetry gauges/counters and the report
/// summary.
fn emit_corpus_stats(stats: &CorpusStats) -> CorpusSummary {
    telemetry::counter_add("corpus.designs", stats.total as u64);
    telemetry::gauge_set("corpus.total", stats.total as f64);
    telemetry::gauge_set("corpus.trojan_free", stats.trojan_free as f64);
    telemetry::gauge_set("corpus.trojan_infected", stats.trojan_infected as f64);
    telemetry::gauge_set("corpus.mean_lines", stats.mean_lines);
    telemetry::gauge_set("corpus.distinct_trojans", stats.distinct_trojans as f64);
    CorpusSummary {
        total: stats.total,
        trojan_free: stats.trojan_free,
        trojan_infected: stats.trojan_infected,
        mean_lines: stats.mean_lines,
        distinct_trojans: stats.distinct_trojans,
    }
}

fn cmd_gen_corpus(args: &[String]) -> Result<(), CliError> {
    let (positional, flags) = parse_flags(args)?;
    let observability = Observability::from_flags(&flags)?;
    let [dir] = positional.as_slice() else {
        return Err(CliError::msg("usage: noodle gen-corpus <dir> [--tf N] [--ti N] [--seed N]"));
    };
    let config = CorpusConfig {
        trojan_free: parse_num(&flags, "tf", 28)?,
        trojan_infected: parse_num(&flags, "ti", 12)?,
        seed: parse_num(&flags, "seed", CorpusConfig::default().seed)?,
    };
    let root = telemetry::span!("gen_corpus", seed = config.seed);
    let corpus = generate_corpus(&config);
    let dir = PathBuf::from(dir);
    fs::create_dir_all(&dir)
        .map_err(|e| CliError::msg(format!("cannot create {}: {e}", dir.display())))?;
    {
        let _write_span = telemetry::span!("gen_corpus.write", designs = corpus.len());
        for bench in &corpus {
            let path = dir.join(format!("{}.v", bench.name));
            fs::write(&path, &bench.source)
                .map_err(|e| CliError::msg(format!("cannot write {}: {e}", path.display())))?;
        }
    }
    let stats = corpus_stats(&corpus);
    let summary = emit_corpus_stats(&stats);
    drop(root);
    if !observability.quiet {
        println!(
            "wrote {} designs to {} ({} Trojan-free, {} Trojan-infected, mean {:.0} lines)",
            stats.total,
            dir.display(),
            stats.trojan_free,
            stats.trojan_infected,
            stats.mean_lines
        );
    }
    observability.finish("gen-corpus", Some(config.seed), Some(summary), None)
}

fn cmd_train(args: &[String]) -> Result<(), CliError> {
    let (positional, flags) = parse_flags(args)?;
    let observability = Observability::from_flags(&flags)?;
    let [model_path] = positional.as_slice() else {
        return Err(CliError::msg(
            "usage: noodle train <model.json> [--corpus-seed N] [--tf N] [--ti N] [--fast]",
        ));
    };
    let corpus_seed = parse_num(&flags, "corpus-seed", CorpusConfig::default().seed)?;
    let fast = flag_value(&flags, "fast").is_some();
    let train_seed: u64 = parse_num(&flags, "seed", 42)?;

    let root = telemetry::span!("train", corpus_seed = corpus_seed, fast = fast);
    let defaults = CorpusConfig::default();
    let corpus = generate_corpus(&CorpusConfig {
        trojan_free: parse_num(&flags, "tf", defaults.trojan_free)?,
        trojan_infected: parse_num(&flags, "ti", defaults.trojan_infected)?,
        seed: corpus_seed,
    });
    let corpus_summary = emit_corpus_stats(&corpus_stats(&corpus));
    let dataset = MultimodalDataset::from_benchmarks(&corpus)
        .map_err(CliError::pipeline("corpus designs failed modality extraction"))?;
    let config = if fast { NoodleConfig::fast() } else { NoodleConfig::default() };
    let mut rng = StdRng::seed_from_u64(train_seed);
    if !observability.quiet {
        eprintln!("training on {} designs (this runs the full pipeline)...", dataset.len());
    }
    let detector = NoodleDetector::fit(&dataset, &config, &mut rng)
        .map_err(CliError::pipeline("training failed"))?;
    let eval = detector.evaluation();
    let mut brier = std::collections::BTreeMap::new();
    for strategy in FusionStrategy::ALL {
        if !observability.quiet {
            eprintln!("  {:<45} Brier {:.4}", strategy.label(), eval.brier_of(strategy));
        }
        brier.insert(format!("{strategy:?}"), eval.brier_of(strategy));
    }
    if !observability.quiet {
        eprintln!("winner: {:?}", detector.winner());
        let stuck = detector.labels_never_excluded(detector.winner());
        if !stuck.is_empty() {
            eprintln!(
                "warning: too few real calibration designs for {:?} regions to leave out \
                 label(s) {stuck:?} at significance {}; every verdict that needs them left \
                 out reads uncertain. Train on more designs (--tf, --ti).",
                detector.winner(),
                config.significance
            );
        }
    }
    let evaluation = EvaluationSummary { winner: format!("{:?}", detector.winner()), brier };
    let json =
        detector.to_json().map_err(|e| CliError::msg(format!("cannot serialize model: {e}")))?;
    fs::write(model_path, json)
        .map_err(|e| CliError::msg(format!("cannot write {model_path}: {e}")))?;
    drop(root);
    if !observability.quiet {
        println!("model saved to {model_path}");
    }
    observability.finish("train", Some(train_seed), Some(corpus_summary), Some(evaluation))
}

fn cmd_detect(args: &[String]) -> Result<(), CliError> {
    let (positional, flags) = parse_flags(args)?;
    let observability = Observability::from_flags(&flags)?;
    let [model_path, files @ ..] = positional.as_slice() else {
        return Err(CliError::msg(
            "usage: noodle detect <model.json> <file.v>... \
             [--audit <log.jsonl>] [--batch N] [--cache-dir <dir>]",
        ));
    };
    if files.is_empty() {
        return Err(CliError::msg("no Verilog files given"));
    }
    let audit_path = flag_value(&flags, "audit").map(PathBuf::from);
    let audit_rotate_bytes: u64 = parse_num(&flags, "audit-rotate-bytes", 0)?;
    let audit_keep: usize = parse_num(&flags, "audit-keep", 8)?;
    let batch: usize = parse_num(&flags, "batch", 32)?;
    if batch == 0 {
        return Err(CliError::msg("--batch expects a positive number, got `0`"));
    }
    let root = telemetry::span!("detect_run", files = files.len(), batch = batch);

    // Read and validate every input file before touching the model: a typo
    // in the last file name must not cost a multi-second model load first.
    let mut sources = Vec::with_capacity(files.len());
    for file in files {
        let source = fs::read_to_string(Path::new(file))
            .map_err(|e| CliError::msg(format!("cannot read {file}: {e}")))?;
        sources.push(source);
    }

    let json = fs::read_to_string(model_path)
        .map_err(|e| CliError::msg(format!("cannot read {model_path}: {e}")))?;
    let mut detector = NoodleDetector::from_json(&json)
        .map_err(|e| CliError::msg(format!("{model_path} is not a valid model: {e}")))?;
    // Before the audit sinks attach, so the emitted header records the
    // serving mode actually used.
    if flag_value(&flags, "quantize").is_some() {
        detector
            .set_quantized(true)
            .map_err(CliError::pipeline(format!("{model_path} cannot serve quantized")))?;
    }
    let file_sink: Option<Box<dyn AuditSink>> = match &audit_path {
        None => None,
        Some(path) => {
            let cannot =
                |e| CliError::msg(format!("cannot create audit log {}: {e}", path.display()));
            Some(if audit_rotate_bytes > 0 {
                Box::new(
                    RotatingJsonlAudit::create(path, audit_rotate_bytes, audit_keep)
                        .map_err(cannot)?,
                ) as Box<dyn AuditSink>
            } else {
                Box::new(JsonlAudit::create(path).map_err(cannot)?)
            })
        }
    };
    // With --observe-addr, the live monitor engine rides behind the audit
    // path: tee'd with the file sink, or attached alone so `/monitor` and
    // `/healthz` stay live even without --audit.
    let live_sink: Option<Box<dyn AuditSink>> =
        observability.monitors.clone().map(|m| Box::new(m) as Box<dyn AuditSink>);
    match (file_sink, live_sink) {
        (Some(file), Some(live)) => {
            detector.set_audit_sink(Box::new(TeeAudit::new(vec![file, live])));
        }
        (Some(file), None) => detector.set_audit_sink(file),
        (None, Some(live)) => detector.set_audit_sink(live),
        (None, None) => {}
    }
    let mut cache = match flag_value(&flags, "cache-dir") {
        Some(dir) => Some(FeatureCache::with_dir(4096, Path::new(dir)).map_err(|e| {
            CliError::msg(format!("cannot open feature cache directory {dir}: {e}"))
        })?),
        None => None,
    };

    let requests: Vec<DetectRequest<'_>> = files
        .iter()
        .zip(&sources)
        .map(|(file, source)| {
            let stem = Path::new(file).file_stem().and_then(|s| s.to_str()).unwrap_or(file);
            DetectRequest { design: stem, source, label: label_from_stem(stem), trace: None }
        })
        .collect();
    let verdicts = detector
        .detect_batch(&requests, batch, cache.as_mut())
        .map_err(CliError::pipeline("cannot screen the given files"))?;

    println!(
        "{:<32} {:<9} {:>7} {:>12} {:>11}  region",
        "file", "verdict", "p(TI)", "credibility", "confidence"
    );
    for (file, verdict) in files.iter().zip(&verdicts) {
        let region = match verdict.region.as_slice() {
            [] => "{} (anomalous)".to_string(),
            [0] => "{TF}".to_string(),
            [1] => "{TI}".to_string(),
            _ => "{TF, TI} (uncertain)".to_string(),
        };
        println!(
            "{:<32} {:<9} {:>7.3} {:>12.3} {:>11.3}  {region}",
            file,
            if verdict.infected { "INFECTED" } else { "clean" },
            verdict.probability_infected,
            verdict.credibility,
            verdict.confidence,
        );
    }
    if let Some(cache) = &cache {
        if !observability.quiet {
            let stats = cache.stats();
            eprintln!(
                "feature cache: {} hits, {} misses, {} evictions",
                stats.hits, stats.misses, stats.evictions
            );
        }
    }
    // Drop the sink so its buffered writer flushes before we report.
    drop(detector.take_audit_sink());
    if let Some(path) = &audit_path {
        if !observability.quiet {
            eprintln!("audit log written to {}", path.display());
        }
    }
    drop(root);
    if telemetry::enabled() && !observability.quiet {
        let snapshot = telemetry::snapshot();
        if let Some(q) = snapshot.histograms.get("detect.latency_us").and_then(|h| h.quantiles()) {
            eprintln!(
                "detect latency: p50 {:.0} us, p95 {:.0} us, p99 {:.0} us",
                q.p50, q.p95, q.p99
            );
        }
    }
    observability.finish("detect", None, None, None)
}

/// Loads (and optionally quantizes) a detector from a model file; used
/// both at `serve` startup and for every hot swap, so a reload sees
/// exactly what a restart would.
fn load_detector(model_path: &str, quantize: bool) -> Result<NoodleDetector, String> {
    let json =
        fs::read_to_string(model_path).map_err(|e| format!("cannot read {model_path}: {e}"))?;
    let mut detector = NoodleDetector::from_json(&json)
        .map_err(|e| format!("{model_path} is not a valid model: {e}"))?;
    if quantize {
        detector
            .set_quantized(true)
            .map_err(|e| format!("{model_path} cannot serve quantized: {e}"))?;
    }
    Ok(detector)
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let (positional, flags) = parse_flags(args)?;
    // The request-plane control surface exists before the engine so the
    // observability server's admin hook can steer it from day one.
    let ctl = ServeController::new();
    let admin: AdminFn = {
        let ctl = ctl.clone();
        Box::new(move |method, path, _body| match (method, path) {
            ("POST", "/reload") => {
                ctl.request_reload();
                Some((202, "{\"status\":\"reload requested\"}\n".to_string()))
            }
            ("POST", "/drain") => {
                ctl.request_drain();
                Some((200, "{\"status\":\"draining\"}\n".to_string()))
            }
            _ => None,
        })
    };
    let observability = Observability::from_flags_with_admin(&flags, Some(admin))?;
    // The daemon's lifecycle histograms and gauges must flow regardless of
    // --trace/--report/--observe-addr.
    telemetry::set_enabled(true);
    let [model_path] = positional.as_slice() else {
        return Err(CliError::msg(
            "usage: noodle serve <model.json> [--addr H:P] [--batch N] \
             [--batch-deadline-ms MS] [--queue-cap N] [--max-clients N] [--quantize] \
             [--slo-p99-ms MS] [--audit <log.jsonl>]",
        ));
    };
    let addr = flag_value(&flags, "addr").unwrap_or("127.0.0.1:0").to_string();
    let batch: usize = parse_num(&flags, "batch", 32)?;
    if batch == 0 {
        return Err(CliError::msg("--batch expects a positive number, got `0`"));
    }
    let batch_deadline_ms: u64 = parse_num(&flags, "batch-deadline-ms", 0)?;
    let queue_cap: usize = parse_num(&flags, "queue-cap", 256)?;
    if queue_cap == 0 {
        return Err(CliError::msg("--queue-cap expects a positive number, got `0`"));
    }
    let max_clients: usize = parse_num(&flags, "max-clients", 64)?;
    let slo_p99_ms: f64 = parse_num(&flags, "slo-p99-ms", 250.0)?;
    let quantize = flag_value(&flags, "quantize").is_some();
    let audit_path = flag_value(&flags, "audit").map(PathBuf::from);
    let audit_rotate_bytes: u64 = parse_num(&flags, "audit-rotate-bytes", 0)?;
    let audit_keep: usize = parse_num(&flags, "audit-keep", 8)?;

    // Serving SLOs ride on the streaming-monitor engine: with
    // --observe-addr they share the exposition server's (so /healthz and
    // /monitor reflect them); without it a private engine still drives the
    // alert-triggered flight dumps.
    let monitors = match &observability.monitors {
        Some(monitors) => monitors.clone(),
        None => {
            let monitors = StreamingMonitors::new(MonitorConfig::default());
            noodle::observe::install_alert_dump(&monitors, Path::new("results"));
            monitors
        }
    };
    monitors.set_slo(SloConfig { p99_target_us: slo_p99_ms * 1000.0, ..SloConfig::default() });

    let detector = load_detector(model_path, quantize).map_err(CliError::msg)?;
    let loader: ModelLoader = {
        let model_path = model_path.to_string();
        Box::new(move || load_detector(&model_path, quantize))
    };
    let file_sink: Option<Box<dyn AuditSink>> = match &audit_path {
        None => None,
        Some(path) => {
            let cannot =
                |e| CliError::msg(format!("cannot create audit log {}: {e}", path.display()));
            Some(if audit_rotate_bytes > 0 {
                Box::new(
                    RotatingJsonlAudit::create(path, audit_rotate_bytes, audit_keep)
                        .map_err(cannot)?,
                ) as Box<dyn AuditSink>
            } else {
                Box::new(JsonlAudit::create(path).map_err(cannot)?)
            })
        }
    };
    let live_sink: Box<dyn AuditSink> = Box::new(monitors.clone());
    let sink: Box<dyn AuditSink> = match file_sink {
        Some(file) => Box::new(TeeAudit::new(vec![file, live_sink])),
        None => live_sink,
    };

    let config = ServeConfig {
        addr,
        batch,
        batch_deadline: std::time::Duration::from_millis(batch_deadline_ms),
        queue_cap,
        max_clients,
        ..ServeConfig::default()
    };
    signals::install();
    let root = telemetry::span!("serve", batch = batch, queue_cap = queue_cap);
    let engine = ServeEngine::start(
        detector,
        Some(loader),
        Some(sink),
        Some(monitors.clone()),
        config,
        ctl.clone(),
    )
    .map_err(|e| CliError::msg(format!("cannot start the serve daemon: {e}")))?;
    // Always announced (port 0 resolves to an ephemeral port the caller
    // cannot know otherwise); scripts parse this line.
    eprintln!("serving detection requests at {}", engine.addr());
    if let Some(path) = &audit_path {
        if !observability.quiet {
            eprintln!("audit log streaming to {}", path.display());
        }
    }

    loop {
        if signals::take_reload() {
            if !observability.quiet {
                eprintln!("SIGHUP: model reload requested");
            }
            ctl.request_reload();
        }
        if signals::shutdown_count() >= 2 {
            eprintln!("second shutdown signal: exiting without finishing the drain");
            std::process::exit(130);
        }
        if signals::shutdown_requested() && !ctl.draining() {
            if !observability.quiet {
                eprintln!("shutdown signal: draining (send again to exit immediately)");
            }
            ctl.request_drain();
        }
        if ctl.finished() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    engine.join();
    let stats = ctl.stats();
    if !observability.quiet {
        eprintln!(
            "drained: {} served, {} shed, {} errors, {} reloads",
            stats.served, stats.shed, stats.errors, stats.reloads
        );
    }
    drop(root);
    observability.finish("serve", None, None, None)
}

fn cmd_observe(args: &[String]) -> Result<(), CliError> {
    let (positional, flags) = parse_flags(args)?;
    let observability = Observability::from_flags(&flags)?;
    let [audit_path] = positional.as_slice() else {
        return Err(CliError::msg(
            "usage: noodle observe <audit.jsonl> [--epsilon E] [--window N] [--out <report.json>] \
             [--follow [--poll-ms MS] [--idle-exit-ms MS]]",
        ));
    };
    let out = flag_value(&flags, "out").map(PathBuf::from);
    let defaults = MonitorConfig::default();
    let config = MonitorConfig {
        window: parse_num(&flags, "window", defaults.window)?,
        min_samples: parse_num(&flags, "min-samples", defaults.min_samples)?,
        epsilon: match flag_value(&flags, "epsilon") {
            None => None,
            Some(v) => Some(
                v.parse::<f64>()
                    .map_err(|_| CliError::msg(format!("--epsilon expects a number, got `{v}`")))?,
            ),
        },
        ..defaults
    };
    if flag_value(&flags, "follow").is_some() {
        let poll_ms: u64 = parse_num(&flags, "poll-ms", 500)?;
        let idle_exit_ms: u64 = parse_num(&flags, "idle-exit-ms", 0)?;
        return follow_audit_log(
            audit_path,
            config,
            out.as_deref(),
            &observability,
            poll_ms,
            idle_exit_ms,
        );
    }
    let root = telemetry::span!("observe");
    let text = fs::read_to_string(Path::new(audit_path))
        .map_err(|e| CliError::msg(format!("cannot read {audit_path}: {e}")))?;
    let (header, records) =
        parse_audit_log(&text).map_err(|e| CliError::msg(format!("{audit_path}: {e}")))?;
    telemetry::counter_add("observe.records", records.len() as u64);
    let report = replay(header.as_ref(), &records, config);
    print_monitor_report(&report, audit_path, observability.quiet);
    write_monitor_report(&report, out.as_deref(), observability.quiet)?;
    drop(root);
    observability.finish("observe", None, None, None)
}

fn print_monitor_report(report: &MonitorReport, audit_path: &str, quiet: bool) {
    if !quiet {
        let epsilon = report.epsilon.map_or_else(|| "unknown".to_string(), |e| format!("{e}"));
        println!(
            "replayed {} predictions ({} labeled) from {audit_path} (window {}, epsilon {epsilon})",
            report.records, report.labeled, report.window
        );
    }
    for status in &report.monitors {
        println!(
            "[{:<7}] {:<26} observed {:>8.4}  expected {:>8.4} (tol {:.4}, n={})  {}",
            status.health.to_string(),
            status.monitor,
            status.observed,
            status.expected,
            status.tolerance,
            status.samples,
            status.evidence,
        );
    }
    println!("overall: {}", report.overall);
}

fn write_monitor_report(
    report: &MonitorReport,
    out: Option<&Path>,
    quiet: bool,
) -> Result<(), CliError> {
    let Some(path) = out else {
        return Ok(());
    };
    report
        .write_to(path)
        .map_err(|e| CliError::msg(format!("cannot write {}: {e}", path.display())))?;
    if !quiet {
        eprintln!("monitor report written to {}", path.display());
    }
    Ok(())
}

/// `observe --follow`: tails a growing (and possibly rotating) audit log
/// through the same [`StreamingMonitors`] engine that batch replay uses,
/// printing a line whenever a monitor's health changes.
///
/// Runs until interrupted, or until the log has been idle for
/// `--idle-exit-ms` (0 = forever); on exit it prints the standard monitor
/// summary and honours `--out`.
fn follow_audit_log(
    audit_path: &str,
    config: MonitorConfig,
    out: Option<&Path>,
    observability: &Observability,
    poll_ms: u64,
    idle_exit_ms: u64,
) -> Result<(), CliError> {
    let stream = StreamingMonitors::new(config);
    // With --observe-addr, mirror the tail into the exporter's engine so
    // /monitor and /healthz track the followed log live.
    let mirror = observability.monitors.clone();
    let mut follower = LogFollower::new(Path::new(audit_path));
    if !observability.quiet {
        eprintln!("following {audit_path} (poll {poll_ms} ms, ctrl-c to stop)");
    }
    let mut last_news = std::time::Instant::now();
    loop {
        let lines = follower.poll();
        if !lines.is_empty() {
            last_news = std::time::Instant::now();
        }
        for line in lines {
            match line {
                AuditLine::Header(header) => {
                    stream.observe_header(&header);
                    if let Some(mirror) = &mirror {
                        mirror.observe_header(&header);
                    }
                }
                AuditLine::Prediction(record) => {
                    stream.observe(&record);
                    if let Some(mirror) = &mirror {
                        mirror.observe(&record);
                    }
                    telemetry::counter_add("observe.records", 1);
                }
            }
        }
        for transition in stream.transitions_since_last() {
            println!(
                "[{} -> {}] {:<26} after {} records: {}",
                transition.from,
                transition.status.health,
                transition.status.monitor,
                stream.records(),
                transition.status.evidence,
            );
        }
        if idle_exit_ms > 0 && last_news.elapsed().as_millis() >= u128::from(idle_exit_ms) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(poll_ms.max(10)));
    }
    let report = stream.report();
    print_monitor_report(&report, audit_path, observability.quiet);
    write_monitor_report(&report, out, observability.quiet)?;
    observability.finish("observe", None, None, None)
}

/// Re-renders the summary of a trace recorded with `--profile`, offline:
/// the peak GFLOP/s and memory counters ride along in the trace's
/// `otherData` block, so no model or corpus is needed.
fn cmd_profile(args: &[String]) -> Result<(), CliError> {
    let (positional, flags) = parse_flags(args)?;
    let observability = Observability::from_flags(&flags)?;
    let [trace_path] = positional.as_slice() else {
        return Err(CliError::msg("usage: noodle profile <trace.json>"));
    };
    let text = fs::read_to_string(Path::new(trace_path))
        .map_err(|e| CliError::msg(format!("cannot read {trace_path}: {e}")))?;
    let (prof, meta) = profile::read_chrome_trace(&text)
        .map_err(|e| CliError::msg(format!("{trace_path}: {e}")))?;
    let summary = profile::summarize(&prof, meta.peak_gflops, meta.mem);
    if !observability.quiet && !meta.command.is_empty() {
        println!("trace of `{}` (noodle {})", meta.command, meta.tool_version);
    }
    print!("{}", profile::render_summary(&summary));
    observability.finish("profile", None, None, None)
}

fn cmd_inspect(args: &[String]) -> Result<(), CliError> {
    let (positional, flags) = parse_flags(args)?;
    let observability = Observability::from_flags(&flags)?;
    let [file] = positional.as_slice() else {
        return Err(CliError::msg("usage: noodle inspect <file.v>"));
    };
    let root = telemetry::span!("inspect");
    let source = fs::read_to_string(Path::new(file))
        .map_err(|e| CliError::msg(format!("cannot read {file}: {e}")))?;
    let (graph, tabular) = extract_modalities(&source)
        .map_err(CliError::pipeline(format!("cannot inspect {file}")))?;
    println!("tabular features ({}):", tabular.len());
    for (name, value) in noodle::tabular::FEATURE_NAMES.iter().zip(&tabular) {
        println!("  {name:<22} {value}");
    }
    let nonzero = graph.iter().filter(|&&v| v > 0.0).count();
    println!("\ngraph image: {} cells, {nonzero} non-zero", graph.len());
    drop(root);
    observability.finish("inspect", None, None, None)
}
