//! Integration tests for the `noodle` command-line tool, driving the real
//! binary end to end: corpus generation → training → detection → inspect.

use std::path::Path;
use std::process::Command;

fn noodle() -> Command {
    Command::new(env!("CARGO_BIN_EXE_noodle"))
}

/// Every span's children must fit inside their parent: child durations sum
/// to no more than the parent's wall-clock time.
fn assert_stage_tree_consistent(span: &serde_json::Value) {
    let duration = span["duration_ns"].as_u64().expect("duration_ns is u64");
    let children = span["children"].as_array().expect("children is an array");
    let child_sum: u64 =
        children.iter().map(|c| c["duration_ns"].as_u64().expect("child duration")).sum();
    assert!(
        child_sum <= duration,
        "children of `{}` sum to {child_sum}ns > parent {duration}ns",
        span["name"]
    );
    for child in children {
        assert_stage_tree_consistent(child);
    }
}

/// Parses a `--report` file and checks the training-run schema: a `train`
/// root stage whose tree is time-consistent, per-stage instrumentation,
/// corpus stats and the fusion evaluation.
fn assert_train_report(path: &Path) {
    let json = std::fs::read_to_string(path).expect("report file exists");
    let report: serde_json::Value = serde_json::from_str(&json).expect("report is valid JSON");
    assert_eq!(report["command"], "train");
    let stages = report["stages"].as_array().expect("stages is an array");
    let root = stages
        .iter()
        .find(|s| s["name"] == "train")
        .expect("report contains the `train` root stage");
    assert_stage_tree_consistent(root);
    let tree = serde_json::to_string(root).unwrap();
    for stage in
        ["dataset.parse", "dataset.extract", "gan.amplify", "cnn.fit", "icp.calibrate", "fusion"]
    {
        assert!(tree.contains(stage), "train stage tree missing `{stage}`");
    }
    // Counters/histograms from the instrumented crates.
    assert!(report["counters"]["verilog.parse_calls"].as_u64().unwrap_or(0) > 0);
    assert!(report["counters"]["nn.epochs"].as_u64().unwrap_or(0) > 0);
    assert!(report["histograms"].get("nn.epoch_loss").is_some());
    // Corpus + evaluation summaries.
    assert!(report["corpus"]["total"].as_u64().unwrap_or(0) > 0);
    let winner = report["evaluation"]["winner"].as_str().expect("winner recorded");
    assert!(report["evaluation"]["brier"][winner].is_number(), "winner has a Brier score");
    // Versioned schema + run context (PR: observability).
    assert_eq!(report["schema_version"], 2);
    let context = &report["context"];
    assert!(context["invocation"].as_str().expect("invocation recorded").contains("train"));
    assert_eq!(context["seed"], 42, "default train seed recorded in context");
    assert!(context["version"].is_string());
    // Exact quantiles are surfaced for every histogram.
    let quantiles = &report["histogram_quantiles"]["nn.epoch_loss"];
    for key in ["p50", "p95", "p99"] {
        assert!(quantiles[key].is_number(), "nn.epoch_loss missing {key}: {quantiles}");
    }
}

#[test]
fn cli_full_round_trip() {
    let dir = std::env::temp_dir().join(format!("noodle_cli_{}", std::process::id()));
    let corpus_dir = dir.join("corpus");
    let model = dir.join("model.json");

    // gen-corpus
    let out = noodle()
        .args([
            "gen-corpus",
            corpus_dir.to_str().unwrap(),
            "--tf",
            "10",
            "--ti",
            "5",
            "--seed",
            "3",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let files: Vec<_> = std::fs::read_dir(&corpus_dir).unwrap().collect();
    assert_eq!(files.len(), 15, "one .v file per design");

    // train (fast scale so the test stays quick) with tracing + run report
    let report = dir.join("train_report.json");
    let out = noodle()
        .args([
            "train",
            model.to_str().unwrap(),
            "--fast",
            "--corpus-seed",
            "3",
            "--trace",
            "--report",
            report.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(model.exists());
    let stderr = String::from_utf8_lossy(&out.stderr);
    for stage in ["dataset.parse", "dataset.extract", "gan.amplify", "cnn.fit", "icp.calibrate"] {
        assert!(stderr.contains(stage), "trace output missing stage {stage}:\n{stderr}");
    }
    assert_train_report(&report);

    // detect on every generated file, with an audit log and a run report
    let mut paths: Vec<String> = std::fs::read_dir(&corpus_dir)
        .unwrap()
        .map(|e| e.unwrap().path().to_str().unwrap().to_string())
        .collect();
    paths.sort();
    let audit = dir.join("audit.jsonl");
    let detect_report = dir.join("detect_report.json");
    let out = noodle()
        .args(["detect", model.to_str().unwrap()])
        .args(&paths)
        .args(["--audit", audit.to_str().unwrap(), "--report", detect_report.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("verdict"), "{stdout}");
    assert!(stdout.lines().count() > paths.len(), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("detect latency: p50"), "{stderr}");

    // The audit log is one JSON object per line: a header carrying the
    // calibration baseline, then one prediction per screened file.
    let log = std::fs::read_to_string(&audit).expect("audit log written");
    let lines: Vec<serde_json::Value> = log
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).expect("audit line is valid JSON"))
        .collect();
    assert_eq!(lines.len(), paths.len() + 1, "header + one record per file");
    assert_eq!(lines[0]["type"], "header");
    assert!(lines[0]["baseline"]["sources"].is_object(), "header embeds the baseline");
    for record in &lines[1..] {
        assert_eq!(record["type"], "prediction");
        assert!(record["design"].as_str().unwrap().contains('_'), "{record}");
        assert!(record["label"].is_number(), "corpus file names imply labels: {record}");
        assert!(record["latency_us"].as_f64().unwrap() > 0.0, "{record}");
        assert!(!record["sources"].as_array().unwrap().is_empty(), "{record}");
    }
    // The detect run report carries exact latency quantiles.
    let report: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&detect_report).unwrap()).unwrap();
    assert_eq!(report["command"], "detect");
    assert_eq!(report["counters"]["audit.records"], paths.len() as u64);
    assert!(report["histogram_quantiles"]["detect.latency_us"]["p95"].is_number(), "{report}");

    // observe: replay the audit log through the monitor suite
    let monitor_path = dir.join("monitor_report.json");
    let out = noodle()
        .args(["observe", audit.to_str().unwrap(), "--out", monitor_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("overall:"), "{stdout}");
    assert!(stdout.contains("coverage.trojan_free"), "{stdout}");
    let monitor: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&monitor_path).unwrap()).unwrap();
    assert_eq!(monitor["schema_version"], 1);
    assert_eq!(monitor["records"], paths.len());
    assert_eq!(monitor["labeled"], paths.len());
    assert!(monitor["epsilon"].is_number(), "epsilon comes from the audit header");
    assert!(!monitor["monitors"].as_array().unwrap().is_empty());
    // 15 in-distribution records are below every monitor's min-samples
    // gate, so nothing may fire on this healthy stream.
    assert_eq!(monitor["overall"], "healthy", "{monitor}");

    // detect again with size-based audit rotation: small cap so the run
    // rotates several times, keeping at most 2 rotated segments.
    let rotating = dir.join("rotating.jsonl");
    let out = noodle()
        .args(["detect", model.to_str().unwrap()])
        .args(&paths)
        .args([
            "--audit",
            rotating.to_str().unwrap(),
            "--audit-rotate-bytes",
            "2048",
            "--audit-keep",
            "2",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let seg1 = dir.join("rotating.jsonl.1");
    let seg2 = dir.join("rotating.jsonl.2");
    assert!(rotating.exists() && seg1.exists() && seg2.exists(), "rotation produced segments");
    assert!(!dir.join("rotating.jsonl.3").exists(), "--audit-keep 2 caps rotated segments");
    // Every segment starts with a re-emitted header, so each replays
    // standalone through `noodle observe`.
    for segment in [&rotating, &seg1, &seg2] {
        let text = std::fs::read_to_string(segment).unwrap();
        let first: serde_json::Value =
            serde_json::from_str(text.lines().next().expect("segment is non-empty")).unwrap();
        assert_eq!(first["type"], "header", "{}", segment.display());
        let out =
            noodle().args(["observe", segment.to_str().unwrap()]).output().expect("binary runs");
        assert!(
            out.status.success(),
            "observe {}: {}",
            segment.display(),
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // inspect
    let out = noodle().args(["inspect", &paths[0]]).output().expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("tabular features"));
    assert!(stdout.contains("graph image"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_observe_empty_audit_log_yields_valid_empty_report() {
    let dir = std::env::temp_dir().join(format!("noodle_cli_empty_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("empty.jsonl");
    std::fs::write(&log, "").unwrap();
    let report_path = dir.join("report.json");
    let out = noodle()
        .args(["observe", log.to_str().unwrap(), "--out", report_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "empty log must be valid, not an error: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("overall: healthy"), "{stdout}");
    let report: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
    assert_eq!(report["schema_version"], 1);
    assert_eq!(report["records"], 0);
    assert_eq!(report["labeled"], 0);
    assert_eq!(report["overall"], "healthy");
    std::fs::remove_dir_all(&dir).ok();
}

/// A hand-written audit header line matching the v2 schema.
fn audit_header_line() -> String {
    serde_json::json!({
        "type": "header", "schema_version": 2, "tool_version": "0.1.0",
        "significance": 0.1, "strategy": "LateFusion", "baseline": null,
    })
    .to_string()
}

/// A hand-written healthy prediction line (clean verdict, covered label).
fn audit_prediction_line(seq: u64) -> String {
    serde_json::json!({
        "type": "prediction", "seq": seq, "design": format!("uart_tf_{seq:03}"),
        "strategy": "LateFusion", "infected": false, "probability_infected": 0.1,
        "p_values": [0.9, 0.1], "region": [0], "credibility": 0.9, "confidence": 0.9,
        "uncertain": false, "significance": 0.1, "graph_present": true,
        "tabular_present": true, "imputed_modality": false, "label": 0,
        "latency_us": 80.0, "batch_latency_us": 80.0, "batch_size": 1,
        "sources": [{"source": "graph", "p_values": [0.9, 0.1], "scores": [0.05, 0.4]}],
    })
    .to_string()
}

/// One raw HTTP/1.1 exchange against the exposition server; returns
/// (status line, body).
fn http_get(addr: &str, path: &str) -> (String, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to export server");
    stream.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status = response.lines().next().unwrap_or_default().to_string();
    let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

#[test]
fn cli_observe_follow_tails_growing_and_rotated_logs() {
    use std::io::{BufRead, Write};

    let dir = std::env::temp_dir().join(format!("noodle_cli_follow_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("audit.jsonl");
    std::fs::write(&log, format!("{}\n", audit_header_line())).unwrap();

    let mut child = noodle()
        .args([
            "observe",
            log.to_str().unwrap(),
            "--follow",
            "--poll-ms",
            "40",
            "--idle-exit-ms",
            "3000",
            "--observe-addr",
            "127.0.0.1:0",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary spawns");

    // The exporter echoes its ephemeral address on stderr; grab it.
    let mut stderr = std::io::BufReader::new(child.stderr.take().unwrap());
    let mut addr = None;
    let mut line = String::new();
    while stderr.read_line(&mut line).unwrap() > 0 {
        if let Some(rest) = line.trim().strip_prefix("observability endpoints at http://") {
            addr = Some(rest.to_string());
            break;
        }
        line.clear();
    }
    let addr = addr.expect("exporter address echoed on stderr");

    // Grow the log; the follower should pick the records up live.
    {
        let mut file = std::fs::OpenOptions::new().append(true).open(&log).unwrap();
        for seq in 0..5 {
            writeln!(file, "{}", audit_prediction_line(seq)).unwrap();
        }
    }
    // The shared engine behind /monitor must converge on the 5 records.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let (status, body) = http_get(&addr, "/monitor");
        assert!(status.contains("200"), "{status}");
        let report: serde_json::Value = serde_json::from_str(&body).expect("monitor JSON");
        if report["records"] == 5 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "follower never saw the records: {report}");
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    // While it runs, /metrics and /healthz serve live data.
    let (status, body) = http_get(&addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("noodle_observe_records_total 5"), "{body}");
    let (status, _) = http_get(&addr, "/healthz");
    assert!(status.contains("200"), "{status}");

    // Simulate a rotation: live log renamed away, fresh one re-starts with
    // a header. The follower must reset to offset 0 and keep counting.
    std::fs::rename(&log, dir.join("audit.jsonl.1")).unwrap();
    {
        let mut file = std::fs::File::create(&log).unwrap();
        writeln!(file, "{}", audit_header_line()).unwrap();
        for seq in 5..8 {
            writeln!(file, "{}", audit_prediction_line(seq)).unwrap();
        }
    }

    // After --idle-exit-ms of quiet the follower exits with a summary.
    let out = child.wait_with_output().expect("follower exits");
    assert!(out.status.success(), "follow run failed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("replayed 8 predictions"),
        "5 pre-rotation + 3 post-rotation records: {stdout}"
    );
    assert!(stdout.contains("overall:"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_gen_corpus_report_is_parseable_json() {
    let dir = std::env::temp_dir().join(format!("noodle_cli_gc_{}", std::process::id()));
    let corpus_dir = dir.join("corpus");
    let report = dir.join("corpus_report.json");
    let out = noodle()
        .args([
            "gen-corpus",
            corpus_dir.to_str().unwrap(),
            "--tf",
            "6",
            "--ti",
            "4",
            "--seed",
            "7",
            "--quiet",
            "--report",
            report.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // --quiet suppresses the progress line.
    assert!(out.stdout.is_empty(), "{}", String::from_utf8_lossy(&out.stdout));

    let json = std::fs::read_to_string(&report).expect("report written");
    let value: serde_json::Value = serde_json::from_str(&json).expect("report is valid JSON");
    assert_eq!(value["command"], "gen-corpus");
    assert_eq!(value["corpus"]["total"], 10);
    assert_eq!(value["corpus"]["trojan_free"], 6);
    assert_eq!(value["corpus"]["trojan_infected"], 4);
    assert_eq!(value["counters"]["corpus.designs"], 10);
    let root = value["stages"]
        .as_array()
        .and_then(|s| s.iter().find(|s| s["name"] == "gen_corpus"))
        .expect("gen_corpus root stage");
    assert_stage_tree_consistent(root);

    std::fs::remove_dir_all(&dir).ok();
}

/// Parses a Chrome trace file and returns (metadata events, complete
/// events) — the two `ph` kinds the profiler emits.
fn split_trace_events(path: &Path) -> (Vec<serde_json::Value>, Vec<serde_json::Value>) {
    let json = std::fs::read_to_string(path).expect("trace file exists");
    let trace: serde_json::Value = serde_json::from_str(&json).expect("trace is valid JSON");
    let events = trace["traceEvents"].as_array().expect("traceEvents is an array");
    let meta = events.iter().filter(|e| e["ph"] == "M").cloned().collect();
    let complete = events.iter().filter(|e| e["ph"] == "X").cloned().collect();
    (meta, complete)
}

#[test]
fn cli_profile_round_trip() {
    let dir = std::env::temp_dir().join(format!("noodle_cli_prof_{}", std::process::id()));
    let corpus_dir = dir.join("corpus");
    let model = dir.join("model.json");

    let out = noodle()
        .args(["gen-corpus", corpus_dir.to_str().unwrap(), "--tf", "8", "--ti", "4", "--seed", "5"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // train with profiling + memory accounting + run report, on a 2-thread pool
    let trace = dir.join("train_trace.json");
    let report = dir.join("train_report.json");
    let out = noodle()
        .args([
            "train",
            model.to_str().unwrap(),
            "--fast",
            "--corpus-seed",
            "5",
            "--threads",
            "2",
            "--profile",
            trace.to_str().unwrap(),
            "--profile-mem",
            "--report",
            report.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("trace written to"), "{stderr}");

    // The trace names every timeline row and carries per-thread kernel
    // events with FLOP payloads.
    let (meta, complete) = split_trace_events(&trace);
    assert!(meta.iter().any(|e| e["name"] == "thread_name"), "trace has thread_name metadata rows");
    let tids: std::collections::BTreeSet<u64> =
        complete.iter().map(|e| e["tid"].as_u64().expect("tid is u64")).collect();
    // A 2-thread pool spawns one worker; the submitting (main) thread is
    // the second lane, so the trace has at least two timeline rows.
    let pool_rows = meta
        .iter()
        .filter(|e| e["args"]["name"].as_str().is_some_and(|n| n.starts_with("noodle-compute")))
        .count();
    assert!(pool_rows >= 1, "pool workers get named timeline rows: {meta:?}");
    assert!(tids.len() >= 2, "events from more than one thread: {tids:?}");
    assert!(
        complete
            .iter()
            .any(|e| e["cat"] == "kernel" && e["args"]["flops"].as_u64().unwrap_or(0) > 0),
        "kernel events carry FLOP payloads"
    );

    // The run report embeds the profile summary: per-thread utilization,
    // top spans, kernel roofline rows and (via --profile-mem) memory.
    let report: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&report).unwrap()).unwrap();
    let profile = &report["profile"];
    assert!(profile.is_object(), "report embeds a profile block: {report}");
    assert!(profile["peak_gflops"].as_f64().unwrap() > 0.0, "{profile}");
    assert!(!profile["threads"].as_array().unwrap().is_empty(), "{profile}");
    assert!(!profile["kernels"].as_array().unwrap().is_empty(), "{profile}");
    assert!(profile["mem"]["allocations"].as_u64().unwrap() > 0, "{profile}");
    assert!(report["gauges"]["compute.pool_utilization"].is_number(), "{report}");
    assert!(report["gauges"]["compute.queue_wait_frac"].is_number(), "{report}");
    assert!(report["histograms"].get("profile.kernel.gemm_us").is_some(), "{report}");

    // detect with --audit and --profile in the same invocation: each sink
    // writes through its own file handle, so both must come out intact.
    let mut paths: Vec<String> = std::fs::read_dir(&corpus_dir)
        .unwrap()
        .map(|e| e.unwrap().path().to_str().unwrap().to_string())
        .collect();
    paths.sort();
    let audit = dir.join("audit.jsonl");
    let detect_trace = dir.join("detect_trace.json");
    let out = noodle()
        .args(["detect", model.to_str().unwrap()])
        .args(&paths)
        .args(["--audit", audit.to_str().unwrap(), "--profile", detect_trace.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let log = std::fs::read_to_string(&audit).expect("audit log written");
    let lines: Vec<serde_json::Value> = log
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).expect("audit line is valid JSON"))
        .collect();
    assert_eq!(lines.len(), paths.len() + 1, "header + one audit record per file");
    let (_, complete) = split_trace_events(&detect_trace);
    assert!(
        complete.iter().any(|e| e["name"] == "batch_infer"),
        "detect trace records micro-batch inference events"
    );

    // `noodle profile` re-renders the summary offline from the trace alone.
    let out = noodle().args(["profile", trace.to_str().unwrap()]).output().expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("thread"), "{stdout}");
    assert!(stdout.contains("gemm"), "{stdout}");
    assert!(stdout.contains("peak"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_profile_mem_requires_profile() {
    let out = noodle().args(["inspect", "x.v", "--profile-mem"]).output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--profile-mem requires --profile"));
}

#[test]
fn cli_version_prints_workspace_version() {
    let out = noodle().arg("version").output().expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.trim(), format!("noodle {}", env!("CARGO_PKG_VERSION")));
}

#[test]
fn cli_rejects_bad_trace_mode() {
    let out = noodle().args(["inspect", "x.v", "--trace=xml"]).output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--trace expects"));
}

#[test]
fn cli_reports_errors_cleanly() {
    // Unknown command.
    let out = noodle().arg("frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing model file.
    let out = noodle().args(["detect", "/nonexistent/model.json", "x.v"]).output().unwrap();
    assert!(!out.status.success());

    // A pipeline failure prints its full cause chain.
    let bad = std::env::temp_dir().join(format!("noodle_bad_{}.v", std::process::id()));
    std::fs::write(&bad, "module broken(; endmodule").unwrap();
    let out = noodle().args(["inspect", bad.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error: cannot inspect"), "{stderr}");
    assert!(stderr.contains("caused by:"), "{stderr}");
    std::fs::remove_file(&bad).ok();

    // Help succeeds.
    let out = noodle().arg("help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

/// A model file whose weight tensors hold fewer values than their shapes
/// declare is refused at load with a one-line error and exit code 1, not
/// a panic at the first forward (nor verdicts from a silently broken
/// network).
#[test]
fn cli_rejects_a_model_whose_tensors_disagree_with_their_shapes() {
    let dir = std::env::temp_dir().join(format!("noodle_cli_badmodel_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model = dir.join("model.json");
    let out = noodle()
        .args(["train", model.to_str().unwrap(), "--fast", "--corpus-seed", "5", "--quiet"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let design = dir.join("design.v");
    std::fs::write(&design, "module m(input a, output y); assign y = a; endmodule\n").unwrap();
    let good: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&model).unwrap()).unwrap();

    // Every GEMM weight cut to one value, and the first graph convolution
    // cut to 5 of its 144 values ("AACAPw==" is the base64 of one 1.0f32).
    let cut_all = |net: &mut serde_json::Value| {
        for i in 0..net["layers"].as_array().unwrap().len() {
            let layer = &mut net["layers"][i];
            for kind in ["Dense", "Conv1d", "Conv2d"] {
                if layer.get(kind).is_some() {
                    layer[kind]["weight"]["data"] = "AACAPw==".into();
                }
            }
        }
    };
    let mut all = good.clone();
    for clf in ["graph_clf", "tabular_clf", "early_clf"] {
        cut_all(&mut all[clf]["net"]);
    }
    let mut one = good.clone();
    one["graph_clf"]["net"]["layers"][0]["Conv2d"]["weight"]["data"] =
        serde_json::to_value([0.5f32; 5]).unwrap();

    // Each error names the network and the layer it is in.
    for (name, bad, holds) in [
        ("all.json", all, "holds 1 values"),
        ("one.json", one, "graph net: layer 0: tensor of shape [8, 2, 3, 3] holds 5 values"),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, bad.to_string()).unwrap();
        let out = noodle()
            .args(["detect", path.to_str().unwrap(), design.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{name}: {}", String::from_utf8_lossy(&out.stderr));
        assert!(out.stdout.is_empty(), "{name} printed verdicts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "{name}: {stderr}");
        assert!(stderr.starts_with("error: ") && stderr.contains(holds), "{name}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `noodle train` warns when its corpus leaves too few real calibration
/// designs for the winner's regions to leave a label out, and `--tf`/`--ti`
/// grow the corpus until they can.
#[test]
fn cli_train_warns_when_regions_can_never_leave_a_label_out() {
    let dir = std::env::temp_dir().join(format!("noodle_cli_calib_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model = dir.join("model.json");
    let train = |extra: &[&str]| {
        let out = noodle()
            .args(["train", model.to_str().unwrap(), "--fast", "--corpus-seed", "5"])
            .args(extra)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "{stderr}");
        stderr
    };
    // The default 28 / 12 corpus calibrates on 6 and 3 real designs.
    let small = train(&[]);
    assert!(small.contains("warning: too few real calibration designs"), "{small}");
    // 40 / 40 calibrates on 9 of each: enough at ε = 0.1.
    let large = train(&["--tf", "40", "--ti", "40"]);
    assert!(!large.contains("warning"), "{large}");
    std::fs::remove_dir_all(&dir).ok();
}
