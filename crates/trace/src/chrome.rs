//! Chrome Trace Event Format export and read-back.
//!
//! [`write_chrome_trace`] renders a drained [`Profile`] as JSON loadable
//! by `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): each
//! thread becomes one timeline row (named via a `thread_name` metadata
//! event), every event is a `"ph": "X"` complete event with microsecond
//! timestamps, and run-level metadata (command, GEMM peak, memory stats)
//! rides in `otherData`. [`read_chrome_trace`] inverts the mapping so
//! `noodle profile <trace.json>` can re-summarise a saved trace offline.

use serde_json::{json, Map, Value};

use crate::alloc::MemStats;
use crate::profile::Profile;
use crate::ring::{Event, EventKind, ThreadEvents};

/// Run-level metadata embedded in the trace's `otherData` block.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TraceMeta {
    /// `noodle` version that produced the trace.
    #[serde(default)]
    pub tool_version: String,
    /// The CLI invocation being profiled.
    #[serde(default)]
    pub command: String,
    /// Measured single-core GEMM peak, GFLOP/s.
    #[serde(default)]
    pub peak_gflops: f64,
    /// Observed wall clock, nanoseconds.
    #[serde(default)]
    pub wall_ns: u64,
    /// Allocator counters when `--profile-mem` was on.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub mem: Option<MemStats>,
}

/// Serialises a profile as Chrome Trace Event Format JSON.
pub fn write_chrome_trace(profile: &Profile, meta: &TraceMeta) -> String {
    let mut events: Vec<Value> = Vec::new();
    for thread in &profile.threads {
        events.push(json!({
            "ph": "M",
            "name": "thread_name",
            "pid": 1,
            "tid": thread.tid,
            "args": { "name": thread.name }
        }));
        for e in &thread.events {
            let mut args = json!({ "flops": e.a, "bytes": e.b });
            if e.trace_id != 0 {
                // 16-hex-digit form: the same string the audit record and
                // /debug/trace/<id> use, so one grep joins all three.
                args["trace"] = Value::String(crate::format_trace_id(e.trace_id));
            }
            events.push(json!({
                "ph": "X",
                "name": e.name(),
                "cat": e.kind.category(),
                "pid": 1,
                "tid": thread.tid,
                "ts": e.t_ns as f64 / 1000.0,
                "dur": e.dur_ns as f64 / 1000.0,
                "args": args
            }));
        }
    }
    let doc = json!({
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": meta,
    });
    serde_json::to_string(&doc).expect("chrome trace serialization cannot fail")
}

fn as_u64_ns(obj: &Map<String, Value>, key: &str) -> u64 {
    // ts/dur are microseconds, possibly fractional; convert back to ns.
    (obj.get(key).and_then(Value::as_f64).unwrap_or(0.0) * 1000.0).round() as u64
}

/// Parses a Chrome-trace JSON string back into a [`Profile`] and its
/// [`TraceMeta`]. Only events written by [`write_chrome_trace`] are
/// required; unknown events are skipped rather than rejected. Names
/// longer than [`crate::NAME_CAP`] bytes are truncated, as when recorded.
///
/// # Errors
///
/// A one-line message when `text` is not JSON or lacks the Chrome-trace
/// structure.
pub fn read_chrome_trace(text: &str) -> Result<(Profile, TraceMeta), String> {
    let invalid = |e: serde_json::Error| format!("trace is not valid JSON: {e}");
    let doc: Value = serde_json::from_str(text).map_err(invalid)?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("trace format error: missing traceEvents array")?;
    let meta: TraceMeta = doc
        .get("otherData")
        .cloned()
        .map(serde_json::from_value)
        .transpose()
        .map_err(invalid)?
        .unwrap_or_default();

    let mut threads: std::collections::BTreeMap<u32, ThreadEvents> =
        std::collections::BTreeMap::new();
    for raw in events {
        let Some(obj) = raw.as_object() else { continue };
        let tid = obj.get("tid").and_then(Value::as_u64).unwrap_or(0) as u32;
        let ph = obj.get("ph").and_then(Value::as_str).unwrap_or("");
        let name = obj.get("name").and_then(Value::as_str).unwrap_or("");
        let thread = threads.entry(tid).or_insert_with(|| ThreadEvents {
            tid,
            name: format!("tid-{tid}"),
            dropped: 0,
            events: Vec::new(),
        });
        match ph {
            "M" if name == "thread_name" => {
                if let Some(n) = obj.get("args").and_then(|a| a.get("name")).and_then(Value::as_str)
                {
                    thread.name = n.to_owned();
                }
            }
            "X" => {
                let cat = obj.get("cat").and_then(Value::as_str).unwrap_or("");
                let kind = if cat == "span" {
                    EventKind::SpanClose
                } else {
                    EventKind::from_label(name).unwrap_or(EventKind::SpanClose)
                };
                let args = obj.get("args").and_then(Value::as_object);
                let arg = |key| args.and_then(|a| a.get(key));
                let trace = arg("trace").and_then(Value::as_str).and_then(crate::parse_trace_id);
                thread.events.push(
                    Event::new(kind, name)
                        .ids(trace.unwrap_or(0), 0)
                        .at(as_u64_ns(obj, "ts"), as_u64_ns(obj, "dur"))
                        .payload(
                            arg("flops").and_then(Value::as_u64).unwrap_or(0),
                            arg("bytes").and_then(Value::as_u64).unwrap_or(0),
                        ),
                );
            }
            _ => {}
        }
    }
    Ok((Profile { threads: threads.into_values().collect() }, meta))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_round_trips() {
        let profile = Profile {
            threads: vec![ThreadEvents {
                tid: 0,
                name: "main".into(),
                dropped: 0,
                events: vec![
                    Event::new(EventKind::SpanClose, "fit").at(0, 5_000),
                    Event::new(EventKind::Gemm, "gemm")
                        .ids(0xdead_beef_cafe_f00d, 0)
                        .at(1_000, 2_000)
                        .payload(123_456, 789),
                ],
            }],
        };
        let meta = TraceMeta {
            tool_version: "0.1.0".into(),
            command: "fit --fast".into(),
            peak_gflops: 12.5,
            wall_ns: 5_000,
            mem: None,
        };
        let text = write_chrome_trace(&profile, &meta);
        let (back, back_meta) = read_chrome_trace(&text).unwrap();
        assert_eq!(back.threads.len(), 1);
        assert_eq!(back.threads[0].name, "main");
        assert_eq!(back.threads[0].events, profile.threads[0].events);
        assert_eq!(back_meta, meta);
    }

    #[test]
    fn invalid_json_is_rejected() {
        assert!(read_chrome_trace("{nope").unwrap_err().starts_with("trace is not valid JSON"));
        assert!(read_chrome_trace("{}").unwrap_err().contains("missing traceEvents"));
    }

    #[test]
    fn trace_contains_thread_metadata_and_categories() {
        let profile = Profile {
            threads: vec![ThreadEvents {
                tid: 3,
                name: "noodle-compute-2".into(),
                dropped: 0,
                events: vec![Event::new(EventKind::PoolJob, "pool_job").at(10, 20).payload(4, 0)],
            }],
        };
        let text = write_chrome_trace(&profile, &TraceMeta::default());
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        let events = doc["traceEvents"].as_array().unwrap();
        assert!(events.iter().any(|e| e["ph"] == "M"
            && e["name"] == "thread_name"
            && e["args"]["name"] == "noodle-compute-2"));
        assert!(events.iter().any(|e| e["ph"] == "X" && e["cat"] == "pool"));
    }
}
