//! The end-of-run report: a serde-serializable summary of one pipeline run
//! (stage-timing tree, metric snapshots, corpus stats, winner strategy),
//! written to a JSON file by `noodle --report <path>`.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::metrics::{Histogram, Quantiles, TelemetrySnapshot};
use crate::span::SpanRecord;

/// Version of the [`RunReport`] JSON schema. Bump when a field is renamed
/// or changes meaning; readers reject reports from the future.
pub const SCHEMA_VERSION: u32 = 2;

/// Schema version assumed for reports written before the field existed.
fn legacy_schema_version() -> u32 {
    1
}

/// Failure to parse a [`RunReport`].
#[derive(Debug)]
pub enum ReportError {
    /// The JSON was malformed or did not match the report shape.
    Json(serde_json::Error),
    /// The report was written by a newer schema than this build reads.
    UnsupportedVersion {
        /// Schema version found in the report.
        found: u32,
        /// Highest schema version this build supports.
        supported: u32,
    },
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::Json(e) => write!(f, "run report: {e}"),
            ReportError::UnsupportedVersion { found, supported } => write!(
                f,
                "run report has schema version {found} but this build reads at most \
                 {supported}; upgrade the reader"
            ),
        }
    }
}

impl std::error::Error for ReportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReportError::Json(e) => Some(e),
            ReportError::UnsupportedVersion { .. } => None,
        }
    }
}

impl From<serde_json::Error> for ReportError {
    fn from(e: serde_json::Error) -> Self {
        ReportError::Json(e)
    }
}

/// How the run was invoked: enough to reproduce it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunContext {
    /// The full command line, program name included.
    pub invocation: String,
    /// The dominant RNG seed of the run, when one was in play.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub seed: Option<u64>,
    /// Version of the crate that ran the command.
    pub version: String,
    /// The observability HTTP endpoint actually bound by
    /// `--observe-addr`, with any ephemeral port resolved
    /// (`"127.0.0.1:43817"`), so scripts can discover the live endpoints
    /// from `--report` output instead of scraping stderr.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub observe_addr: Option<String>,
    /// SIMD instruction set the compute kernels dispatched to
    /// (`"avx2+fma"`, `"neon"` or `"scalar"`). Kernel numerics may
    /// legally differ between ISAs, so reproducing a run exactly needs
    /// the dispatch choice on record; reports predating the field read
    /// back as `None`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub simd: Option<String>,
}

/// Corpus composition statistics, mirrored from `bench_gen::CorpusStats`
/// (redeclared here so the telemetry crate stays a leaf dependency).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusSummary {
    /// Total number of designs.
    pub total: usize,
    /// Number of Trojan-free designs.
    pub trojan_free: usize,
    /// Number of Trojan-infected designs.
    pub trojan_infected: usize,
    /// Mean source length in lines.
    pub mean_lines: f64,
    /// Number of distinct (trigger, payload) combinations present.
    pub distinct_trojans: usize,
}

/// Outcome of the fusion-strategy competition captured during training.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvaluationSummary {
    /// The winning fusion strategy, e.g. `"LateFusion"`.
    pub winner: String,
    /// Brier score per strategy.
    pub brier: BTreeMap<String, f64>,
}

/// A complete end-of-run summary, serializable to JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Report schema version ([`SCHEMA_VERSION`] at write time; reports
    /// predating the field read back as version 1).
    #[serde(default = "legacy_schema_version")]
    pub schema_version: u32,
    /// Version of the noodle workspace that produced the report.
    pub tool_version: String,
    /// The command that ran (`"train"`, `"gen-corpus"`, ...).
    pub command: String,
    /// Invocation details (full command line, seed, crate version).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub context: Option<RunContext>,
    /// Stage-timing trees, one per root span, in completion order.
    pub stages: Vec<SpanRecord>,
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-value gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
    /// Exact p50/p95/p99 per histogram that recorded at least one value.
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    pub histogram_quantiles: BTreeMap<String, Quantiles>,
    /// Corpus composition, when the run generated or consumed a corpus.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub corpus: Option<CorpusSummary>,
    /// Fusion competition outcome, when the run trained a detector.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub evaluation: Option<EvaluationSummary>,
    /// Execution profile (top spans by self-time, per-thread utilization,
    /// kernel roofline), when the run was profiled with `--profile`.
    /// Additive and optional, so no schema bump.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub profile: Option<noodle_trace::ProfileSummary>,
}

impl RunReport {
    /// Builds a report from a telemetry snapshot. Quantiles come from
    /// [`Histogram::snapshot`], which sorts each histogram's observations
    /// once instead of once per quantile.
    pub fn from_snapshot(command: &str, snapshot: TelemetrySnapshot) -> Self {
        let histogram_quantiles = snapshot
            .histograms
            .iter()
            .filter_map(|(name, h)| Some((name.clone(), h.snapshot().quantiles?)))
            .collect();
        Self {
            schema_version: SCHEMA_VERSION,
            tool_version: env!("CARGO_PKG_VERSION").to_string(),
            command: command.to_string(),
            context: None,
            stages: snapshot.spans,
            counters: snapshot.counters,
            gauges: snapshot.gauges,
            histograms: snapshot.histograms,
            histogram_quantiles,
            corpus: None,
            evaluation: None,
            profile: None,
        }
    }

    /// Total wall-clock time across the root stages, in nanoseconds.
    pub fn total_duration_ns(&self) -> u64 {
        self.stages.iter().map(|s| s.duration_ns).sum()
    }

    /// Serializes the report as pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Returns a `serde_json::Error` if serialization fails.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Restores a report previously produced by [`RunReport::to_json`].
    ///
    /// Reports without a `schema_version` field are treated as version 1
    /// (pre-versioning) and accepted.
    ///
    /// # Errors
    ///
    /// Returns [`ReportError`] if `json` is not a valid report or was
    /// written by a newer schema version than this build supports.
    pub fn from_json(json: &str) -> Result<Self, ReportError> {
        let report: Self = serde_json::from_str(json)?;
        if report.schema_version > SCHEMA_VERSION {
            return Err(ReportError::UnsupportedVersion {
                found: report.schema_version,
                supported: SCHEMA_VERSION,
            });
        }
        Ok(report)
    }

    /// Writes the report as JSON to `path`.
    ///
    /// # Errors
    ///
    /// Returns an `io::Error` if serialization or the write fails.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let json = self.to_json().map_err(std::io::Error::other)?;
        std::fs::write(path, json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        let mut histograms = BTreeMap::new();
        let mut h = Histogram::new(&[1.0, 10.0]);
        h.record(0.5);
        h.record(42.0);
        histograms.insert("nn.epoch_loss".to_string(), h);
        let histogram_quantiles = histograms
            .iter()
            .filter_map(|(name, h)| Some((name.clone(), h.quantiles()?)))
            .collect();
        RunReport {
            schema_version: SCHEMA_VERSION,
            tool_version: "0.1.0".into(),
            command: "train".into(),
            context: Some(RunContext {
                invocation: "noodle train --fast --corpus-seed 3".into(),
                seed: Some(3),
                version: "0.1.0".into(),
                observe_addr: Some("127.0.0.1:43817".into()),
                simd: Some("avx2+fma".into()),
            }),
            stages: vec![SpanRecord {
                name: "train".into(),
                attrs: vec![("corpus_seed".into(), "3".into())],
                start_ns: 10,
                duration_ns: 5_000,
                children: vec![SpanRecord {
                    name: "cnn.fit".into(),
                    attrs: vec![("modality".into(), "graph".into())],
                    start_ns: 20,
                    duration_ns: 3_000,
                    children: Vec::new(),
                    trace_id: String::new(),
                }],
                trace_id: "00c0ffee00c0ffee".into(),
            }],
            counters: BTreeMap::from([("verilog.parse_calls".to_string(), 15)]),
            gauges: BTreeMap::from([("brier.late".to_string(), 0.08)]),
            histograms,
            histogram_quantiles,
            corpus: Some(CorpusSummary {
                total: 15,
                trojan_free: 10,
                trojan_infected: 5,
                mean_lines: 80.5,
                distinct_trojans: 4,
            }),
            evaluation: Some(EvaluationSummary {
                winner: "LateFusion".into(),
                brier: BTreeMap::from([("LateFusion".to_string(), 0.08)]),
            }),
            profile: None,
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let report = sample_report();
        let json = report.to_json().unwrap();
        let restored = RunReport::from_json(&json).unwrap();
        assert_eq!(report, restored);
    }

    #[test]
    fn golden_schema_keys_are_stable() {
        // Downstream tooling parses these field names; changing them is a
        // breaking schema change and must update this test deliberately.
        let json = sample_report().to_json().unwrap();
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        for key in [
            "schema_version",
            "tool_version",
            "command",
            "context",
            "stages",
            "counters",
            "gauges",
            "histograms",
            "histogram_quantiles",
            "corpus",
            "evaluation",
        ] {
            assert!(value.get(key).is_some(), "missing top-level key `{key}`");
        }
        let stage = &value["stages"][0];
        for key in ["name", "attrs", "start_ns", "duration_ns", "children"] {
            assert!(stage.get(key).is_some(), "missing span key `{key}`");
        }
        let hist = &value["histograms"]["nn.epoch_loss"];
        for key in ["bounds", "counts", "count", "sum", "min", "max", "values"] {
            assert!(hist.get(key).is_some(), "missing histogram key `{key}`");
        }
        let quantiles = &value["histogram_quantiles"]["nn.epoch_loss"];
        for key in ["p50", "p95", "p99"] {
            assert!(quantiles.get(key).is_some(), "missing quantile key `{key}`");
        }
        let context = &value["context"];
        for key in ["invocation", "seed", "version", "observe_addr"] {
            assert!(context.get(key).is_some(), "missing context key `{key}`");
        }
        assert_eq!(value["schema_version"], SCHEMA_VERSION);
        assert_eq!(value["evaluation"]["winner"], "LateFusion");
        assert_eq!(value["corpus"]["total"], 15);
    }

    #[test]
    fn optional_sections_are_omitted_when_absent() {
        let report = RunReport::from_snapshot("detect", TelemetrySnapshot::default());
        let json = report.to_json().unwrap();
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(value.get("corpus").is_none());
        assert!(value.get("evaluation").is_none());
        // And they default to None on the way back in.
        let restored = RunReport::from_json(&json).unwrap();
        assert_eq!(restored.corpus, None);
    }

    #[test]
    fn total_duration_sums_roots() {
        let report = sample_report();
        assert_eq!(report.total_duration_ns(), 5_000);
    }

    #[test]
    fn from_json_rejects_future_schema_versions() {
        let mut report = sample_report();
        report.schema_version = SCHEMA_VERSION + 1;
        let json = report.to_json().unwrap();
        let err = RunReport::from_json(&json).unwrap_err();
        assert!(matches!(
            err,
            ReportError::UnsupportedVersion { found, supported }
                if found == SCHEMA_VERSION + 1 && supported == SCHEMA_VERSION
        ));
        assert!(err.to_string().contains("schema version"));
    }

    #[test]
    fn pre_versioning_reports_read_back_as_version_one() {
        let mut report = sample_report();
        report.context = None;
        let json = report.to_json().unwrap();
        let mut value: serde_json::Value = serde_json::from_str(&json).unwrap();
        value.as_object_mut().unwrap().remove("schema_version");
        let restored = RunReport::from_json(&value.to_string()).unwrap();
        assert_eq!(restored.schema_version, 1);
        assert_eq!(restored.context, None);
    }

    #[test]
    fn snapshot_quantiles_are_surfaced() {
        let mut snapshot = TelemetrySnapshot::default();
        let mut h = Histogram::new(&Histogram::default_bounds());
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        snapshot.histograms.insert("detect.latency_us".to_string(), h);
        let report = RunReport::from_snapshot("detect", snapshot);
        let q = report.histogram_quantiles.get("detect.latency_us").unwrap();
        assert_eq!(q.p50, 2.0);
        assert_eq!(q.p99, 4.0);
    }
}
