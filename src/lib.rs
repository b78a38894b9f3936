//! # NOODLE — uncertainty-aware hardware Trojan detection in Rust
//!
//! A from-scratch Rust reproduction of *"Uncertainty-Aware Hardware Trojan
//! Detection Using Multimodal Deep Learning"* (Vishwakarma & Rezaei,
//! DATE 2024). This facade crate re-exports the full workspace:
//!
//! | Module | Crate | What it provides |
//! |---|---|---|
//! | [`verilog`] | `noodle-verilog` | Verilog-2001 subset lexer/parser/AST/printer |
//! | [`bench_gen`] | `noodle-bench-gen` | synthetic TrustHub-like corpus + RTL Trojan insertion |
//! | [`graph`] | `noodle-graph` | circuit graphs, graph statistics, graph-image embeddings |
//! | [`tabular`] | `noodle-tabular` | code-branching tabular features |
//! | [`nn`] | `noodle-nn` | tensors, CNN layers, losses, optimizers |
//! | [`gan`] | `noodle-gan` | class-conditional GAN amplification + cross-modal imputation |
//! | [`conformal`] | `noodle-conformal` | Mondrian ICP, p-value combination, prediction regions |
//! | [`metrics`] | `noodle-metrics` | Brier (+decompositions), ROC/AUC, calibration, radar |
//! | [`trace`] | `noodle-trace` | trace ids, per-thread event rings, flight and profile views, Chrome-trace export |
//! | [`telemetry`] | `noodle-telemetry` | spans, counters/histograms, run reports |
//! | [`observe`] | `noodle-observe` | prediction audit logs, coverage/drift monitors |
//! | [`export`] | `noodle-export` | live /metrics, /monitor and /healthz exposition server |
//! | [`core`] | `noodle-core` | the end-to-end NOODLE detector |
//! | [`serve`] | `noodle-serve` | long-running JSONL-over-TCP detection daemon |
//!
//! The most-used types are also re-exported at the crate root.
//!
//! ## Quickstart
//!
//! ```no_run
//! use noodle::{generate_corpus, CorpusConfig, MultimodalDataset, NoodleConfig, NoodleDetector};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), noodle::PipelineError> {
//! let corpus = generate_corpus(&CorpusConfig::default());
//! let dataset = MultimodalDataset::from_benchmarks(&corpus)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let mut detector = NoodleDetector::fit(&dataset, &NoodleConfig::default(), &mut rng)?;
//! let verdict = detector.detect(&corpus[0].source)?;
//! println!("{} infected={} p={:.3}", corpus[0].name, verdict.infected,
//!          verdict.probability_infected);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use noodle_bench_gen as bench_gen;
pub use noodle_compute as compute;
pub use noodle_conformal as conformal;
pub use noodle_core as core;
pub use noodle_export as export;
pub use noodle_gan as gan;
pub use noodle_graph as graph;
pub use noodle_metrics as metrics;
pub use noodle_nn as nn;
pub use noodle_observe as observe;
pub use noodle_serve as serve;
pub use noodle_tabular as tabular;
pub use noodle_telemetry as telemetry;
pub use noodle_trace as trace;
pub use noodle_verilog as verilog;

pub use noodle_bench_gen::{generate_corpus, Benchmark, CorpusConfig, Label, TrojanSpec};
pub use noodle_conformal::{Combiner, ConformalPrediction, MondrianIcp};
pub use noodle_core::{
    cross_validate, extract_modalities, CacheStats, CrossValidation, DetectRequest, Detection,
    EvaluationReport, FeatureCache, FusionStrategy, MultimodalDataset, NoodleConfig,
    NoodleDetector, PipelineError,
};
pub use noodle_export::ExportServer;
pub use noodle_metrics::{brier_score, roc_curve, RadarMetrics};
pub use noodle_observe::{
    AuditSink, Health, JsonlAudit, MonitorConfig, MonitorReport, MonitorSuite, PredictionRecord,
    RotatingJsonlAudit, StreamingMonitors,
};
pub use noodle_serve::{ServeConfig, ServeController, ServeEngine, ServeRequest, ServeResponse};
pub use noodle_telemetry::{RunReport, TelemetrySnapshot};
