//! The NOODLE detector: multimodal CNNs + Mondrian ICP + p-value fusion.
//!
//! [`NoodleDetector::fit`] implements Algorithm 2 of the paper end to end:
//! GAN amplification of the small corpus (less the real designs it sets
//! aside to calibrate the conformal predictors), per-modality CNN
//! training, early and late fusion with uncertainty-aware p-value
//! combination (Algorithm 1), and selection of the winning fusion strategy
//! by Brier score. The fitted detector then classifies new RTL with calibrated
//! uncertainty, including designs with a missing modality (imputed by a
//! conditional GAN).

use std::collections::BTreeMap;
use std::time::Instant;

use noodle_conformal::{nonconformity_from_proba, Combiner, ConformalPrediction, MondrianIcp};
use noodle_gan::{GanConfig, ImputerConfig, ModalityImputer};
use noodle_graph::{IMAGE_CHANNELS, IMAGE_SIZE};
use noodle_metrics::brier_score;
use noodle_nn::{ActScales, InferArena, QuantizedModel, Tensor, TrainConfig};
use noodle_observe::{
    emit_if, AuditHeader, AuditSink, CalibrationBaseline, PredictionRecord, ScoreBaseline,
    ServeInfo, SourceProbe, AUDIT_SCHEMA_VERSION,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::amplify::amplify_dataset;
use crate::classifier::{ModalityClassifier, ModalityKind};
use crate::dataset::{extract_modalities, MultimodalDataset, Split, GRAPH_DIM, TABULAR_DIM};
use crate::error::PipelineError;
use crate::feature_cache::FeatureCache;
use crate::normalize::ZScore;

/// All hyperparameters of the NOODLE pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoodleConfig {
    /// CNN training hyperparameters (identical for every modality).
    pub train: TrainConfig,
    /// GAN amplification hyperparameters.
    pub gan: GanConfig,
    /// Cross-modal imputer hyperparameters.
    pub imputer: ImputerConfig,
    /// Target samples per class after GAN amplification (the paper grows
    /// the corpus to ~500 points total; 250 per class).
    pub amplify_per_class: usize,
    /// P-value combination method for late fusion.
    pub combiner: Combiner,
    /// Fraction of the corpus used for CNN training. Under the
    /// paper-style evaluation it is a share of the amplified corpus: the
    /// amplification pool is split `train_frac / (1 − calib_frac)` into
    /// train and the rest into test.
    pub train_frac: f64,
    /// Fraction used for conformal calibration. Unless
    /// `amplified_calibration` is set, it is carved per class from the real
    /// designs outside the held-out test set before amplification, so the
    /// calibration set holds only real designs that neither the GAN nor the
    /// CNNs ever saw; with it set, it is a share of the amplified corpus.
    pub calib_frac: f64,
    /// Significance level ε for prediction regions.
    pub significance: f64,
    /// Whether to train the cross-modal imputers (needed only for
    /// missing-modality detection).
    pub train_imputers: bool,
    /// Evaluation protocol: `false` (paper-faithful) tests on a share of
    /// the amplified corpus, so the test split contains GAN-synthetic
    /// samples; `true` holds out *real* designs for testing before
    /// anything is amplified, and the whole amplified pool trains (no
    /// synthetic leakage into the evaluation).
    pub holdout_real_test: bool,
    /// Calibration protocol: `true` calibrates the ICPs on a share of the
    /// GAN-amplified corpus, as the paper does, so most calibration points
    /// are synthetic and real submissions are not exchangeable with them;
    /// `false` calibrates on real designs held out before amplification,
    /// which is what makes the Mondrian guarantee hold for served designs.
    /// Model files written before this field existed were calibrated the
    /// paper's way, so it reads `true` when absent.
    #[serde(default = "amplified_calibration_when_absent")]
    pub amplified_calibration: bool,
}

fn amplified_calibration_when_absent() -> bool {
    true
}

impl Default for NoodleConfig {
    fn default() -> Self {
        Self {
            train: TrainConfig { epochs: 10, batch_size: 16, lr: 1e-3 },
            gan: GanConfig::default(),
            imputer: ImputerConfig::default(),
            amplify_per_class: 250,
            combiner: Combiner::Fisher,
            train_frac: 0.56,
            calib_frac: 0.22,
            significance: 0.1,
            train_imputers: true,
            holdout_real_test: false,
            amplified_calibration: false,
        }
    }
}

impl NoodleConfig {
    /// A heavily down-scaled configuration for unit tests and examples that
    /// must run in seconds.
    pub fn fast() -> Self {
        Self {
            train: TrainConfig { epochs: 14, batch_size: 16, lr: 2e-3 },
            gan: GanConfig { epochs: 20, hidden_dim: 16, ..GanConfig::default() },
            imputer: ImputerConfig { epochs: 15, hidden_dim: 16, ..ImputerConfig::default() },
            amplify_per_class: 50,
            train_imputers: false,
            ..Self::default()
        }
    }
}

/// The four classification strategies the paper compares (Table I rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FusionStrategy {
    /// Graph modality CNN alone.
    GraphOnly,
    /// Tabular modality CNN alone.
    TabularOnly,
    /// Feature-level fusion: one CNN over the concatenated modalities.
    EarlyFusion,
    /// Decision-level fusion: conformal p-value combination per class.
    LateFusion,
}

impl FusionStrategy {
    /// All strategies in Table I order.
    pub const ALL: [FusionStrategy; 4] = [
        FusionStrategy::GraphOnly,
        FusionStrategy::TabularOnly,
        FusionStrategy::EarlyFusion,
        FusionStrategy::LateFusion,
    ];

    /// Human-readable name matching the paper's Table I.
    pub fn label(self) -> &'static str {
        match self {
            FusionStrategy::GraphOnly => "Graph-based Data",
            FusionStrategy::TabularOnly => "Tabular-based Data",
            FusionStrategy::EarlyFusion => "NOODLE - Early Fusion (Graph + Tabular)",
            FusionStrategy::LateFusion => "NOODLE - Late Fusion (Graph + Tabular)",
        }
    }
}

/// Per-strategy positive-class probabilities and Brier scores on the held-
/// out test split, captured during [`NoodleDetector::fit`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvaluationReport {
    /// Names of the test designs.
    pub test_names: Vec<String>,
    /// Ground-truth labels of the test designs (0 = TF, 1 = TI).
    pub test_labels: Vec<usize>,
    /// P(Trojan-infected) per test design, graph modality alone.
    pub graph_probs: Vec<f64>,
    /// P(Trojan-infected) per test design, tabular modality alone.
    pub tabular_probs: Vec<f64>,
    /// P(Trojan-infected) per test design, early fusion.
    pub early_probs: Vec<f64>,
    /// P(Trojan-infected) per test design, late fusion (normalized
    /// combined p-values).
    pub late_probs: Vec<f64>,
    /// Combined per-class p-values per test design (late fusion).
    pub late_p_values: Vec<[f64; 2]>,
    /// Per-class conformal p-values per test design, graph modality.
    pub graph_p_values: Vec<[f64; 2]>,
    /// Per-class conformal p-values per test design, tabular modality.
    pub tabular_p_values: Vec<[f64; 2]>,
    /// Brier score per strategy, in [`FusionStrategy::ALL`] order.
    pub brier: [f64; 4],
    /// The winning fusion strategy (lowest Brier among early/late).
    pub winner: FusionStrategy,
}

impl EvaluationReport {
    /// The Brier score of one strategy.
    pub fn brier_of(&self, strategy: FusionStrategy) -> f64 {
        let idx = FusionStrategy::ALL
            .iter()
            .position(|&s| s == strategy)
            .expect("strategy is one of ALL");
        self.brier[idx]
    }

    /// The probability series of one strategy.
    pub fn probs_of(&self, strategy: FusionStrategy) -> &[f64] {
        match strategy {
            FusionStrategy::GraphOnly => &self.graph_probs,
            FusionStrategy::TabularOnly => &self.tabular_probs,
            FusionStrategy::EarlyFusion => &self.early_probs,
            FusionStrategy::LateFusion => &self.late_probs,
        }
    }

    /// Test labels as booleans (`true` = Trojan-infected).
    pub fn test_outcomes(&self) -> Vec<bool> {
        self.test_labels.iter().map(|&l| l == 1).collect()
    }
}

/// One classification decision with calibrated uncertainty.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Detection {
    /// The hedged point decision: is the design Trojan-infected?
    pub infected: bool,
    /// Normalized probability of infection derived from the p-values.
    pub probability_infected: f64,
    /// The conformal prediction (per-class p-values).
    pub prediction: ConformalPrediction,
    /// Classes in the region at the configured significance.
    pub region: Vec<usize>,
    /// Credibility of the decision (largest p-value).
    pub credibility: f64,
    /// Confidence of the decision (1 − second-largest p-value).
    pub confidence: f64,
    /// Whether the region is uncertain (contains both classes) — the
    /// risk-aware "send to manual inspection" signal.
    pub uncertain: bool,
    /// Whether any modality was imputed rather than extracted.
    pub imputed_modality: bool,
    /// The strategy that produced the decision.
    pub strategy: FusionStrategy,
}

/// One named screening request for [`NoodleDetector::detect_batch`].
#[derive(Debug, Clone, Copy)]
pub struct DetectRequest<'a> {
    /// Design identifier carried into audit records and verdict output.
    pub design: &'a str,
    /// Verilog source text to screen.
    pub source: &'a str,
    /// Optional ground-truth label (0 = TF, 1 = TI) for offline monitors.
    pub label: Option<usize>,
    /// Pre-minted trace context for this request. A serving layer that
    /// mints a context at admission passes it here so the audit record,
    /// telemetry exemplars and flight-recorder events all carry the
    /// admission-time id; `None` (the CLI/batch default) derives a
    /// deterministic per-index context from the call's base context, which
    /// preserves the bit-identical batching contract.
    pub trace: Option<noodle_trace::TraceContext>,
}

/// Latency attribution carried into one audit record: the per-file share
/// plus the size and wall time of the enclosing micro-batch.
#[derive(Debug, Clone, Copy)]
struct AuditTiming {
    latency_us: f64,
    batch_latency_us: f64,
    batch_size: usize,
}

/// What one pipeline request screens: Verilog source, or modality vectors
/// supplied directly (a missing one is imputed).
#[derive(Debug, Clone, Copy)]
enum Input<'a> {
    Source(&'a str),
    Vectors(Option<&'a [f32]>, Option<&'a [f32]>),
}

/// One request through the detection pipeline: a [`DetectRequest`] whose
/// input may also be supplied modality vectors.
#[derive(Debug, Clone, Copy)]
struct Request<'a> {
    design: &'a str,
    input: Input<'a>,
    label: Option<usize>,
    trace: Option<noodle_trace::TraceContext>,
}

/// Stage 1's output for one request: both modality vectors, and which of
/// them were present rather than imputed.
struct Features {
    graph: Vec<f32>,
    tabular: Vec<f32>,
    graph_present: bool,
    tabular_present: bool,
}

impl Features {
    fn extracted(graph: Vec<f32>, tabular: Vec<f32>) -> Self {
        Self { graph, tabular, graph_present: true, tabular_present: true }
    }
}

/// Stage 2's output for one request: its p-values, the audit evidence
/// gathered with them and its share of the micro-batch's time.
struct Scored {
    prediction: ConformalPrediction,
    probes: Vec<SourceProbe>,
    timing: AuditTiming,
    prof_start_ns: u64,
}

/// What a model file keeps of the int8 post-training-quantized serving
/// twins of the three CNNs: each CNN's activation scales, calibrated at
/// fit time on the ICP calibration split, and the calibration-set Brier
/// scores of both serving paths.
///
/// The detector serves from the float networks by default;
/// [`NoodleDetector::set_quantized`] rebuilds the twins from the float
/// networks and these scales and switches the CNN forwards to them
/// (everything else — normalization, conformal p-values, fusion — is
/// unchanged). The Brier scores let deployments gate quantization on
/// measured calibration quality instead of hoping.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantizedNets {
    graph: ActScales,
    tabular: ActScales,
    early: ActScales,
    /// Calibration-set Brier scores of the float CNNs, in
    /// `[graph, tabular, early_fusion]` order.
    calib_brier_f32: [f64; 3],
    /// The same statistic served through the int8 path.
    calib_brier_int8: [f64; 3],
}

impl QuantizedNets {
    /// Calibration-set Brier scores of the float CNNs, in
    /// `[graph, tabular, early_fusion]` order.
    pub fn calib_brier_f32(&self) -> [f64; 3] {
        self.calib_brier_f32
    }

    /// Calibration-set Brier scores of the int8 twins, in the same order.
    pub fn calib_brier_int8(&self) -> [f64; 3] {
        self.calib_brier_int8
    }

    /// Each CNN with the activation scales of its twin.
    fn per_net<'a>(
        &'a self,
        detector: &'a NoodleDetector,
    ) -> [(&'a ModalityClassifier, &'a ActScales); 3] {
        [
            (&detector.graph_clf, &self.graph),
            (&detector.tabular_clf, &self.tabular),
            (&detector.early_clf, &self.early),
        ]
    }
}

/// The int8 twins of the three CNNs, built when quantized serving is
/// switched on.
#[derive(Debug)]
struct Twins {
    graph: QuantizedModel,
    tabular: QuantizedModel,
    early: QuantizedModel,
}

impl Twins {
    /// The quantized twin serving the given modality.
    fn for_kind(&self, kind: ModalityKind) -> &QuantizedModel {
        match kind {
            ModalityKind::Graph => &self.graph,
            ModalityKind::Tabular => &self.tabular,
            ModalityKind::EarlyFusion => &self.early,
        }
    }
}

/// The whole detector — CNNs, normalizer, conformal calibration, imputers
/// and the captured evaluation — serializes with [`NoodleDetector::to_json`]
/// so a model can be trained once and deployed.
#[derive(Debug, Serialize, Deserialize)]
pub struct NoodleDetector {
    config: NoodleConfig,
    graph_clf: ModalityClassifier,
    tabular_clf: ModalityClassifier,
    early_clf: ModalityClassifier,
    tabular_norm: ZScore,
    icp_graph: MondrianIcp,
    icp_tabular: MondrianIcp,
    icp_early: MondrianIcp,
    imputer_graph_to_tab: Option<ModalityImputer>,
    imputer_tab_to_graph: Option<ModalityImputer>,
    evaluation: EvaluationReport,
    /// Calibration-time reference distributions for drift monitoring,
    /// persisted with the model (absent in detectors fitted before the
    /// observability layer existed).
    #[serde(default)]
    baseline: Option<CalibrationBaseline>,
    /// Activation scales and Brier scores of the int8 serving twins
    /// (absent in detectors fitted before the quantized path existed).
    #[serde(default)]
    quantized: Option<QuantizedNets>,
    /// The int8 twins detect calls serve from, present while quantized
    /// serving is on; runtime-only, never serialized.
    #[serde(skip)]
    twins: Option<Twins>,
    /// Attached audit sink; runtime-only, never serialized.
    #[serde(skip)]
    audit: Option<Box<dyn AuditSink>>,
    /// Monotonic sequence number for emitted audit records.
    #[serde(skip)]
    audit_seq: u64,
    /// Serving-daemon provenance stamped into audit headers when this
    /// detector serves behind `noodle serve`; runtime-only, never
    /// serialized.
    #[serde(skip)]
    serve: Option<ServeInfo>,
}

impl NoodleDetector {
    /// Fits the full pipeline on a multimodal dataset (Algorithm 2).
    ///
    /// Per class, `calib_frac` of the real designs (outside the held-out
    /// test set under `holdout_real_test`) is set aside for conformal
    /// calibration before anything is amplified; the rest is GAN-amplified
    /// and trains the CNNs. The paper-style evaluation tests on a share of
    /// that amplified pool; `holdout_real_test` tests on real designs held
    /// out first. `amplified_calibration` restores the paper's protocol of
    /// calibrating on the amplified corpus.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] if the dataset is too small to split into
    /// train/calibration/test parts with both classes present, or if
    /// conformal calibration fails.
    pub fn fit<R: Rng + ?Sized>(
        dataset: &MultimodalDataset,
        config: &NoodleConfig,
        rng: &mut R,
    ) -> Result<Self, PipelineError> {
        if dataset.class_count(0) < 2 || dataset.class_count(1) < 2 {
            return Err(PipelineError::Dataset("need at least two samples of each class".into()));
        }
        let _span = noodle_telemetry::span!("pipeline.fit", designs = dataset.len());

        // Steps 1–2: stratified splitting and GAN amplification
        // (class-conditional, joint modalities). With `holdout_real_test`
        // the test split is carved from the *real* designs first — the
        // leakage-free protocol; otherwise it comes from the amplified pool.
        let split_seed = rng.random::<u64>();
        let test_indices: Vec<usize> = if config.holdout_real_test {
            let test_frac = 1.0 - config.train_frac - config.calib_frac;
            let real = dataset.split(1.0 - test_frac - 1e-9, test_frac / 2.0, split_seed);
            // `real.calibration` and `real.test` together form the held-out
            // real test set.
            real.calibration.iter().chain(&real.test).copied().collect()
        } else {
            Vec::new()
        };
        let (amplified, split) = prepare(dataset, &test_indices, config, split_seed, rng)?;
        Self::fit_prepared(amplified, split, config, rng)
    }

    /// Fits the pipeline with an explicit held-out real test set. Per
    /// class, `calib_frac` of the other designs calibrates the ICPs; the
    /// rest is GAN-amplified and all of it trains (with
    /// `amplified_calibration`, the amplified pool is split into train and
    /// calibration instead). The held-out designs form the evaluation
    /// split. This is the building block of [`crate::cross_validate`].
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] under the same conditions as
    /// [`NoodleDetector::fit`], or if `test_indices` is empty or covers the
    /// whole dataset.
    pub fn fit_holdout<R: Rng + ?Sized>(
        dataset: &MultimodalDataset,
        test_indices: &[usize],
        config: &NoodleConfig,
        rng: &mut R,
    ) -> Result<Self, PipelineError> {
        if test_indices.is_empty() || test_indices.len() >= dataset.len() {
            return Err(PipelineError::Dataset(
                "holdout must leave both a pool and a test set".into(),
            ));
        }
        let _span = noodle_telemetry::span!(
            "pipeline.fit",
            designs = dataset.len(),
            holdout = test_indices.len(),
        );
        let split_seed = rng.random::<u64>();
        let (amplified, split) = prepare(dataset, test_indices, config, split_seed, rng)?;
        Self::fit_prepared(amplified, split, config, rng)
    }

    fn fit_prepared<R: Rng + ?Sized>(
        amplified: MultimodalDataset,
        split: Split,
        config: &NoodleConfig,
        rng: &mut R,
    ) -> Result<Self, PipelineError> {
        // Step 3: modality tensors.
        let tensors_span = noodle_telemetry::span!("dataset.tensors");
        let tabular_norm = ZScore::fit(&amplified.tabular_matrix(&split.train));
        let graph_train = amplified.graph_tensor(&split.train);
        let tab_train = tab_input(&amplified, &split.train, &tabular_norm);
        let early_train = early_input(&amplified, &split.train, &tabular_norm);
        let train_labels = amplified.labels(&split.train);
        drop(tensors_span);

        // Step 4: three CNNs with identical hyperparameters.
        let mut graph_clf = ModalityClassifier::new(ModalityKind::Graph, rng);
        let mut tabular_clf = ModalityClassifier::new(ModalityKind::Tabular, rng);
        let mut early_clf = ModalityClassifier::new(ModalityKind::EarlyFusion, rng);
        graph_clf.fit(&graph_train, &train_labels, &config.train, rng);
        tabular_clf.fit(&tab_train, &train_labels, &config.train, rng);
        early_clf.fit(&early_train, &train_labels, &config.train, rng);

        // Step 5: Mondrian ICP calibration per source (Algorithm 1).
        let calib_labels = amplified.labels(&split.calibration);
        let calib_graph = amplified.graph_tensor(&split.calibration);
        let calib_tab = tab_input(&amplified, &split.calibration, &tabular_norm);
        let calib_early = early_input(&amplified, &split.calibration, &tabular_norm);
        let (icp_graph, graph_min_scores) = calibrate(&graph_clf, &calib_graph, &calib_labels)?;
        let (icp_tabular, tabular_min_scores) = calibrate(&tabular_clf, &calib_tab, &calib_labels)?;
        let (icp_early, early_min_scores) = calibrate(&early_clf, &calib_early, &calib_labels)?;

        // Step 5b: int8 serving twins, calibrated on the same split the
        // ICP sees, with the calibration-set Brier score of both paths
        // captured so the quantization quality is measurable at serve
        // time (and gated in CI).
        let quantized = {
            let _span = noodle_telemetry::span!("quantize.calibrate", samples = calib_labels.len());
            let calib_outcomes: Vec<bool> = calib_labels.iter().map(|&l| l == 1).collect();
            let mut arena = InferArena::new();
            let (graph_scales, graph_briers) =
                quantize_source(&graph_clf, &calib_graph, &calib_outcomes, &mut arena);
            let (tabular_scales, tabular_briers) =
                quantize_source(&tabular_clf, &calib_tab, &calib_outcomes, &mut arena);
            let (early_scales, early_briers) =
                quantize_source(&early_clf, &calib_early, &calib_outcomes, &mut arena);
            Some(QuantizedNets {
                graph: graph_scales,
                tabular: tabular_scales,
                early: early_scales,
                calib_brier_f32: [graph_briers.0, tabular_briers.0, early_briers.0],
                calib_brier_int8: [graph_briers.1, tabular_briers.1, early_briers.1],
            })
        };

        // Step 6: evaluate every strategy on the test split.
        let fusion_span =
            noodle_telemetry::span!("fusion.evaluate", test_samples = split.test.len());
        let test_labels = amplified.labels(&split.test);
        let graph_proba = graph_clf.predict_proba(&amplified.graph_tensor(&split.test));
        let tab_proba =
            tabular_clf.predict_proba(&tab_input(&amplified, &split.test, &tabular_norm));
        let early_proba =
            early_clf.predict_proba(&early_input(&amplified, &split.test, &tabular_norm));

        let n_test = split.test.len();
        let mut late_probs = Vec::with_capacity(n_test);
        let mut late_p_values = Vec::with_capacity(n_test);
        let mut graph_p_values = Vec::with_capacity(n_test);
        let mut tabular_p_values = Vec::with_capacity(n_test);
        for i in 0..n_test {
            let pg = icp_graph.p_values(&scores_from_proba(graph_proba.row(i)));
            let pt = icp_tabular.p_values(&scores_from_proba(tab_proba.row(i)));
            let fused: Vec<f64> =
                (0..2).map(|c| config.combiner.combine(&[pg[c], pt[c]])).collect();
            late_probs.push(fused[1] / (fused[0] + fused[1]));
            late_p_values.push([fused[0], fused[1]]);
            graph_p_values.push([pg[0], pg[1]]);
            tabular_p_values.push([pt[0], pt[1]]);
        }

        let outcomes: Vec<bool> = test_labels.iter().map(|&l| l == 1).collect();
        let graph_probs: Vec<f64> = (0..n_test).map(|i| graph_proba.row(i)[1] as f64).collect();
        let tabular_probs: Vec<f64> = (0..n_test).map(|i| tab_proba.row(i)[1] as f64).collect();
        let early_probs: Vec<f64> = (0..n_test).map(|i| early_proba.row(i)[1] as f64).collect();
        let brier = [
            brier_score(&graph_probs, &outcomes),
            brier_score(&tabular_probs, &outcomes),
            brier_score(&early_probs, &outcomes),
            brier_score(&late_probs, &outcomes),
        ];
        // Algorithm 2 step 8: choose the winning *fusion* method by Brier.
        let winner = if brier[3] <= brier[2] {
            FusionStrategy::LateFusion
        } else {
            FusionStrategy::EarlyFusion
        };
        let evaluation = EvaluationReport {
            test_names: split.test.iter().map(|&i| amplified.samples()[i].name.clone()).collect(),
            test_labels,
            graph_probs,
            tabular_probs,
            early_probs,
            late_probs,
            late_p_values,
            graph_p_values,
            tabular_p_values,
            brier,
            winner,
        };
        if noodle_telemetry::enabled() {
            for (strategy, value) in FusionStrategy::ALL.iter().zip(&evaluation.brier) {
                noodle_telemetry::gauge_set(&format!("brier.{strategy:?}"), *value);
            }
        }
        drop(fusion_span);

        // Step 7: optional cross-modal imputers for missing modalities.
        let (imputer_graph_to_tab, imputer_tab_to_graph) = if config.train_imputers {
            let _imputer_span = noodle_telemetry::span!("imputer.train");
            let g = amplified.graph_matrix(&split.train);
            let t = amplified.tabular_matrix(&split.train);
            (
                Some(ModalityImputer::train(&g, &t, &config.imputer, rng)),
                Some(ModalityImputer::train(&t, &g, &config.imputer, rng)),
            )
        } else {
            (None, None)
        };

        // Persist the fit-time reference the serve-time monitors compare
        // against: per-source score distributions, class balance, the
        // winner's Brier score.
        let mut baseline_sources = BTreeMap::new();
        for (name, scores) in [
            ("graph", &graph_min_scores),
            ("tabular", &tabular_min_scores),
            ("early_fusion", &early_min_scores),
        ] {
            if let Some(b) = ScoreBaseline::from_scores(scores, 10) {
                baseline_sources.insert(name.to_string(), b);
            }
        }
        let infected = calib_labels.iter().filter(|&&l| l == 1).count();
        let baseline = Some(CalibrationBaseline {
            sources: baseline_sources,
            class_balance: infected as f64 / calib_labels.len().max(1) as f64,
            winner_brier: evaluation.brier_of(winner),
            significance: config.significance,
            calibration_count: calib_labels.len(),
        });

        Ok(Self {
            config: *config,
            graph_clf,
            tabular_clf,
            early_clf,
            tabular_norm,
            icp_graph,
            icp_tabular,
            icp_early,
            imputer_graph_to_tab,
            imputer_tab_to_graph,
            evaluation,
            baseline,
            quantized,
            twins: None,
            audit: None,
            audit_seq: 0,
            serve: None,
        })
    }

    /// The test-split evaluation captured during fitting.
    pub fn evaluation(&self) -> &EvaluationReport {
        &self.evaluation
    }

    /// The winning fusion strategy.
    pub fn winner(&self) -> FusionStrategy {
        self.evaluation.winner
    }

    /// The labels that no prediction region of `strategy` can leave out at
    /// the configured significance. A class-`c` p-value is at least
    /// `1 / (n_c + 1)`, where `n_c` counts that class's calibration
    /// designs (late fusion combines the graph and tabular floors). While
    /// that floor exceeds ε, every region holds `c`, so a verdict that
    /// needs `c` left out reads uncertain whatever the CNNs say. A single
    /// ICP needs `n_c ≥ ⌈1/ε⌉ − 1` to clear it.
    pub fn labels_never_excluded(&self, strategy: FusionStrategy) -> Vec<usize> {
        let floor = |icp: &MondrianIcp, c: usize| 1.0 / (icp.calibration_count(c) as f64 + 1.0);
        (0..2)
            .filter(|&c| {
                let p = match strategy {
                    FusionStrategy::GraphOnly => floor(&self.icp_graph, c),
                    FusionStrategy::TabularOnly => floor(&self.icp_tabular, c),
                    FusionStrategy::EarlyFusion => floor(&self.icp_early, c),
                    FusionStrategy::LateFusion => self
                        .config
                        .combiner
                        .combine(&[floor(&self.icp_graph, c), floor(&self.icp_tabular, c)]),
                };
                p > self.config.significance
            })
            .collect()
    }

    /// The configuration the detector was fitted with.
    pub fn config(&self) -> &NoodleConfig {
        &self.config
    }

    /// The calibration baseline persisted at fit time, if any (detectors
    /// serialized before the observability layer carry none).
    pub fn baseline(&self) -> Option<&CalibrationBaseline> {
        self.baseline.as_ref()
    }

    /// The int8 serving twins' scales and Brier scores persisted at fit
    /// time, if any (detectors serialized before the quantized path existed
    /// carry none).
    pub fn quantized_nets(&self) -> Option<&QuantizedNets> {
        self.quantized.as_ref()
    }

    /// Switches CNN serving between the float networks (`false`, the
    /// default) and the int8 post-training-quantized twins (`true`), which
    /// are built here from the float networks and the stored activation
    /// scales. Everything downstream of the softmax — conformal p-values,
    /// fusion, regions, audit — is identical code in both modes.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Dataset`] when enabling quantization on a
    /// model that carries no quantized section (fitted before the int8
    /// path existed; refit to generate one) or whose scales do not fit
    /// its networks.
    pub fn set_quantized(&mut self, on: bool) -> Result<(), PipelineError> {
        if !on {
            self.twins = None;
            return Ok(());
        }
        if self.twins.is_some() {
            return Ok(());
        }
        let Some(quantized) = &self.quantized else {
            return Err(PipelineError::Dataset(
                "this model carries no quantized section; refit to generate one".into(),
            ));
        };
        let [graph, tabular, early] = quantized.per_net(self).map(|(clf, scales)| {
            QuantizedModel::from_scales(clf.net(), scales).map_err(|e| {
                PipelineError::Dataset(format!("{} int8 twin: {e}", clf.modality_name()))
            })
        });
        self.twins = Some(Twins { graph: graph?, tabular: tabular?, early: early? });
        Ok(())
    }

    /// Whether detect calls currently serve from the int8 twins.
    pub fn is_quantized(&self) -> bool {
        self.twins.is_some()
    }

    /// The audit-log header describing this detector (schema version,
    /// significance, winning strategy, calibration baseline).
    pub fn audit_header(&self) -> AuditHeader {
        AuditHeader {
            schema_version: AUDIT_SCHEMA_VERSION,
            tool_version: env!("CARGO_PKG_VERSION").to_string(),
            significance: self.config.significance,
            strategy: format!("{:?}", self.evaluation.winner),
            simd: noodle_compute::active_isa().name().to_string(),
            quantized: self.is_quantized(),
            baseline: self.baseline.clone(),
            serve: self.serve.clone(),
        }
    }

    /// Stamps serving-daemon provenance (bind address, batch deadline,
    /// queue capacity) into every audit header this detector emits. Call
    /// before [`NoodleDetector::set_audit_sink`] so the header that opens
    /// the log already carries it.
    pub fn set_serve_info(&mut self, serve: Option<ServeInfo>) {
        self.serve = serve;
    }

    /// Attaches an audit sink: the header is sent immediately and every
    /// subsequent `detect` call emits a [`PredictionRecord`]. With no sink
    /// attached the detect path pays nothing for the audit feature.
    pub fn set_audit_sink(&mut self, mut sink: Box<dyn AuditSink>) {
        sink.header(&self.audit_header());
        self.audit = Some(sink);
    }

    /// Detaches and returns the audit sink, if one was attached.
    pub fn take_audit_sink(&mut self) -> Option<Box<dyn AuditSink>> {
        self.audit.take()
    }

    /// Serializes the fitted detector (networks, calibration, imputers,
    /// evaluation) to JSON.
    ///
    /// # Errors
    ///
    /// Returns a `serde_json::Error` if serialization fails.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Restores a detector previously produced by
    /// [`NoodleDetector::to_json`], in this version's format or an earlier
    /// one. Every tensor and layer is checked as it loads; then each CNN
    /// must map its modality's input to class scores, each imputer and
    /// the tabular normalizer must be as wide as the modalities they
    /// serve, and the quantized section must hold one activation scale per
    /// GEMM layer of each CNN.
    ///
    /// # Errors
    ///
    /// Returns a `serde_json::Error` if `json` is not a valid detector.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        let detector: Self = serde_json::from_str(json)?;
        detector.check().map_err(serde_json::Error::custom)?;
        Ok(detector)
    }

    /// The shape checks of [`NoodleDetector::from_json`].
    fn check(&self) -> Result<(), String> {
        for clf in [&self.graph_clf, &self.tabular_clf, &self.early_clf] {
            clf.check().map_err(|e| format!("{} net: {e}", clf.modality_name()))?;
        }
        self.tabular_norm.check(TABULAR_DIM)?;
        for (name, imputer, dims) in [
            ("graph-to-tabular", &self.imputer_graph_to_tab, (GRAPH_DIM, TABULAR_DIM)),
            ("tabular-to-graph", &self.imputer_tab_to_graph, (TABULAR_DIM, GRAPH_DIM)),
        ] {
            let Some(imputer) = imputer else { continue };
            if (imputer.source_dim(), imputer.target_dim()) != dims {
                return Err(format!(
                    "{name} imputer maps {} to {}",
                    imputer.source_dim(),
                    imputer.target_dim()
                ));
            }
            imputer.check().map_err(|e| format!("{name} imputer: {e}"))?;
        }
        if let Some(quantized) = &self.quantized {
            for (clf, scales) in quantized.per_net(self) {
                scales
                    .check(clf.net())
                    .map_err(|e| format!("quantized section, {} net: {e}", clf.modality_name()))?;
            }
        }
        Ok(())
    }

    /// Classifies an RTL design given as Verilog source text, using the
    /// winning fusion strategy.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] if the source fails to parse.
    pub fn detect(&mut self, source: &str) -> Result<Detection, PipelineError> {
        self.detect_named("", source, None)
    }

    /// Classifies like [`NoodleDetector::detect`], carrying a design
    /// identifier and an optional ground-truth label (0 = TF, 1 = TI) into
    /// the audit record — the label powers the offline coverage and Brier
    /// monitors.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] if the source fails to parse.
    pub fn detect_named(
        &mut self,
        design: &str,
        source: &str,
        label: Option<usize>,
    ) -> Result<Detection, PipelineError> {
        self.detect_one(design, Input::Source(source), label)
    }

    /// Classifies from raw modality vectors; either modality may be missing
    /// and is then imputed by the conditional GAN (Algorithm 2, step 3).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Dataset`] if both modalities are missing, a
    /// vector has the wrong length, or imputation is required but the
    /// detector was fitted with `train_imputers = false`.
    pub fn detect_features(
        &mut self,
        graph: Option<&[f32]>,
        tabular: Option<&[f32]>,
    ) -> Result<Detection, PipelineError> {
        self.detect_one("", Input::Vectors(graph, tabular), None)
    }

    /// Runs one request through the pipeline as a batch of one. The request
    /// inherits the caller's ambient trace context (so an outer service can
    /// stitch its own trace through), or mints one.
    fn detect_one(
        &mut self,
        design: &str,
        input: Input<'_>,
        label: Option<usize>,
    ) -> Result<Detection, PipelineError> {
        let ctx = noodle_trace::current().unwrap_or_else(noodle_trace::TraceContext::mint);
        let _trace = noodle_trace::set_current(ctx);
        let request = Request { design, input, label, trace: Some(ctx) };
        let strategy = self.evaluation.winner;
        self.pipeline(&[request], strategy, 1, None).pop().expect("one result per request")
    }

    /// Screens many designs and returns one result per request, in request
    /// order: a design that fails to parse gets its error, and the others
    /// are screened as if it were not there. Modality extraction fans out
    /// over the compute pool (consulting the optional [`FeatureCache`]
    /// first), then CNN forwards run as micro-batches of up to `batch_size`
    /// designs through a reusable, allocation-free inference arena.
    ///
    /// Every kernel on the fast path is row-independent, so verdicts,
    /// p-values and audit records are bit-identical to calling
    /// [`NoodleDetector::detect_named`] once per design, in request order,
    /// at every batch size and thread count. Each design that succeeds gets
    /// one audit record, in request order; records carry the micro-batch
    /// size and wall time, and the per-file latency is the batch's share,
    /// measured from after feature extraction.
    pub fn screen(
        &mut self,
        requests: &[DetectRequest<'_>],
        batch_size: usize,
        cache: Option<&mut FeatureCache>,
    ) -> Vec<Result<Detection, PipelineError>> {
        let requests: Vec<Request<'_>> = requests
            .iter()
            .map(|r| Request {
                design: r.design,
                input: Input::Source(r.source),
                label: r.label,
                trace: r.trace,
            })
            .collect();
        let strategy = self.evaluation.winner;
        self.pipeline(&requests, strategy, batch_size, cache)
    }

    /// [`NoodleDetector::screen`] for callers that need every design to
    /// succeed.
    ///
    /// # Errors
    ///
    /// Returns the first [`PipelineError`] in request order if any source
    /// fails to parse. The other designs were screened all the same: each
    /// has its audit record, in request order.
    pub fn detect_batch(
        &mut self,
        requests: &[DetectRequest<'_>],
        batch_size: usize,
        cache: Option<&mut FeatureCache>,
    ) -> Result<Vec<Detection>, PipelineError> {
        self.screen(requests, batch_size, cache).into_iter().collect()
    }

    /// The detection pipeline (Algorithm 2) over a slice of requests, in
    /// three stages: features, micro-batched forwards with p-values, then
    /// per request the decision, audit record and flight record. Returns
    /// one result per request, in request order.
    fn pipeline(
        &mut self,
        requests: &[Request<'_>],
        strategy: FusionStrategy,
        batch_size: usize,
        mut cache: Option<&mut FeatureCache>,
    ) -> Vec<Result<Detection, PipelineError>> {
        let n = requests.len();
        let batch_size = batch_size.max(1);
        // One base context for the whole call; design `i` gets the pure
        // derivation `base.derived(i)` unless the request carries its own
        // context, so extraction (on pool threads) and inference and audit
        // (on this thread) stamp the same per-design id at every thread
        // count and batch size.
        let base = noodle_trace::current().unwrap_or_else(noodle_trace::TraceContext::mint);
        let request_ctx = |i: usize| requests[i].trace.unwrap_or_else(|| base.derived(i as u64));
        let _trace = noodle_trace::set_current(base);
        let _span = noodle_telemetry::span!("detect.batch", files = n, batch = batch_size);
        let started = Instant::now();

        // Stage 1: features. Cache lookups run first (sequential, they
        // mutate LRU state), supplied vectors are checked and a missing
        // modality imputed row by row; the cache misses then fan out over
        // the compute pool in request order.
        let mut features: Vec<Option<Result<Features, PipelineError>>> = requests
            .iter()
            .map(|r| match r.input {
                Input::Source(source) => {
                    let hit = cache.as_deref_mut().and_then(|c| c.lookup(source));
                    hit.map(|(graph, tabular)| Ok(Features::extracted(graph, tabular)))
                }
                Input::Vectors(graph, tabular) => Some(self.supplied(graph, tabular)),
            })
            .collect();
        let misses: Vec<(usize, &str)> = (0..n)
            .filter_map(|i| match requests[i].input {
                Input::Source(source) if features[i].is_none() => Some((i, source)),
                _ => None,
            })
            .collect();
        let extracted = noodle_compute::par_map_collect(misses.len(), 1, |j| {
            let (i, source) = misses[j];
            let _trace = noodle_trace::set_current(request_ctx(i));
            extract_modalities(source)
        });
        for (&(i, source), result) in misses.iter().zip(extracted) {
            features[i] = Some(result.map(|(graph, tabular)| {
                if let Some(c) = cache.as_deref_mut() {
                    c.insert(source, graph.clone(), tabular.clone());
                }
                Features::extracted(graph, tabular)
            }));
        }
        let features: Vec<Result<Features, PipelineError>> =
            features.into_iter().map(|f| f.expect("stage 1 answers every request")).collect();

        // Stage 2: micro-batched CNN forwards + conformal p-values over the
        // requests stage 1 succeeded on. The arena is local to the call — it
        // reaches steady-state capacity on the first chunk and every later
        // chunk reuses it verbatim.
        let ready: Vec<usize> = (0..n).filter(|&i| features[i].is_ok()).collect();
        let mut arena = InferArena::new();
        let mut scored = Vec::with_capacity(ready.len());
        for chunk in ready.chunks(batch_size) {
            let m = chunk.len();
            let mut graph_data = Vec::with_capacity(m * GRAPH_DIM);
            let mut tab_data = Vec::with_capacity(m * TABULAR_DIM);
            for f in chunk.iter().filter_map(|&i| features[i].as_ref().ok()) {
                graph_data.extend_from_slice(&f.graph);
                tab_data.extend_from_slice(&f.tabular);
            }
            let graphs =
                Tensor::from_vec(vec![m, IMAGE_CHANNELS, IMAGE_SIZE, IMAGE_SIZE], graph_data)
                    .expect("graph vectors have the fixed length");
            let tab_raw = Tensor::from_vec(vec![m, TABULAR_DIM], tab_data)
                .expect("tabular vectors have the fixed length");

            let mut probes: Option<Vec<Vec<SourceProbe>>> =
                self.audit.is_some().then(|| vec![Vec::new(); m]);
            let batch_start = Instant::now();
            let prof_start_ns = noodle_profile::now_ns();
            // The shared forward pass is attributed to the chunk's first
            // design (a micro-batch has no single owner; first-in-chunk is
            // deterministic and cheap to compute when reading a trace).
            let chunk_trace = noodle_trace::set_current(request_ctx(chunk[0]));
            let predictions =
                self.conformal_batch(&graphs, &tab_raw, strategy, probes.as_mut(), &mut arena);
            noodle_profile::record(
                noodle_profile::EventKind::BatchInfer,
                prof_start_ns,
                noodle_profile::now_ns().saturating_sub(prof_start_ns),
                0,
                (4 * (graphs.len() + tab_raw.len())) as u64,
            );
            drop(chunk_trace);
            let batch_us = batch_start.elapsed().as_secs_f64() * 1e6;
            let timing = AuditTiming {
                latency_us: batch_us / m as f64,
                batch_latency_us: batch_us,
                batch_size: m,
            };
            noodle_telemetry::histogram_record("detect.batch_size", m as f64);
            let mut probes = probes.unwrap_or_default().into_iter();
            for prediction in predictions {
                let probes = probes.next().unwrap_or_default();
                scored.push(Scored { prediction, probes, timing, prof_start_ns });
            }
        }

        // Stage 3: per request, in request order, the decision, its audit
        // record, a per-design marker on the profiler timeline (its batch
        // share of the forward) and a flight-recorder summary, so one trace
        // id greps across audit, Chrome trace and ring.
        let mut scored = scored.into_iter();
        let results = features
            .into_iter()
            .enumerate()
            .map(|(i, features)| {
                let features = features?;
                let Scored { prediction, probes, timing, prof_start_ns } =
                    scored.next().expect("stage 2 scores every request stage 1 succeeded on");
                let r = &requests[i];
                let request = request_ctx(i);
                let _req_trace = noodle_trace::set_current(request);
                noodle_telemetry::counter_add("detect.calls", 1);
                noodle_telemetry::histogram_record("detect.latency_us", timing.latency_us);
                let imputed = !(features.graph_present && features.tabular_present);
                let detection = self.decision(prediction, strategy, imputed);
                self.emit_audit(r.design, r.label, &detection, &features, probes, timing);
                let dur_ns = (timing.latency_us * 1e3) as u64;
                noodle_profile::record_span("detect.request", prof_start_ns, dur_ns);
                noodle_trace::flight_record(
                    noodle_trace::FlightKind::Request,
                    request.trace_id,
                    request.span_id,
                    i as u64,
                    u64::from(detection.infected),
                    r.design,
                );
                Ok(detection)
            })
            .collect();

        let elapsed = started.elapsed().as_secs_f64();
        if elapsed > 0.0 {
            noodle_telemetry::gauge_set("detect.files_per_sec", n as f64 / elapsed);
        }
        results
    }

    /// Stage 1 for supplied modality vectors: checks their lengths and
    /// imputes a missing modality with the conditional GAN.
    fn supplied(
        &self,
        graph: Option<&[f32]>,
        tabular: Option<&[f32]>,
    ) -> Result<Features, PipelineError> {
        for (name, vector, dim) in [("graph", graph, GRAPH_DIM), ("tabular", tabular, TABULAR_DIM)]
        {
            if let Some(v) = vector.filter(|v| v.len() != dim) {
                return Err(PipelineError::Dataset(format!(
                    "{name} vector must have length {dim}, got {}",
                    v.len()
                )));
            }
        }
        let untrained = || PipelineError::Dataset("imputers were not trained".into());
        let (graph_row, tabular_row) = match (graph, tabular) {
            (Some(g), Some(t)) => (g.to_vec(), t.to_vec()),
            (Some(g), None) => {
                let imputer = self.imputer_graph_to_tab.as_ref().ok_or_else(untrained)?;
                let gm = Tensor::from_vec(vec![1, GRAPH_DIM], g.to_vec()).expect("length checked");
                (g.to_vec(), imputer.impute(&gm).row(0).to_vec())
            }
            (None, Some(t)) => {
                let imputer = self.imputer_tab_to_graph.as_ref().ok_or_else(untrained)?;
                let tm =
                    Tensor::from_vec(vec![1, TABULAR_DIM], t.to_vec()).expect("length checked");
                (imputer.impute(&tm).row(0).to_vec(), t.to_vec())
            }
            (None, None) => {
                return Err(PipelineError::Dataset("at least one modality must be present".into()))
            }
        };
        Ok(Features {
            graph: graph_row,
            tabular: tabular_row,
            graph_present: graph.is_some(),
            tabular_present: tabular.is_some(),
        })
    }

    /// Stage 2 of the pipeline: one forward pass per micro-batch through
    /// the inference arena, then per-class conformal p-values for each row.
    /// Normalization, the CNN kernels and softmax all operate row-by-row,
    /// so row `i` here is bit-identical to a batch of one on sample `i`
    /// alone.
    fn conformal_batch(
        &self,
        graphs: &Tensor,
        tab_raw: &Tensor,
        strategy: FusionStrategy,
        mut probes: Option<&mut Vec<Vec<SourceProbe>>>,
        arena: &mut InferArena,
    ) -> Vec<ConformalPrediction> {
        let m = graphs.shape()[0];
        let tab_norm = self.tabular_norm.transform(tab_raw);
        let tab_t =
            || tab_norm.reshape(&[m, 1, TABULAR_DIM]).expect("reshape keeps the element count");
        let mut rows =
            |kind, inputs: &Tensor| self.conformal_rows(kind, inputs, &mut probes, arena);
        let p_values = match strategy {
            FusionStrategy::GraphOnly => rows(ModalityKind::Graph, graphs),
            FusionStrategy::TabularOnly => rows(ModalityKind::Tabular, &tab_t()),
            FusionStrategy::EarlyFusion => {
                let mut data = Vec::with_capacity(m * (GRAPH_DIM + TABULAR_DIM));
                for i in 0..m {
                    data.extend_from_slice(&graphs.data()[i * GRAPH_DIM..(i + 1) * GRAPH_DIM]);
                    data.extend_from_slice(tab_norm.row(i));
                }
                let early = Tensor::from_vec(vec![m, 1, GRAPH_DIM + TABULAR_DIM], data)
                    .expect("concatenation length is fixed");
                rows(ModalityKind::EarlyFusion, &early)
            }
            FusionStrategy::LateFusion => {
                let pg = rows(ModalityKind::Graph, graphs);
                let pt = rows(ModalityKind::Tabular, &tab_t());
                let combine = |(pg, pt): (&Vec<f64>, &Vec<f64>)| {
                    (0..2).map(|c| self.config.combiner.combine(&[pg[c], pt[c]])).collect()
                };
                pg.iter().zip(&pt).map(combine).collect()
            }
        };
        p_values.into_iter().map(ConformalPrediction::new).collect()
    }

    /// Runs one modality's classifier over a whole micro-batch through the
    /// inference arena and converts every row to per-class conformal
    /// p-values, recording one probe per file when audit evidence is being
    /// gathered. When quantized serving is on the CNN forward serves from
    /// the int8 twin instead of the float network; everything downstream
    /// is identical.
    fn conformal_rows(
        &self,
        kind: ModalityKind,
        inputs: &Tensor,
        probes: &mut Option<&mut Vec<Vec<SourceProbe>>>,
        arena: &mut InferArena,
    ) -> Vec<Vec<f64>> {
        let (clf, icp) = match kind {
            ModalityKind::Graph => (&self.graph_clf, &self.icp_graph),
            ModalityKind::Tabular => (&self.tabular_clf, &self.icp_tabular),
            ModalityKind::EarlyFusion => (&self.early_clf, &self.icp_early),
        };
        let proba = match &self.twins {
            Some(twins) => twins.for_kind(kind).infer_proba(inputs, arena),
            None => clf.infer_proba(inputs, arena),
        };
        (0..proba.shape()[0])
            .map(|i| {
                let scores = scores_from_proba(proba.row(i));
                let p = icp.p_values(&scores);
                if let Some(per_file) = probes.as_deref_mut() {
                    per_file[i].push(SourceProbe {
                        source: clf.modality_name().to_string(),
                        p_values: [p[0], p[1]],
                        scores: [scores[0] as f64, scores[1] as f64],
                    });
                }
                p
            })
            .collect()
    }

    /// Emits one audit record when a sink is attached; a no-op otherwise.
    fn emit_audit(
        &mut self,
        design: &str,
        label: Option<usize>,
        detection: &Detection,
        features: &Features,
        probes: Vec<SourceProbe>,
        timing: AuditTiming,
    ) {
        if self.audit.is_none() {
            return;
        }
        let seq = self.audit_seq;
        self.audit_seq += 1;
        let p = detection.prediction.p_values();
        let record = PredictionRecord {
            seq,
            design: design.to_string(),
            trace_id: noodle_trace::current()
                .map_or_else(String::new, |c| noodle_trace::format_trace_id(c.trace_id)),
            strategy: format!("{:?}", detection.strategy),
            infected: detection.infected,
            probability_infected: detection.probability_infected,
            p_values: [p[0], p[1]],
            region: detection.region.clone(),
            credibility: detection.credibility,
            confidence: detection.confidence,
            uncertain: detection.uncertain,
            significance: self.config.significance,
            graph_present: features.graph_present,
            tabular_present: features.tabular_present,
            imputed_modality: detection.imputed_modality,
            label,
            latency_us: timing.latency_us,
            batch_latency_us: timing.batch_latency_us,
            batch_size: timing.batch_size,
            sources: probes,
        };
        emit_if(self.audit.as_deref_mut().map(|s| s as _), move || record);
    }

    fn decision(
        &self,
        prediction: ConformalPrediction,
        strategy: FusionStrategy,
        imputed: bool,
    ) -> Detection {
        let region = prediction.region(self.config.significance);
        let p = prediction.p_values();
        Detection {
            infected: prediction.point_prediction() == 1,
            probability_infected: p[1] / (p[0] + p[1]),
            region: region.clone(),
            credibility: prediction.credibility(),
            confidence: prediction.confidence(),
            uncertain: region.len() > 1,
            imputed_modality: imputed,
            strategy,
            prediction,
        }
    }
}

/// Builds the working set and split for a fit. `held_out` names the real
/// test designs of the real-holdout protocol; it is empty under the
/// paper-style evaluation, which tests on a share of the amplified pool.
///
/// Real calibration designs are carved from the designs outside
/// `held_out` ([`carve_calibration`]) and only the rest is amplified; the
/// calibration designs, then the held-out ones, are appended to the
/// amplified pool. With `amplified_calibration` the paper's protocol runs
/// instead: calibration is a share of the amplified corpus.
fn prepare<R: Rng + ?Sized>(
    dataset: &MultimodalDataset,
    held_out: &[usize],
    config: &NoodleConfig,
    split_seed: u64,
    rng: &mut R,
) -> Result<(MultimodalDataset, Split), PipelineError> {
    if config.amplified_calibration && held_out.is_empty() {
        let amplified = amplify_dataset(dataset, config.amplify_per_class, &config.gan, rng);
        let split = amplified.split(config.train_frac, config.calib_frac, split_seed);
        return Ok((amplified, split));
    }
    let remaining: Vec<usize> = (0..dataset.len()).filter(|i| !held_out.contains(i)).collect();
    let (calibration, pool) = if config.amplified_calibration {
        (Vec::new(), remaining)
    } else {
        carve_calibration(dataset, &remaining, config.calib_frac, split_seed)?
    };
    let mut amplified =
        amplify_dataset(&dataset.subset(&pool), config.amplify_per_class, &config.gan, rng);
    let inner = |train_frac: f64| {
        amplified.split(train_frac - 1e-9, (1.0 - train_frac) / 2.0, split_seed ^ 0xA5A5)
    };
    let mut split = if config.amplified_calibration {
        let inner = inner(config.train_frac / (config.train_frac + config.calib_frac));
        // Calibration must stay disjoint from training; fold the inner test
        // remnant into calibration rather than waste it.
        let calibration = inner.calibration.into_iter().chain(inner.test).collect();
        Split { train: inner.train, calibration, test: Vec::new() }
    } else if held_out.is_empty() {
        let inner = inner(config.train_frac / (1.0 - config.calib_frac));
        let test = inner.calibration.into_iter().chain(inner.test).collect();
        Split { train: inner.train, calibration: Vec::new(), test }
    } else {
        Split { train: (0..amplified.len()).collect(), calibration: Vec::new(), test: Vec::new() }
    };
    let offset = amplified.len();
    for &i in calibration.iter().chain(held_out) {
        amplified.push(dataset.samples()[i].clone());
    }
    split.calibration.extend(offset..offset + calibration.len());
    split.test.extend(offset + calibration.len()..amplified.len());
    Ok((amplified, split))
}

/// Splits `remaining` (ascending dataset indices) into `(calibration,
/// pool)`, both sorted: per class, in label order, a `seed` shuffle of the
/// class's indices sends `round(n × calib_frac)` of them, clamped to
/// `[1, n − 1]`, to calibration.
fn carve_calibration(
    dataset: &MultimodalDataset,
    remaining: &[usize],
    calib_frac: f64,
    seed: u64,
) -> Result<(Vec<usize>, Vec<usize>), PipelineError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut calibration, mut pool) = (Vec::new(), Vec::new());
    let max_label = dataset.samples().iter().map(|s| s.label).max().unwrap_or(0);
    for label in 0..=max_label {
        let mut indices: Vec<usize> =
            remaining.iter().copied().filter(|&i| dataset.samples()[i].label == label).collect();
        let n = indices.len();
        if n < 2 {
            return Err(PipelineError::Dataset(format!(
                "need at least two real designs of class {label} outside the test set \
                 to calibrate on real designs, found {n}"
            )));
        }
        indices.shuffle(&mut rng);
        let n_calib = ((n as f64 * calib_frac).round() as usize).clamp(1, n - 1);
        calibration.extend(&indices[..n_calib]);
        pool.extend(&indices[n_calib..]);
    }
    calibration.sort_unstable();
    pool.sort_unstable();
    Ok((calibration, pool))
}

/// Converts `[1, 2]` softmax probabilities to per-class nonconformity
/// scores (Eq. 4 with a single classifier).
fn scores_from_proba(row: &[f32]) -> Vec<f32> {
    row.iter().map(|&p| nonconformity_from_proba(p)).collect()
}

/// Calibrates one p-value source and snapshots its predicted-class
/// (minimum) nonconformity scores — the statistic the serve-time drift
/// monitor sees, so the persisted PSI baseline compares like with like
/// (true-class scores have a different upper tail on misclassified
/// samples).
fn calibrate(
    clf: &ModalityClassifier,
    inputs: &Tensor,
    labels: &[usize],
) -> Result<(MondrianIcp, Vec<f64>), PipelineError> {
    let _span = noodle_telemetry::span!(
        "icp.calibrate",
        modality = clf.modality_name(),
        samples = labels.len(),
    );
    let proba = clf.predict_proba(inputs);
    let scores: Vec<(f32, usize)> = labels
        .iter()
        .enumerate()
        .map(|(i, &y)| (nonconformity_from_proba(proba.row(i)[y]), y))
        .collect();
    let min_scores: Vec<f64> = (0..labels.len())
        .map(|i| {
            scores_from_proba(proba.row(i)).into_iter().fold(f64::INFINITY, |m, s| m.min(s as f64))
        })
        .collect();
    Ok((MondrianIcp::fit(&scores, 2)?, min_scores))
}

/// Calibrates one classifier's int8 serving twin and scores both paths on
/// the calibration set, returning `(scales, (brier_f32, brier_int8))`.
fn quantize_source(
    clf: &ModalityClassifier,
    calib: &Tensor,
    outcomes: &[bool],
    arena: &mut InferArena,
) -> (ActScales, (f64, f64)) {
    let scales = ActScales::calibrate(clf.net(), calib);
    let quant = QuantizedModel::from_scales(clf.net(), &scales)
        .expect("calibration yields one scale per GEMM layer");
    let f_proba = clf.predict_proba(calib);
    let f32_probs: Vec<f64> = (0..outcomes.len()).map(|i| f_proba.row(i)[1] as f64).collect();
    let q_proba = quant.infer_proba(calib, arena);
    let q_probs: Vec<f64> = (0..outcomes.len()).map(|i| q_proba.row(i)[1] as f64).collect();
    (scales, (brier_score(&f32_probs, outcomes), brier_score(&q_probs, outcomes)))
}

fn tab_input(dataset: &MultimodalDataset, indices: &[usize], norm: &ZScore) -> Tensor {
    norm.transform(&dataset.tabular_matrix(indices))
        .reshape(&[indices.len(), 1, TABULAR_DIM])
        .expect("reshape keeps the element count")
}

fn early_input(dataset: &MultimodalDataset, indices: &[usize], norm: &ZScore) -> Tensor {
    let graph = dataset.graph_matrix(indices);
    let tab = norm.transform(&dataset.tabular_matrix(indices));
    Tensor::concat_cols(&[&graph, &tab])
        .expect("row counts match by construction")
        .reshape(&[indices.len(), 1, GRAPH_DIM + TABULAR_DIM])
        .expect("reshape keeps the element count")
}

#[cfg(test)]
mod tests {
    use super::*;
    use noodle_bench_gen::{generate_corpus, CorpusConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fitted() -> NoodleDetector {
        let corpus =
            generate_corpus(&CorpusConfig { trojan_free: 14, trojan_infected: 7, seed: 11 });
        let dataset = MultimodalDataset::from_benchmarks(&corpus).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        NoodleDetector::fit(&dataset, &NoodleConfig::fast(), &mut rng).unwrap()
    }

    #[test]
    fn fit_produces_complete_evaluation() {
        let det = fitted();
        let eval = det.evaluation();
        assert!(!eval.test_labels.is_empty());
        assert_eq!(eval.graph_probs.len(), eval.test_labels.len());
        assert_eq!(eval.late_probs.len(), eval.test_labels.len());
        assert_eq!(eval.late_p_values.len(), eval.test_labels.len());
        for &b in &eval.brier {
            assert!((0.0..=1.0).contains(&b), "brier {b}");
        }
        for &p in eval.graph_probs.iter().chain(&eval.late_probs) {
            assert!((0.0..=1.0).contains(&p), "prob {p}");
        }
        assert!(matches!(eval.winner, FusionStrategy::EarlyFusion | FusionStrategy::LateFusion));
    }

    #[test]
    fn labels_never_excluded_follow_the_p_value_floor() {
        let mut det = fitted();
        // 14 + 7 real designs leave 3 and 2 to calibrate: no p-value is
        // below 1/4 or 1/3, so no region can leave a label out at ε = 0.1.
        assert_eq!(det.icp_early.calibration_count(0), 3);
        assert_eq!(det.icp_early.calibration_count(1), 2);
        for strategy in FusionStrategy::ALL {
            assert_eq!(det.labels_never_excluded(strategy), vec![0, 1], "{strategy:?}");
        }
        // Regions hold `p > ε`: a label leaves once ε reaches its floor.
        for c in 0..2 {
            let floor = |icp: &MondrianIcp| 1.0 / (icp.calibration_count(c) as f64 + 1.0);
            let late =
                det.config.combiner.combine(&[floor(&det.icp_graph), floor(&det.icp_tabular)]);
            for (strategy, floor) in [
                (FusionStrategy::EarlyFusion, floor(&det.icp_early)),
                (FusionStrategy::LateFusion, late),
            ] {
                det.config.significance = floor;
                assert!(!det.labels_never_excluded(strategy).contains(&c), "{strategy:?} {c}");
                det.config.significance = floor - 1e-9;
                assert!(det.labels_never_excluded(strategy).contains(&c), "{strategy:?} {c}");
            }
        }
    }

    #[test]
    fn detect_classifies_new_designs() {
        let mut det = fitted();
        let probe =
            generate_corpus(&CorpusConfig { trojan_free: 1, trojan_infected: 1, seed: 999 });
        for bench in &probe {
            let d = det.detect(&bench.source).unwrap();
            assert!((0.0..=1.0).contains(&d.probability_infected));
            assert!(d.credibility > 0.0 && d.credibility <= 1.0);
            assert!(d.confidence >= 0.0 && d.confidence <= 1.0);
            assert_eq!(d.prediction.p_values().len(), 2);
        }
    }

    #[test]
    fn detect_rejects_garbage() {
        let mut det = fitted();
        assert!(det.detect("module broken(").is_err());
    }

    #[test]
    fn all_strategies_produce_decisions() {
        let mut det = fitted();
        let probe = generate_corpus(&CorpusConfig { trojan_free: 1, trojan_infected: 0, seed: 5 });
        let request = Request {
            design: "",
            input: Input::Source(&probe[0].source),
            label: None,
            trace: None,
        };
        for strategy in FusionStrategy::ALL {
            let d = det.pipeline(&[request], strategy, 1, None).remove(0).unwrap();
            assert_eq!(d.strategy, strategy);
        }
    }

    #[test]
    fn missing_modality_requires_imputers() {
        let mut det = fitted(); // fast() config: imputers off
        let g = vec![0.0; GRAPH_DIM];
        let err = det.detect_features(Some(&g), None).unwrap_err();
        assert!(err.to_string().contains("imputers"));
        assert!(det.detect_features(None, None).is_err());
    }

    #[test]
    fn feature_length_is_validated() {
        let mut det = fitted();
        assert!(det.detect_features(Some(&[0.0; 3]), None).is_err());
        assert!(det.detect_features(None, Some(&[0.0; 3])).is_err());
    }

    #[test]
    fn rejects_tiny_dataset() {
        let corpus = generate_corpus(&CorpusConfig { trojan_free: 3, trojan_infected: 1, seed: 1 });
        let dataset = MultimodalDataset::from_benchmarks(&corpus).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(NoodleDetector::fit(&dataset, &NoodleConfig::fast(), &mut rng).is_err());
    }

    #[test]
    fn holdout_protocol_tests_only_real_designs() {
        let corpus =
            generate_corpus(&CorpusConfig { trojan_free: 14, trojan_infected: 7, seed: 21 });
        let dataset = MultimodalDataset::from_benchmarks(&corpus).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let config = NoodleConfig { holdout_real_test: true, ..NoodleConfig::fast() };
        let det = NoodleDetector::fit(&dataset, &config, &mut rng).unwrap();
        let eval = det.evaluation();
        assert!(!eval.test_names.is_empty());
        // Every test design must be a real corpus design, never synthetic.
        for name in &eval.test_names {
            assert!(
                corpus.iter().any(|b| &b.name == name),
                "test design `{name}` is not a real corpus member"
            );
            assert!(!name.starts_with("syn_"), "synthetic sample in test: {name}");
        }
        // Both classes are present in the real test set.
        assert!(eval.test_labels.contains(&0));
        assert!(eval.test_labels.contains(&1));
    }

    #[test]
    fn real_calibration_holds_only_real_designs_the_gan_and_cnns_never_saw() {
        let corpus =
            generate_corpus(&CorpusConfig { trojan_free: 14, trojan_infected: 7, seed: 11 });
        let dataset = MultimodalDataset::from_benchmarks(&corpus).unwrap();
        let config = NoodleConfig::fast();
        for held_out in [vec![], vec![0, 5, 15, 20]] {
            let (working, split) =
                prepare(&dataset, &held_out, &config, 7, &mut StdRng::seed_from_u64(3)).unwrap();
            let samples = working.samples();
            assert!(split.calibration.iter().all(|&i| !samples[i].synthetic));
            let labels = working.labels(&split.calibration);
            assert!(labels.contains(&0) && labels.contains(&1), "calibration labels {labels:?}");
            // The amplified pool comes first; the real calibration designs
            // and then the held-out ones are appended to it.
            let pool = &samples[..samples.len() - split.calibration.len() - held_out.len()];
            for &c in &split.calibration {
                let name = &samples[c].name;
                assert!(pool.iter().all(|s| &s.name != name), "{name} was amplified");
                assert!(split.train.iter().all(|&t| &samples[t].name != name), "{name} trains");
            }
            let held_out_names: Vec<&str> =
                held_out.iter().map(|&i| dataset.samples()[i].name.as_str()).collect();
            let test_names: Vec<&str> = split.test.iter().map(|&i| &*samples[i].name).collect();
            if held_out.is_empty() {
                assert!(!split.test.is_empty());
            } else {
                assert_eq!(test_names, held_out_names);
                assert_eq!(split.train, (0..pool.len()).collect::<Vec<_>>());
            }
        }

        // The paper's protocol is amplify-then-split, unchanged.
        let paper = NoodleConfig { amplified_calibration: true, ..config };
        let (working, split) =
            prepare(&dataset, &[], &paper, 7, &mut StdRng::seed_from_u64(3)).unwrap();
        let amplified = amplify_dataset(
            &dataset,
            paper.amplify_per_class,
            &paper.gan,
            &mut StdRng::seed_from_u64(3),
        );
        assert_eq!(split, amplified.split(paper.train_frac, paper.calib_frac, 7));
        assert_eq!(working, amplified);

        // With held-out real test designs it amplifies the rest, splits that
        // `train : calib` into train and calibration (the inner test remnant
        // joins calibration), and appends the held-out designs as the test.
        let held_out = [0, 5, 15, 20];
        let (working, split) =
            prepare(&dataset, &held_out, &paper, 7, &mut StdRng::seed_from_u64(3)).unwrap();
        let pool: Vec<usize> = (0..dataset.len()).filter(|i| !held_out.contains(i)).collect();
        let mut amplified = amplify_dataset(
            &dataset.subset(&pool),
            paper.amplify_per_class,
            &paper.gan,
            &mut StdRng::seed_from_u64(3),
        );
        let inner_frac = paper.train_frac / (paper.train_frac + paper.calib_frac);
        let inner = amplified.split(inner_frac - 1e-9, (1.0 - inner_frac) / 2.0, 7 ^ 0xA5A5);
        let offset = amplified.len();
        for &i in &held_out {
            amplified.push(dataset.samples()[i].clone());
        }
        let expected = Split {
            train: inner.train,
            calibration: inner.calibration.into_iter().chain(inner.test).collect(),
            test: (offset..amplified.len()).collect(),
        };
        assert_eq!(split, expected);
        assert_eq!(working, amplified);
    }

    #[test]
    fn real_calibration_needs_two_real_designs_per_class_outside_the_test_set() {
        let corpus = generate_corpus(&CorpusConfig { trojan_free: 6, trojan_infected: 3, seed: 4 });
        let dataset = MultimodalDataset::from_benchmarks(&corpus).unwrap();
        let infected = dataset.class_indices(1);
        let mut rng = StdRng::seed_from_u64(0);
        let err =
            NoodleDetector::fit_holdout(&dataset, &infected[..2], &NoodleConfig::fast(), &mut rng)
                .unwrap_err();
        assert!(err.to_string().contains("two real designs of class 1"), "{err}");
    }

    #[test]
    fn configs_written_before_real_calibration_read_as_amplified() {
        let json = serde_json::to_string(&NoodleConfig::fast()).unwrap();
        let old = json.replace(",\"amplified_calibration\":false", "");
        assert_ne!(old, json);
        let config: NoodleConfig = serde_json::from_str(&old).unwrap();
        assert_eq!(config, NoodleConfig { amplified_calibration: true, ..NoodleConfig::fast() });
    }

    #[test]
    fn detector_json_round_trip_preserves_decisions() {
        let mut det = fitted();
        let probe =
            generate_corpus(&CorpusConfig { trojan_free: 2, trojan_infected: 1, seed: 777 });
        let json = det.to_json().unwrap();
        let mut restored = NoodleDetector::from_json(&json).unwrap();
        for bench in &probe {
            let a = det.detect(&bench.source).unwrap();
            let b = restored.detect(&bench.source).unwrap();
            assert_eq!(a.infected, b.infected);
            assert!((a.probability_infected - b.probability_infected).abs() < 1e-12);
            assert_eq!(a.prediction.p_values(), b.prediction.p_values());
        }
        // Float JSON round-trips can wobble in the last bit; the captured
        // evaluation must survive within that tolerance.
        assert_eq!(det.evaluation().test_names, restored.evaluation().test_names);
        for (a, b) in det.evaluation().brier.iter().zip(&restored.evaluation().brier) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn detect_batch_matches_sequential_bitwise() {
        let mut det = fitted();
        let probe = generate_corpus(&CorpusConfig { trojan_free: 3, trojan_infected: 2, seed: 77 });
        let sequential: Vec<Detection> =
            probe.iter().map(|b| det.detect_named(&b.name, &b.source, None).unwrap()).collect();
        let requests: Vec<DetectRequest<'_>> = probe
            .iter()
            .map(|b| DetectRequest { design: &b.name, source: &b.source, label: None, trace: None })
            .collect();
        for batch in [1, 2, 5, 8] {
            let batched = det.detect_batch(&requests, batch, None).unwrap();
            assert_eq!(batched, sequential, "batch={batch} diverges from sequential");
        }
    }

    #[test]
    fn detect_batch_surfaces_the_first_error_in_request_order() {
        let mut det = fitted();
        let good = generate_corpus(&CorpusConfig { trojan_free: 1, trojan_infected: 0, seed: 6 });
        let requests = [
            DetectRequest { design: "ok", source: &good[0].source, label: None, trace: None },
            DetectRequest { design: "bad", source: "module broken(", label: None, trace: None },
        ];
        assert!(det.detect_batch(&requests, 32, None).is_err());
        // An empty batch is a no-op, not an error.
        assert!(det.detect_batch(&[], 32, None).unwrap().is_empty());
    }

    #[test]
    fn screen_fails_only_the_request_that_does_not_parse() {
        use noodle_observe::MemoryAudit;

        let mut det = fitted();
        let probe = generate_corpus(&CorpusConfig { trojan_free: 2, trojan_infected: 1, seed: 12 });
        let want: Vec<Detection> =
            probe.iter().map(|b| det.detect_named(&b.name, &b.source, None).unwrap()).collect();
        let sink = MemoryAudit::new();
        det.set_audit_sink(Box::new(sink.clone()));
        let request = |design, source| DetectRequest { design, source, label: None, trace: None };
        let requests = [
            request(probe[0].name.as_str(), probe[0].source.as_str()),
            request("bad", "module broken("),
            request(probe[1].name.as_str(), probe[1].source.as_str()),
            request(probe[2].name.as_str(), probe[2].source.as_str()),
        ];
        for batch in [1, 2, 4] {
            let results = det.screen(&requests, batch, None);
            assert_eq!(results.len(), 4);
            assert!(results[1].is_err(), "batch={batch}");
            let good: Vec<Detection> =
                [0, 2, 3].iter().map(|&i| results[i].as_ref().unwrap().clone()).collect();
            assert_eq!(good, want, "batch={batch}");
        }

        // Three records per call, for the good designs, in request order,
        // with consecutive sequence numbers.
        let records = sink.records();
        assert_eq!(records.len(), 9);
        for (i, record) in records.iter().enumerate() {
            assert_eq!(record.seq, i as u64);
            assert_eq!(record.design, probe[i % 3].name);
        }
        assert!(det.screen(&[], 32, None).is_empty());
        assert_eq!(sink.records().len(), 9);
    }

    #[test]
    fn detect_batch_reuses_cached_features() {
        use crate::feature_cache::FeatureCache;

        let mut det = fitted();
        let probe = generate_corpus(&CorpusConfig { trojan_free: 2, trojan_infected: 1, seed: 9 });
        let requests: Vec<DetectRequest<'_>> = probe
            .iter()
            .map(|b| DetectRequest { design: &b.name, source: &b.source, label: None, trace: None })
            .collect();
        let mut cache = FeatureCache::new(16);
        let cold = det.detect_batch(&requests, 4, Some(&mut cache)).unwrap();
        assert_eq!(cache.stats().misses, 3);
        assert_eq!(cache.stats().hits, 0);
        let warm = det.detect_batch(&requests, 4, Some(&mut cache)).unwrap();
        assert_eq!(cache.stats().hits, 3);
        assert_eq!(cold, warm, "cached features must reproduce the cold verdicts");
    }

    /// The quantized-serving golden gate: on the seed corpus the int8
    /// path must produce zero verdict flips against the float path, keep
    /// p-values close, and not regress the calibration-set Brier score
    /// beyond the quantization budget.
    #[test]
    fn quantized_serving_preserves_verdicts_on_the_seed_corpus() {
        let mut det = fitted();
        let probe = generate_corpus(&CorpusConfig { trojan_free: 3, trojan_infected: 2, seed: 77 });
        let requests: Vec<DetectRequest<'_>> = probe
            .iter()
            .map(|b| DetectRequest { design: &b.name, source: &b.source, label: None, trace: None })
            .collect();
        let float = det.detect_batch(&requests, 32, None).unwrap();
        det.set_quantized(true).unwrap();
        assert!(det.is_quantized());
        let quant = det.detect_batch(&requests, 32, None).unwrap();

        let flips = float.iter().zip(&quant).filter(|(f, q)| f.infected != q.infected).count();
        assert_eq!(flips, 0, "quantization flipped {flips} verdicts on the seed corpus");
        for (f, q) in float.iter().zip(&quant) {
            let (pf, pq) = (f.prediction.p_values(), q.prediction.p_values());
            for c in 0..2 {
                assert!(
                    (pf[c] - pq[c]).abs() < 0.25,
                    "class-{c} p-value drifted under int8: {} vs {}",
                    pf[c],
                    pq[c]
                );
            }
        }

        // Brier regression gate: the int8 twins may cost at most 0.02
        // Brier on the calibration set, per source.
        let nets = det.quantized_nets().expect("fit persists the quantized section");
        for (source, (f, q)) in ["graph", "tabular", "early_fusion"]
            .iter()
            .zip(nets.calib_brier_f32().into_iter().zip(nets.calib_brier_int8()))
        {
            assert!((0.0..=1.0).contains(&q), "{source} int8 brier {q}");
            assert!(q <= f + 0.02, "{source} calibration Brier regressed under int8: {q} vs {f}");
        }
    }

    #[test]
    fn quantized_batch_matches_sequential_and_round_trips() {
        let mut det = fitted();
        det.set_quantized(true).unwrap();
        let probe = generate_corpus(&CorpusConfig { trojan_free: 2, trojan_infected: 2, seed: 55 });
        let sequential: Vec<Detection> =
            probe.iter().map(|b| det.detect_named(&b.name, &b.source, None).unwrap()).collect();
        let requests: Vec<DetectRequest<'_>> = probe
            .iter()
            .map(|b| DetectRequest { design: &b.name, source: &b.source, label: None, trace: None })
            .collect();
        for batch in [1, 3, 8] {
            let batched = det.detect_batch(&requests, batch, None).unwrap();
            assert_eq!(batched, sequential, "quantized batch={batch} diverges from sequential");
        }

        // The quantized section survives model JSON as scales, and the
        // twins rebuilt from them decide exactly as the fitted ones.
        let json = det.to_json().unwrap();
        assert!(!json.contains("weight_q"), "model files store scales, not twins");
        let mut restored = NoodleDetector::from_json(&json).unwrap();
        assert!(restored.quantized_nets().is_some());
        assert!(!restored.is_quantized(), "loading never builds twins");
        restored.set_quantized(true).unwrap();
        assert_eq!(restored.detect_batch(&requests, 8, None).unwrap(), sequential);

        // Files written while twins were stored whole load their scales.
        let mut legacy: serde_json::Value = serde_json::from_str(&json).unwrap();
        for (net, clf) in
            [("graph", "graph_clf"), ("tabular", "tabular_clf"), ("early", "early_clf")]
        {
            let mut scales = legacy["quantized"][net].as_array().unwrap().clone().into_iter();
            let layers: Vec<serde_json::Value> = legacy[clf]["net"]["layers"]
                .as_array()
                .unwrap()
                .iter()
                .map(|layer| {
                    let gemm = ["Dense", "Conv1d", "Conv2d"].into_iter().find(|k| layer.get(k).is_some());
                    let mut twin = serde_json::Map::new();
                    match gemm {
                        Some(kind) => twin.insert(
                            kind.to_string(),
                            serde_json::json!({"act_scale": scales.next().unwrap(), "weight_q": [1, -1]}),
                        ),
                        None => twin.insert("Passthrough".to_string(), layer.clone()),
                    };
                    serde_json::Value::Object(twin)
                })
                .collect();
            legacy["quantized"][net] = serde_json::json!({ "layers": layers });
        }
        let mut from_legacy = NoodleDetector::from_json(&legacy.to_string()).unwrap();
        assert_eq!(from_legacy.to_json().unwrap(), json);
        from_legacy.set_quantized(true).unwrap();
        assert_eq!(from_legacy.detect_batch(&requests, 8, None).unwrap(), sequential);

        // Scales that do not fit the networks are a load error.
        let mut value: serde_json::Value = serde_json::from_str(&json).unwrap();
        value["quantized"]["graph"] = serde_json::json!([0.5]);
        let err = NoodleDetector::from_json(&value.to_string()).unwrap_err().to_string();
        assert!(err.contains("graph net") && err.contains("1 activation scales for 4 GEMM layers"));

        // A model stripped of its quantized section (e.g. fitted before
        // the int8 path existed) still loads, but refuses to enable it.
        let mut value: serde_json::Value = serde_json::from_str(&json).unwrap();
        value.as_object_mut().unwrap().remove("quantized");
        let mut stripped = NoodleDetector::from_json(&value.to_string()).unwrap();
        assert!(stripped.quantized_nets().is_none());
        assert!(stripped.set_quantized(true).is_err());
        stripped.set_quantized(false).unwrap();
        assert!(!stripped.is_quantized());
    }

    #[test]
    fn detectors_whose_networks_do_not_fit_their_inputs_fail_to_load() {
        let json = fitted().to_json().unwrap();
        let good: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(NoodleDetector::from_json(&json).is_ok());

        // Every tensor is whole, but the early-fusion head no longer takes
        // what the flattened convolutions give it.
        let mut bad = good.clone();
        let weight = &mut bad["early_clf"]["net"]["layers"][8]["Dense"]["weight"];
        let shape: Vec<usize> = serde_json::from_value(weight["shape"].clone()).unwrap();
        *weight = serde_json::to_value(Tensor::zeros(&[shape[0], shape[1] - 1])).unwrap();
        let err = NoodleDetector::from_json(&bad.to_string()).unwrap_err().to_string();
        assert!(err.contains("early_fusion net") && err.contains("layer 8: Dense wants"), "{err}");

        for (field, why) in [("means", "has 2 means"), ("stds", "and 2 deviations")] {
            let mut bad = good.clone();
            bad["tabular_norm"][field] = serde_json::json!([0.0, 1.0]);
            let err = NoodleDetector::from_json(&bad.to_string()).unwrap_err().to_string();
            assert!(err.contains(why), "{err}");
        }
    }

    #[test]
    fn strategy_labels_match_table_one() {
        assert_eq!(FusionStrategy::GraphOnly.label(), "Graph-based Data");
        assert!(FusionStrategy::LateFusion.label().contains("Late Fusion"));
    }

    #[test]
    fn fit_persists_a_calibration_baseline() {
        let det = fitted();
        let baseline = det.baseline().expect("fit captures a baseline");
        for source in ["graph", "tabular", "early_fusion"] {
            let b = baseline.sources.get(source).unwrap_or_else(|| panic!("no {source} baseline"));
            assert_eq!(b.n, baseline.calibration_count);
            assert!(!b.edges.is_empty());
            let sum: f64 = b.expected.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
        assert!(baseline.class_balance > 0.0 && baseline.class_balance < 1.0);
        assert!((baseline.significance - det.config().significance).abs() < 1e-12);
        assert!(baseline.calibration_count > 0);
        assert!((baseline.winner_brier - det.evaluation().brier_of(det.winner())).abs() < 1e-12);

        // The baseline survives model serialization.
        let restored = NoodleDetector::from_json(&det.to_json().unwrap()).unwrap();
        assert_eq!(restored.baseline(), det.baseline());
    }

    #[test]
    fn audit_sink_receives_header_and_records() {
        use noodle_observe::MemoryAudit;

        let mut det = fitted();
        let sink = MemoryAudit::new();
        det.set_audit_sink(Box::new(sink.clone()));

        let header = sink.header().expect("header emitted on attach");
        assert_eq!(header.schema_version, noodle_observe::AUDIT_SCHEMA_VERSION);
        assert!((header.significance - det.config().significance).abs() < 1e-12);
        assert_eq!(header.strategy, format!("{:?}", det.winner()));
        assert_eq!(header.simd, noodle_compute::active_isa().name());
        assert!(!header.quantized, "float serving is the default");
        assert!(header.baseline.is_some());

        let probe =
            generate_corpus(&CorpusConfig { trojan_free: 2, trojan_infected: 1, seed: 321 });
        for bench in &probe {
            det.detect_named(&bench.name, &bench.source, Some(bench.label.index())).unwrap();
        }
        let records = sink.records();
        assert_eq!(records.len(), probe.len());
        for (i, (record, bench)) in records.iter().zip(&probe).enumerate() {
            assert_eq!(record.seq, i as u64);
            assert_eq!(record.design, bench.name);
            assert_eq!(record.label, Some(bench.label.index()));
            assert_eq!(record.strategy, format!("{:?}", det.winner()));
            assert!(record.graph_present && record.tabular_present);
            assert!(!record.imputed_modality);
            assert!(record.p_values.iter().all(|&p| p > 0.0 && p <= 1.0));
            assert!(!record.sources.is_empty());
            for probe in &record.sources {
                assert!(probe.p_values.iter().all(|&p| p > 0.0 && p <= 1.0));
            }
        }

        // Detaching stops emission.
        assert!(det.take_audit_sink().is_some());
        det.detect(&probe[0].source).unwrap();
        assert_eq!(sink.records().len(), probe.len());
    }

    #[test]
    fn unaudited_detect_matches_audited_decisions() {
        use noodle_observe::MemoryAudit;

        let mut plain = fitted();
        let mut audited = fitted();
        let sink = MemoryAudit::new();
        audited.set_audit_sink(Box::new(sink.clone()));
        let probe =
            generate_corpus(&CorpusConfig { trojan_free: 1, trojan_infected: 1, seed: 4242 });
        for bench in &probe {
            let a = plain.detect(&bench.source).unwrap();
            let b = audited.detect(&bench.source).unwrap();
            assert_eq!(a.infected, b.infected);
            assert_eq!(a.prediction.p_values(), b.prediction.p_values());
        }
        // The audited run produced matching records.
        let records = sink.records();
        assert_eq!(records.len(), probe.len());
        assert!(records.iter().all(|r| r.latency_us > 0.0));
    }
}
