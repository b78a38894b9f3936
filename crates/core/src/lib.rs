//! # noodle-core
//!
//! The NOODLE pipeline — uncertainty-aware hardware Trojan detection using
//! multimodal deep learning (Vishwakarma & Rezaei, DATE 2024) — implemented
//! end to end in Rust:
//!
//! 1. RTL (Verilog) designs are converted into two modalities: a **graph
//!    image** (`noodle-graph`) and a **tabular** code-branching feature
//!    vector (`noodle-tabular`);
//! 2. per class, some real designs are set aside for calibration and the
//!    rest of the small, imbalanced corpus is **GAN-amplified** over the
//!    joint modality vector (`noodle-gan`);
//! 3. one **CNN per modality** (plus an early-fusion CNN) is trained with
//!    identical hyperparameters (`noodle-nn`);
//! 4. **Mondrian inductive conformal prediction**, calibrated on the
//!    set-aside real designs, turns each CNN into a p-value source whose
//!    guarantee covers real submissions, and **late fusion** combines the
//!    per-modality p-values per class (`noodle-conformal`, Algorithm 1);
//! 5. early and late fusion compete on **Brier score** and the winner
//!    classifies new designs with calibrated uncertainty (Algorithm 2).
//!
//! ## Quickstart
//!
//! ```no_run
//! use noodle_bench_gen::{generate_corpus, CorpusConfig};
//! use noodle_core::{MultimodalDataset, NoodleConfig, NoodleDetector};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), noodle_core::PipelineError> {
//! let corpus = generate_corpus(&CorpusConfig::default());
//! let dataset = MultimodalDataset::from_benchmarks(&corpus)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let mut detector = NoodleDetector::fit(&dataset, &NoodleConfig::default(), &mut rng)?;
//! println!("winner: {:?}", detector.winner());
//! let verdict = detector.detect(&corpus[0].source)?;
//! println!("infected: {} (p = {:.3})", verdict.infected, verdict.probability_infected);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod amplify;
mod classifier;
mod crossval;
mod dataset;
mod detector;
mod error;
mod feature_cache;
mod normalize;

pub use amplify::amplify_dataset;
pub use classifier::{ModalityClassifier, ModalityKind};
pub use crossval::{cross_validate, CrossValidation, FoldReport};
pub use dataset::{
    extract_modalities, MultimodalDataset, MultimodalSample, Split, GRAPH_DIM, TABULAR_DIM,
};
pub use detector::{
    DetectRequest, Detection, EvaluationReport, FusionStrategy, NoodleConfig, NoodleDetector,
    QuantizedNets,
};
pub use error::PipelineError;
pub use feature_cache::{CacheStats, FeatureCache, EXTRACTOR_VERSION};
pub use normalize::ZScore;
