//! # noodle-bench
//!
//! The experiment harness regenerating every table and figure of the
//! NOODLE paper's evaluation section, plus ablations. Each artifact has a
//! binary (`cargo run --release -p noodle-bench --bin <name>`) that prints
//! the same rows/series the paper reports, and a Criterion bench measuring
//! the regeneration cost of a down-scaled variant.
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1` | Table I — Brier per modality/fusion |
//! | `fig2` | Fig. 2 — Brier distributions (early/late) with mean interval |
//! | `fig3` | Fig. 3 — confidence calibration curve + sharpness histogram |
//! | `fig4` | Fig. 4 — ROC-AUC under late fusion |
//! | `fig5` | Fig. 5 — radar plot of consolidated metrics |
//! | `ablation_combiners` | p-value combination method sweep |
//! | `ablation_gan` | GAN amplification target sweep |
//! | `ablation_validity` | conformal validity/efficiency vs ε |
//!
//! Scale is controlled by the `NOODLE_SCALE` environment variable:
//! `paper` (default for binaries) reproduces the paper's setup — a ~40
//! design corpus amplified to 500 points with ~110 test points; `quick`
//! (default for Criterion benches) is a down-scaled smoke configuration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use noodle_bench_gen::CorpusConfig;
use noodle_core::{
    EvaluationReport, FusionStrategy, MultimodalDataset, NoodleConfig, NoodleDetector,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A fully specified experiment scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Corpus generation parameters.
    pub corpus: CorpusConfig,
    /// Pipeline hyperparameters.
    pub noodle: NoodleConfig,
    /// Number of repeated splits for distribution experiments (Fig. 2).
    pub repeats: usize,
    /// Human-readable name.
    pub name: &'static str,
}

/// The paper-faithful scale: 40-design corpus (28 TF / 12 TI) amplified to
/// 500 points, ~110 test designs (the paper's Fig. 3 histogram shows 109),
/// calibrated on the amplified corpus as the paper does.
pub fn paper_scale() -> Scale {
    Scale {
        corpus: CorpusConfig::default(),
        noodle: NoodleConfig {
            train_imputers: false,
            amplified_calibration: true,
            ..NoodleConfig::default()
        },
        repeats: 20,
        name: "paper",
    }
}

/// A down-scaled smoke configuration for Criterion runs and CI.
pub fn quick_scale() -> Scale {
    Scale {
        corpus: CorpusConfig { trojan_free: 14, trojan_infected: 7, seed: 0x0D00D1E },
        noodle: NoodleConfig::fast(),
        repeats: 5,
        name: "quick",
    }
}

/// Reads `NOODLE_SCALE` (`paper`/`quick`), defaulting to the given scale.
pub fn scale_from_env(default: Scale) -> Scale {
    match std::env::var("NOODLE_SCALE").as_deref() {
        Ok("paper") => paper_scale(),
        Ok("quick") => quick_scale(),
        _ => default,
    }
}

/// Generates the corpus, extracts modalities and fits a detector for one
/// seed.
///
/// # Panics
///
/// Panics if the corpus fails to build or the fit fails — experiment
/// binaries want a loud failure, not a hedge.
pub fn fit_detector(scale: &Scale, seed: u64) -> NoodleDetector {
    // Each experiment seed draws its own corpus, so repeated-run
    // distributions (Fig. 2) capture dataset-level variability and means
    // are not hostage to one corpus draw's sampling noise.
    let corpus_config = CorpusConfig { seed: scale.corpus.seed ^ seed, ..scale.corpus };
    let corpus = noodle_bench_gen::generate_corpus(&corpus_config);
    let dataset = MultimodalDataset::from_benchmarks(&corpus).expect("corpus must parse cleanly");
    let mut rng = StdRng::seed_from_u64(seed);
    NoodleDetector::fit(&dataset, &scale.noodle, &mut rng).expect("pipeline fit must succeed")
}

/// The paper's Table I reference values, for side-by-side printing.
pub const PAPER_TABLE1: [(FusionStrategy, f64); 4] = [
    (FusionStrategy::GraphOnly, 0.1798),
    (FusionStrategy::TabularOnly, 0.1913),
    (FusionStrategy::EarlyFusion, 0.1685),
    (FusionStrategy::LateFusion, 0.1589),
];

/// The paper's reported late-fusion ROC-AUC (Fig. 4).
pub const PAPER_AUC: f64 = 0.928;

/// Prints Table I (measured vs paper) for one evaluation.
pub fn print_table1(eval: &EvaluationReport) {
    println!("Table I: Brier score comparison for different modalities");
    println!("{:<46} {:>10} {:>10}", "Dataset", "Measured", "Paper");
    for (strategy, paper) in PAPER_TABLE1 {
        println!("{:<46} {:>10.4} {:>10.4}", strategy.label(), eval.brier_of(strategy), paper);
    }
}

/// Convenience: mean of a slice.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_fits() {
        let det = fit_detector(&quick_scale(), 1);
        assert!(det.evaluation().brier.iter().all(|b| (0.0..=1.0).contains(b)));
    }

    #[test]
    fn scale_from_env_defaults() {
        // Without the env var set, the default passes through.
        std::env::remove_var("NOODLE_SCALE");
        assert_eq!(scale_from_env(quick_scale()).name, "quick");
    }

    #[test]
    fn paper_reference_values_match_publication() {
        assert_eq!(PAPER_TABLE1[3].1, 0.1589);
        assert_eq!(PAPER_AUC, 0.928);
    }
}
