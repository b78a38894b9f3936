//! Validity of the conformal machinery on the *real pipeline*: the error
//! rate of prediction regions at significance ε must not (grossly) exceed
//! ε, per class — the Mondrian guarantee the paper relies on for
//! risk-aware decisions on the minority (Trojan-infected) class.

use noodle::conformal::{region_stats, ConformalPrediction};
use noodle::{generate_corpus, CorpusConfig, MultimodalDataset, NoodleConfig, NoodleDetector};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn evaluation_predictions(seed: u64) -> (Vec<ConformalPrediction>, Vec<usize>) {
    let corpus = generate_corpus(&CorpusConfig { trojan_free: 18, trojan_infected: 9, seed });
    let dataset = MultimodalDataset::from_benchmarks(&corpus).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut config = NoodleConfig::fast();
    config.amplify_per_class = 40;
    let detector = NoodleDetector::fit(&dataset, &config, &mut rng).unwrap();
    let eval = detector.evaluation();
    let preds: Vec<ConformalPrediction> =
        eval.late_p_values.iter().map(|pv| ConformalPrediction::new(pv.to_vec())).collect();
    (preds, eval.test_labels.clone())
}

#[test]
fn late_fusion_regions_are_approximately_valid() {
    // Aggregate over several seeds so the test-split sample size is large
    // enough for the long-run guarantee to show.
    let mut all_preds = Vec::new();
    let mut all_labels = Vec::new();
    for seed in [1u64, 2, 3, 4] {
        let (preds, labels) = evaluation_predictions(seed);
        all_preds.extend(preds);
        all_labels.extend(labels);
    }
    let epsilon = 0.2;
    let stats = region_stats(&all_preds, &all_labels, epsilon);
    // Combined p-values are conservative rather than exact, so the error
    // rate should sit below ε with slack for finite-sample noise.
    assert!(
        stats.error_rate <= epsilon + 0.1,
        "error rate {:.3} far exceeds significance {epsilon}",
        stats.error_rate
    );
    assert!(stats.mean_region_size >= stats.singleton_rate);
}

#[test]
fn region_size_shrinks_as_significance_grows() {
    let (preds, labels) = evaluation_predictions(5);
    let loose = region_stats(&preds, &labels, 0.01);
    let tight = region_stats(&preds, &labels, 0.5);
    assert!(
        tight.mean_region_size <= loose.mean_region_size,
        "regions must shrink: eps=0.5 size {} vs eps=0.01 size {}",
        tight.mean_region_size,
        loose.mean_region_size
    );
}

#[test]
fn uncertain_rate_plus_singletons_plus_empties_is_one() {
    let (preds, labels) = evaluation_predictions(6);
    let stats = region_stats(&preds, &labels, 0.1);
    let total = stats.singleton_rate + stats.empty_rate + stats.uncertain_rate;
    assert!((total - 1.0).abs() < 1e-9, "rates sum to {total}");
}

/// The Mondrian guarantee for served verdicts: per class, regions from
/// `detect` must miss the true label of fresh real designs at most at rate
/// ε, averaged over calibration draws. Each seed draws a corpus, fits with
/// the default real-design calibration and screens a fresh draw from the
/// same generator. At 40 designs per class, 9 of each calibrate, so a
/// region can leave either label out at ε = 0.1 and the test can fail.
#[test]
fn served_regions_cover_held_out_real_designs_per_class_across_seeds() {
    const SEEDS: u64 = 20;
    const PROBES_PER_CLASS: usize = 20;
    const CALIB_PER_CLASS: f64 = 9.0;
    let config = NoodleConfig::fast();
    let mut errors = [0usize; 2];
    let mut probes = [0usize; 2];
    for seed in 0..SEEDS {
        let corpus = generate_corpus(&CorpusConfig {
            trojan_free: 40,
            trojan_infected: 40,
            seed: 100 + seed,
        });
        let dataset = MultimodalDataset::from_benchmarks(&corpus).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut detector = NoodleDetector::fit(&dataset, &config, &mut rng).unwrap();
        let baseline = detector.baseline().unwrap();
        assert_eq!(baseline.calibration_count as f64, 2.0 * CALIB_PER_CLASS);
        assert_eq!(baseline.class_balance, 0.5);
        let stuck = detector.labels_never_excluded(detector.winner());
        assert!(stuck.is_empty(), "seed {seed}: regions can never leave out {stuck:?}");

        let probe = generate_corpus(&CorpusConfig {
            trojan_free: PROBES_PER_CLASS,
            trojan_infected: PROBES_PER_CLASS,
            seed: 1000 + seed,
        });
        for bench in &probe {
            let class = bench.label.index();
            probes[class] += 1;
            if !detector.detect(&bench.source).unwrap().region.contains(&class) {
                errors[class] += 1;
            }
        }
    }

    // For continuous scores the expected miscoverage is k / (n + 1) with
    // k = ⌊ε(n + 1)⌋. One seed's rate varies with its calibration draw,
    // Beta(k, n + 1 − k) (Vovk 2012), and with its probes; the mean over
    // seeds gets a 4σ band above the target.
    let n = CALIB_PER_CLASS;
    let k = (config.significance * (n + 1.0)).floor();
    let target = k / (n + 1.0);
    let calib_var = k * (n + 1.0 - k) / ((n + 1.0).powi(2) * (n + 2.0));
    let probe_var = target * (1.0 - target) / PROBES_PER_CLASS as f64;
    let sigma = ((calib_var + probe_var) / SEEDS as f64).sqrt();
    for class in 0..2 {
        let rate = errors[class] as f64 / probes[class] as f64;
        assert!(
            rate <= target + 4.0 * sigma,
            "class {class}: miscoverage {rate:.3} over {} designs breaches {target:.3} + 4σ ({:.3})",
            probes[class],
            target + 4.0 * sigma
        );
    }
}
