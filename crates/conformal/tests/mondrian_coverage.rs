//! Finite-sample validity of Mondrian ICP: the invariant the online
//! coverage monitor in `noodle-observe` checks at serve time.
//!
//! For continuous exchangeable nonconformity scores, the probability that
//! the true-class p-value falls at or below ε is exactly
//! `floor(ε·(n_c + 1)) / (n_c + 1)` per class, where `n_c` is that class's
//! calibration count. That is a marginal guarantee: it averages over
//! calibration draws. Conditional on one calibration set the error follows
//! Beta(k, n_c + 1 − k) with k = ⌊ε(n_c + 1)⌋ (Vovk 2012, "Conditional
//! validity of inductive conformal predictors"), which at n_c = 300 spreads
//! about ±0.02 around the target. The test therefore draws many
//! independent calibration sets from the same class-conditional
//! distributions as the test scores and asserts that their mean error rate
//! stays within a tight band of the target, across several seeds and ε
//! values.

use noodle_conformal::MondrianIcp;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Class-conditional score draw: class 0 concentrates low, class 1 is
/// uniform — different shapes exercise the Mondrian (per-class) taxonomy.
fn draw_score(rng: &mut StdRng, class: usize) -> f32 {
    let u: f32 = rng.random_range(0.0..1.0);
    if class == 0 {
        u * u
    } else {
        u
    }
}

#[test]
fn empirical_coverage_tracks_one_minus_epsilon_per_class() {
    const CALIB_PER_CLASS: usize = 300;
    const TEST_PER_CLASS: usize = 2500;
    const DRAWS: usize = 100;
    const EPSILONS: [f64; 3] = [0.05, 0.1, 0.2];

    for &seed in &[7u64, 21, 99] {
        let mut rng = StdRng::seed_from_u64(seed);
        // Mean error rate over calibration draws, per ε and class.
        let mut mean_rate = [[0.0f64; 2]; EPSILONS.len()];
        for _ in 0..DRAWS {
            let calib: Vec<(f32, usize)> = (0..2 * CALIB_PER_CLASS)
                .map(|i| {
                    let class = i % 2;
                    (draw_score(&mut rng, class), class)
                })
                .collect();
            let icp = MondrianIcp::fit(&calib, 2).unwrap();
            assert_eq!(icp.calibration_count(0), CALIB_PER_CLASS);
            for class in 0..2 {
                let p_values: Vec<f64> = (0..TEST_PER_CLASS)
                    .map(|_| icp.p_value(class, draw_score(&mut rng, class)))
                    .collect();
                for (rates, &epsilon) in mean_rate.iter_mut().zip(&EPSILONS) {
                    let errors = p_values.iter().filter(|&&p| p <= epsilon).count();
                    rates[class] += errors as f64 / TEST_PER_CLASS as f64 / DRAWS as f64;
                }
            }
        }

        for (rates, &epsilon) in mean_rate.iter().zip(&EPSILONS) {
            for (class, &rate) in rates.iter().enumerate() {
                let n_cal = CALIB_PER_CLASS as f64;
                // Exact error target for continuous scores at this ε.
                let k = (epsilon * (n_cal + 1.0)).floor();
                let target = k / (n_cal + 1.0);
                // 4.5σ band: false-failure odds are negligible across the
                // whole seed × ε × class grid. One draw's rate varies with
                // its calibration set (the Beta law) and its test samples
                // (binomial); the mean over draws divides both by DRAWS.
                let calib_var = k * (n_cal + 1.0 - k) / ((n_cal + 1.0).powi(2) * (n_cal + 2.0));
                let test_var = target * (1.0 - target) / TEST_PER_CLASS as f64;
                let sigma = ((calib_var + test_var) / DRAWS as f64).sqrt();
                let band = 4.5 * sigma + 1e-3;
                assert!(
                    (rate - target).abs() <= band,
                    "seed {seed} ε={epsilon} class {class}: mean error {rate:.4} over {DRAWS} \
                     calibration draws deviates from exact target {target:.4} by more than \
                     {band:.4}"
                );
            }
        }
    }
}

#[test]
fn coverage_holds_under_class_imbalance() {
    // Trojan-infected designs are the rare class in NOODLE; label-conditional
    // calibration must keep per-class validity even at a 5:1 imbalance.
    const TEST_PER_CLASS: usize = 2500;
    let mut rng = StdRng::seed_from_u64(1234);
    let calib: Vec<(f32, usize)> = (0..600)
        .map(|i| {
            let class = usize::from(i % 6 == 0);
            (draw_score(&mut rng, class), class)
        })
        .collect();
    let icp = MondrianIcp::fit(&calib, 2).unwrap();
    assert!(icp.calibration_count(1) * 4 < icp.calibration_count(0));

    let epsilon = 0.1f64;
    for class in 0..2 {
        let n_cal = icp.calibration_count(class) as f64;
        let target = (epsilon * (n_cal + 1.0)).floor() / (n_cal + 1.0);
        let errors = (0..TEST_PER_CLASS)
            .filter(|_| {
                let score = draw_score(&mut rng, class);
                icp.p_value(class, score) <= epsilon
            })
            .count() as f64;
        let rate = errors / TEST_PER_CLASS as f64;
        let sigma = (target * (1.0 - target) / TEST_PER_CLASS as f64).sqrt();
        assert!(
            (rate - target).abs() <= 4.5 * sigma + 1e-3,
            "class {class}: error {rate:.4} vs target {target:.4}"
        );
    }
}
