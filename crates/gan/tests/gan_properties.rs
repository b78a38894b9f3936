//! Property tests for the GAN substrate.
//!
//! Each property runs on [`CASES`] cases through the seeded runner in the
//! workspace's `tests/support/cases.rs`; a failure names the case's seed.

#[path = "../../../tests/support/cases.rs"]
mod cases;

use std::ops::Range;

use cases::check;
use noodle_gan::{amplify_class, GanConfig, MinMaxScaler};
use noodle_nn::Tensor;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const CASES: u64 = 64;

/// A matrix with a row count drawn from `rows`, a column count drawn from
/// `cols`, and values in `[-100, 100)`.
fn matrix(rng: &mut StdRng, rows: Range<usize>, cols: Range<usize>) -> Tensor {
    let (r, c) = (rng.random_range(rows), rng.random_range(cols));
    let data = (0..r * c).map(|_| rng.random_range(-100.0f32..100.0)).collect();
    Tensor::from_vec(vec![r, c], data).expect("sized")
}

/// Scaler transform lands in [-1, 1] and inverse-transform restores the
/// original data (up to float error).
#[test]
fn scaler_round_trip() {
    check(CASES, |rng| {
        let data = matrix(rng, 1..12, 1..8);
        let scaler = MinMaxScaler::fit(&data);
        let scaled = scaler.transform(&data);
        assert!(scaled.data().iter().all(|&v| (-1.0 - 1e-6..=1.0 + 1e-6).contains(&v)));
        let restored = scaler.inverse_transform(&scaled);
        for (a, b) in data.data().iter().zip(restored.data()) {
            assert!((a - b).abs() < 1e-3 * (1.0 + a.abs()), "{a} vs {b}");
        }
    });
}

/// Inverse transform clamps arbitrary generator outputs into the
/// training range.
#[test]
fn inverse_transform_respects_training_range() {
    check(CASES, |rng| {
        let data = matrix(rng, 2..10, 1..6);
        let wild = rng.random_range(-100.0f32..100.0);
        let scaler = MinMaxScaler::fit(&data);
        let cols = data.shape()[1];
        let wild_row = Tensor::from_vec(vec![1, cols], vec![wild; cols]).unwrap();
        let restored = scaler.inverse_transform(&wild_row);
        let rescaled = scaler.transform(&restored);
        assert!(rescaled.data().iter().all(|&v| (-1.0 - 1e-5..=1.0 + 1e-5).contains(&v)));
    });
}

/// Amplification always reaches the target, keeps real rows verbatim,
/// and synthetic rows stay within the real per-feature ranges.
#[test]
fn amplify_invariants() {
    check(CASES, |rng| {
        let data = matrix(rng, 4..10, 2..6);
        let extra = rng.random_range(1usize..20);
        let seed = rng.random_range(0u64..100);
        let n = data.shape()[0];
        let target = n + extra;
        let mut rng = StdRng::seed_from_u64(seed);
        let config = GanConfig { epochs: 3, hidden_dim: 8, ..GanConfig::default() };
        let grown = amplify_class(&data, target, &config, &mut rng);
        assert_eq!(grown.shape()[0], target);
        for r in 0..n {
            assert_eq!(grown.row(r), data.row(r), "real row {r} altered");
        }
        // Synthetic rows live inside the training min/max box.
        let scaler = MinMaxScaler::fit(&data);
        let synth = grown.select_rows(&(n..target).collect::<Vec<_>>());
        let scaled = scaler.transform(&synth);
        assert!(scaled.data().iter().all(|&v| (-1.0 - 1e-4..=1.0 + 1e-4).contains(&v)));
    });
}
