//! Property tests for the tensor algebra and network invariants.
//!
//! Each property runs on [`CASES`] cases through the seeded runner in the
//! workspace's `tests/support/cases.rs`; a failure names the case's seed.

#[path = "../../../tests/support/cases.rs"]
mod cases;

use cases::check;
use noodle_nn::{softmax_rows, Activation, Dense, Mode, Sequential, Tensor};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const CASES: u64 = 128;

/// A `[rows, cols]` matrix of values in `[-10, 10)`.
fn small_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
    let data = (0..rows * cols).map(|_| rng.random_range(-10.0f32..10.0)).collect();
    Tensor::from_vec(vec![rows, cols], data).expect("sized")
}

/// Matrix multiplication is associative (within float tolerance).
#[test]
fn matmul_associative() {
    check(CASES, |rng| {
        let (a, b, c) = (small_matrix(rng, 3, 4), small_matrix(rng, 4, 2), small_matrix(rng, 2, 5));
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for (x, y) in left.data().iter().zip(right.data()) {
            assert!((x - y).abs() < 1e-2, "{x} vs {y}");
        }
    });
}

/// `(A B)^T = B^T A^T`.
#[test]
fn transpose_of_product() {
    check(CASES, |rng| {
        let (a, b) = (small_matrix(rng, 3, 4), small_matrix(rng, 4, 2));
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    });
}

/// Elementwise addition commutes and `sub` undoes `add`.
#[test]
fn add_sub_inverse() {
    check(CASES, |rng| {
        let (a, b) = (small_matrix(rng, 4, 4), small_matrix(rng, 4, 4));
        assert_eq!(a.add(&b), b.add(&a));
        let restored = a.add(&b).sub(&b);
        for (x, y) in restored.data().iter().zip(a.data()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    });
}

/// Softmax rows are probability vectors, invariant to per-row shifts.
#[test]
fn softmax_invariances() {
    check(CASES, |rng| {
        let a = small_matrix(rng, 3, 5);
        let shift = rng.random_range(-50.0f32..50.0);
        let p = softmax_rows(&a);
        for r in 0..3 {
            let sum: f32 = p.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "row {r} sums to {sum}");
            assert!(p.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
        let shifted = softmax_rows(&a.add_scalar(shift));
        for (x, y) in p.data().iter().zip(shifted.data()) {
            assert!((x - y).abs() < 1e-4, "softmax must be shift-invariant");
        }
    });
}

/// Reshape preserves data; select_rows matches row views.
#[test]
fn reshape_and_select() {
    check(CASES, |rng| {
        let a = small_matrix(rng, 4, 6);
        let r = a.reshape(&[6, 4]).unwrap();
        assert_eq!(r.data(), a.data());
        let s = a.select_rows(&[2, 0]);
        assert_eq!(s.row(0), a.row(2));
        assert_eq!(s.row(1), a.row(0));
    });
}

/// A network's eval-mode output is deterministic, and JSON round-trips
/// preserve it exactly.
#[test]
fn network_eval_deterministic() {
    check(CASES, |rng| {
        let seed = rng.random_range(0u64..500);
        let input = small_matrix(rng, 2, 6);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Sequential::new(vec![
            Dense::new(6, 5, &mut rng).into(),
            Activation::relu().into(),
            Dense::new(5, 2, &mut rng).into(),
        ]);
        let a = net.forward(&input, Mode::Eval);
        let b = net.forward(&input, Mode::Eval);
        assert_eq!(a, b);
        let mut restored = Sequential::from_json(&net.to_json().unwrap()).unwrap();
        let c = restored.forward(&input, Mode::Eval);
        assert_eq!(a, c);
    });
}
