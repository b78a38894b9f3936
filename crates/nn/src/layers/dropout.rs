//! Inverted dropout.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::tensor::Tensor;

/// Inverted dropout: during training each element is zeroed with probability
/// `rate` and survivors are scaled by `1 / (1 - rate)` so that the expected
/// activation is unchanged; during evaluation the layer is the identity.
///
/// The layer owns a deterministic RNG derived from `seed` so that training
/// runs are reproducible and the layer remains serializable (the stream
/// position is part of the serialized state).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dropout {
    rate: f32,
    seed: u64,
    draws: u64,
    #[serde(skip)]
    cached_mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= rate < 1.0`.
    pub fn new(rate: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&rate), "dropout rate must be in [0, 1), got {rate}");
        Self { rate, seed, draws: 0, cached_mask: None }
    }

    /// The drop probability.
    pub fn rate(&self) -> f32 {
        self.rate
    }

    /// Training forward: scales the input by a fresh random mask, cached
    /// for `backward`.
    pub(crate) fn forward_train(&mut self, input: &Tensor) -> Tensor {
        if self.rate == 0.0 {
            self.cached_mask = None;
            return input.clone();
        }
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ self.draws.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self.draws = self.draws.wrapping_add(1);
        let keep = 1.0 - self.rate;
        let scale = 1.0 / keep;
        let mut mask = Tensor::zeros(input.shape());
        for m in mask.data_mut() {
            if rng.random::<f32>() < keep {
                *m = scale;
            }
        }
        let out = input.mul(&mask);
        self.cached_mask = Some(mask);
        out
    }

    /// Forward into a caller-owned buffer: dropout is the identity at
    /// inference, so this is a plain copy.
    pub(crate) fn infer(&self, input: &Tensor, out: &mut Tensor) {
        out.resize_in_place(input.shape());
        out.data_mut().copy_from_slice(input.data());
    }

    pub(crate) fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        match &self.cached_mask {
            Some(mask) => grad_output.mul(mask),
            None => grad_output.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_mode_is_identity() {
        let d = Dropout::new(0.5, 1);
        let x = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let mut y = Tensor::default();
        d.infer(&x, &mut y);
        assert_eq!(y, x);
    }

    #[test]
    fn zero_rate_is_identity_even_in_train() {
        let mut d = Dropout::new(0.0, 1);
        let x = Tensor::from_slice(&[1.0, 2.0]);
        assert_eq!(d.forward_train(&x), x);
    }

    #[test]
    fn train_mode_preserves_expectation() {
        let mut d = Dropout::new(0.5, 42);
        let x = Tensor::ones(&[10_000]);
        let y = d.forward_train(&x);
        // Survivors are scaled to 2.0; the mean should stay near 1.
        assert!((y.mean() - 1.0).abs() < 0.1, "mean {}", y.mean());
        assert!(y.data().iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn backward_applies_same_mask() {
        let mut d = Dropout::new(0.5, 7);
        let x = Tensor::ones(&[100]);
        let y = d.forward_train(&x);
        let g = d.backward(&Tensor::ones(&[100]));
        // Gradient flows exactly where the activations survived.
        for (a, b) in y.data().iter().zip(g.data()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn successive_masks_differ() {
        let mut d = Dropout::new(0.5, 9);
        let x = Tensor::ones(&[64]);
        let a = d.forward_train(&x);
        let b = d.forward_train(&x);
        assert_ne!(a.data(), b.data());
    }

    #[test]
    #[should_panic(expected = "dropout rate")]
    fn rejects_rate_one() {
        let _ = Dropout::new(1.0, 0);
    }
}
