//! Elementwise activation functions.

use serde::{Deserialize, Serialize};

use super::remember;
use crate::tensor::Tensor;

/// The nonlinearity applied by an [`Activation`] layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ActivationKind {
    /// `max(0, x)`.
    Relu,
    /// `max(alpha * x, x)` with `alpha = 0.01`.
    LeakyRelu,
    /// Logistic sigmoid `1 / (1 + e^-x)`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

const LEAKY_SLOPE: f32 = 0.01;

/// An elementwise activation layer.
///
/// A training forward caches its output (or its input for the ReLU
/// variants) so the backward pass can compute the local derivative.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Activation {
    kind: ActivationKind,
    #[serde(skip)]
    cached: Option<Tensor>,
}

impl Activation {
    /// Creates an activation layer of the given kind.
    pub fn new(kind: ActivationKind) -> Self {
        Self { kind, cached: None }
    }

    /// Convenience constructor for ReLU.
    pub fn relu() -> Self {
        Self::new(ActivationKind::Relu)
    }

    /// Convenience constructor for LeakyReLU (slope 0.01).
    pub fn leaky_relu() -> Self {
        Self::new(ActivationKind::LeakyRelu)
    }

    /// Convenience constructor for the logistic sigmoid.
    pub fn sigmoid() -> Self {
        Self::new(ActivationKind::Sigmoid)
    }

    /// Convenience constructor for tanh.
    pub fn tanh() -> Self {
        Self::new(ActivationKind::Tanh)
    }

    /// The activation kind.
    pub fn kind(&self) -> ActivationKind {
        self.kind
    }

    /// Training forward: runs [`Self::infer`], then caches what
    /// `backward` needs: the input for the ReLU variants, the output for
    /// sigmoid and tanh.
    pub(crate) fn forward_train(&mut self, input: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.infer(input, &mut out);
        match self.kind {
            ActivationKind::Relu | ActivationKind::LeakyRelu => remember(&mut self.cached, input),
            ActivationKind::Sigmoid | ActivationKind::Tanh => remember(&mut self.cached, &out),
        }
        out
    }

    /// Forward into a caller-owned buffer: the elementwise map, with
    /// nothing cached.
    pub(crate) fn infer(&self, input: &Tensor, out: &mut Tensor) {
        out.resize_in_place(input.shape());
        let x = input.data();
        let o = out.data_mut();
        match self.kind {
            ActivationKind::Relu => {
                for (o, &x) in o.iter_mut().zip(x) {
                    *o = x.max(0.0);
                }
            }
            ActivationKind::LeakyRelu => {
                for (o, &x) in o.iter_mut().zip(x) {
                    *o = if x >= 0.0 { x } else { LEAKY_SLOPE * x };
                }
            }
            ActivationKind::Sigmoid => {
                for (o, &x) in o.iter_mut().zip(x) {
                    *o = sigmoid(x);
                }
            }
            ActivationKind::Tanh => {
                for (o, &x) in o.iter_mut().zip(x) {
                    *o = x.tanh();
                }
            }
        }
    }

    pub(crate) fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let cached = self.cached.as_ref().expect("Activation::backward called before forward");
        match self.kind {
            ActivationKind::Relu => {
                cached.zip_map(grad_output, |x, g| if x > 0.0 { g } else { 0.0 })
            }
            ActivationKind::LeakyRelu => {
                cached.zip_map(grad_output, |x, g| if x >= 0.0 { g } else { LEAKY_SLOPE * g })
            }
            ActivationKind::Sigmoid => cached.zip_map(grad_output, |y, g| g * y * (1.0 - y)),
            ActivationKind::Tanh => cached.zip_map(grad_output, |y, g| g * (1.0 - y * y)),
        }
    }
}

/// Numerically stable logistic sigmoid.
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Row-wise softmax of a rank-2 tensor `[batch, classes]`, numerically
/// stabilized by subtracting the row maximum.
///
/// # Panics
///
/// Panics if `logits` is not rank 2.
pub fn softmax_rows(logits: &Tensor) -> Tensor {
    let mut out = logits.clone();
    softmax_rows_inplace(&mut out);
    out
}

/// In-place variant of [`softmax_rows`]: the same per-row arithmetic
/// (subtract the row max, exponentiate and sum, divide) applied directly
/// to `logits` without allocating. Used by the inference path.
///
/// # Panics
///
/// Panics if `logits` is not rank 2.
pub fn softmax_rows_inplace(logits: &mut Tensor) {
    assert_eq!(logits.ndim(), 2, "softmax_rows expects rank 2, got {:?}", logits.shape());
    let (batch, classes) = (logits.shape()[0], logits.shape()[1]);
    let data = logits.data_mut();
    for b in 0..batch {
        let row = &mut data[b * classes..(b + 1) * classes];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut a = Activation::relu();
        let x = Tensor::from_slice(&[-1.0, 0.0, 2.0]);
        let y = a.forward_train(&x);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
        let g = a.backward(&Tensor::from_slice(&[1.0, 1.0, 1.0]));
        assert_eq!(g.data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn leaky_relu_keeps_small_negative_gradient() {
        let mut a = Activation::leaky_relu();
        let x = Tensor::from_slice(&[-2.0, 3.0]);
        let y = a.forward_train(&x);
        assert!((y.data()[0] + 0.02).abs() < 1e-6);
        assert_eq!(y.data()[1], 3.0);
        let g = a.backward(&Tensor::from_slice(&[1.0, 1.0]));
        assert!((g.data()[0] - 0.01).abs() < 1e-6);
        assert_eq!(g.data()[1], 1.0);
    }

    #[test]
    fn sigmoid_matches_closed_form() {
        let mut a = Activation::sigmoid();
        let x = Tensor::from_slice(&[0.0]);
        let y = a.forward_train(&x);
        assert!((y.data()[0] - 0.5).abs() < 1e-6);
        // d sigmoid at 0 = 0.25
        let g = a.backward(&Tensor::from_slice(&[1.0]));
        assert!((g.data()[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_is_stable_for_large_inputs() {
        assert!((sigmoid(100.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid(-100.0).abs() < 1e-6);
        assert!(sigmoid(-100.0) > 0.0 || sigmoid(-100.0) == 0.0);
        assert!(sigmoid(f32::MIN).is_finite());
    }

    #[test]
    fn tanh_backward_uses_output() {
        let mut a = Activation::tanh();
        let x = Tensor::from_slice(&[0.5]);
        let y = a.forward_train(&x);
        let g = a.backward(&Tensor::from_slice(&[1.0]));
        let expected = 1.0 - y.data()[0] * y.data()[0];
        assert!((g.data()[0] - expected).abs() < 1e-6);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1000.0]).unwrap();
        let p = softmax_rows(&logits);
        for b in 0..2 {
            let s: f32 = p.row(b).iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {b} sums to {s}");
            assert!(p.row(b).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
        // Huge logit dominates without NaN.
        assert!((p.at(&[1, 2]) - 1.0).abs() < 1e-5);
    }
}
