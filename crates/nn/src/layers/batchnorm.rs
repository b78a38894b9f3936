//! Batch normalization over `[batch, features]` inputs.

use serde::{Deserialize, Serialize};

use super::{grad_buffer, ParamMut};
use crate::tensor::{ShapeError, Tensor};

const EPS: f32 = 1e-5;

/// 1-D batch normalization: per-feature standardization over the batch with
/// learned scale (γ) and shift (β), plus running statistics for inference.
///
/// Training mode normalizes with the batch statistics and updates
/// exponential running averages; evaluation mode normalizes with the
/// running averages, so single-sample inference is well defined.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchNorm1d {
    gamma: Tensor,
    beta: Tensor,
    #[serde(skip)]
    grad_gamma: Tensor,
    #[serde(skip)]
    grad_beta: Tensor,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    #[serde(skip)]
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    normalized: Tensor,
    std_inv: Vec<f32>,
}

impl BatchNorm1d {
    /// Creates a batch-norm layer for `features`-wide inputs with the
    /// standard momentum 0.1.
    pub fn new(features: usize) -> Self {
        Self {
            gamma: Tensor::ones(&[features]),
            beta: Tensor::zeros(&[features]),
            grad_gamma: Tensor::default(),
            grad_beta: Tensor::default(),
            running_mean: vec![0.0; features],
            running_var: vec![1.0; features],
            momentum: 0.1,
            cache: None,
        }
    }

    /// Number of normalized features.
    pub fn features(&self) -> usize {
        self.gamma.len()
    }

    /// See [`super::Layer::check`].
    pub(super) fn check(&self) -> Result<(), ShapeError> {
        let n = self.features();
        let widths = [self.beta.len(), self.running_mean.len(), self.running_var.len()];
        if self.gamma.ndim() != 1 || self.beta.ndim() != 1 || widths.iter().any(|&w| w != n) {
            return Err(ShapeError::new(format!(
                "BatchNorm1d has {n} scales but (shift, mean, variance) widths {widths:?}"
            )));
        }
        Ok(())
    }

    /// Training forward: normalizes with the batch statistics, folds them
    /// into the running averages and caches what `backward` needs.
    pub(crate) fn forward_train(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(input.ndim(), 2, "BatchNorm1d expects [batch, features]");
        let (batch, features) = (input.shape()[0], input.shape()[1]);
        assert_eq!(features, self.features(), "feature count mismatch");
        assert!(batch > 1, "BatchNorm1d training needs batch size > 1");
        let x = input.data();
        let mut mean = vec![0.0f32; features];
        let mut var = vec![0.0f32; features];
        for r in 0..batch {
            for c in 0..features {
                mean[c] += x[r * features + c] / batch as f32;
            }
        }
        for r in 0..batch {
            for c in 0..features {
                let d = x[r * features + c] - mean[c];
                var[c] += d * d / batch as f32;
            }
        }
        let std_inv: Vec<f32> = var.iter().map(|&v| 1.0 / (v + EPS).sqrt()).collect();
        let mut out = Tensor::zeros(&[batch, features]);
        let mut normalized = Tensor::zeros(&[batch, features]);
        {
            let n = normalized.data_mut();
            let o = out.data_mut();
            for r in 0..batch {
                for c in 0..features {
                    let idx = r * features + c;
                    n[idx] = (x[idx] - mean[c]) * std_inv[c];
                    o[idx] = self.gamma.data()[c] * n[idx] + self.beta.data()[c];
                }
            }
        }
        for c in 0..features {
            self.running_mean[c] =
                (1.0 - self.momentum) * self.running_mean[c] + self.momentum * mean[c];
            self.running_var[c] =
                (1.0 - self.momentum) * self.running_var[c] + self.momentum * var[c];
        }
        self.cache = Some(BnCache { normalized, std_inv });
        out
    }

    /// Forward into a caller-owned buffer: normalizes with the running
    /// statistics, so single-sample inference is well defined.
    pub(crate) fn infer(&self, input: &Tensor, out: &mut Tensor) {
        assert_eq!(input.ndim(), 2, "BatchNorm1d expects [batch, features]");
        let (batch, features) = (input.shape()[0], input.shape()[1]);
        assert_eq!(features, self.features(), "feature count mismatch");
        out.resize_in_place(&[batch, features]);
        let x = input.data();
        let o = out.data_mut();
        for r in 0..batch {
            for c in 0..features {
                let idx = r * features + c;
                let n = (x[idx] - self.running_mean[c]) / (self.running_var[c] + EPS).sqrt();
                o[idx] = self.gamma.data()[c] * n + self.beta.data()[c];
            }
        }
    }

    pub(crate) fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let cache =
            self.cache.as_ref().expect("BatchNorm1d::backward called before a training forward");
        let (batch, features) = (grad_output.shape()[0], grad_output.shape()[1]);
        let go = grad_output.data();
        let n = cache.normalized.data();
        // dβ = Σ dy ; dγ = Σ dy · x̂
        let gb = grad_buffer(&mut self.grad_beta, &self.beta).data_mut();
        let gg = grad_buffer(&mut self.grad_gamma, &self.gamma).data_mut();
        let mut sum_dy = vec![0.0f32; features];
        let mut sum_dy_n = vec![0.0f32; features];
        for r in 0..batch {
            for c in 0..features {
                let idx = r * features + c;
                sum_dy[c] += go[idx];
                sum_dy_n[c] += go[idx] * n[idx];
            }
        }
        for c in 0..features {
            gb[c] += sum_dy[c];
            gg[c] += sum_dy_n[c];
        }
        // dx = (γ σ⁻¹ / B) · (B dy − Σdy − x̂ Σ(dy·x̂))
        let mut grad_input = Tensor::zeros(&[batch, features]);
        let gi = grad_input.data_mut();
        let b = batch as f32;
        for r in 0..batch {
            for c in 0..features {
                let idx = r * features + c;
                gi[idx] = self.gamma.data()[c] * cache.std_inv[c] / b
                    * (b * go[idx] - sum_dy[c] - n[idx] * sum_dy_n[c]);
            }
        }
        grad_input
    }

    pub(crate) fn params_mut(&mut self) -> Vec<ParamMut<'_>> {
        vec![
            ParamMut::new(&mut self.gamma, &mut self.grad_gamma),
            ParamMut::new(&mut self.beta, &mut self.grad_beta),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn train_output_is_standardized() {
        let mut bn = BatchNorm1d::new(2);
        let x =
            Tensor::from_vec(vec![4, 2], vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0, 4.0, 40.0]).unwrap();
        let y = bn.forward_train(&x);
        for c in 0..2 {
            let col: Vec<f32> = (0..4).map(|r| y.at(&[r, c])).collect();
            let mean: f32 = col.iter().sum::<f32>() / 4.0;
            let var: f32 = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5, "col {c} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "col {c} var {var}");
        }
    }

    #[test]
    fn eval_uses_running_statistics() {
        let mut bn = BatchNorm1d::new(1);
        let x = Tensor::from_vec(vec![4, 1], vec![2.0, 4.0, 6.0, 8.0]).unwrap();
        for _ in 0..200 {
            let _ = bn.forward_train(&x);
        }
        // Running stats converge to batch stats (mean 5, var 5).
        let single = Tensor::from_vec(vec![1, 1], vec![5.0]).unwrap();
        let mut y = Tensor::default();
        bn.infer(&single, &mut y);
        assert!(y.data()[0].abs() < 0.05, "mean input should map near 0: {}", y.data()[0]);
    }

    #[test]
    fn gamma_beta_affect_output() {
        let mut bn = BatchNorm1d::new(1);
        bn.gamma = Tensor::from_slice(&[2.0]);
        bn.beta = Tensor::from_slice(&[1.0]);
        let x = Tensor::from_vec(vec![2, 1], vec![-1.0, 1.0]).unwrap();
        let y = bn.forward_train(&x);
        // Standardized to ±1, then ×2 + 1 → -1 and 3.
        assert!((y.data()[0] + 1.0).abs() < 1e-3);
        assert!((y.data()[1] - 3.0).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "batch size > 1")]
    fn train_rejects_singleton_batch() {
        let mut bn = BatchNorm1d::new(1);
        let _ = bn.forward_train(&Tensor::zeros(&[1, 1]));
    }

    #[test]
    fn eval_handles_singleton_batch() {
        let bn = BatchNorm1d::new(3);
        let mut y = Tensor::default();
        bn.infer(&Tensor::ones(&[1, 3]), &mut y);
        assert_eq!(y.shape(), &[1, 3]);
    }
}
