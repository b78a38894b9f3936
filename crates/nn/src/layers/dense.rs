//! Fully connected (affine) layer.

use noodle_profile::{EventKind, KernelTimer};
use rand::Rng;
use serde::{Deserialize, Serialize};

use super::{grad_buffer, remember, ParamMut};
use crate::init;
use crate::tensor::Tensor;

/// A fully connected layer computing `y = x W^T + b`.
///
/// Input shape `[batch, in_features]`, output shape `[batch, out_features]`.
/// Weights are stored as `[out_features, in_features]` and initialized with
/// Glorot-uniform scaling.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    weight: Tensor,
    bias: Tensor,
    #[serde(skip)]
    grad_weight: Tensor,
    #[serde(skip)]
    grad_bias: Tensor,
    #[serde(skip)]
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with Glorot-uniform initialized weights.
    pub fn new<R: Rng + ?Sized>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        let limit = init::glorot_uniform_limit(in_features, out_features);
        Self {
            weight: Tensor::rand_uniform(&[out_features, in_features], -limit, limit, rng),
            bias: Tensor::zeros(&[out_features]),
            grad_weight: Tensor::default(),
            grad_bias: Tensor::default(),
            cached_input: None,
        }
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.weight.shape()[1]
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.weight.shape()[0]
    }

    /// The weight matrix `[out_features, in_features]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The bias vector `[out_features]`.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Training forward: caches the input for `backward`, then runs
    /// [`Self::infer`].
    pub(crate) fn forward_train(&mut self, input: &Tensor) -> Tensor {
        remember(&mut self.cached_input, input);
        let mut out = Tensor::default();
        self.infer(input, &mut out);
        out
    }

    /// Forward into a caller-owned buffer: a zeroed GEMM accumulator,
    /// then the bias. Allocation-free once `out` has warmed up to the
    /// output size.
    pub(crate) fn infer(&self, input: &Tensor, out: &mut Tensor) {
        assert_eq!(input.ndim(), 2, "Dense expects [batch, in] input, got {:?}", input.shape());
        assert_eq!(
            input.shape()[1],
            self.in_features(),
            "Dense expects {} input features, got {}",
            self.in_features(),
            input.shape()[1]
        );
        let (batch, out_f) = (input.shape()[0], self.out_features());
        let _prof = KernelTimer::start(
            EventKind::DenseFwd,
            2 * (batch * self.in_features() * out_f) as u64,
            (4 * (input.len() + batch * out_f)) as u64,
        );
        out.resize_in_place(&[batch, out_f]);
        let data = out.data_mut();
        data.fill(0.0);
        noodle_compute::gemm_bt(
            batch,
            self.in_features(),
            out_f,
            input.data(),
            self.weight.data(),
            data,
        );
        let bias = self.bias.data();
        for b in 0..batch {
            for j in 0..out_f {
                data[b * out_f + j] += bias[j];
            }
        }
    }

    pub(crate) fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("Dense::backward called before forward");
        // dW (add_matmul_at) + dX (matmul), each 2·b·in·out FLOPs.
        let _prof = KernelTimer::start(
            EventKind::DenseBwd,
            4 * (grad_output.shape()[0] * self.in_features() * self.out_features()) as u64,
            (4 * (input.len() + 2 * grad_output.len())) as u64,
        );
        // dW = dY^T X ; db = sum over batch ; dX = dY W
        grad_buffer(&mut self.grad_weight, &self.weight).add_matmul_at(grad_output, input);
        let (batch, out_f) = (grad_output.shape()[0], grad_output.shape()[1]);
        let gb = grad_buffer(&mut self.grad_bias, &self.bias).data_mut();
        let go = grad_output.data();
        for b in 0..batch {
            for j in 0..out_f {
                gb[j] += go[b * out_f + j];
            }
        }
        grad_output.matmul(&self.weight)
    }

    pub(crate) fn params_mut(&mut self) -> Vec<ParamMut<'_>> {
        vec![
            ParamMut::new(&mut self.weight, &mut self.grad_weight),
            ParamMut::new(&mut self.bias, &mut self.grad_bias),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixed_dense() -> Dense {
        let mut rng = StdRng::seed_from_u64(0);
        let mut d = Dense::new(2, 2, &mut rng);
        // w = [[1, 2], [3, 4]], b = [0.5, -0.5]
        d.weight = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        d.bias = Tensor::from_slice(&[0.5, -0.5]);
        d
    }

    #[test]
    fn forward_hand_computed() {
        let mut d = fixed_dense();
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, 1.0]).unwrap();
        let y = d.forward_train(&x);
        // y0 = 1*1 + 2*1 + 0.5 = 3.5 ; y1 = 3 + 4 - 0.5 = 6.5
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn backward_shapes_and_values() {
        let mut d = fixed_dense();
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, 2.0]).unwrap();
        let _ = d.forward_train(&x);
        let gy = Tensor::from_vec(vec![1, 2], vec![1.0, 1.0]).unwrap();
        let gx = d.backward(&gy);
        // dX = gy W = [1+3, 2+4]
        assert_eq!(gx.data(), &[4.0, 6.0]);
        // dW = gy^T x = [[1,2],[1,2]]
        assert_eq!(d.grad_weight.data(), &[1.0, 2.0, 1.0, 2.0]);
        assert_eq!(d.grad_bias.data(), &[1.0, 1.0]);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut d = fixed_dense();
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, 0.0]).unwrap();
        let gy = Tensor::from_vec(vec![1, 2], vec![1.0, 0.0]).unwrap();
        let _ = d.forward_train(&x);
        let _ = d.backward(&gy);
        let _ = d.forward_train(&x);
        let _ = d.backward(&gy);
        assert_eq!(d.grad_bias.data()[0], 2.0);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_without_forward_panics() {
        let mut d = fixed_dense();
        let gy = Tensor::zeros(&[1, 2]);
        let _ = d.backward(&gy);
    }

    #[test]
    fn init_within_glorot_limit() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = Dense::new(100, 50, &mut rng);
        let limit = crate::init::glorot_uniform_limit(100, 50);
        assert!(d.weight().data().iter().all(|w| w.abs() <= limit));
        assert!(d.bias().data().iter().all(|&b| b == 0.0));
    }
}
