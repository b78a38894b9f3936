//! 1-D convolution over `[batch, channels, length]` inputs.
//!
//! Forward and backward are lowered onto im2col + blocked GEMM (see
//! [`crate::lowering`]) exactly like [`super::Conv2d`].

use noodle_compute::{gemm, gemm_at, gemm_bt, par_chunks_mut, par_map_reduce};
use noodle_profile::{EventKind, KernelTimer};
use rand::Rng;
use serde::{Deserialize, Serialize};

use super::{grad_buffer, remember, ParamMut};
use crate::init;
use crate::lowering::{col2im_1d, im2col_1d};
use crate::tensor::Tensor;

/// Batch samples handled per parallel chunk; fixed (never derived from
/// the thread count) so gradient reduction order is thread-count
/// invariant.
const BATCH_GRAIN: usize = 4;

/// A 1-D convolution layer with stride 1 and symmetric zero padding.
///
/// Kernels are stored as `[out_channels, in_channels, kernel]`. The output
/// length is `len + 2 * padding - kernel + 1`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Conv1d {
    weight: Tensor,
    bias: Tensor,
    #[serde(skip)]
    grad_weight: Tensor,
    #[serde(skip)]
    grad_bias: Tensor,
    padding: usize,
    #[serde(skip)]
    cached_input: Option<Tensor>,
}

impl Conv1d {
    /// Creates a 1-D convolution with He-uniform initialized kernels.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` is zero.
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        padding: usize,
        rng: &mut R,
    ) -> Self {
        assert!(kernel > 0, "kernel size must be positive");
        let fan_in = in_channels * kernel;
        let limit = init::he_uniform_limit(fan_in);
        Self {
            weight: Tensor::rand_uniform(&[out_channels, in_channels, kernel], -limit, limit, rng),
            bias: Tensor::zeros(&[out_channels]),
            grad_weight: Tensor::default(),
            grad_bias: Tensor::default(),
            padding,
            cached_input: None,
        }
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.weight.shape()[1]
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.weight.shape()[0]
    }

    /// Kernel width.
    pub fn kernel(&self) -> usize {
        self.weight.shape()[2]
    }

    /// Symmetric zero padding applied to each end of the sequence.
    pub fn padding(&self) -> usize {
        self.padding
    }

    /// The `[out_channels, in_channels, k]` kernel tensor.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The per-output-channel bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Output length for an input of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if the padded length is shorter than the kernel.
    pub fn output_len(&self, len: usize) -> usize {
        let padded = len + 2 * self.padding;
        assert!(padded + 1 > self.kernel(), "input length {len} too short for kernel");
        padded - self.kernel() + 1
    }

    /// Training forward: caches the input for `backward`, then runs
    /// [`Self::infer`].
    pub(crate) fn forward_train(&mut self, input: &Tensor) -> Tensor {
        remember(&mut self.cached_input, input);
        let mut out = Tensor::default();
        self.infer(input, &mut out, &mut Vec::new());
        out
    }

    /// Forward into a caller-owned buffer; see [`super::Conv2d::infer`]:
    /// per-sample im2col → bias prefill → GEMM, with the scratch buffers
    /// reused across calls.
    pub(crate) fn infer(&self, input: &Tensor, out: &mut Tensor, cols: &mut Vec<f32>) {
        assert_eq!(input.ndim(), 3, "Conv1d expects [batch, ch, len], got {:?}", input.shape());
        assert_eq!(
            input.shape()[1],
            self.in_channels(),
            "Conv1d expects {} input channels, got {}",
            self.in_channels(),
            input.shape()[1]
        );
        let (batch, cin, len) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let (cout, k, pad) = (self.out_channels(), self.kernel(), self.padding);
        let out_len = self.output_len(len);
        let ck = cin * k;
        let _prof = KernelTimer::start(
            EventKind::ConvFwd,
            2 * (batch * cout * ck * out_len) as u64,
            (4 * (input.len() + batch * cout * out_len)) as u64,
        );
        out.resize_in_place(&[batch, cout, out_len]);
        cols.resize(ck * out_len, 0.0);
        let x = input.data();
        let w2 = self.weight.data(); // viewed as [cout, ck]
        let bias = self.bias.data();
        let o = out.data_mut();
        for b in 0..batch {
            im2col_1d(&x[b * cin * len..][..cin * len], cin, len, k, pad, out_len, cols);
            let out_b = &mut o[b * cout * out_len..][..cout * out_len];
            for co in 0..cout {
                out_b[co * out_len..][..out_len].fill(bias[co]);
            }
            gemm(cout, ck, out_len, w2, cols, out_b);
        }
    }

    pub(crate) fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("Conv1d::backward called before forward");
        let (batch, cin, len) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let (cout, k, pad) = (self.out_channels(), self.kernel(), self.padding);
        let out_len = self.output_len(len);
        assert_eq!(grad_output.shape(), &[batch, cout, out_len]);
        let ck = cin * k;
        // dX (gemm_at) + dW (gemm_bt), each 2·b·cout·ck·out_len FLOPs.
        let _prof = KernelTimer::start(
            EventKind::ConvBwd,
            4 * (batch * cout * ck * out_len) as u64,
            (4 * (input.len() + 2 * grad_output.len())) as u64,
        );
        let x = input.data();
        let go = grad_output.data();
        let wt = self.weight.data();

        // dX per sample: gcols = W^T @ dY_b, scattered back onto the grid.
        let mut grad_input = Tensor::zeros(&[batch, cin, len]);
        par_chunks_mut(grad_input.data_mut(), cin * len, BATCH_GRAIN, |samples, gi_chunk| {
            let mut gcols = vec![0.0; ck * out_len];
            for (i, b) in samples.enumerate() {
                gcols.fill(0.0);
                gemm_at(
                    cout,
                    ck,
                    out_len,
                    wt,
                    &go[b * cout * out_len..][..cout * out_len],
                    &mut gcols,
                );
                let gi_b = &mut gi_chunk[i * cin * len..][..cin * len];
                col2im_1d(&gcols, cin, len, k, pad, out_len, gi_b);
            }
        });

        // dW / db: per-chunk partials folded in ascending chunk order.
        let partials = par_map_reduce(
            batch,
            BATCH_GRAIN,
            |samples| {
                let mut cols = vec![0.0; ck * out_len];
                let mut gw = vec![0.0; cout * ck];
                let mut gb = vec![0.0; cout];
                for b in samples {
                    im2col_1d(
                        &x[b * cin * len..][..cin * len],
                        cin,
                        len,
                        k,
                        pad,
                        out_len,
                        &mut cols,
                    );
                    let go_b = &go[b * cout * out_len..][..cout * out_len];
                    gemm_bt(cout, out_len, ck, go_b, &cols, &mut gw);
                    for co in 0..cout {
                        gb[co] += go_b[co * out_len..][..out_len].iter().sum::<f32>();
                    }
                }
                (gw, gb)
            },
            |(mut gw, mut gb), (gw2, gb2)| {
                for (a, b) in gw.iter_mut().zip(&gw2) {
                    *a += *b;
                }
                for (a, b) in gb.iter_mut().zip(&gb2) {
                    *a += *b;
                }
                (gw, gb)
            },
        );
        if let Some((gw, gb)) = partials {
            for (a, b) in
                grad_buffer(&mut self.grad_weight, &self.weight).data_mut().iter_mut().zip(&gw)
            {
                *a += *b;
            }
            for (a, b) in
                grad_buffer(&mut self.grad_bias, &self.bias).data_mut().iter_mut().zip(&gb)
            {
                *a += *b;
            }
        }
        grad_input
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

    fn identity_conv() -> Conv1d {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Conv1d::new(1, 1, 1, 0, &mut rng);
        c.weight = Tensor::from_vec(vec![1, 1, 1], vec![1.0]).unwrap();
        c.bias = Tensor::zeros(&[1]);
        c
    }

    #[test]
    fn kernel_one_is_identity() {
        let mut c = identity_conv();
        let x = Tensor::from_vec(vec![1, 1, 4], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = c.forward_train(&x);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn moving_sum_kernel() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Conv1d::new(1, 1, 2, 0, &mut rng);
        c.weight = Tensor::from_vec(vec![1, 1, 2], vec![1.0, 1.0]).unwrap();
        c.bias = Tensor::zeros(&[1]);
        let x = Tensor::from_vec(vec![1, 1, 4], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = c.forward_train(&x);
        assert_eq!(y.shape(), &[1, 1, 3]);
        assert_eq!(y.data(), &[3.0, 5.0, 7.0]);
    }

    #[test]
    fn padding_extends_output() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Conv1d::new(1, 1, 3, 1, &mut rng);
        c.weight = Tensor::from_vec(vec![1, 1, 3], vec![0.0, 1.0, 0.0]).unwrap();
        c.bias = Tensor::zeros(&[1]);
        let x = Tensor::from_vec(vec![1, 1, 3], vec![5.0, 6.0, 7.0]).unwrap();
        let y = c.forward_train(&x);
        // Centre-tap kernel with same-padding reproduces the input.
        assert_eq!(y.shape(), &[1, 1, 3]);
        assert_eq!(y.data(), &[5.0, 6.0, 7.0]);
    }

    #[test]
    fn bias_is_added_per_channel() {
        let mut c = identity_conv();
        c.bias = Tensor::from_slice(&[10.0]);
        let x = Tensor::from_vec(vec![1, 1, 2], vec![1.0, 2.0]).unwrap();
        assert_eq!(c.forward_train(&x).data(), &[11.0, 12.0]);
    }

    #[test]
    fn backward_grad_input_for_moving_sum() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Conv1d::new(1, 1, 2, 0, &mut rng);
        c.weight = Tensor::from_vec(vec![1, 1, 2], vec![1.0, 1.0]).unwrap();
        c.bias = Tensor::zeros(&[1]);
        let x = Tensor::from_vec(vec![1, 1, 3], vec![1.0, 2.0, 3.0]).unwrap();
        let _ = c.forward_train(&x);
        let gy = Tensor::from_vec(vec![1, 1, 2], vec![1.0, 1.0]).unwrap();
        let gx = c.backward(&gy);
        // Middle input appears in both windows.
        assert_eq!(gx.data(), &[1.0, 2.0, 1.0]);
        // dW[k] = sum_t gy[t] * x[t+k]
        assert_eq!(c.grad_weight.data(), &[3.0, 5.0]);
        assert_eq!(c.grad_bias.data(), &[2.0]);
    }

    #[test]
    fn multi_channel_shapes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut c = Conv1d::new(2, 4, 3, 1, &mut rng);
        let x = Tensor::zeros(&[5, 2, 8]);
        let y = c.forward_train(&x);
        assert_eq!(y.shape(), &[5, 4, 8]);
        let gx = c.backward(&Tensor::zeros(&[5, 4, 8]));
        assert_eq!(gx.shape(), &[5, 2, 8]);
    }
}
