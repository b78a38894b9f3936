//! 2-D convolution over `[batch, channels, height, width]` inputs.
//!
//! Forward and backward are lowered onto im2col + blocked GEMM (see
//! [`crate::lowering`]). The forward walks samples in order and lets the
//! GEMM fan rows out over the compute pool; the backward is parallelized
//! across the batch. See `DESIGN.md` § "Parallelism & determinism model"
//! for why results are bit-identical at every thread count.

use noodle_compute::{gemm, gemm_at, gemm_bt, par_chunks_mut, par_map_reduce};
use noodle_profile::{EventKind, KernelTimer};
use rand::Rng;
use serde::{Deserialize, Serialize};

use super::{grad_buffer, remember, ParamMut};
use crate::init;
use crate::lowering::{col2im_2d, im2col_2d};
use crate::tensor::Tensor;

/// Batch samples handled per parallel chunk. A fixed constant (never
/// derived from the thread count) so chunk boundaries — and therefore
/// the gradient reduction order — are identical at every thread count.
const BATCH_GRAIN: usize = 4;

/// A 2-D convolution layer with stride 1 and symmetric zero padding.
///
/// Kernels are stored as `[out_channels, in_channels, kh, kw]`. Output
/// spatial dimensions are `h + 2p - kh + 1` by `w + 2p - kw + 1`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Conv2d {
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

impl Conv2d {
    /// Creates a 2-D convolution with He-uniform initialized square kernels.
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
        let fan_in = in_channels * kernel * kernel;
        let limit = init::he_uniform_limit(fan_in);
        Self {
            weight: Tensor::rand_uniform(
                &[out_channels, in_channels, kernel, kernel],
                -limit,
                limit,
                rng,
            ),
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

    /// Kernel side length.
    pub fn kernel(&self) -> usize {
        self.weight.shape()[2]
    }

    /// Symmetric zero padding applied to each spatial edge.
    pub fn padding(&self) -> usize {
        self.padding
    }

    /// The `[out_channels, in_channels, kh, kw]` kernel tensor.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The per-output-channel bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    fn out_dim(&self, dim: usize) -> usize {
        let padded = dim + 2 * self.padding;
        assert!(padded + 1 > self.kernel(), "input dim {dim} too small for kernel");
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

    /// Forward into a caller-owned buffer: per-sample im2col → bias
    /// prefill → GEMM, with the im2col scratch and output supplied by the
    /// caller and reused across calls. Samples are walked sequentially;
    /// the GEMM itself fans rows out over the compute pool.
    pub(crate) fn infer(&self, input: &Tensor, out: &mut Tensor, cols: &mut Vec<f32>) {
        assert_eq!(input.ndim(), 4, "Conv2d expects [b, c, h, w], got {:?}", input.shape());
        assert_eq!(
            input.shape()[1],
            self.in_channels(),
            "Conv2d expects {} input channels, got {}",
            self.in_channels(),
            input.shape()[1]
        );
        let (batch, cin, h, w) =
            (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        let (cout, k, pad) = (self.out_channels(), self.kernel(), self.padding);
        let (oh, ow) = (self.out_dim(h), self.out_dim(w));
        let (ckk, l) = (cin * k * k, oh * ow);
        let _prof = KernelTimer::start(
            EventKind::ConvFwd,
            2 * (batch * cout * ckk * l) as u64,
            (4 * (input.len() + batch * cout * l)) as u64,
        );
        out.resize_in_place(&[batch, cout, oh, ow]);
        cols.resize(ckk * l, 0.0);
        let x = input.data();
        let w2 = self.weight.data(); // viewed as [cout, ckk]
        let bias = self.bias.data();
        let o = out.data_mut();
        for b in 0..batch {
            im2col_2d(&x[b * cin * h * w..][..cin * h * w], cin, h, w, k, pad, oh, ow, cols);
            let out_b = &mut o[b * cout * l..][..cout * l];
            for co in 0..cout {
                out_b[co * l..][..l].fill(bias[co]);
            }
            gemm(cout, ckk, l, w2, cols, out_b);
        }
    }

    pub(crate) fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("Conv2d::backward called before forward");
        let (batch, cin, h, w) =
            (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        let (cout, k, pad) = (self.out_channels(), self.kernel(), self.padding);
        let (oh, ow) = (self.out_dim(h), self.out_dim(w));
        assert_eq!(grad_output.shape(), &[batch, cout, oh, ow]);
        let (ckk, l) = (cin * k * k, oh * ow);
        // dX (gemm_at) + dW (gemm_bt), each 2·b·cout·ckk·l FLOPs.
        let _prof = KernelTimer::start(
            EventKind::ConvBwd,
            4 * (batch * cout * ckk * l) as u64,
            (4 * (input.len() + 2 * grad_output.len())) as u64,
        );
        let x = input.data();
        let go = grad_output.data();
        let wt = self.weight.data();

        // dX: each sample's gradient image is disjoint, so the batch is
        // partitioned directly. gcols = W^T @ dY_b, then scattered back
        // onto the input grid.
        let mut grad_input = Tensor::zeros(&[batch, cin, h, w]);
        par_chunks_mut(grad_input.data_mut(), cin * h * w, BATCH_GRAIN, |samples, gi_chunk| {
            let mut gcols = vec![0.0; ckk * l];
            for (i, b) in samples.enumerate() {
                gcols.fill(0.0);
                gemm_at(cout, ckk, l, wt, &go[b * cout * l..][..cout * l], &mut gcols);
                let gi_b = &mut gi_chunk[i * cin * h * w..][..cin * h * w];
                col2im_2d(&gcols, cin, h, w, k, pad, oh, ow, gi_b);
            }
        });

        // dW / db: per-chunk partial sums (dW_b = dY_b @ cols_b^T), folded
        // in ascending chunk order so the totals are thread-count invariant.
        let partials = par_map_reduce(
            batch,
            BATCH_GRAIN,
            |samples| {
                let mut cols = vec![0.0; ckk * l];
                let mut gw = vec![0.0; cout * ckk];
                let mut gb = vec![0.0; cout];
                for b in samples {
                    im2col_2d(
                        &x[b * cin * h * w..][..cin * h * w],
                        cin,
                        h,
                        w,
                        k,
                        pad,
                        oh,
                        ow,
                        &mut cols,
                    );
                    let go_b = &go[b * cout * l..][..cout * l];
                    gemm_bt(cout, l, ckk, go_b, &cols, &mut gw);
                    for co in 0..cout {
                        gb[co] += go_b[co * l..][..l].iter().sum::<f32>();
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

    #[test]
    fn one_by_one_kernel_scales_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Conv2d::new(1, 1, 1, 0, &mut rng);
        c.weight = Tensor::from_vec(vec![1, 1, 1, 1], vec![2.0]).unwrap();
        c.bias = Tensor::zeros(&[1]);
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = c.forward_train(&x);
        assert_eq!(y.data(), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn box_filter_hand_computed() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Conv2d::new(1, 1, 2, 0, &mut rng);
        c.weight = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0; 4]).unwrap();
        c.bias = Tensor::zeros(&[1]);
        let x = Tensor::from_vec(vec![1, 1, 3, 3], (1..=9).map(|v| v as f32).collect()).unwrap();
        let y = c.forward_train(&x);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        // windows: [1,2,4,5]=12 [2,3,5,6]=16 [4,5,7,8]=24 [5,6,8,9]=28
        assert_eq!(y.data(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn same_padding_with_center_tap() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Conv2d::new(1, 1, 3, 1, &mut rng);
        let mut kernel = vec![0.0; 9];
        kernel[4] = 1.0; // centre tap
        c.weight = Tensor::from_vec(vec![1, 1, 3, 3], kernel).unwrap();
        c.bias = Tensor::zeros(&[1]);
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = c.forward_train(&x);
        assert_eq!(y.shape(), x.shape());
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn backward_box_filter_grads() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Conv2d::new(1, 1, 2, 0, &mut rng);
        c.weight = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0; 4]).unwrap();
        c.bias = Tensor::zeros(&[1]);
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let _ = c.forward_train(&x);
        let gy = Tensor::from_vec(vec![1, 1, 1, 1], vec![1.0]).unwrap();
        let gx = c.backward(&gy);
        assert_eq!(gx.data(), &[1.0; 4]);
        assert_eq!(c.grad_weight.data(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.grad_bias.data(), &[1.0]);
    }

    #[test]
    fn multichannel_shapes() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut c = Conv2d::new(3, 8, 3, 1, &mut rng);
        let x = Tensor::zeros(&[2, 3, 16, 16]);
        let y = c.forward_train(&x);
        assert_eq!(y.shape(), &[2, 8, 16, 16]);
        let gx = c.backward(&Tensor::zeros(&[2, 8, 16, 16]));
        assert_eq!(gx.shape(), &[2, 3, 16, 16]);
    }

    /// The im2col + GEMM path against a direct translation of the
    /// convolution definition, on an awkward (padding > kernel reach)
    /// multichannel case.
    #[test]
    fn forward_matches_direct_convolution() {
        let mut rng = StdRng::seed_from_u64(9);
        let c = Conv2d::new(3, 4, 3, 2, &mut rng);
        let x = Tensor::rand_uniform(&[5, 3, 6, 5], -1.0, 1.0, &mut rng);
        let mut y = Tensor::default();
        c.infer(&x, &mut y, &mut Vec::new());
        let (h, w, k, pad) = (6, 5, 3, 2);
        let (oh, ow) = (h + 2 * pad - k + 1, w + 2 * pad - k + 1);
        assert_eq!(y.shape(), &[5, 4, oh, ow]);
        for b in 0..5 {
            for co in 0..4 {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = c.bias.data()[co];
                        for ci in 0..3 {
                            for ky in 0..k {
                                let sy = oy + ky;
                                if sy < pad || sy >= pad + h {
                                    continue;
                                }
                                for kx in 0..k {
                                    let sx = ox + kx;
                                    if sx < pad || sx >= pad + w {
                                        continue;
                                    }
                                    acc += x.data()
                                        [((b * 3 + ci) * h + (sy - pad)) * w + (sx - pad)]
                                        * c.weight.data()[((co * 3 + ci) * k + ky) * k + kx];
                                }
                            }
                        }
                        let got = y.data()[((b * 4 + co) * oh + oy) * ow + ox];
                        assert!(
                            (got - acc).abs() < 1e-5,
                            "mismatch at b={b} co={co} oy={oy} ox={ox}: {got} vs {acc}"
                        );
                    }
                }
            }
        }
    }
}
