//! Max-pooling layers.

use serde::{Deserialize, Serialize};

use crate::tensor::Tensor;

/// 1-D max pooling over `[batch, channels, length]` with non-overlapping
/// windows (`stride == kernel`). Trailing elements that do not fill a full
/// window are dropped.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MaxPool1d {
    kernel: usize,
    #[serde(skip)]
    cached: Option<PoolCache>,
}

/// 2-D max pooling over `[batch, channels, height, width]` with
/// non-overlapping square windows.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MaxPool2d {
    kernel: usize,
    #[serde(skip)]
    cached: Option<PoolCache>,
}

#[derive(Debug, Clone)]
struct PoolCache {
    input_shape: Vec<usize>,
    /// For each output element, the flat index of the winning input element.
    argmax: Vec<usize>,
}

impl MaxPool1d {
    /// Creates a 1-D max-pool with the given window size.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` is zero.
    pub fn new(kernel: usize) -> Self {
        assert!(kernel > 0, "pool kernel must be positive");
        Self { kernel, cached: None }
    }

    /// The pooling window size.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Training forward: the window scan with argmax indices, cached for
    /// `backward`.
    pub(crate) fn forward_train(&mut self, input: &Tensor) -> Tensor {
        let (mut out, mut argmax) = (Tensor::default(), Vec::new());
        self.scan(input, &mut out, Some(&mut argmax));
        self.cached = Some(PoolCache { input_shape: input.shape().to_vec(), argmax });
        out
    }

    /// Forward into a caller-owned buffer: the window scan, with no
    /// argmax indices recorded.
    pub(crate) fn infer(&self, input: &Tensor, out: &mut Tensor) {
        self.scan(input, out, None);
    }

    /// The window scan. Given an `argmax` buffer, it also records the flat
    /// input index of each window's max: the window's first element unless
    /// a later one is strictly greater.
    fn scan(&self, input: &Tensor, out: &mut Tensor, mut argmax: Option<&mut Vec<usize>>) {
        assert_eq!(input.ndim(), 3, "MaxPool1d expects [b, c, l], got {:?}", input.shape());
        let (batch, ch, len) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let k = self.kernel;
        let out_len = len / k;
        assert!(out_len > 0, "input length {len} shorter than pool kernel {k}");
        out.resize_in_place(&[batch, ch, out_len]);
        if let Some(a) = argmax.as_deref_mut() {
            a.clear();
            a.resize(out.len(), 0);
        }
        let (x, o) = (input.data(), out.data_mut());
        for p in 0..batch * ch {
            for t in 0..out_len {
                let first = p * len + t * k;
                let window = &x[first..first + k];
                let (mut best, mut best_at) = (window[0], 0);
                for (i, &v) in window.iter().enumerate().skip(1) {
                    if v > best {
                        best = v;
                        best_at = i;
                    }
                }
                o[p * out_len + t] = best;
                if let Some(a) = argmax.as_deref_mut() {
                    a[p * out_len + t] = first + best_at;
                }
            }
        }
    }

    pub(crate) fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let cache = self.cached.as_ref().expect("MaxPool1d::backward called before forward");
        scatter_pool_grad(cache, grad_output)
    }
}

impl MaxPool2d {
    /// Creates a 2-D max-pool with square windows of side `kernel`.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` is zero.
    pub fn new(kernel: usize) -> Self {
        assert!(kernel > 0, "pool kernel must be positive");
        Self { kernel, cached: None }
    }

    /// The pooling window side length.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Training forward: the window scan with argmax indices, cached for
    /// `backward`.
    pub(crate) fn forward_train(&mut self, input: &Tensor) -> Tensor {
        let (mut out, mut argmax) = (Tensor::default(), Vec::new());
        self.scan(input, &mut out, Some(&mut argmax));
        self.cached = Some(PoolCache { input_shape: input.shape().to_vec(), argmax });
        out
    }

    /// Forward into a caller-owned buffer: the window scan, with no
    /// argmax indices recorded.
    pub(crate) fn infer(&self, input: &Tensor, out: &mut Tensor) {
        self.scan(input, out, None);
    }

    /// The window scan. Given an `argmax` buffer, it also records the flat
    /// input index of each window's max: the window's first element unless
    /// a later one is strictly greater, so a window with no value above −∞
    /// routes its gradient inside itself.
    fn scan(&self, input: &Tensor, out: &mut Tensor, mut argmax: Option<&mut Vec<usize>>) {
        assert_eq!(input.ndim(), 4, "MaxPool2d expects [b, c, h, w], got {:?}", input.shape());
        let (batch, ch, h, w) =
            (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        let k = self.kernel;
        let (oh, ow) = (h / k, w / k);
        assert!(oh > 0 && ow > 0, "input {h}x{w} smaller than pool kernel {k}");
        out.resize_in_place(&[batch, ch, oh, ow]);
        if let Some(a) = argmax.as_deref_mut() {
            a.clear();
            a.resize(out.len(), 0);
        }
        let (x, o) = (input.data(), out.data_mut());
        for p in 0..batch * ch {
            for oy in 0..oh {
                for ox in 0..ow {
                    let first = (p * h + oy * k) * w + ox * k;
                    let (mut best, mut best_idx) = (x[first], first);
                    for ky in 0..k {
                        for kx in 0..k {
                            let idx = first + ky * w + kx;
                            if x[idx] > best {
                                best = x[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    let oi = (p * oh + oy) * ow + ox;
                    o[oi] = best;
                    if let Some(a) = argmax.as_deref_mut() {
                        a[oi] = best_idx;
                    }
                }
            }
        }
    }

    pub(crate) fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let cache = self.cached.as_ref().expect("MaxPool2d::backward called before forward");
        scatter_pool_grad(cache, grad_output)
    }
}

fn scatter_pool_grad(cache: &PoolCache, grad_output: &Tensor) -> Tensor {
    assert_eq!(
        grad_output.len(),
        cache.argmax.len(),
        "pool backward gradient has wrong number of elements"
    );
    let mut grad_input = Tensor::zeros(&cache.input_shape);
    let gi = grad_input.data_mut();
    for (oi, &src) in cache.argmax.iter().enumerate() {
        gi[src] += grad_output.data()[oi];
    }
    grad_input
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool1d_picks_window_max() {
        let mut p = MaxPool1d::new(2);
        let x = Tensor::from_vec(vec![1, 1, 6], vec![1.0, 3.0, 2.0, 2.0, 5.0, 4.0]).unwrap();
        let y = p.forward_train(&x);
        assert_eq!(y.data(), &[3.0, 2.0, 5.0]);
    }

    #[test]
    fn pool1d_drops_trailing_remainder() {
        let mut p = MaxPool1d::new(2);
        let x = Tensor::from_vec(vec![1, 1, 5], vec![1.0, 2.0, 3.0, 4.0, 99.0]).unwrap();
        let y = p.forward_train(&x);
        assert_eq!(y.shape(), &[1, 1, 2]);
        assert_eq!(y.data(), &[2.0, 4.0]);
    }

    #[test]
    fn pool1d_backward_routes_to_argmax() {
        let mut p = MaxPool1d::new(2);
        let x = Tensor::from_vec(vec![1, 1, 4], vec![1.0, 3.0, 5.0, 2.0]).unwrap();
        let _ = p.forward_train(&x);
        let gy = Tensor::from_vec(vec![1, 1, 2], vec![10.0, 20.0]).unwrap();
        let gx = p.backward(&gy);
        assert_eq!(gx.data(), &[0.0, 10.0, 20.0, 0.0]);
    }

    #[test]
    fn pool2d_hand_computed() {
        let mut p = MaxPool2d::new(2);
        let x = Tensor::from_vec(
            vec![1, 1, 4, 4],
            vec![
                1.0, 2.0, 3.0, 4.0, //
                5.0, 6.0, 7.0, 8.0, //
                9.0, 10.0, 11.0, 12.0, //
                13.0, 14.0, 15.0, 16.0,
            ],
        )
        .unwrap();
        let y = p.forward_train(&x);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn pool2d_backward_routes_to_argmax() {
        let mut p = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![4.0, 1.0, 2.0, 3.0]).unwrap();
        let _ = p.forward_train(&x);
        let gy = Tensor::from_vec(vec![1, 1, 1, 1], vec![7.0]).unwrap();
        let gx = p.backward(&gy);
        assert_eq!(gx.data(), &[7.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn pool2d_routes_an_all_negative_infinity_window_inside_itself() {
        let mut p = MaxPool2d::new(2);
        let inf = f32::NEG_INFINITY;
        let x = Tensor::from_vec(
            vec![1, 1, 2, 4],
            vec![
                1.0, 2.0, inf, inf, //
                3.0, 4.0, inf, inf,
            ],
        )
        .unwrap();
        let y = p.forward_train(&x);
        assert_eq!(y.data(), &[4.0, inf]);
        let gx = p.backward(&Tensor::from_vec(vec![1, 1, 1, 2], vec![1.0, 7.0]).unwrap());
        // The second window's gradient lands on its own first element.
        assert_eq!(gx.data(), &[0.0, 0.0, 7.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn pool2d_negative_values() {
        let mut p = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![-4.0, -1.0, -2.0, -3.0]).unwrap();
        let y = p.forward_train(&x);
        assert_eq!(y.data(), &[-1.0]);
    }
}
