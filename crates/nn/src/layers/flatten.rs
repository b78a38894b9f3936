//! Flattening layer.

use serde::{Deserialize, Serialize};

use crate::tensor::Tensor;

/// Flattens `[batch, d1, d2, ...]` into `[batch, d1 * d2 * ...]`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Flatten {
    #[serde(skip)]
    cached_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Training forward: caches the input shape for `backward`, then runs
    /// [`Self::infer`].
    pub(crate) fn forward_train(&mut self, input: &Tensor) -> Tensor {
        self.cached_shape = Some(input.shape().to_vec());
        let mut out = Tensor::default();
        self.infer(input, &mut out);
        out
    }

    /// Forward into a caller-owned buffer: copies the data under the
    /// flattened shape.
    pub(crate) fn infer(&self, input: &Tensor, out: &mut Tensor) {
        assert!(input.ndim() >= 1, "Flatten requires at least rank 1");
        let batch = input.shape()[0];
        let rest: usize = input.shape()[1..].iter().product();
        out.resize_in_place(&[batch, rest]);
        out.data_mut().copy_from_slice(input.data());
    }

    pub(crate) fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let shape = self.cached_shape.as_ref().expect("Flatten::backward called before forward");
        grad_output
            .reshape(shape)
            .expect("flatten backward reshape cannot change the element count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flattens_and_restores() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4]);
        let y = f.forward_train(&x);
        assert_eq!(y.shape(), &[2, 12]);
        let gx = f.backward(&Tensor::zeros(&[2, 12]));
        assert_eq!(gx.shape(), &[2, 3, 4]);
    }

    #[test]
    fn preserves_order() {
        let mut f = Flatten::new();
        let x = Tensor::from_vec(vec![1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = f.forward_train(&x);
        assert_eq!(y.data(), &[1.0, 2.0, 3.0, 4.0]);
    }
}
