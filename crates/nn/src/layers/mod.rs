//! Neural-network layers.
//!
//! Layers are concrete structs wrapped by the [`Layer`] enum so that whole
//! networks are [`serde`]-serializable and `Clone`/`Debug` without trait
//! objects. Each layer computes its output with one kernel,
//! [`Layer::infer`]; a training [`Layer::forward`] also caches what
//! [`Layer::backward`] needs to compute gradients with plain
//! backpropagation.

mod activation;
mod batchnorm;
mod conv1d;
mod conv2d;
mod dense;
mod dropout;
mod flatten;
mod pool;

pub use activation::{sigmoid, softmax_rows, softmax_rows_inplace, Activation, ActivationKind};
pub use batchnorm::BatchNorm1d;
pub use conv1d::Conv1d;
pub use conv2d::Conv2d;
pub use dense::Dense;
pub use dropout::Dropout;
pub use flatten::Flatten;
pub use pool::{MaxPool1d, MaxPool2d};

use serde::{Deserialize, Serialize};

use crate::tensor::{ShapeError, Tensor};

/// Whether a forward pass is for training (enables dropout, caches
/// intermediates) or inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Mode {
    /// Training mode: stochastic layers are active.
    Train,
    /// Inference mode: stochastic layers are identity.
    Eval,
}

/// A mutable view of one parameter tensor and its gradient accumulator.
#[derive(Debug)]
pub struct ParamMut<'a> {
    /// The trainable values.
    pub value: &'a mut Tensor,
    /// The gradient accumulated by the most recent backward pass.
    pub grad: &'a mut Tensor,
}

impl<'a> ParamMut<'a> {
    /// Pairs a parameter with its gradient buffer, sizing the buffer first.
    pub(crate) fn new(value: &'a mut Tensor, grad: &'a mut Tensor) -> Self {
        let grad = grad_buffer(grad, value);
        Self { value, grad }
    }
}

/// The gradient buffer of `value`, replaced by zeros of `value`'s shape if
/// its shape differs.
///
/// Gradient buffers are not part of a model file, and a new layer does not
/// allocate them: a buffer stays empty until the layer's first backward
/// pass or optimizer step, which size it here.
pub(crate) fn grad_buffer<'a>(grad: &'a mut Tensor, value: &Tensor) -> &'a mut Tensor {
    if grad.shape() != value.shape() {
        *grad = Tensor::zeros(value.shape());
    }
    grad
}

/// Stores a copy of `t` in `slot`, reusing the allocation already there.
pub(crate) fn remember(slot: &mut Option<Tensor>, t: &Tensor) {
    match slot {
        Some(c) => c.copy_from(t),
        None => *slot = Some(t.clone()),
    }
}

/// Any layer supported by this crate.
///
/// # Examples
///
/// ```
/// use noodle_nn::{Layer, Dense, Mode, Tensor};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut layer: Layer = Dense::new(4, 2, &mut rng).into();
/// let x = Tensor::zeros(&[3, 4]);
/// let y = layer.forward(&x, Mode::Eval);
/// assert_eq!(y.shape(), &[3, 2]);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Layer {
    /// Fully connected layer.
    Dense(Dense),
    /// 1-D batch normalization over `[batch, features]`.
    BatchNorm1d(BatchNorm1d),
    /// 1-D convolution over `[batch, channels, length]`.
    Conv1d(Conv1d),
    /// 2-D convolution over `[batch, channels, height, width]`.
    Conv2d(Conv2d),
    /// Elementwise nonlinearity.
    Activation(Activation),
    /// Inverted dropout.
    Dropout(Dropout),
    /// Flattens all trailing dimensions into one.
    Flatten(Flatten),
    /// 1-D max pooling.
    MaxPool1d(MaxPool1d),
    /// 2-D max pooling.
    MaxPool2d(MaxPool2d),
}

impl Layer {
    /// Runs the layer forward.
    ///
    /// [`Mode::Eval`] runs [`Layer::infer`] into a fresh output and writes
    /// no layer state. [`Mode::Train`] runs the layer's training forward,
    /// which records what [`Layer::backward`] needs (the input, the output
    /// of a sigmoid or tanh, the pooling argmax, the flattened shape) and
    /// computes the output with the same `infer` kernel, so both modes
    /// produce the same bits. Only batch normalization (batch statistics)
    /// and dropout (a random mask) train with different arithmetic.
    pub fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        match (self, mode) {
            (layer, Mode::Eval) => {
                let mut out = Tensor::default();
                layer.infer(input, &mut out, &mut Vec::new());
                out
            }
            (Layer::Dense(l), Mode::Train) => l.forward_train(input),
            (Layer::BatchNorm1d(l), Mode::Train) => l.forward_train(input),
            (Layer::Conv1d(l), Mode::Train) => l.forward_train(input),
            (Layer::Conv2d(l), Mode::Train) => l.forward_train(input),
            (Layer::Activation(l), Mode::Train) => l.forward_train(input),
            (Layer::Dropout(l), Mode::Train) => l.forward_train(input),
            (Layer::Flatten(l), Mode::Train) => l.forward_train(input),
            (Layer::MaxPool1d(l), Mode::Train) => l.forward_train(input),
            (Layer::MaxPool2d(l), Mode::Train) => l.forward_train(input),
        }
    }

    /// Inference forward into a caller-owned output buffer: the one
    /// kernel each layer has for the arithmetic that does not depend on
    /// [`Mode`].
    ///
    /// Takes `&self` (no training caches are written) and reuses `out`
    /// plus the `cols` im2col scratch, so a warmed-up buffer pair makes
    /// repeated inference allocation-free. See [`crate::InferArena`].
    pub fn infer(&self, input: &Tensor, out: &mut Tensor, cols: &mut Vec<f32>) {
        match self {
            Layer::Dense(l) => l.infer(input, out),
            Layer::BatchNorm1d(l) => l.infer(input, out),
            Layer::Conv1d(l) => l.infer(input, out, cols),
            Layer::Conv2d(l) => l.infer(input, out, cols),
            Layer::Activation(l) => l.infer(input, out),
            Layer::Dropout(l) => l.infer(input, out),
            Layer::Flatten(l) => l.infer(input, out),
            Layer::MaxPool1d(l) => l.infer(input, out),
            Layer::MaxPool2d(l) => l.infer(input, out),
        }
    }

    /// Propagates `grad_output` backward, accumulating parameter gradients
    /// and returning the gradient with respect to the layer input.
    ///
    /// # Panics
    ///
    /// Panics if called before a [`Mode::Train`] forward on layers that
    /// cache activations.
    pub fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        match self {
            Layer::Dense(l) => l.backward(grad_output),
            Layer::BatchNorm1d(l) => l.backward(grad_output),
            Layer::Conv1d(l) => l.backward(grad_output),
            Layer::Conv2d(l) => l.backward(grad_output),
            Layer::Activation(l) => l.backward(grad_output),
            Layer::Dropout(l) => l.backward(grad_output),
            Layer::Flatten(l) => l.backward(grad_output),
            Layer::MaxPool1d(l) => l.backward(grad_output),
            Layer::MaxPool2d(l) => l.backward(grad_output),
        }
    }

    /// Mutable views of every trainable parameter and its gradient.
    pub fn params_mut(&mut self) -> Vec<ParamMut<'_>> {
        match self {
            Layer::Dense(l) => l.params_mut(),
            Layer::BatchNorm1d(l) => l.params_mut(),
            Layer::Conv1d(l) => l.params_mut(),
            Layer::Conv2d(l) => l.params_mut(),
            _ => Vec::new(),
        }
    }

    /// Resets all parameter gradients to zero.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.grad.map_inplace(|_| 0.0);
        }
    }

    /// Total number of trainable scalars in the layer.
    pub fn param_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.value.len()).sum()
    }

    /// Checks that the layer's parameters agree with the sizes they
    /// declare: a weight of the right rank with no zero dimension (square
    /// kernels for `Conv2d`), one bias per output, batch-norm statistics
    /// as wide as its scale, a positive pooling window and a dropout rate
    /// in `[0, 1)`. Model files are checked on load, so a malformed one
    /// is an error instead of a panic at its first forward.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] naming the first disagreement.
    pub fn check(&self) -> Result<(), ShapeError> {
        match self {
            Layer::Dense(l) => check_affine("Dense", l.weight(), l.bias(), 2),
            Layer::Conv1d(l) => check_affine("Conv1d", l.weight(), l.bias(), 3),
            Layer::Conv2d(l) => {
                check_affine("Conv2d", l.weight(), l.bias(), 4)?;
                let k = &l.weight().shape()[2..];
                if k[0] != k[1] {
                    return Err(ShapeError::new(format!("Conv2d kernel {k:?} is not square")));
                }
                Ok(())
            }
            Layer::BatchNorm1d(l) => l.check(),
            Layer::Dropout(l) if !(0.0..1.0).contains(&l.rate()) => {
                Err(ShapeError::new(format!("dropout rate {} is outside [0, 1)", l.rate())))
            }
            Layer::MaxPool1d(l) if l.kernel() == 0 => Err(ShapeError::new("MaxPool1d kernel is 0")),
            Layer::MaxPool2d(l) if l.kernel() == 0 => Err(ShapeError::new("MaxPool2d kernel is 0")),
            _ => Ok(()),
        }
    }

    /// The shape inference produces from an input of shape `input`
    /// (batch dimension first), or the disagreement for which inference
    /// would panic. Lets a loaded network be checked against the input it
    /// will serve before any forward runs.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when the input's rank, channel or feature
    /// count does not fit the layer, or a window is longer than the input.
    pub fn output_shape(&self, input: &[usize]) -> Result<Vec<usize>, ShapeError> {
        let fits = |name: &str, rank: usize, width: Option<usize>| {
            if input.len() != rank || width.is_some_and(|w| input[1] != w) {
                let wants = width.map_or(String::new(), |w| format!(" with {w} in dimension 1"));
                return Err(ShapeError::new(format!(
                    "{name} wants rank {rank}{wants}, got {input:?}"
                )));
            }
            Ok(())
        };
        // Output length of a window of `k` over `len` padded by `pad`.
        let window =
            |name: &str, len: usize, pad: usize, k: usize| match (len + 2 * pad).checked_sub(k) {
                Some(n) => Ok(n + 1),
                None => Err(ShapeError::new(format!("{name} kernel {k} exceeds input {input:?}"))),
            };
        let pooled = |name: &str, len: usize, k: usize| match len / k {
            0 => Err(ShapeError::new(format!("{name} window {k} exceeds input {input:?}"))),
            n => Ok(n),
        };
        Ok(match self {
            Layer::Dense(l) => {
                fits("Dense", 2, Some(l.in_features()))?;
                vec![input[0], l.out_features()]
            }
            Layer::BatchNorm1d(l) => {
                fits("BatchNorm1d", 2, Some(l.features()))?;
                input.to_vec()
            }
            Layer::Conv1d(l) => {
                fits("Conv1d", 3, Some(l.in_channels()))?;
                let len = window("Conv1d", input[2], l.padding(), l.kernel())?;
                vec![input[0], l.out_channels(), len]
            }
            Layer::Conv2d(l) => {
                fits("Conv2d", 4, Some(l.in_channels()))?;
                let h = window("Conv2d", input[2], l.padding(), l.kernel())?;
                let w = window("Conv2d", input[3], l.padding(), l.kernel())?;
                vec![input[0], l.out_channels(), h, w]
            }
            Layer::MaxPool1d(l) => {
                fits("MaxPool1d", 3, None)?;
                vec![input[0], input[1], pooled("MaxPool1d", input[2], l.kernel())?]
            }
            Layer::MaxPool2d(l) => {
                fits("MaxPool2d", 4, None)?;
                let h = pooled("MaxPool2d", input[2], l.kernel())?;
                vec![input[0], input[1], h, pooled("MaxPool2d", input[3], l.kernel())?]
            }
            Layer::Flatten(_) => match input.split_first() {
                Some((&batch, rest)) => vec![batch, rest.iter().product()],
                None => return Err(ShapeError::new("Flatten wants rank 1 or more, got []")),
            },
            Layer::Activation(_) | Layer::Dropout(_) => input.to_vec(),
        })
    }
}

/// A weight of rank `rank` with no zero dimension and one bias per output.
fn check_affine(name: &str, weight: &Tensor, bias: &Tensor, rank: usize) -> Result<(), ShapeError> {
    let shape = weight.shape();
    if shape.len() != rank || shape.contains(&0) {
        return Err(ShapeError::new(format!("{name} weight has shape {shape:?}")));
    }
    if bias.shape() != [shape[0]] {
        return Err(ShapeError::new(format!(
            "{name} bias has shape {:?} for {} outputs",
            bias.shape(),
            shape[0]
        )));
    }
    Ok(())
}

impl From<Dense> for Layer {
    fn from(l: Dense) -> Self {
        Layer::Dense(l)
    }
}
impl From<BatchNorm1d> for Layer {
    fn from(l: BatchNorm1d) -> Self {
        Layer::BatchNorm1d(l)
    }
}
impl From<Conv1d> for Layer {
    fn from(l: Conv1d) -> Self {
        Layer::Conv1d(l)
    }
}
impl From<Conv2d> for Layer {
    fn from(l: Conv2d) -> Self {
        Layer::Conv2d(l)
    }
}
impl From<Activation> for Layer {
    fn from(l: Activation) -> Self {
        Layer::Activation(l)
    }
}
impl From<Dropout> for Layer {
    fn from(l: Dropout) -> Self {
        Layer::Dropout(l)
    }
}
impl From<Flatten> for Layer {
    fn from(l: Flatten) -> Self {
        Layer::Flatten(l)
    }
}
impl From<MaxPool1d> for Layer {
    fn from(l: MaxPool1d) -> Self {
        Layer::MaxPool1d(l)
    }
}
impl From<MaxPool2d> for Layer {
    fn from(l: MaxPool2d) -> Self {
        Layer::MaxPool2d(l)
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    /// Every layer whose training forward runs its `infer` kernel, each
    /// with an input it accepts.
    fn single_body_layers() -> Vec<(Layer, Tensor)> {
        let mut rng = StdRng::seed_from_u64(21);
        let layers: Vec<(Layer, &[usize])> = vec![
            (Dense::new(6, 4, &mut rng).into(), &[3, 6]),
            (Conv1d::new(2, 3, 3, 1, &mut rng).into(), &[3, 2, 9]),
            (Conv2d::new(2, 3, 3, 1, &mut rng).into(), &[3, 2, 6, 5]),
            (Activation::relu().into(), &[3, 7]),
            (Activation::leaky_relu().into(), &[3, 7]),
            (Activation::sigmoid().into(), &[3, 7]),
            (Activation::tanh().into(), &[3, 7]),
            (MaxPool1d::new(2).into(), &[3, 2, 9]),
            (MaxPool2d::new(2).into(), &[3, 2, 6, 5]),
            (Flatten::new().into(), &[3, 2, 6, 5]),
        ];
        layers
            .into_iter()
            .map(|(layer, shape)| (layer, Tensor::rand_uniform(shape, -2.0, 2.0, &mut rng)))
            .collect()
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn train_forward_equals_infer_bitwise() {
        for (mut layer, x) in single_body_layers() {
            let mut inferred = Tensor::default();
            layer.infer(&x, &mut inferred, &mut Vec::new());
            let trained = layer.forward(&x, Mode::Train);
            assert_eq!(trained.shape(), inferred.shape(), "{layer:?}");
            assert_eq!(bits(&trained), bits(&inferred), "{layer:?}");
        }
    }

    #[test]
    fn eval_forward_leaves_nothing_for_backward() {
        for (mut layer, x) in single_body_layers() {
            let y = layer.forward(&x, Mode::Eval);
            let payload = catch_unwind(AssertUnwindSafe(|| layer.backward(&y)))
                .expect_err("backward after an Eval-only forward must panic");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(message.contains("called before forward"), "{layer:?}: {message}");
        }
    }
}
