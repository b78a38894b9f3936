//! Sequential model container and a minibatch trainer.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Deserializer, Error, Serialize};

use crate::infer::InferArena;
use crate::layers::{Layer, Mode, ParamMut};
use crate::loss::cross_entropy;
use crate::optim::Adam;
use crate::tensor::{ShapeError, Tensor};

/// A feed-forward stack of [`Layer`]s applied in order.
///
/// # Examples
///
/// ```
/// use noodle_nn::{Activation, Dense, Mode, Sequential, Tensor};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut net = Sequential::new(vec![
///     Dense::new(4, 8, &mut rng).into(),
///     Activation::relu().into(),
///     Dense::new(8, 2, &mut rng).into(),
/// ]);
/// let logits = net.forward(&Tensor::zeros(&[1, 4]), Mode::Eval);
/// assert_eq!(logits.shape(), &[1, 2]);
/// ```
///
/// Deserializing checks every layer (see [`Layer::check`]); an error
/// names the layer it is in.
#[derive(Debug, Clone, Serialize)]
pub struct Sequential {
    layers: Vec<Layer>,
}

impl Deserialize for Sequential {
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, Error> {
        #[derive(Deserialize)]
        struct Stored {
            layers: Layers,
        }
        /// The layer list, read and checked one element at a time.
        struct Layers(Vec<Layer>);
        impl Deserialize for Layers {
            fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, Error> {
                let mut layers = Vec::new();
                d.begin_array()?;
                while d.next_element()? {
                    let at = |e: &dyn std::fmt::Display| {
                        Error::custom(format!("layer {}: {e}", layers.len()))
                    };
                    let layer = Layer::deserialize(d).map_err(|e| at(&e))?;
                    layer.check().map_err(|e| at(&e))?;
                    layers.push(layer);
                }
                Ok(Self(layers))
            }
        }
        let Stored { layers: Layers(layers) } = Stored::deserialize(d)?;
        Ok(Self { layers })
    }
}

impl Sequential {
    /// Creates a model from an ordered list of layers.
    pub fn new(layers: Vec<Layer>) -> Self {
        Self { layers }
    }

    /// The layers in order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Appends a layer to the end of the stack.
    pub fn push(&mut self, layer: impl Into<Layer>) {
        self.layers.push(layer.into());
    }

    /// Runs the network forward.
    pub fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, mode);
        }
        x
    }

    /// Backpropagates `grad_output` through every layer, accumulating
    /// parameter gradients, and returns the gradient at the input.
    pub fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// Mutable views of every parameter/gradient pair, in a stable order.
    pub fn params_mut(&mut self) -> Vec<ParamMut<'_>> {
        self.layers.iter_mut().flat_map(|l| l.params_mut()).collect()
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Total number of trainable scalars.
    pub fn param_count(&mut self) -> usize {
        self.layers.iter_mut().map(|l| l.param_count()).sum()
    }

    /// The shape inference produces from an input of shape `input` (batch
    /// dimension first); see [`Layer::output_shape`].
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] naming the first layer the input reaching
    /// it does not fit.
    pub fn output_shape(&self, input: &[usize]) -> Result<Vec<usize>, ShapeError> {
        self.layers.iter().enumerate().try_fold(input.to_vec(), |shape, (i, layer)| {
            layer
                .output_shape(&shape)
                .map_err(|e| ShapeError::new(format!("layer {i}: {}", e.message)))
        })
    }

    /// Serializes the model (architecture and weights) to a JSON string.
    ///
    /// # Errors
    ///
    /// Returns a `serde_json::Error` if serialization fails.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Deserializes a model previously produced by [`Sequential::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a `serde_json::Error` if `json` is not a valid model.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Softmax class probabilities for a batch, in inference mode: a
    /// [`Self::infer_proba`] through an arena of its own.
    pub fn predict_proba(&self, input: &Tensor) -> Tensor {
        self.infer_proba(input, &mut InferArena::new()).clone()
    }
}

/// Hyperparameters for [`fit_classifier`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Minibatch size (clamped to the dataset size).
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self { epochs: 40, batch_size: 16, lr: 1e-3 }
    }
}

/// Per-epoch training record returned by [`fit_classifier`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch index, starting at 0.
    pub epoch: usize,
    /// Mean cross-entropy over the epoch's minibatches.
    pub loss: f32,
}

/// Trains `model` as a softmax classifier with Adam and cross-entropy.
///
/// `inputs` must be a batch tensor whose first dimension indexes samples and
/// matches `labels.len()`. Minibatch order is shuffled each epoch with `rng`.
/// Returns the per-epoch mean loss trace.
///
/// # Panics
///
/// Panics if `inputs` is empty or its first dimension differs from
/// `labels.len()`.
pub fn fit_classifier<R: Rng + ?Sized>(
    model: &mut Sequential,
    inputs: &Tensor,
    labels: &[usize],
    config: &TrainConfig,
    rng: &mut R,
) -> Vec<EpochStats> {
    let n = labels.len();
    assert!(n > 0, "cannot train on an empty dataset");
    assert_eq!(inputs.shape()[0], n, "inputs and labels disagree on sample count");
    let _span = noodle_telemetry::span!(
        "nn.fit",
        samples = n,
        epochs = config.epochs,
        batch_size = config.batch_size,
    );
    let batch_size = config.batch_size.clamp(1, n);
    let mut opt = Adam::new(config.lr);
    let mut order: Vec<usize> = (0..n).collect();
    let mut trace = Vec::with_capacity(config.epochs);
    // Gradient work is parallelized inside the layer kernels (batch-level
    // im2col/GEMM on the noodle-compute pool), so the minibatch loop stays
    // sequential and the shuffle/dropout RNG streams are untouched by the
    // thread count.
    let flops_before = noodle_compute::flops();
    let started = std::time::Instant::now();
    noodle_telemetry::gauge_set("compute.threads", noodle_compute::num_threads() as f64);
    for epoch in 0..config.epochs {
        order.shuffle(rng);
        let mut epoch_loss = 0.0;
        let mut batches = 0;
        for chunk in order.chunks(batch_size) {
            let batch_x = select_samples(inputs, chunk);
            let batch_y: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
            model.zero_grad();
            let logits = model.forward(&batch_x, Mode::Train);
            let out = cross_entropy(&logits, &batch_y);
            model.backward(&out.grad);
            opt.step(&mut model.params_mut());
            epoch_loss += out.loss;
            batches += 1;
        }
        let mean_loss = epoch_loss / batches.max(1) as f32;
        noodle_telemetry::counter_add("nn.epochs", 1);
        noodle_telemetry::counter_add("nn.samples", n as u64);
        noodle_telemetry::gauge_set("nn.epoch_loss", mean_loss as f64);
        noodle_telemetry::histogram_record("nn.epoch_loss", mean_loss as f64);
        trace.push(EpochStats { epoch, loss: mean_loss });
    }
    let elapsed = started.elapsed().as_secs_f64();
    let gflop = (noodle_compute::flops() - flops_before) as f64 / 1e9;
    noodle_telemetry::gauge_set("nn.fit_gflop", gflop);
    if elapsed > 0.0 {
        let trained = (config.epochs * n) as f64;
        noodle_telemetry::gauge_set("nn.samples_per_sec", trained / elapsed);
        noodle_telemetry::gauge_set("nn.fit_gflops", gflop / elapsed);
    }
    trace
}

/// Selects samples along the first axis of a batch tensor of any rank.
pub(crate) fn select_samples(inputs: &Tensor, indices: &[usize]) -> Tensor {
    let sample_len: usize = inputs.shape()[1..].iter().product();
    let mut data = Vec::with_capacity(indices.len() * sample_len);
    for &i in indices {
        data.extend_from_slice(&inputs.data()[i * sample_len..(i + 1) * sample_len]);
    }
    let mut shape = inputs.shape().to_vec();
    shape[0] = indices.len();
    Tensor::from_vec(shape, data).expect("select_samples computes a consistent shape")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Activation;
    use crate::layers::Dense;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn xor_data() -> (Tensor, Vec<usize>) {
        let x = Tensor::from_vec(vec![4, 2], vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]).unwrap();
        (x, vec![0, 1, 1, 0])
    }

    #[test]
    fn output_shapes_follow_inference_and_name_the_layer_that_does_not_fit() {
        use crate::layers::{BatchNorm1d, Conv1d, Conv2d, Dropout, Flatten, MaxPool1d, MaxPool2d};
        let mut rng = StdRng::seed_from_u64(5);
        let cnn = Sequential::new(vec![
            Conv2d::new(2, 3, 3, 1, &mut rng).into(),
            MaxPool2d::new(2).into(),
            Flatten::new().into(),
            Dense::new(27, 4, &mut rng).into(),
            BatchNorm1d::new(4).into(),
            Dropout::new(0.5, 1).into(),
            Dense::new(4, 2, &mut rng).into(),
        ]);
        let x = Tensor::zeros(&[3, 2, 6, 6]);
        let want = cnn.infer_batch(&x, &mut crate::InferArena::new()).shape().to_vec();
        assert_eq!(cnn.output_shape(x.shape()), Ok(want));
        let line = Sequential::new(vec![
            Conv1d::new(1, 2, 3, 0, &mut rng).into(),
            MaxPool1d::new(2).into(),
            Flatten::new().into(),
        ]);
        assert_eq!(line.output_shape(&[1, 1, 9]), Ok(vec![1, 6]));

        for (net, input, why) in [
            (
                &cnn,
                vec![1, 2, 8, 8],
                "layer 3: Dense wants rank 2 with 27 in dimension 1, got [1, 48]",
            ),
            (&cnn, vec![1, 3, 6, 6], "layer 0: Conv2d wants rank 4 with 2 in dimension 1"),
            (&cnn, vec![1, 2, 6], "layer 0: Conv2d wants rank 4"),
            (&cnn, vec![1, 2, 1, 1], "layer 1: MaxPool2d window 2 exceeds input [1, 3, 1, 1]"),
            (&line, vec![1, 1, 2], "layer 0: Conv1d kernel 3 exceeds input [1, 1, 2]"),
        ] {
            let err = net.output_shape(&input).unwrap_err().to_string();
            assert!(err.contains(why), "{input:?}: {err}");
        }
    }

    #[test]
    fn learns_xor() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut net = Sequential::new(vec![
            Dense::new(2, 16, &mut rng).into(),
            Activation::tanh().into(),
            Dense::new(16, 2, &mut rng).into(),
        ]);
        let (x, y) = xor_data();
        let config = TrainConfig { epochs: 400, batch_size: 4, lr: 0.02 };
        let trace = fit_classifier(&mut net, &x, &y, &config, &mut rng);
        assert!(trace.last().unwrap().loss < 0.1, "final loss {}", trace.last().unwrap().loss);
        let probs = net.predict_proba(&x);
        assert_eq!(probs.argmax_rows(), y);
    }

    #[test]
    fn loss_decreases_on_separable_data() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Sequential::new(vec![Dense::new(1, 2, &mut rng).into()]);
        let x = Tensor::from_vec(vec![6, 1], vec![-2.0, -1.5, -1.0, 1.0, 1.5, 2.0]).unwrap();
        let y = vec![0, 0, 0, 1, 1, 1];
        let config = TrainConfig { epochs: 50, batch_size: 6, lr: 0.05 };
        let trace = fit_classifier(&mut net, &x, &y, &config, &mut rng);
        assert!(trace.last().unwrap().loss < trace.first().unwrap().loss);
    }

    #[test]
    fn json_round_trip_preserves_predictions() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = Sequential::new(vec![
            Dense::new(3, 4, &mut rng).into(),
            Activation::relu().into(),
            Dense::new(4, 2, &mut rng).into(),
        ]);
        let x = Tensor::rand_uniform(&[2, 3], -1.0, 1.0, &mut rng);
        let before = net.predict_proba(&x);
        let json = net.to_json().unwrap();
        let restored = Sequential::from_json(&json).unwrap();
        let after = restored.predict_proba(&x);
        for (a, b) in before.data().iter().zip(after.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn param_count_sums_layers() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = Sequential::new(vec![
            Dense::new(3, 4, &mut rng).into(), // 12 + 4
            Dense::new(4, 2, &mut rng).into(), // 8 + 2
        ]);
        assert_eq!(net.param_count(), 26);
    }

    #[test]
    fn select_samples_any_rank() {
        let t = Tensor::from_vec(vec![3, 1, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let s = select_samples(&t, &[2, 0]);
        assert_eq!(s.shape(), &[2, 1, 2]);
        assert_eq!(s.data(), &[5.0, 6.0, 1.0, 2.0]);
    }

    #[test]
    fn predict_proba_equals_infer_proba_bitwise() {
        use crate::layers::{Conv2d, Flatten, MaxPool2d};
        let mut rng = StdRng::seed_from_u64(8);
        let net = Sequential::new(vec![
            Conv2d::new(2, 3, 3, 1, &mut rng).into(),
            Activation::relu().into(),
            MaxPool2d::new(2).into(),
            Flatten::new().into(),
            Dense::new(3 * 4 * 4, 2, &mut rng).into(),
        ]);
        let x = Tensor::rand_uniform(&[5, 2, 8, 8], -1.0, 1.0, &mut rng);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let expected = bits(net.infer_proba(&x, &mut crate::InferArena::new()));
        assert_eq!(bits(&net.predict_proba(&x)), expected);
    }

    #[test]
    fn predict_proba_rows_sum_to_one() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = Sequential::new(vec![Dense::new(2, 3, &mut rng).into()]);
        let p = net.predict_proba(&Tensor::rand_uniform(&[5, 2], -1.0, 1.0, &mut rng));
        for r in 0..5 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }
}
