//! Zero-allocation batched inference.
//!
//! [`InferArena`] owns two ping-pong activation buffers, one im2col
//! scratch vector, and the int8 scratch used by the quantized serving
//! path ([`crate::QuantizedModel`]). [`Sequential::infer_batch`] threads a
//! batch through the network by alternating between the two buffers: each
//! layer reads the previous layer's output from one buffer and writes into
//! the other via [`Layer::infer`](crate::Layer::infer), which resizes in
//! place instead of allocating. After one warmup call at the largest batch
//! size every buffer has reached its steady-state capacity and subsequent
//! calls perform no heap allocation at all (enforced by the crate's
//! `infer_zero_alloc` integration test under a counting allocator).
//!
//! `Layer::infer` is each layer's only kernel for the arithmetic that
//! does not depend on the mode: `forward(_, Mode::Eval)` is `infer` into
//! a fresh tensor, and a training forward records what backward needs and
//! then runs the same `infer`. Because each kernel is per-sample
//! (convolutions im2col one sample at a time, dense GEMM accumulates each
//! output row independently), row `i` of a batched result is bit-identical
//! to running sample `i` alone, which is what lets the detect path
//! micro-batch freely without disturbing verdicts.

use crate::layers::softmax_rows_inplace;
use crate::model::Sequential;
use crate::tensor::Tensor;

/// Reusable scratch space for [`Sequential::infer_batch`].
///
/// # Examples
///
/// ```
/// use noodle_nn::{Activation, Dense, InferArena, Mode, Sequential, Tensor};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut net = Sequential::new(vec![
///     Dense::new(4, 8, &mut rng).into(),
///     Activation::relu().into(),
///     Dense::new(8, 2, &mut rng).into(),
/// ]);
/// let x = Tensor::zeros(&[3, 4]);
/// let mut arena = InferArena::new();
/// let logits = net.infer_batch(&x, &mut arena).clone();
/// assert_eq!(logits, net.forward(&x, Mode::Eval));
/// ```
#[derive(Debug, Default)]
pub struct InferArena {
    /// Ping-pong activation buffers; consecutive layers alternate between
    /// them so no layer ever reads and writes the same storage.
    pub(crate) bufs: [Tensor; 2],
    /// im2col scratch shared by every convolution layer (sized to the
    /// largest `cin·k·k · oh·ow` seen so far).
    pub(crate) cols: Vec<f32>,
    /// Quantized-activation scratch for the int8 serving path (unused —
    /// and never grown — by float inference).
    pub(crate) qbuf: Vec<i8>,
    /// i32 accumulator scratch for the int8 serving path.
    pub(crate) qacc: Vec<i32>,
}

impl InferArena {
    /// Creates an empty arena; buffers grow to their steady-state sizes on
    /// the first inference call and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Sequential {
    /// Runs the network forward in inference mode using `arena`'s buffers,
    /// returning the logits as a view into the arena.
    ///
    /// Bit-identical to `forward(input, Mode::Eval)` at every batch size
    /// and thread count, but takes `&self` (no layer caches are written)
    /// and performs no heap allocation once the arena has warmed up.
    pub fn infer_batch<'a>(&self, input: &Tensor, arena: &'a mut InferArena) -> &'a Tensor {
        let idx = self.infer_into(input, arena);
        &arena.bufs[idx]
    }

    /// Softmax class probabilities for a batch via [`Self::infer_batch`]:
    /// [`Self::predict_proba`] without allocating.
    pub fn infer_proba<'a>(&self, input: &Tensor, arena: &'a mut InferArena) -> &'a Tensor {
        let idx = self.infer_into(input, arena);
        softmax_rows_inplace(&mut arena.bufs[idx]);
        &arena.bufs[idx]
    }

    fn infer_into(&self, input: &Tensor, arena: &mut InferArena) -> usize {
        let InferArena { bufs, cols, .. } = arena;
        ping_pong(self.layers(), input, bufs, |layer, x, out| layer.infer(x, out, cols))
    }
}

/// Threads `input` through `layers`, alternating between the two buffers
/// so no layer reads and writes the same storage, and returns the index of
/// the buffer holding the output. `run` is one layer's inference call; an
/// empty stack copies the input.
pub(crate) fn ping_pong<L>(
    layers: &[L],
    input: &Tensor,
    bufs: &mut [Tensor; 2],
    mut run: impl FnMut(&L, &Tensor, &mut Tensor),
) -> usize {
    let [a, b] = bufs;
    let Some((first, rest)) = layers.split_first() else {
        a.copy_from(input);
        return 0;
    };
    run(first, input, a);
    let mut cur = 0;
    for layer in rest {
        if cur == 0 {
            run(layer, a, b);
        } else {
            run(layer, b, a);
        }
        cur ^= 1;
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{softmax_rows, Activation, BatchNorm1d, Conv2d, Dense, Dropout};
    use crate::layers::{Flatten, MaxPool2d, Mode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn infer_matches_eval_forward_bitwise() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Sequential::new(vec![
            Conv2d::new(2, 8, 3, 1, &mut rng).into(),
            Activation::relu().into(),
            MaxPool2d::new(2).into(),
            Flatten::new().into(),
            Dropout::new(0.2, 17).into(),
            Dense::new(8 * 6 * 6, 16, &mut rng).into(),
            Activation::leaky_relu().into(),
            Dense::new(16, 2, &mut rng).into(),
        ]);
        let x = Tensor::rand_uniform(&[5, 2, 12, 12], -1.0, 1.0, &mut rng);
        let expected = net.forward(&x, Mode::Eval);
        let mut arena = InferArena::new();
        let got = net.infer_batch(&x, &mut arena);
        assert_eq!(got, &expected);
        let expected_p = softmax_rows(&expected);
        let got_p = net.infer_proba(&x, &mut arena);
        assert_eq!(got_p, &expected_p);
    }

    #[test]
    fn batched_rows_match_single_sample_calls_bitwise() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = Sequential::new(vec![
            Conv2d::new(2, 4, 3, 1, &mut rng).into(),
            Activation::relu().into(),
            MaxPool2d::new(2).into(),
            Flatten::new().into(),
            Dense::new(4 * 6 * 6, 2, &mut rng).into(),
        ]);
        let x = Tensor::rand_uniform(&[7, 2, 12, 12], -1.0, 1.0, &mut rng);
        let mut arena = InferArena::new();
        let batched = net.infer_proba(&x, &mut arena).clone();
        let sample_len = 2 * 12 * 12;
        let mut solo_arena = InferArena::new();
        for i in 0..7 {
            let xi = Tensor::from_vec(
                vec![1, 2, 12, 12],
                x.data()[i * sample_len..(i + 1) * sample_len].to_vec(),
            )
            .unwrap();
            let solo = net.infer_proba(&xi, &mut solo_arena);
            assert_eq!(solo.row(0), batched.row(i), "row {i} differs from solo inference");
        }
    }

    #[test]
    fn bn_and_conv1d_infer_match_forward() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut net = Sequential::new(vec![
            crate::layers::Conv1d::new(1, 4, 3, 1, &mut rng).into(),
            Activation::tanh().into(),
            crate::layers::MaxPool1d::new(2).into(),
            Flatten::new().into(),
            Dense::new(4 * 5, 6, &mut rng).into(),
            BatchNorm1d::new(6).into(),
            Activation::sigmoid().into(),
            Dense::new(6, 2, &mut rng).into(),
        ]);
        let x = Tensor::rand_uniform(&[4, 1, 10], -1.0, 1.0, &mut rng);
        // Train once so batch-norm running statistics are non-trivial.
        let _ = net.forward(&x, Mode::Train);
        let expected = net.forward(&x, Mode::Eval);
        let mut arena = InferArena::new();
        assert_eq!(net.infer_batch(&x, &mut arena), &expected);
    }

    #[test]
    fn empty_model_copies_input() {
        let net = Sequential::new(vec![]);
        let x = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let mut arena = InferArena::new();
        assert_eq!(net.infer_batch(&x, &mut arena), &x);
    }
}
