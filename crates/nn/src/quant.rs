//! Post-training int8 quantization for the serving path.
//!
//! Quantizing a trained [`Sequential`] takes two steps.
//! [`ActScales::calibrate`] runs a calibration batch through the float
//! network and records one static symmetric scale per
//! `Dense`/`Conv1d`/`Conv2d` layer: the max absolute activation that
//! layer's *input* reaches on the calibration set (the same held-out
//! split the conformal predictors are calibrated on). Novel inputs that
//! exceed the calibrated range saturate at ±127 rather than wrapping.
//! [`QuantizedModel::from_scales`] then builds the int8 twins: the
//! **weights** use symmetric per-output-channel scales
//! (`max |w_row| / 127`), so a badly scaled channel cannot poison the
//! precision of the others. That step is a pure function of the float
//! weights and the activation scales, so a model file stores only the
//! scales and the twins are rebuilt when quantized serving is switched on.
//!
//! Inference quantizes each quantized layer's input to `i8`, runs the
//! matmul in [`noodle_compute::gemm_bt_i8`] with exact `i32`
//! accumulation, and dequantizes immediately (`acc · s_act · s_w[ch] +
//! bias`), so activations between layers — and every non-quantized
//! layer (activations, pooling, batch norm, flatten, dropout) — stay in
//! `f32` and run bit-identically to the float path.
//!
//! Because the integer accumulation is exact and the quantize/dequantize
//! steps are elementwise, quantized inference inherits the float path's
//! determinism contract: byte-identical outputs at every thread count
//! *and* across SIMD instruction sets. The outputs differ from the f32
//! model only by the quantization error, which the detector bounds at
//! fit time with calibration-set Brier scores (and CI bounds end-to-end
//! with a verdict-flip golden test).

use noodle_compute::gemm_bt_i8;
use noodle_trace::{EventKind, KernelTimer};
use serde::{Deserialize, Deserializer, Error, Kind, Serialize, Serializer};

use crate::infer::{ping_pong, InferArena};
use crate::layers::{softmax_rows_inplace, Layer};
use crate::lowering::{im2col_1d, im2col_2d};
use crate::model::Sequential;
use crate::tensor::{ShapeError, Tensor};

/// Largest magnitude representable after symmetric int8 quantization.
const QMAX: f32 = 127.0;

fn max_abs(xs: &[f32]) -> f32 {
    xs.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
}

/// Symmetric scale mapping `[-max_abs, max_abs]` onto `[-127, 127]`; an
/// all-zero range quantizes through scale 1.0 (everything maps to 0).
fn scale_for(max_abs: f32) -> f32 {
    if max_abs > 0.0 && max_abs.is_finite() {
        max_abs / QMAX
    } else {
        1.0
    }
}

#[inline]
fn quantize(x: f32, inv_scale: f32) -> i8 {
    (x * inv_scale).round().clamp(-QMAX, QMAX) as i8
}

/// Quantizes a `[rows, cols]` weight matrix with one symmetric scale per
/// row (= per output channel), returning `(q, scales)`.
fn quantize_rows(weight: &[f32], rows: usize, cols: usize) -> (Vec<i8>, Vec<f32>) {
    assert_eq!(weight.len(), rows * cols, "weight length disagrees with {rows}x{cols}");
    let mut q = vec![0i8; rows * cols];
    let mut scales = vec![1.0f32; rows];
    for r in 0..rows {
        let row = &weight[r * cols..(r + 1) * cols];
        let scale = scale_for(max_abs(row));
        let inv = 1.0 / scale;
        scales[r] = scale;
        for (dst, &w) in q[r * cols..(r + 1) * cols].iter_mut().zip(row) {
            *dst = quantize(w, inv);
        }
    }
    (q, scales)
}

fn quantize_into(src: &[f32], scale: f32, dst: &mut Vec<i8>) {
    dst.clear();
    let inv = 1.0 / scale;
    dst.extend(src.iter().map(|&x| quantize(x, inv)));
}

/// Int8 twin of [`crate::Dense`]: `y = dequant(q(x) @ w_q^T) + b`.
#[derive(Debug, Clone)]
pub struct QDense {
    in_features: usize,
    out_features: usize,
    /// Static symmetric input-activation scale from calibration.
    act_scale: f32,
    /// Per-output-row symmetric weight scales.
    weight_scale: Vec<f32>,
    /// `[out_features, in_features]` row-major int8 weights.
    weight_q: Vec<i8>,
    /// Bias stays in f32 (added after dequantization).
    bias: Vec<f32>,
}

impl QDense {
    fn new(dense: &crate::Dense, act_scale: f32) -> Self {
        let (out_f, in_f) = (dense.out_features(), dense.in_features());
        let (weight_q, weight_scale) = quantize_rows(dense.weight().data(), out_f, in_f);
        Self {
            in_features: in_f,
            out_features: out_f,
            act_scale,
            weight_scale,
            weight_q,
            bias: dense.bias().data().to_vec(),
        }
    }

    fn infer(&self, input: &Tensor, out: &mut Tensor, qbuf: &mut Vec<i8>, qacc: &mut Vec<i32>) {
        assert_eq!(input.ndim(), 2, "QDense expects [batch, in] input, got {:?}", input.shape());
        assert_eq!(
            input.shape()[1],
            self.in_features,
            "QDense expects {} input features, got {}",
            self.in_features,
            input.shape()[1]
        );
        let (batch, out_f) = (input.shape()[0], self.out_features);
        let _prof = KernelTimer::start(
            EventKind::DenseFwd,
            2 * (batch * self.in_features * out_f) as u64,
            (4 * (input.len() + batch * out_f)) as u64,
        );
        quantize_into(input.data(), self.act_scale, qbuf);
        out.resize_in_place(&[batch, out_f]);
        qacc.clear();
        qacc.resize(batch * out_f, 0);
        gemm_bt_i8(batch, self.in_features, out_f, qbuf, &self.weight_q, qacc);
        let data = out.data_mut();
        for b in 0..batch {
            for o in 0..out_f {
                let scale = self.act_scale * self.weight_scale[o];
                data[b * out_f + o] = qacc[b * out_f + o] as f32 * scale + self.bias[o];
            }
        }
    }
}

/// Int8 twin of [`crate::Conv2d`]: im2col → quantize-transpose → int8
/// GEMM → dequantize, per sample, in the float path's lowering order.
#[derive(Debug, Clone)]
pub struct QConv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    padding: usize,
    act_scale: f32,
    /// Per-output-channel symmetric weight scales.
    weight_scale: Vec<f32>,
    /// `[out_channels, in_channels·k·k]` row-major int8 weights.
    weight_q: Vec<i8>,
    bias: Vec<f32>,
}

impl QConv2d {
    fn new(conv: &crate::Conv2d, act_scale: f32) -> Self {
        let (cout, cin, k) = (conv.out_channels(), conv.in_channels(), conv.kernel());
        let (weight_q, weight_scale) = quantize_rows(conv.weight().data(), cout, cin * k * k);
        Self {
            in_channels: cin,
            out_channels: cout,
            kernel: k,
            padding: conv.padding(),
            act_scale,
            weight_scale,
            weight_q,
            bias: conv.bias().data().to_vec(),
        }
    }

    fn out_dim(&self, dim: usize) -> usize {
        let padded = dim + 2 * self.padding;
        assert!(padded + 1 > self.kernel, "input dim {dim} too small for kernel");
        padded - self.kernel + 1
    }

    fn infer(
        &self,
        input: &Tensor,
        out: &mut Tensor,
        cols: &mut Vec<f32>,
        qbuf: &mut Vec<i8>,
        qacc: &mut Vec<i32>,
    ) {
        assert_eq!(input.ndim(), 4, "QConv2d expects [b, c, h, w], got {:?}", input.shape());
        assert_eq!(
            input.shape()[1],
            self.in_channels,
            "QConv2d expects {} input channels, got {}",
            self.in_channels,
            input.shape()[1]
        );
        let (batch, cin, h, w) =
            (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        let (cout, k, pad) = (self.out_channels, self.kernel, self.padding);
        let (oh, ow) = (self.out_dim(h), self.out_dim(w));
        let (ckk, l) = (cin * k * k, oh * ow);
        let _prof = KernelTimer::start(
            EventKind::ConvFwd,
            2 * (batch * cout * ckk * l) as u64,
            (4 * (input.len() + batch * cout * l)) as u64,
        );
        out.resize_in_place(&[batch, cout, oh, ow]);
        cols.resize(ckk * l, 0.0);
        qbuf.clear();
        qbuf.resize(l * ckk, 0);
        let inv_act = 1.0 / self.act_scale;
        let x = input.data();
        let o = out.data_mut();
        for b in 0..batch {
            im2col_2d(&x[b * cin * h * w..][..cin * h * w], cin, h, w, k, pad, oh, ow, cols);
            // Quantize and transpose the patch matrix `[ckk, l]` into
            // `[l, ckk]` so each output element is one contiguous int8
            // dot product.
            for p in 0..ckk {
                let col_row = &cols[p * l..(p + 1) * l];
                for (j, &v) in col_row.iter().enumerate() {
                    qbuf[j * ckk + p] = quantize(v, inv_act);
                }
            }
            qacc.clear();
            qacc.resize(cout * l, 0);
            gemm_bt_i8(cout, ckk, l, &self.weight_q, qbuf, qacc);
            let out_b = &mut o[b * cout * l..][..cout * l];
            for co in 0..cout {
                let scale = self.act_scale * self.weight_scale[co];
                let bias = self.bias[co];
                for j in 0..l {
                    out_b[co * l + j] = qacc[co * l + j] as f32 * scale + bias;
                }
            }
        }
    }
}

/// Int8 twin of [`crate::Conv1d`]; see [`QConv2d`].
#[derive(Debug, Clone)]
pub struct QConv1d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    padding: usize,
    act_scale: f32,
    weight_scale: Vec<f32>,
    /// `[out_channels, in_channels·k]` row-major int8 weights.
    weight_q: Vec<i8>,
    bias: Vec<f32>,
}

impl QConv1d {
    fn new(conv: &crate::Conv1d, act_scale: f32) -> Self {
        let (cout, cin, k) = (conv.out_channels(), conv.in_channels(), conv.kernel());
        let (weight_q, weight_scale) = quantize_rows(conv.weight().data(), cout, cin * k);
        Self {
            in_channels: cin,
            out_channels: cout,
            kernel: k,
            padding: conv.padding(),
            act_scale,
            weight_scale,
            weight_q,
            bias: conv.bias().data().to_vec(),
        }
    }

    fn output_len(&self, len: usize) -> usize {
        let padded = len + 2 * self.padding;
        assert!(padded + 1 > self.kernel, "input length {len} too small for kernel");
        padded - self.kernel + 1
    }

    fn infer(
        &self,
        input: &Tensor,
        out: &mut Tensor,
        cols: &mut Vec<f32>,
        qbuf: &mut Vec<i8>,
        qacc: &mut Vec<i32>,
    ) {
        assert_eq!(input.ndim(), 3, "QConv1d expects [batch, ch, len], got {:?}", input.shape());
        assert_eq!(
            input.shape()[1],
            self.in_channels,
            "QConv1d expects {} input channels, got {}",
            self.in_channels,
            input.shape()[1]
        );
        let (batch, cin, len) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let (cout, k, pad) = (self.out_channels, self.kernel, self.padding);
        let out_len = self.output_len(len);
        let ck = cin * k;
        let _prof = KernelTimer::start(
            EventKind::ConvFwd,
            2 * (batch * cout * ck * out_len) as u64,
            (4 * (input.len() + batch * cout * out_len)) as u64,
        );
        out.resize_in_place(&[batch, cout, out_len]);
        cols.resize(ck * out_len, 0.0);
        qbuf.clear();
        qbuf.resize(out_len * ck, 0);
        let inv_act = 1.0 / self.act_scale;
        let x = input.data();
        let o = out.data_mut();
        for b in 0..batch {
            im2col_1d(&x[b * cin * len..][..cin * len], cin, len, k, pad, out_len, cols);
            for p in 0..ck {
                let col_row = &cols[p * out_len..(p + 1) * out_len];
                for (j, &v) in col_row.iter().enumerate() {
                    qbuf[j * ck + p] = quantize(v, inv_act);
                }
            }
            qacc.clear();
            qacc.resize(cout * out_len, 0);
            gemm_bt_i8(cout, ck, out_len, &self.weight_q, qbuf, qacc);
            let out_b = &mut o[b * cout * out_len..][..cout * out_len];
            for co in 0..cout {
                let scale = self.act_scale * self.weight_scale[co];
                let bias = self.bias[co];
                for j in 0..out_len {
                    out_b[co * out_len + j] = qacc[co * out_len + j] as f32 * scale + bias;
                }
            }
        }
    }
}

/// One layer of a [`QuantizedModel`]: an int8 twin for the GEMM-backed
/// layers, the original layer for everything else.
#[derive(Debug, Clone)]
pub enum QLayer {
    /// Quantized fully connected layer.
    Dense(QDense),
    /// Quantized 1-D convolution.
    Conv1d(QConv1d),
    /// Quantized 2-D convolution.
    Conv2d(QConv2d),
    /// Non-GEMM layer running its unchanged f32 inference kernel.
    Passthrough(Box<Layer>),
}

impl QLayer {
    fn infer(
        &self,
        input: &Tensor,
        out: &mut Tensor,
        cols: &mut Vec<f32>,
        qbuf: &mut Vec<i8>,
        qacc: &mut Vec<i32>,
    ) {
        match self {
            QLayer::Dense(l) => l.infer(input, out, qbuf, qacc),
            QLayer::Conv1d(l) => l.infer(input, out, cols, qbuf, qacc),
            QLayer::Conv2d(l) => l.infer(input, out, cols, qbuf, qacc),
            QLayer::Passthrough(l) => l.infer(input, out, cols),
        }
    }
}

/// Whether `layer` runs on a GEMM and so gets an int8 twin.
fn is_gemm(layer: &Layer) -> bool {
    matches!(layer, Layer::Dense(_) | Layer::Conv1d(_) | Layer::Conv2d(_))
}

/// The static input-activation scale of each GEMM-backed layer of a net,
/// in layer order: the part of an int8 twin that the float weights do not
/// determine, and all of it that a model file stores.
///
/// Serializes as an array of numbers. It also reads the full twin that
/// model files stored before (`{"layers":[{"Dense":{"act_scale":…,…}},…]}`),
/// keeping each GEMM layer's `act_scale` and skipping the rest.
#[derive(Debug, Clone, PartialEq)]
pub struct ActScales(Vec<f32>);

impl ActScales {
    /// Calibrates the scales of `net` on `calibration` (a batch in the
    /// network's input shape). Activations advance through the *float*
    /// layers: scales describe the true distribution each layer sees, not
    /// one distorted by upstream quantization error.
    ///
    /// # Panics
    ///
    /// Panics if `calibration` is empty.
    pub fn calibrate(net: &Sequential, calibration: &Tensor) -> Self {
        assert!(!calibration.is_empty(), "quantization needs a non-empty calibration batch");
        let mut scales = Vec::new();
        let mut cur = calibration.clone();
        let mut next = Tensor::zeros(&[1]);
        let mut cols = Vec::new();
        for layer in net.layers() {
            if is_gemm(layer) {
                scales.push(scale_for(max_abs(cur.data())));
            }
            layer.infer(&cur, &mut next, &mut cols);
            std::mem::swap(&mut cur, &mut next);
        }
        Self(scales)
    }

    /// The scales, one per GEMM-backed layer in layer order.
    pub fn as_slice(&self) -> &[f32] {
        &self.0
    }

    /// Checks that these scales can quantize `net`: one finite, positive
    /// scale per GEMM-backed layer.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] naming the mismatch.
    pub fn check(&self, net: &Sequential) -> Result<(), ShapeError> {
        let gemms = net.layers().iter().filter(|l| is_gemm(l)).count();
        if self.0.len() != gemms {
            return Err(ShapeError::new(format!(
                "{} activation scales for {gemms} GEMM layers",
                self.0.len()
            )));
        }
        match self.0.iter().find(|s| !(s.is_finite() && **s > 0.0)) {
            Some(bad) => Err(ShapeError::new(format!("activation scale {bad} is not positive"))),
            None => Ok(()),
        }
    }
}

impl Serialize for ActScales {
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) {
        self.0.serialize(s);
    }
}

impl Deserialize for ActScales {
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, Error> {
        /// A twin as model files stored it before it was rebuilt at load.
        #[derive(Deserialize)]
        struct StoredTwin {
            layers: Vec<StoredLayer>,
        }
        /// One externally tagged `QLayer`; a `Passthrough` has none of
        /// these keys, and its layer is skipped unread.
        #[derive(Deserialize)]
        struct StoredLayer {
            #[serde(rename = "Dense")]
            dense: Option<StoredGemm>,
            #[serde(rename = "Conv1d")]
            conv1d: Option<StoredGemm>,
            #[serde(rename = "Conv2d")]
            conv2d: Option<StoredGemm>,
        }
        #[derive(Deserialize)]
        struct StoredGemm {
            act_scale: f32,
        }

        if d.peek()? == Kind::Array {
            return Vec::deserialize(d).map(Self);
        }
        let twin = StoredTwin::deserialize(d)?;
        let gemm = |l: StoredLayer| l.dense.or(l.conv1d).or(l.conv2d).map(|g| g.act_scale);
        Ok(Self(twin.layers.into_iter().filter_map(gemm).collect()))
    }
}

/// An int8 post-training-quantized serving twin of a [`Sequential`].
///
/// Built from the float network and its [`ActScales`] with
/// [`Self::from_scales`] (at fit time, and again whenever a loaded model
/// switches to quantized serving) and served through
/// [`Self::infer_proba`] with the same [`InferArena`] zero-allocation
/// discipline as the float path.
#[derive(Debug, Clone)]
pub struct QuantizedModel {
    layers: Vec<QLayer>,
}

impl QuantizedModel {
    /// Calibrates the activation scales of `net` on `calibration` and
    /// builds the twin; [`ActScales::calibrate`] then [`Self::from_scales`].
    ///
    /// # Panics
    ///
    /// Panics if `calibration` is empty.
    pub fn from_calibrated(net: &Sequential, calibration: &Tensor) -> Self {
        Self::from_scales(net, &ActScales::calibrate(net, calibration))
            .expect("calibration yields one scale per GEMM layer")
    }

    /// Builds the int8 twin of `net` with the given activation scales.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when `scales` does not fit `net` (see
    /// [`ActScales::check`]).
    pub fn from_scales(net: &Sequential, scales: &ActScales) -> Result<Self, ShapeError> {
        scales.check(net)?;
        let mut scales = scales.0.iter().copied();
        let mut next_scale = || scales.next().expect("checked: one scale per GEMM layer");
        let layers = net
            .layers()
            .iter()
            .map(|layer| match layer {
                Layer::Dense(d) => QLayer::Dense(QDense::new(d, next_scale())),
                Layer::Conv1d(c) => QLayer::Conv1d(QConv1d::new(c, next_scale())),
                Layer::Conv2d(c) => QLayer::Conv2d(QConv2d::new(c, next_scale())),
                other => QLayer::Passthrough(Box::new(other.clone())),
            })
            .collect();
        Ok(Self { layers })
    }

    /// Number of quantized (int8 GEMM) layers.
    pub fn quantized_layer_count(&self) -> usize {
        self.layers.iter().filter(|l| !matches!(l, QLayer::Passthrough(_))).count()
    }

    /// Runs quantized inference, returning the logits as a view into the
    /// arena, through the same ping-pong walk as [`Sequential::infer_batch`].
    pub fn infer_batch<'a>(&self, input: &Tensor, arena: &'a mut InferArena) -> &'a Tensor {
        let idx = self.infer_into(input, arena);
        &arena.bufs[idx]
    }

    /// Softmax class probabilities via [`Self::infer_batch`].
    pub fn infer_proba<'a>(&self, input: &Tensor, arena: &'a mut InferArena) -> &'a Tensor {
        let idx = self.infer_into(input, arena);
        softmax_rows_inplace(&mut arena.bufs[idx]);
        &arena.bufs[idx]
    }

    fn infer_into(&self, input: &Tensor, arena: &mut InferArena) -> usize {
        let InferArena { bufs, cols, qbuf, qacc } = arena;
        ping_pong(&self.layers, input, bufs, |layer, x, out| layer.infer(x, out, cols, qbuf, qacc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, Conv2d, Dense, Flatten, MaxPool2d};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cnn(rng: &mut StdRng) -> Sequential {
        Sequential::new(vec![
            Conv2d::new(2, 4, 3, 1, rng).into(),
            Activation::relu().into(),
            MaxPool2d::new(2).into(),
            Flatten::new().into(),
            Dense::new(4 * 6 * 6, 8, rng).into(),
            Activation::relu().into(),
            Dense::new(8, 2, rng).into(),
        ])
    }

    #[test]
    fn quantized_probas_track_float_probas() {
        let mut rng = StdRng::seed_from_u64(11);
        let net = cnn(&mut rng);
        let calib = Tensor::rand_uniform(&[6, 2, 12, 12], -1.0, 1.0, &mut rng);
        let q = QuantizedModel::from_calibrated(&net, &calib);
        assert_eq!(q.quantized_layer_count(), 3);
        let x = Tensor::rand_uniform(&[5, 2, 12, 12], -1.0, 1.0, &mut rng);
        let mut arena = InferArena::new();
        let pf = net.infer_proba(&x, &mut arena).clone();
        let mut qarena = InferArena::new();
        let pq = q.infer_proba(&x, &mut qarena);
        for (a, b) in pf.data().iter().zip(pq.data()) {
            assert!((a - b).abs() < 0.1, "quantized proba drifted: {a} vs {b}");
        }
    }

    #[test]
    fn quantized_inference_is_deterministic_and_thread_invariant() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = cnn(&mut rng);
        let calib = Tensor::rand_uniform(&[4, 2, 12, 12], -1.0, 1.0, &mut rng);
        let q = QuantizedModel::from_calibrated(&net, &calib);
        let x = Tensor::rand_uniform(&[7, 2, 12, 12], -1.0, 1.0, &mut rng);
        let mut arena = InferArena::new();
        noodle_compute::set_thread_override(Some(1));
        let serial = q.infer_proba(&x, &mut arena).clone();
        for threads in [2, 4] {
            noodle_compute::set_thread_override(Some(threads));
            let par = q.infer_proba(&x, &mut arena).clone();
            assert_eq!(serial, par, "quantized inference differs at {threads} threads");
        }
        noodle_compute::set_thread_override(None);
        // And batched rows must equal solo rows (micro-batching safety).
        let sample = 2 * 12 * 12;
        let mut solo_arena = InferArena::new();
        for i in 0..7 {
            let xi = Tensor::from_vec(
                vec![1, 2, 12, 12],
                x.data()[i * sample..(i + 1) * sample].to_vec(),
            )
            .unwrap();
            let solo = q.infer_proba(&xi, &mut solo_arena);
            assert_eq!(solo.row(0), serial.row(i), "row {i} differs from solo inference");
        }
    }

    fn output_bits(q: &QuantizedModel, x: &Tensor) -> Vec<u32> {
        q.infer_proba(x, &mut InferArena::new()).data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn twins_rebuilt_from_stored_scales_match_the_calibrated_twin_bitwise() {
        let mut rng = StdRng::seed_from_u64(7);
        let net = cnn(&mut rng);
        let calib = Tensor::rand_uniform(&[3, 2, 12, 12], -1.0, 1.0, &mut rng);
        let calibrated = QuantizedModel::from_calibrated(&net, &calib);

        // What a model file keeps: the float net and the scales.
        let scales = ActScales::calibrate(&net, &calib);
        assert_eq!(scales.as_slice().len(), calibrated.quantized_layer_count());
        let stored: ActScales =
            serde_json::from_str(&serde_json::to_string(&scales).unwrap()).unwrap();
        assert_eq!(stored, scales);
        let loaded = Sequential::from_json(&net.to_json().unwrap()).unwrap();
        let rebuilt = QuantizedModel::from_scales(&loaded, &stored).unwrap();

        let x = Tensor::rand_uniform(&[4, 2, 12, 12], -1.0, 1.0, &mut rng);
        assert_eq!(output_bits(&rebuilt, &x), output_bits(&calibrated, &x));
    }

    #[test]
    fn stored_twins_read_as_their_activation_scales() {
        let stored = r#"{"layers":[
            {"Conv2d":{"in_channels":2,"out_channels":1,"kernel":1,"padding":0,
                "act_scale":0.5,"weight_scale":[0.1],"weight_q":[3,-4],"bias":[0.0]}},
            {"Passthrough":{"Activation":{"kind":"Relu"}}},
            {"Passthrough":{"Flatten":{}}},
            {"Dense":{"in_features":1,"out_features":1,"act_scale":0.25,
                "weight_scale":[1.0],"weight_q":[1],"bias":[0.0]}}]}"#;
        let scales: ActScales = serde_json::from_str(stored).unwrap();
        assert_eq!(scales.as_slice(), &[0.5, 0.25]);
        let missing = r#"{"layers":[{"Dense":{"in_features":1}}]}"#;
        assert!(serde_json::from_str::<ActScales>(missing).is_err());
    }

    #[test]
    fn scales_must_fit_the_net() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = cnn(&mut rng);
        assert!(QuantizedModel::from_scales(&net, &ActScales(vec![0.5; 3])).is_ok());
        for bad in [vec![0.5; 2], vec![0.5; 4], vec![0.5, 0.0, 0.5], vec![0.5, f32::NAN, 0.5]] {
            let err = QuantizedModel::from_scales(&net, &ActScales(bad.clone())).unwrap_err();
            assert!(err.to_string().contains("activation scale"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn passthrough_only_model_matches_float_bitwise() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = Sequential::new(vec![
            Activation::relu().into(),
            MaxPool2d::new(2).into(),
            Flatten::new().into(),
        ]);
        let calib = Tensor::rand_uniform(&[2, 2, 8, 8], -1.0, 1.0, &mut rng);
        let q = QuantizedModel::from_calibrated(&net, &calib);
        assert_eq!(q.quantized_layer_count(), 0);
        let x = Tensor::rand_uniform(&[3, 2, 8, 8], -1.0, 1.0, &mut rng);
        let mut fa = InferArena::new();
        let mut qa = InferArena::new();
        assert_eq!(net.infer_batch(&x, &mut fa).clone(), *q.infer_batch(&x, &mut qa));
    }

    #[test]
    fn zero_weight_rows_quantize_safely() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = Sequential::new(vec![Dense::new(3, 2, &mut rng).into()]);
        // Zero every weight row: the scales must fall back to 1.0 and
        // produce exact zeros (plus the zero bias) instead of NaNs.
        for p in net.params_mut() {
            p.value.data_mut().fill(0.0);
        }
        let calib = Tensor::zeros(&[2, 3]);
        let q = QuantizedModel::from_calibrated(&net, &calib);
        let x = Tensor::from_vec(vec![1, 3], vec![1.0, -2.0, 3.0]).unwrap();
        let mut arena = InferArena::new();
        let out = q.infer_batch(&x, &mut arena);
        assert!(out.data().iter().all(|v| *v == 0.0), "zero net must stay zero, got {out:?}");
    }
}
