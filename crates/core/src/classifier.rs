//! The CNN classifiers, one per modality plus the early-fusion network.
//!
//! The paper stresses that every modality uses "the same CNN-based deep
//! learning model with identical hyperparameters"; the three builders here
//! share the same depth, channel counts, kernel sizes, dropout rate and
//! head width — only the input adapter differs (2-D for the graph image,
//! 1-D for the tabular vector and the early-fusion concatenation).

use noodle_nn::{
    fit_classifier, Activation, Conv1d, Conv2d, Dense, Dropout, EpochStats, Flatten, InferArena,
    MaxPool1d, MaxPool2d, Sequential, ShapeError, Tensor, TrainConfig,
};
use rand::Rng;
use serde::{Deserialize, Deserializer, Error, Serialize};

use crate::dataset::{GRAPH_DIM, TABULAR_DIM};
use noodle_graph::{IMAGE_CHANNELS, IMAGE_SIZE};

/// Which input a classifier consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModalityKind {
    /// The 2-D graph image.
    Graph,
    /// The 1-D tabular feature vector.
    Tabular,
    /// The 1-D concatenation of both modalities (early fusion).
    EarlyFusion,
}

impl ModalityKind {
    /// Short lowercase name: `graph`, `tabular` or `early_fusion`.
    pub fn name(self) -> &'static str {
        match self {
            ModalityKind::Graph => "graph",
            ModalityKind::Tabular => "tabular",
            ModalityKind::EarlyFusion => "early_fusion",
        }
    }
}

/// Shared CNN hyperparameters (identical across modalities, per the paper).
const CONV_CHANNELS: (usize, usize) = (8, 16);
const KERNEL: usize = 3;
const DROPOUT: f32 = 0.2;
const HEAD_WIDTH: usize = 32;
const N_CLASSES: usize = 2;

/// A CNN classifier for one modality. A load error in its network names
/// the modality.
#[derive(Debug, Clone, Serialize)]
pub struct ModalityClassifier {
    kind: ModalityKind,
    net: Sequential,
}

impl Deserialize for ModalityClassifier {
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, Error> {
        const FIELDS: &[&str] = &["kind", "net"];
        let (mut kind, mut net) = (None, None);
        d.begin_object()?;
        while let Some(field) = d.next_field(FIELDS)? {
            match field {
                0 if kind.is_none() => kind = Some(ModalityKind::deserialize(d)?),
                1 if net.is_none() => {
                    let name = kind.map_or("classifier", ModalityKind::name);
                    let read = Sequential::deserialize(d);
                    net = Some(read.map_err(|e| Error::custom(format!("{name} net: {e}")))?);
                }
                0 | 1 => return Err(Error::duplicate_field(FIELDS[field])),
                _ => d.skip()?,
            }
        }
        Ok(Self {
            kind: kind.ok_or_else(|| Error::missing_field("kind"))?,
            net: net.ok_or_else(|| Error::missing_field("net"))?,
        })
    }
}

impl ModalityClassifier {
    /// Builds an untrained classifier for the given modality.
    pub fn new<R: Rng + ?Sized>(kind: ModalityKind, rng: &mut R) -> Self {
        let (c1, c2) = CONV_CHANNELS;
        let net = match kind {
            ModalityKind::Graph => {
                // [B, 2, 12, 12] -> conv -> pool -> conv -> pool -> head
                let after_pool = IMAGE_SIZE / 2 / 2; // 3
                Sequential::new(vec![
                    Conv2d::new(IMAGE_CHANNELS, c1, KERNEL, 1, rng).into(),
                    Activation::relu().into(),
                    MaxPool2d::new(2).into(),
                    Conv2d::new(c1, c2, KERNEL, 1, rng).into(),
                    Activation::relu().into(),
                    MaxPool2d::new(2).into(),
                    Flatten::new().into(),
                    Dropout::new(DROPOUT, 17).into(),
                    Dense::new(c2 * after_pool * after_pool, HEAD_WIDTH, rng).into(),
                    Activation::relu().into(),
                    Dense::new(HEAD_WIDTH, N_CLASSES, rng).into(),
                ])
            }
            ModalityKind::Tabular => build_1d(TABULAR_DIM, rng),
            ModalityKind::EarlyFusion => build_1d(GRAPH_DIM + TABULAR_DIM, rng),
        };
        Self { kind, net }
    }

    /// The modality this classifier consumes.
    pub fn kind(&self) -> ModalityKind {
        self.kind
    }

    /// Short lowercase modality name used in telemetry attributes.
    pub fn modality_name(&self) -> &'static str {
        self.kind.name()
    }

    /// Expected input shape (without the batch dimension).
    pub fn input_shape(&self) -> Vec<usize> {
        match self.kind {
            ModalityKind::Graph => vec![IMAGE_CHANNELS, IMAGE_SIZE, IMAGE_SIZE],
            ModalityKind::Tabular => vec![1, TABULAR_DIM],
            ModalityKind::EarlyFusion => vec![1, GRAPH_DIM + TABULAR_DIM],
        }
    }

    /// Trains the classifier; returns the per-epoch loss trace.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not match [`Self::input_shape`] (plus batch
    /// dimension) or if `labels` disagree in length.
    pub fn fit<R: Rng + ?Sized>(
        &mut self,
        inputs: &Tensor,
        labels: &[usize],
        config: &TrainConfig,
        rng: &mut R,
    ) -> Vec<EpochStats> {
        assert_eq!(&inputs.shape()[1..], self.input_shape().as_slice(), "input shape mismatch");
        let _span = noodle_telemetry::span!(
            "cnn.fit",
            modality = self.modality_name(),
            samples = labels.len(),
        );
        fit_classifier(&mut self.net, inputs, labels, config, rng)
    }

    /// Softmax class probabilities `[n, 2]`.
    pub fn predict_proba(&self, inputs: &Tensor) -> Tensor {
        assert_eq!(&inputs.shape()[1..], self.input_shape().as_slice(), "input shape mismatch");
        self.net.predict_proba(inputs)
    }

    /// Softmax class probabilities `[n, 2]` through the allocation-free
    /// inference path: bit-identical to [`Self::predict_proba`] at every
    /// batch size, but takes `&self` and writes into `arena`'s reusable
    /// buffers instead of allocating fresh tensors.
    pub fn infer_proba<'a>(&self, inputs: &Tensor, arena: &'a mut InferArena) -> &'a Tensor {
        assert_eq!(&inputs.shape()[1..], self.input_shape().as_slice(), "input shape mismatch");
        self.net.infer_proba(inputs, arena)
    }

    /// Number of trainable parameters.
    pub fn param_count(&mut self) -> usize {
        self.net.param_count()
    }

    /// The float network.
    pub fn net(&self) -> &Sequential {
        &self.net
    }

    /// Checks that the network maps one input of this modality's shape to
    /// one row of class scores, so a loaded model cannot panic at its
    /// first forward.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] naming the layer that does not fit.
    pub fn check(&self) -> Result<(), ShapeError> {
        let mut input = vec![1];
        input.extend(self.input_shape());
        match self.net.output_shape(&input)? {
            out if out == [1, N_CLASSES] => Ok(()),
            out => Err(ShapeError::new(format!("{input:?} maps to {out:?}, not [1, {N_CLASSES}]"))),
        }
    }
}

fn build_1d<R: Rng + ?Sized>(width: usize, rng: &mut R) -> Sequential {
    let (c1, c2) = CONV_CHANNELS;
    let after_pool = width / 2 / 2;
    Sequential::new(vec![
        Conv1d::new(1, c1, KERNEL, 1, rng).into(),
        Activation::relu().into(),
        MaxPool1d::new(2).into(),
        Conv1d::new(c1, c2, KERNEL, 1, rng).into(),
        Activation::relu().into(),
        MaxPool1d::new(2).into(),
        Flatten::new().into(),
        Dropout::new(DROPOUT, 17).into(),
        Dense::new(c2 * after_pool, HEAD_WIDTH, rng).into(),
        Activation::relu().into(),
        Dense::new(HEAD_WIDTH, N_CLASSES, rng).into(),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shapes_flow_through_all_three() {
        let mut rng = StdRng::seed_from_u64(0);
        for kind in [ModalityKind::Graph, ModalityKind::Tabular, ModalityKind::EarlyFusion] {
            let clf = ModalityClassifier::new(kind, &mut rng);
            let mut shape = vec![4];
            shape.extend(clf.input_shape());
            let x = Tensor::rand_uniform(&shape, 0.0, 1.0, &mut rng);
            let p = clf.predict_proba(&x);
            assert_eq!(p.shape(), &[4, 2]);
            for r in 0..4 {
                let s: f32 = p.row(r).iter().sum();
                assert!((s - 1.0).abs() < 1e-5, "{kind:?} row {r} sums to {s}");
            }
        }
    }

    #[test]
    fn learns_separable_tabular_data() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut clf = ModalityClassifier::new(ModalityKind::Tabular, &mut rng);
        let n = 40;
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let label = i % 2;
            let base = if label == 0 { -1.0 } else { 1.0 };
            let noise = Tensor::randn(&[TABULAR_DIM], 0.1, &mut rng);
            rows.push(noise.data().iter().map(|v| v + base).collect::<Vec<f32>>());
            labels.push(label);
        }
        let x = Tensor::stack_rows(&rows).unwrap().reshape(&[n, 1, TABULAR_DIM]).unwrap();
        let config = TrainConfig { epochs: 25, batch_size: 8, lr: 2e-3 };
        let trace = clf.fit(&x, &labels, &config, &mut rng);
        assert!(trace.last().unwrap().loss < trace.first().unwrap().loss);
        let preds = clf.predict_proba(&x).argmax_rows();
        let correct = preds.iter().zip(&labels).filter(|(p, l)| p == l).count();
        assert!(correct >= 36, "only {correct}/{n} correct");
    }

    #[test]
    fn identical_hyperparameters_across_modalities() {
        // The conv stacks share channel counts; parameter counts differ only
        // through input width, not architecture choices.
        let mut rng = StdRng::seed_from_u64(2);
        let mut tab = ModalityClassifier::new(ModalityKind::Tabular, &mut rng);
        let mut early = ModalityClassifier::new(ModalityKind::EarlyFusion, &mut rng);
        assert!(early.param_count() > tab.param_count());
        assert_eq!(tab.kind(), ModalityKind::Tabular);
    }

    #[test]
    fn infer_proba_matches_predict_proba_bitwise() {
        let mut rng = StdRng::seed_from_u64(4);
        for kind in [ModalityKind::Graph, ModalityKind::Tabular, ModalityKind::EarlyFusion] {
            let clf = ModalityClassifier::new(kind, &mut rng);
            let mut shape = vec![6];
            shape.extend(clf.input_shape());
            let x = Tensor::rand_uniform(&shape, 0.0, 1.0, &mut rng);
            let expected = clf.predict_proba(&x);
            let mut arena = InferArena::new();
            assert_eq!(clf.infer_proba(&x, &mut arena), &expected, "{kind:?} diverges");
        }
    }

    #[test]
    #[should_panic(expected = "input shape mismatch")]
    fn rejects_wrong_shape() {
        let mut rng = StdRng::seed_from_u64(3);
        let clf = ModalityClassifier::new(ModalityKind::Graph, &mut rng);
        let _ = clf.predict_proba(&Tensor::zeros(&[1, 1, TABULAR_DIM]));
    }
}
