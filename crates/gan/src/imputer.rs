//! Cross-modal imputation with a conditional (pix2pix-style) GAN.
//!
//! Algorithm 2 of the paper imputes a missing modality with a GAN. Here the
//! generator translates the *present* modality's feature vector into the
//! *missing* modality's feature vector; it is trained with the standard
//! conditional-GAN objective — an adversarial term from a discriminator
//! that judges (translated) target vectors, plus an L2 reconstruction term
//! that anchors the translation to the paired training data.

use noodle_nn::loss::{binary_cross_entropy_with_logits, mse};
use noodle_nn::{Activation, Adam, Dense, InferArena, Mode, Sequential, ShapeError, Tensor};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::scaler::MinMaxScaler;

/// Hyperparameters for the [`ModalityImputer`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ImputerConfig {
    /// Hidden width of the translator and discriminator.
    pub hidden_dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size (clamped to the dataset size).
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// Weight of the L2 reconstruction term relative to the adversarial
    /// term.
    pub reconstruction_weight: f32,
}

impl Default for ImputerConfig {
    fn default() -> Self {
        Self { hidden_dim: 32, epochs: 200, batch_size: 16, lr: 2e-3, reconstruction_weight: 10.0 }
    }
}

/// A trained cross-modal translator: given modality A, synthesizes
/// modality B.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModalityImputer {
    translator: Sequential,
    source_scaler: MinMaxScaler,
    target_scaler: MinMaxScaler,
    source_dim: usize,
    target_dim: usize,
}

impl ModalityImputer {
    /// Trains the imputer on paired samples: `source` (`[n, da]`, the
    /// modality that will be present) and `target` (`[n, db]`, the modality
    /// to reconstruct).
    ///
    /// # Panics
    ///
    /// Panics if the matrices are not rank 2, are empty, or disagree on the
    /// number of rows.
    pub fn train<R: Rng + ?Sized>(
        source: &Tensor,
        target: &Tensor,
        config: &ImputerConfig,
        rng: &mut R,
    ) -> Self {
        assert_eq!(source.ndim(), 2, "imputer expects [n, d] source");
        assert_eq!(target.ndim(), 2, "imputer expects [n, d] target");
        let n = source.shape()[0];
        assert!(n > 0, "cannot train an imputer on zero samples");
        assert_eq!(n, target.shape()[0], "source/target row mismatch");
        let (da, db) = (source.shape()[1], target.shape()[1]);
        let _span = noodle_telemetry::span!(
            "gan.imputer.train",
            samples = n,
            source_dim = da,
            target_dim = db,
        );

        let source_scaler = MinMaxScaler::fit(source);
        let target_scaler = MinMaxScaler::fit(target);
        let xs = source_scaler.transform(source);
        let ys = target_scaler.transform(target);

        let mut translator = Sequential::new(vec![
            Dense::new(da, config.hidden_dim, rng).into(),
            Activation::leaky_relu().into(),
            Dense::new(config.hidden_dim, config.hidden_dim, rng).into(),
            Activation::leaky_relu().into(),
            Dense::new(config.hidden_dim, db, rng).into(),
            Activation::tanh().into(),
        ]);
        let mut discriminator = Sequential::new(vec![
            Dense::new(db, config.hidden_dim, rng).into(),
            Activation::leaky_relu().into(),
            Dense::new(config.hidden_dim, 1, rng).into(),
        ]);
        let mut opt_t = Adam::new(config.lr).betas(0.5, 0.999);
        let mut opt_d = Adam::new(config.lr).betas(0.5, 0.999);
        let batch = config.batch_size.clamp(1, n);
        let mut arena = InferArena::new();

        for _ in 0..config.epochs {
            let mut order: Vec<usize> = (0..n).collect();
            rand::seq::SliceRandom::shuffle(order.as_mut_slice(), rng);
            for chunk in order.chunks(batch) {
                let xb = xs.select_rows(chunk);
                let yb = ys.select_rows(chunk);
                let b = chunk.len();

                // Discriminator: real target vs translated.
                discriminator.zero_grad();
                let real_logits = discriminator.forward(&yb, Mode::Train);
                let real_loss = binary_cross_entropy_with_logits(&real_logits, &vec![0.9; b]);
                discriminator.backward(&real_loss.grad);
                let fake = translator.infer_batch(&xb, &mut arena);
                let fake_logits = discriminator.forward(fake, Mode::Train);
                let fake_loss = binary_cross_entropy_with_logits(&fake_logits, &vec![0.0; b]);
                discriminator.backward(&fake_loss.grad);
                opt_d.step(&mut discriminator.params_mut());

                // Translator: fool the discriminator + reconstruct.
                translator.zero_grad();
                discriminator.zero_grad();
                let fake = translator.forward(&xb, Mode::Train);
                let logits = discriminator.forward(&fake, Mode::Train);
                let adv = binary_cross_entropy_with_logits(&logits, &vec![1.0; b]);
                let grad_adv = discriminator.backward(&adv.grad);
                let rec = mse(&fake, &yb);
                let mut grad_total = grad_adv;
                grad_total.axpy(config.reconstruction_weight, &rec.grad);
                translator.backward(&grad_total);
                opt_t.step(&mut translator.params_mut());
            }
        }

        Self { translator, source_scaler, target_scaler, source_dim: da, target_dim: db }
    }

    /// Feature dimension of the present (source) modality.
    pub fn source_dim(&self) -> usize {
        self.source_dim
    }

    /// Feature dimension of the imputed (target) modality.
    pub fn target_dim(&self) -> usize {
        self.target_dim
    }

    /// Checks that the translator maps one `source_dim`-wide row to one
    /// `target_dim`-wide row and that both scalers are as wide, so a loaded
    /// imputer cannot panic at its first use.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] naming the disagreement.
    pub fn check(&self) -> Result<(), ShapeError> {
        let out = self.translator.output_shape(&[1, self.source_dim])?;
        let scalers_fit =
            self.source_scaler.fits(self.source_dim) && self.target_scaler.fits(self.target_dim);
        if out != [1, self.target_dim] || !scalers_fit {
            return Err(ShapeError::new(format!(
                "imputer {} -> {} has a translator to {out:?} and scalers {} and {} wide",
                self.source_dim,
                self.target_dim,
                self.source_scaler.dim(),
                self.target_scaler.dim()
            )));
        }
        Ok(())
    }

    /// Synthesizes the missing modality for `source` samples (`[n, da]`),
    /// returning `[n, db]` in the target modality's original feature space.
    ///
    /// # Panics
    ///
    /// Panics if the feature dimension disagrees with the training data.
    pub fn impute(&self, source: &Tensor) -> Tensor {
        assert_eq!(source.shape()[1], self.source_dim, "source feature mismatch");
        let xs = self.source_scaler.transform(source);
        let mut arena = InferArena::new();
        let ys = self.translator.infer_batch(&xs, &mut arena);
        self.target_scaler.inverse_transform(ys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Paired data with a deterministic linear relationship the translator
    /// must learn: y = [2a0 + 1, a0 - a1].
    fn paired(n: usize, rng: &mut StdRng) -> (Tensor, Tensor) {
        let a = Tensor::rand_uniform(&[n, 2], -1.0, 1.0, rng);
        let mut brows = Vec::with_capacity(n);
        for r in 0..n {
            let row = a.row(r);
            brows.push(vec![2.0 * row[0] + 1.0, row[0] - row[1]]);
        }
        (a, Tensor::stack_rows(&brows).unwrap())
    }

    #[test]
    fn learns_linear_cross_modal_map() {
        let mut rng = StdRng::seed_from_u64(13);
        let (a, b) = paired(128, &mut rng);
        let config = ImputerConfig { epochs: 150, ..ImputerConfig::default() };
        let imputer = ModalityImputer::train(&a, &b, &config, &mut rng);
        let (a_test, b_test) = paired(32, &mut rng);
        let imputed = imputer.impute(&a_test);
        let mut err = 0.0;
        for r in 0..32 {
            for c in 0..2 {
                err += (imputed.at(&[r, c]) - b_test.at(&[r, c])).abs() / 64.0;
            }
        }
        assert!(err < 0.35, "mean absolute imputation error {err}");
    }

    #[test]
    fn imputed_values_stay_in_target_range() {
        let mut rng = StdRng::seed_from_u64(2);
        let (a, b) = paired(64, &mut rng);
        let config = ImputerConfig { epochs: 30, ..ImputerConfig::default() };
        let imputer = ModalityImputer::train(&a, &b, &config, &mut rng);
        let out = imputer.impute(&a);
        let scaler = MinMaxScaler::fit(&b);
        let scaled = scaler.transform(&out);
        assert!(scaled.data().iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn dims_are_recorded() {
        let mut rng = StdRng::seed_from_u64(3);
        let (a, b) = paired(16, &mut rng);
        let config = ImputerConfig { epochs: 2, ..ImputerConfig::default() };
        let imputer = ModalityImputer::train(&a, &b, &config, &mut rng);
        assert_eq!(imputer.source_dim(), 2);
        assert_eq!(imputer.target_dim(), 2);
    }

    #[test]
    fn check_catches_dimensions_the_translator_does_not_have() {
        let mut rng = StdRng::seed_from_u64(5);
        let (a, b) = paired(8, &mut rng);
        let config = ImputerConfig { epochs: 1, ..ImputerConfig::default() };
        let mut imputer = ModalityImputer::train(&a, &b, &config, &mut rng);
        assert_eq!(imputer.check(), Ok(()));
        imputer.target_dim = 3;
        assert!(imputer.check().unwrap_err().to_string().contains("imputer 2 -> 3"));
        imputer.target_dim = 2;
        imputer.source_dim = 3;
        assert!(imputer.check().unwrap_err().to_string().contains("Dense wants rank 2 with 2"));
        imputer.source_dim = 2;
        imputer.target_scaler = MinMaxScaler::fit(&Tensor::zeros(&[1, 3]));
        assert!(imputer.check().unwrap_err().to_string().contains("scalers 2 and 3 wide"));
    }

    #[test]
    #[should_panic(expected = "row mismatch")]
    fn rejects_unpaired_data() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Tensor::zeros(&[4, 2]);
        let b = Tensor::zeros(&[5, 2]);
        let _ = ModalityImputer::train(&a, &b, &ImputerConfig::default(), &mut rng);
    }
}
