//! A vanilla GAN over feature vectors, used for class-conditional dataset
//! amplification.
//!
//! The paper segregates Trojan-free and Trojan-infected samples and trains
//! a GAN per label to amplify each class consistently with its own
//! distribution; [`amplify_class`] is exactly that primitive.

use noodle_nn::loss::binary_cross_entropy_with_logits;
use noodle_nn::{Activation, Adam, Dense, InferArena, Mode, Sequential, Tensor};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::scaler::MinMaxScaler;

/// GAN hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GanConfig {
    /// Dimension of the generator's noise input.
    pub latent_dim: usize,
    /// Hidden width of both networks.
    pub hidden_dim: usize,
    /// Training epochs over the real data.
    pub epochs: usize,
    /// Minibatch size (clamped to the dataset size).
    pub batch_size: usize,
    /// Learning rate for both optimizers.
    pub lr: f32,
}

impl Default for GanConfig {
    fn default() -> Self {
        Self { latent_dim: 8, hidden_dim: 32, epochs: 300, batch_size: 16, lr: 2e-3 }
    }
}

/// Per-epoch GAN losses, useful for debugging convergence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GanEpoch {
    /// Epoch index.
    pub epoch: usize,
    /// Mean discriminator loss.
    pub d_loss: f32,
    /// Mean generator loss.
    pub g_loss: f32,
}

/// A trained vanilla GAN over fixed-length feature vectors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VanillaGan {
    generator: Sequential,
    discriminator: Sequential,
    scaler: MinMaxScaler,
    latent_dim: usize,
    data_dim: usize,
    trace: Vec<GanEpoch>,
}

impl VanillaGan {
    /// Trains a GAN on real samples `data` (`[n, d]`).
    ///
    /// # Panics
    ///
    /// Panics if `data` is not rank 2 or has no rows.
    pub fn train<R: Rng + ?Sized>(data: &Tensor, config: &GanConfig, rng: &mut R) -> Self {
        assert_eq!(data.ndim(), 2, "GAN expects [n, d] training data");
        let n = data.shape()[0];
        assert!(n > 0, "cannot train a GAN on zero samples");
        let d = data.shape()[1];
        let _span = noodle_telemetry::span!(
            "gan.train",
            samples = n,
            features = d,
            epochs = config.epochs,
        );
        let scaler = MinMaxScaler::fit(data);
        let scaled = scaler.transform(data);

        let mut generator = Sequential::new(vec![
            Dense::new(config.latent_dim, config.hidden_dim, rng).into(),
            Activation::leaky_relu().into(),
            Dense::new(config.hidden_dim, config.hidden_dim, rng).into(),
            Activation::leaky_relu().into(),
            Dense::new(config.hidden_dim, d, rng).into(),
            Activation::tanh().into(),
        ]);
        let mut discriminator = Sequential::new(vec![
            Dense::new(d, config.hidden_dim, rng).into(),
            Activation::leaky_relu().into(),
            Dense::new(config.hidden_dim, config.hidden_dim, rng).into(),
            Activation::leaky_relu().into(),
            Dense::new(config.hidden_dim, 1, rng).into(),
        ]);
        let mut opt_g = Adam::new(config.lr).betas(0.5, 0.999);
        let mut opt_d = Adam::new(config.lr).betas(0.5, 0.999);
        let batch = config.batch_size.clamp(1, n);
        let mut trace = Vec::with_capacity(config.epochs);
        let mut arena = InferArena::new();

        // The heavy math (Dense forward/backward GEMMs) is parallelized
        // inside the noodle-compute kernels; the epoch loop itself stays
        // sequential so the shuffle/noise RNG stream is identical at every
        // thread count.
        let flops_before = noodle_compute::flops();
        let started = std::time::Instant::now();
        for epoch in 0..config.epochs {
            let mut d_loss_sum = 0.0;
            let mut g_loss_sum = 0.0;
            let mut batches = 0;
            let mut order: Vec<usize> = (0..n).collect();
            rand::seq::SliceRandom::shuffle(order.as_mut_slice(), rng);
            for chunk in order.chunks(batch) {
                let real = scaled.select_rows(chunk);
                let b = chunk.len();

                // --- Discriminator step -------------------------------
                discriminator.zero_grad();
                let real_logits = discriminator.forward(&real, Mode::Train);
                let real_loss = binary_cross_entropy_with_logits(&real_logits, &vec![0.9; b]);
                discriminator.backward(&real_loss.grad);
                let z = Tensor::randn(&[b, config.latent_dim], 1.0, rng);
                let fake = generator.infer_batch(&z, &mut arena);
                let fake_logits = discriminator.forward(fake, Mode::Train);
                let fake_loss = binary_cross_entropy_with_logits(&fake_logits, &vec![0.0; b]);
                discriminator.backward(&fake_loss.grad);
                opt_d.step(&mut discriminator.params_mut());
                d_loss_sum += real_loss.loss + fake_loss.loss;

                // --- Generator step ------------------------------------
                generator.zero_grad();
                discriminator.zero_grad();
                let z = Tensor::randn(&[b, config.latent_dim], 1.0, rng);
                let fake = generator.forward(&z, Mode::Train);
                let logits = discriminator.forward(&fake, Mode::Train);
                let g_loss = binary_cross_entropy_with_logits(&logits, &vec![1.0; b]);
                let grad_at_fake = discriminator.backward(&g_loss.grad);
                generator.backward(&grad_at_fake);
                opt_g.step(&mut generator.params_mut());
                g_loss_sum += g_loss.loss;
                batches += 1;
            }
            let d_loss = d_loss_sum / batches.max(1) as f32;
            let g_loss = g_loss_sum / batches.max(1) as f32;
            noodle_telemetry::counter_add("gan.epochs", 1);
            noodle_telemetry::gauge_set("gan.d_loss", d_loss as f64);
            noodle_telemetry::gauge_set("gan.g_loss", g_loss as f64);
            noodle_telemetry::histogram_record("gan.d_loss", d_loss as f64);
            noodle_telemetry::histogram_record("gan.g_loss", g_loss as f64);
            trace.push(GanEpoch { epoch, d_loss, g_loss });
        }
        let elapsed = started.elapsed().as_secs_f64();
        let gflop = (noodle_compute::flops() - flops_before) as f64 / 1e9;
        noodle_telemetry::gauge_set("gan.train_gflop", gflop);
        if elapsed > 0.0 {
            let trained = (config.epochs * n) as f64;
            noodle_telemetry::gauge_set("gan.samples_per_sec", trained / elapsed);
            noodle_telemetry::gauge_set("gan.train_gflops", gflop / elapsed);
        }

        Self { generator, discriminator, scaler, latent_dim: config.latent_dim, data_dim: d, trace }
    }

    /// Number of features per sample.
    pub fn data_dim(&self) -> usize {
        self.data_dim
    }

    /// The per-epoch loss trace recorded during training.
    pub fn trace(&self) -> &[GanEpoch] {
        &self.trace
    }

    /// Draws `count` synthetic samples in the original feature space.
    pub fn sample<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Tensor {
        let z = Tensor::randn(&[count, self.latent_dim], 1.0, rng);
        let mut arena = InferArena::new();
        let scaled = self.generator.infer_batch(&z, &mut arena);
        self.scaler.inverse_transform(scaled)
    }

    /// Discriminator realism scores (sigmoid probabilities) for samples in
    /// the original feature space.
    pub fn realism(&self, samples: &Tensor) -> Vec<f32> {
        let scaled = self.scaler.transform(samples);
        let mut arena = InferArena::new();
        let logits = self.discriminator.infer_batch(&scaled, &mut arena);
        logits.data().iter().map(|&x| noodle_nn::sigmoid(x)).collect()
    }
}

/// Amplifies one class to `target_count` samples: trains a GAN on the
/// class's real samples and appends synthetic rows until the class reaches
/// the target size. Returns the combined `[target_count, d]` matrix whose
/// first rows are the real samples.
///
/// If the class already has at least `target_count` samples, the data is
/// returned unchanged (never truncated — real data is not discarded).
///
/// # Panics
///
/// Panics if `data` is not rank 2 or is empty.
pub fn amplify_class<R: Rng + ?Sized>(
    data: &Tensor,
    target_count: usize,
    config: &GanConfig,
    rng: &mut R,
) -> Tensor {
    let n = data.shape()[0];
    if n >= target_count {
        return data.clone();
    }
    let gan = VanillaGan::train(data, config, rng);
    let synthetic = gan.sample(target_count - n, rng);
    Tensor::stack_rows(
        &(0..n)
            .map(|r| data.row(r).to_vec())
            .chain((0..synthetic.shape()[0]).map(|r| synthetic.row(r).to_vec()))
            .collect::<Vec<_>>(),
    )
    .expect("rows share the feature dimension")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn blob(n: usize, center: &[f32], spread: f32, rng: &mut StdRng) -> Tensor {
        let noise = Tensor::randn(&[n, center.len()], spread, rng);
        let mut out = noise;
        let d = center.len();
        let data = out.data_mut();
        for r in 0..n {
            for c in 0..d {
                data[r * d + c] += center[c];
            }
        }
        out
    }

    #[test]
    fn gan_learns_a_blob() {
        let mut rng = StdRng::seed_from_u64(7);
        let real = blob(64, &[2.0, -1.0, 0.5], 0.1, &mut rng);
        let config = GanConfig { epochs: 150, ..GanConfig::default() };
        let gan = VanillaGan::train(&real, &config, &mut rng);
        let samples = gan.sample(200, &mut rng);
        assert_eq!(samples.shape(), &[200, 3]);
        // Sample means should land near the blob centre; min–max scaling
        // bounds outputs to the real data's range so this mostly tests that
        // the generator is not collapsed onto a range edge.
        let mut means = [0.0f32; 3];
        for r in 0..200 {
            for (c, m) in means.iter_mut().enumerate() {
                *m += samples.at(&[r, c]) / 200.0;
            }
        }
        assert!((means[0] - 2.0).abs() < 0.5, "mean {means:?}");
        assert!((means[1] + 1.0).abs() < 0.5, "mean {means:?}");
    }

    #[test]
    fn training_trace_is_recorded() {
        let mut rng = StdRng::seed_from_u64(1);
        let real = blob(16, &[0.0, 0.0], 0.2, &mut rng);
        let config = GanConfig { epochs: 5, ..GanConfig::default() };
        let gan = VanillaGan::train(&real, &config, &mut rng);
        assert_eq!(gan.trace().len(), 5);
        assert!(gan.trace().iter().all(|e| e.d_loss.is_finite() && e.g_loss.is_finite()));
    }

    #[test]
    fn amplify_reaches_target_and_keeps_real_rows() {
        let mut rng = StdRng::seed_from_u64(3);
        let real = blob(10, &[1.0, 2.0], 0.05, &mut rng);
        let config = GanConfig { epochs: 30, ..GanConfig::default() };
        let amplified = amplify_class(&real, 50, &config, &mut rng);
        assert_eq!(amplified.shape(), &[50, 2]);
        for r in 0..10 {
            assert_eq!(amplified.row(r), real.row(r), "real row {r} altered");
        }
    }

    #[test]
    fn amplify_is_identity_when_large_enough() {
        let mut rng = StdRng::seed_from_u64(4);
        let real = blob(20, &[0.0], 1.0, &mut rng);
        let out = amplify_class(&real, 10, &GanConfig::default(), &mut rng);
        assert_eq!(out, real);
    }

    #[test]
    fn samples_respect_feature_ranges() {
        let mut rng = StdRng::seed_from_u64(5);
        let real = blob(32, &[5.0, -5.0], 0.3, &mut rng);
        let config = GanConfig { epochs: 20, ..GanConfig::default() };
        let gan = VanillaGan::train(&real, &config, &mut rng);
        let samples = gan.sample(100, &mut rng);
        let scaler = MinMaxScaler::fit(&real);
        let rescaled = scaler.transform(&samples);
        assert!(rescaled.data().iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn realism_scores_are_probabilities() {
        let mut rng = StdRng::seed_from_u64(6);
        let real = blob(24, &[0.0, 1.0], 0.2, &mut rng);
        let config = GanConfig { epochs: 30, ..GanConfig::default() };
        let gan = VanillaGan::train(&real, &config, &mut rng);
        let scores = gan.realism(&real);
        assert_eq!(scores.len(), 24);
        assert!(scores.iter().all(|&s| (0.0..=1.0).contains(&s)));
    }
}
