//! Conditional GAN harness — the training loop behind EVAX's AM-GAN.
//!
//! The paper's AM-GAN (§V) is a *class-conditioned* GAN with a deliberate
//! asymmetry: the Generator is a deep network, while the Discriminator has
//! the architecture of the deployed hardware detector (shallow). Both are
//! conditioned on the attack-type label; the Discriminator learns to accept
//! *matching* (sample, label) pairs drawn from the seen database and to
//! reject generated pairs and mismatched pairs.
//!
//! This module provides the generic machinery; the EVAX-specific training
//! schedule (style-loss gating, sample collection) lives in `evax-core`.

use rand::Rng;

use crate::loss::Loss;
use crate::net::Network;
use crate::optim::Optimizer;
use crate::tensor::Matrix;

/// Configuration for a [`CondGan`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GanConfig {
    /// Dimension of the noise vector fed to the Generator. The paper uses a
    /// 145-wide noise vector (`RandomNoise(145)`, Fig. 4).
    pub noise_dim: usize,
    /// Number of condition classes (attack types + benign).
    pub n_classes: usize,
    /// Dimension of a generated sample (the HPC feature vector).
    pub feature_dim: usize,
    /// Probability of showing the Discriminator a *mismatched* real pair
    /// (real sample, wrong label) with target 0, per CGAN training.
    pub mismatch_prob: f64,
}

impl Default for GanConfig {
    fn default() -> Self {
        GanConfig {
            noise_dim: 145,
            n_classes: 20,
            feature_dim: 145,
            mismatch_prob: 0.25,
        }
    }
}

/// Losses observed during one adversarial training step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GanStats {
    /// Discriminator BCE over the real + fake (+ mismatched) batch.
    pub d_loss: f32,
    /// Generator BCE (how far it is from fooling the Discriminator).
    pub g_loss: f32,
    /// Fraction of fake samples the Discriminator scored above 0.5. Near 0.5
    /// at (approximate) Nash equilibrium.
    pub fooled_rate: f32,
}

/// A class-conditioned GAN: `generator: (noise ++ onehot(c)) -> sample`,
/// `discriminator: (sample ++ onehot(c)) -> realness in (0,1)`.
///
/// # Example
/// ```
/// use evax_nn::{CondGan, GanConfig, Network, Dense, Activation, Adam, Matrix};
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let cfg = GanConfig { noise_dim: 8, n_classes: 2, feature_dim: 4, mismatch_prob: 0.25 };
/// let gen = Network::mlp(cfg.noise_dim + cfg.n_classes, 16, 2, cfg.feature_dim,
///     Activation::LeakyRelu, Activation::Sigmoid, &mut rng);
/// let disc = Network::mlp(cfg.feature_dim + cfg.n_classes, 0, 0, 1,
///     Activation::Identity, Activation::Sigmoid, &mut rng);
/// let mut gan = CondGan::new(cfg, gen, disc);
/// let samples = gan.generate(&[0, 1], &mut rng);
/// assert_eq!((samples.rows(), samples.cols()), (2, 4));
/// ```
#[derive(Debug, Clone)]
pub struct CondGan {
    cfg: GanConfig,
    generator: Network,
    discriminator: Network,
    step: StepBuffers,
}

/// [`CondGan::train_step`]'s working matrices, refilled in place so a step
/// allocates nothing once they have grown to the batch shape.
#[derive(Debug, Clone, Default)]
struct StepBuffers {
    /// Generator input: noise ++ one-hot label, one row per sample.
    g_in: Matrix,
    /// Ping-pong buffers for the inference pass that generates fakes.
    ping: Matrix,
    pong: Matrix,
    /// Discriminator batch: sample ++ one-hot label, one row per pair.
    d_in: Matrix,
    /// Discriminator targets, one per `d_in` row.
    d_target: Matrix,
    /// dL/d(discriminator output).
    grad: Matrix,
    /// dL/d(generator output): the sample columns of the Discriminator's
    /// input gradient.
    grad_g_out: Matrix,
    /// Mismatched real pairs drawn this step: `(row, wrong label)`.
    mismatched: Vec<(usize, usize)>,
}

impl CondGan {
    /// Assembles a conditional GAN from its two players.
    ///
    /// # Panics
    /// Panics if network shapes are inconsistent with `cfg`.
    pub fn new(cfg: GanConfig, generator: Network, discriminator: Network) -> Self {
        assert_eq!(
            generator.input_dim(),
            cfg.noise_dim + cfg.n_classes,
            "generator input must be noise_dim + n_classes"
        );
        assert_eq!(
            generator.output_dim(),
            cfg.feature_dim,
            "generator output must be feature_dim"
        );
        assert_eq!(
            discriminator.input_dim(),
            cfg.feature_dim + cfg.n_classes,
            "discriminator input must be feature_dim + n_classes"
        );
        assert_eq!(
            discriminator.output_dim(),
            1,
            "discriminator must output one unit"
        );
        CondGan {
            cfg,
            generator,
            discriminator,
            step: StepBuffers::default(),
        }
    }

    /// The configuration this GAN was built with.
    pub fn config(&self) -> &GanConfig {
        &self.cfg
    }

    /// Borrow the Generator (EVAX mines its hidden weights for feature
    /// engineering).
    pub fn generator(&self) -> &Network {
        &self.generator
    }

    /// Borrow the Discriminator.
    pub fn discriminator(&self) -> &Network {
        &self.discriminator
    }

    /// One-hot encodes class labels into an `n x n_classes` matrix.
    ///
    /// # Panics
    /// Panics if any label is out of range.
    pub fn one_hot(&self, labels: &[usize]) -> Matrix {
        let mut m = Matrix::zeros(labels.len(), self.cfg.n_classes);
        for (i, &c) in labels.iter().enumerate() {
            assert!(c < self.cfg.n_classes, "label {c} out of range");
            m.set(i, c, 1.0);
        }
        m
    }

    /// Samples a batch of standard-normal noise vectors.
    pub fn sample_noise<R: Rng>(&self, n: usize, rng: &mut R) -> Matrix {
        let mut m = Matrix::zeros(n, self.cfg.noise_dim);
        for v in m.as_mut_slice() {
            *v = standard_normal(rng);
        }
        m
    }

    /// Generates one sample per label (paper Fig. 4, `AutomaticAttackGeneration`).
    ///
    /// # Panics
    /// Panics if any label is out of range.
    pub fn generate<R: Rng>(&self, labels: &[usize], rng: &mut R) -> Matrix {
        let mut input = Matrix::default();
        fill_noise_and_labels(
            &mut input,
            self.cfg.noise_dim,
            self.cfg.n_classes,
            labels,
            rng,
        );
        self.generator.forward(&input)
    }

    /// Scores (sample, label) pairs with the Discriminator; column 0 is the
    /// realness probability.
    ///
    /// # Panics
    /// Panics if shapes mismatch.
    pub fn discriminate(&self, samples: &Matrix, labels: &[usize]) -> Matrix {
        assert_eq!(samples.rows(), labels.len(), "label count mismatch");
        let input = samples.hcat(&self.one_hot(labels));
        self.discriminator.forward(&input)
    }

    /// One full adversarial step (paper Fig. 4): trains the Discriminator on
    /// real-matching (target 1), generated (target 0) and mismatched-real
    /// (target 0) pairs, then trains the Generator to fool the updated
    /// Discriminator.
    ///
    /// # Panics
    /// Panics if `real.rows() != labels.len()` or the batch is empty.
    pub fn train_step<R, OG, OD>(
        &mut self,
        real: &Matrix,
        labels: &[usize],
        rng: &mut R,
        g_opt: &mut OG,
        d_opt: &mut OD,
    ) -> GanStats
    where
        R: Rng,
        OG: Optimizer,
        OD: Optimizer,
    {
        assert_eq!(real.rows(), labels.len(), "label count mismatch");
        assert!(real.rows() > 0, "empty batch");
        let classes = self.cfg.n_classes;
        let n = real.rows();
        let buf = &mut self.step;

        // ---- Discriminator phase ----
        // Real-matching pairs (target 1), generated pairs (target 0), then
        // mismatched real pairs (target 0), which teach the Discriminator
        // that labels matter.
        fill_noise_and_labels(&mut buf.g_in, self.cfg.noise_dim, classes, labels, rng);
        let fake = self
            .generator
            .forward_into(&buf.g_in, &mut buf.ping, &mut buf.pong);
        buf.mismatched.clear();
        if classes > 1 {
            for (i, &label) in labels.iter().enumerate() {
                if rng.gen_bool(self.cfg.mismatch_prob) {
                    let wrong = (label + 1 + rng.gen_range(0..classes - 1)) % classes;
                    buf.mismatched.push((i, wrong));
                }
            }
        }
        let rows = 2 * n + buf.mismatched.len();
        buf.d_in.reset(rows, self.cfg.feature_dim + classes);
        buf.d_target.reset(rows, 1);
        for (i, &label) in labels.iter().enumerate() {
            write_pair(buf.d_in.row_mut(i), real.row(i), label);
            write_pair(buf.d_in.row_mut(n + i), fake.row(i), label);
        }
        for (m, &(i, wrong)) in buf.mismatched.iter().enumerate() {
            write_pair(buf.d_in.row_mut(2 * n + m), real.row(i), wrong);
        }
        buf.d_target.as_mut_slice()[..n].fill(1.0);
        let pred = self.discriminator.forward_train(&buf.d_in);
        let d_loss = Loss::Bce.value(pred, &buf.d_target);
        Loss::Bce.gradient_into(pred, &buf.d_target, &mut buf.grad);
        self.discriminator.backward(&buf.grad);
        self.discriminator.apply_grads(d_opt, 0);

        // ---- Generator phase ----
        fill_noise_and_labels(&mut buf.g_in, self.cfg.noise_dim, classes, labels, rng);
        let g_out = self.generator.forward_train(&buf.g_in);
        buf.d_in.reset(n, self.cfg.feature_dim + classes);
        for (i, &label) in labels.iter().enumerate() {
            write_pair(buf.d_in.row_mut(i), g_out.row(i), label);
        }
        let d_pred = self.discriminator.forward_train(&buf.d_in);
        buf.d_target.reset(n, 1);
        buf.d_target.as_mut_slice().fill(1.0);
        let g_loss = Loss::Bce.value(d_pred, &buf.d_target);
        let fooled = (0..n).filter(|&i| d_pred.get(i, 0) > 0.5).count() as f32 / n as f32;
        Loss::Bce.gradient_into(d_pred, &buf.d_target, &mut buf.grad);
        // Route the gradient on the sample slice back into the Generator.
        let grad_d_in = self.discriminator.backward(&buf.grad);
        buf.grad_g_out.reset(n, self.cfg.feature_dim);
        for i in 0..n {
            buf.grad_g_out
                .row_mut(i)
                .copy_from_slice(&grad_d_in.row(i)[..self.cfg.feature_dim]);
        }
        self.discriminator.discard_grads(); // D is frozen in this phase.
        self.generator.backward_params(&buf.grad_g_out);
        self.generator.apply_grads(g_opt, 1000);

        GanStats {
            d_loss,
            g_loss,
            fooled_rate: fooled,
        }
    }
}

/// Fills `g_in` with one Generator input row per label: standard-normal
/// noise followed by the label's one-hot encoding. The noise is drawn in
/// row-major order, as [`CondGan::sample_noise`] draws it.
fn fill_noise_and_labels<R: Rng>(
    g_in: &mut Matrix,
    noise_dim: usize,
    n_classes: usize,
    labels: &[usize],
    rng: &mut R,
) {
    g_in.reset(labels.len(), noise_dim + n_classes);
    for (i, &label) in labels.iter().enumerate() {
        assert!(label < n_classes, "label {label} out of range");
        let row = g_in.row_mut(i);
        for v in &mut row[..noise_dim] {
            *v = standard_normal(rng);
        }
        row[noise_dim + label] = 1.0;
    }
}

/// One standard-normal draw. Box-Muller from two uniforms keeps us
/// independent of rand_distr.
fn standard_normal<R: Rng>(rng: &mut R) -> f32 {
    let u1: f32 = rng.gen_range(1e-6f32..1.0);
    let u2: f32 = rng.gen_range(0.0f32..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Writes `sample ++ onehot(label)` into a zeroed row.
fn write_pair(row: &mut [f32], sample: &[f32], label: usize) {
    row[..sample.len()].copy_from_slice(sample);
    row[sample.len() + label] = 1.0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, Adam};
    use rand::SeedableRng;

    fn small_gan(rng: &mut rand::rngs::StdRng) -> CondGan {
        let cfg = GanConfig {
            noise_dim: 6,
            n_classes: 2,
            feature_dim: 4,
            mismatch_prob: 0.25,
        };
        let gen = Network::mlp(
            cfg.noise_dim + cfg.n_classes,
            16,
            2,
            cfg.feature_dim,
            Activation::LeakyRelu,
            Activation::Sigmoid,
            rng,
        );
        let disc = Network::mlp(
            cfg.feature_dim + cfg.n_classes,
            8,
            1,
            1,
            Activation::LeakyRelu,
            Activation::Sigmoid,
            rng,
        );
        CondGan::new(cfg, gen, disc)
    }

    /// Two well-separated class distributions the GAN should learn.
    fn real_batch(rng: &mut rand::rngs::StdRng, n: usize) -> (Matrix, Vec<usize>) {
        use rand::Rng;
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let c = i % 2;
            let base = if c == 0 { 0.15 } else { 0.85 };
            rows.push(
                (0..4)
                    .map(|_| base + rng.gen_range(-0.05f32..0.05))
                    .collect(),
            );
            labels.push(c);
        }
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn generate_shapes_and_range() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let gan = small_gan(&mut rng);
        let s = gan.generate(&[0, 1, 0], &mut rng);
        assert_eq!((s.rows(), s.cols()), (3, 4));
        assert!(s.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn training_learns_conditional_means() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut gan = small_gan(&mut rng);
        let mut g_opt = Adam::with_betas(0.01, 0.5, 0.999);
        let mut d_opt = Adam::with_betas(0.01, 0.5, 0.999);
        for _ in 0..400 {
            let (x, labels) = real_batch(&mut rng, 16);
            gan.train_step(&x, &labels, &mut rng, &mut g_opt, &mut d_opt);
        }
        let lo = gan.generate(&[0; 64], &mut rng).mean();
        let hi = gan.generate(&[1; 64], &mut rng).mean();
        assert!(
            hi - lo > 0.3,
            "conditioned generation should separate classes: lo={lo} hi={hi}"
        );
    }

    #[test]
    fn noise_is_roughly_standard_normal() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let gan = small_gan(&mut rng);
        let z = gan.sample_noise(2000, &mut rng);
        let mean = z.mean();
        let var = z
            .as_slice()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / z.as_slice().len() as f32;
        assert!(mean.abs() < 0.05, "mean={mean}");
        assert!((var - 1.0).abs() < 0.1, "var={var}");
    }

    #[test]
    #[should_panic(expected = "label 5 out of range")]
    fn out_of_range_label_panics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let gan = small_gan(&mut rng);
        let _ = gan.one_hot(&[5]);
    }
}
