//! The AM-GAN: EVAX's asymmetric conditional GAN (paper §V, Figs. 3–5).
//!
//! The Generator is a deep network; the Discriminator has the architecture
//! of the deployed hardware detector (a single-layer perceptron) — the
//! asymmetry the paper names "AM-GAN". Training follows Fig. 4's algorithm;
//! sample collection for vaccination is gated by the Gram-matrix style loss
//! (`L_GM ≈ 0.1`, §V-D).

use evax_nn::{Activation, Adam, CondGan, GanConfig, Matrix, Network};
use evax_obs::MetricsSink;
use rand::Rng;

use crate::dataset::{Dataset, Sample, N_CLASSES};
use crate::gram::sample_style_loss;

/// AM-GAN training configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AmGanConfig {
    /// Noise-vector width (the paper uses `RandomNoise(145)`).
    pub noise_dim: usize,
    /// Hidden width of the deep Generator.
    pub hidden_width: usize,
    /// Hidden layers in the Generator (the asymmetry: ≥2 vs. the
    /// discriminator's 0).
    pub generator_hidden: usize,
    /// Training epochs (full passes over the dataset).
    pub epochs: usize,
    /// Minibatch size.
    pub batch: usize,
    /// Adam learning rate (β1 = 0.5 per GAN practice).
    pub lr: f32,
    /// Style-loss gate: generated samples are collected once the per-class
    /// `L_GM` falls below this (paper: 0.1 ± 0.006).
    pub style_gate: f32,
}

impl Default for AmGanConfig {
    fn default() -> Self {
        AmGanConfig {
            noise_dim: 145,
            hidden_width: 128,
            generator_hidden: 3,
            epochs: 30,
            batch: 64,
            lr: 2e-3,
            style_gate: 0.1,
        }
    }
}

impl AmGanConfig {
    /// A fast configuration for tests and laptop-scale experiments.
    pub fn small() -> Self {
        AmGanConfig {
            hidden_width: 64,
            generator_hidden: 2,
            epochs: 10,
            batch: 32,
            ..Default::default()
        }
    }
}

/// [`AmGan::mean_style_loss`] of a GAN mid-training, so the per-epoch
/// check needs no [`AmGan`] around it.
fn mean_style_loss<R: Rng>(
    gan: &CondGan,
    dataset: &Dataset,
    style_idx: &[usize],
    rng: &mut R,
) -> f32 {
    let mut total = 0.0f32;
    let mut n = 0usize;
    for class in 1..N_CLASSES {
        let real: Vec<Sample> = dataset.of_class(class).take(32).cloned().collect();
        if real.len() < 4 {
            continue;
        }
        let generated = generate_samples(gan, class, real.len(), rng);
        total += sample_style_loss(&real, &generated, style_idx);
        n += 1;
    }
    if n == 0 {
        f32::INFINITY
    } else {
        total / n as f32
    }
}

/// [`AmGan::generate_samples`] from a bare GAN.
fn generate_samples<R: Rng>(gan: &CondGan, class: usize, n: usize, rng: &mut R) -> Vec<Sample> {
    let labels = vec![class; n];
    let m = gan.generate(&labels, rng);
    (0..n)
        .map(|i| Sample::new(m.row(i).to_vec(), class))
        .collect()
}

/// Loss in integer milli-units for deterministic histogram export (the NN
/// substrate is bit-exact, so the quantized value is too).
fn loss_milli(loss: f32) -> u64 {
    (loss.max(0.0) * 1000.0) as u64
}

/// Canonical security-relevant feature subset used for the style loss
/// (the "low-level microarchitectural states required for successful
/// construction of a channel", §V-D).
pub fn style_feature_indices() -> Vec<usize> {
    [
        "iew.ExecSquashedInsts",
        "lsq.squashedLoads",
        "lsq.forwLoads",
        "spec.InstsAdded",
        "dcache.ReadReq_misses",
        "dcache.flushes",
        "bp.condIncorrect",
        "faults.deferredWithData",
    ]
    .iter()
    .filter_map(|n| evax_sim::hpc_index(n))
    .collect()
}

/// One epoch's training telemetry (drives the paper's Fig. 7 curve).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch index.
    pub epoch: usize,
    /// Mean discriminator loss.
    pub d_loss: f32,
    /// Mean generator loss.
    pub g_loss: f32,
    /// Mean attack style loss over sampled attack classes.
    pub style_loss: f32,
}

/// The trained AM-GAN with its telemetry.
#[derive(Debug, Clone)]
pub struct AmGan {
    gan: CondGan,
    history: Vec<EpochStats>,
}

impl AmGan {
    /// Trains the AM-GAN on a labeled dataset per Fig. 4's algorithm.
    ///
    /// # Panics
    /// Panics if the dataset is empty.
    pub fn train<R: Rng>(dataset: &Dataset, cfg: &AmGanConfig, rng: &mut R) -> AmGan {
        AmGan::train_with_metrics(dataset, cfg, rng, &MetricsSink::default())
    }

    /// [`train`](Self::train) with observability: records `gan.epochs` /
    /// `gan.steps` counters, milli-unit loss histograms (`gan.d_loss_milli`,
    /// `gan.g_loss_milli`, `gan.style_loss_milli` — deterministic, since the
    /// NN substrate is bit-exact) and a `gan.epoch_wall_ns` round timer.
    /// Recording never touches `rng`, so the trained GAN is bit-identical
    /// to [`train`](Self::train)'s.
    ///
    /// # Panics
    /// Panics if the dataset is empty.
    pub fn train_with_metrics<R: Rng>(
        dataset: &Dataset,
        cfg: &AmGanConfig,
        rng: &mut R,
        metrics: &MetricsSink,
    ) -> AmGan {
        assert!(!dataset.is_empty(), "cannot train on an empty dataset");
        let feature_dim = dataset.feature_dim();
        let gan_cfg = GanConfig {
            noise_dim: cfg.noise_dim,
            n_classes: N_CLASSES,
            feature_dim,
            mismatch_prob: 0.25,
        };
        let generator = Network::mlp(
            cfg.noise_dim + N_CLASSES,
            cfg.hidden_width,
            cfg.generator_hidden,
            feature_dim,
            Activation::LeakyRelu,
            Activation::Sigmoid,
            rng,
        );
        // Detector-shaped discriminator: a single layer (perceptron).
        let discriminator = Network::mlp(
            feature_dim + N_CLASSES,
            0,
            0,
            1,
            Activation::Identity,
            Activation::Sigmoid,
            rng,
        );
        let mut gan = CondGan::new(gan_cfg, generator, discriminator);
        let mut g_opt = Adam::with_betas(cfg.lr, 0.5, 0.999);
        let mut d_opt = Adam::with_betas(cfg.lr, 0.5, 0.999);

        // Style features live in the full HPC space; for reduced feature
        // spaces (tests, ablations) fall back to the leading features.
        let mut style_idx: Vec<usize> = style_feature_indices()
            .into_iter()
            .filter(|&i| i < feature_dim)
            .collect();
        if style_idx.is_empty() {
            style_idx = (0..feature_dim.min(8)).collect();
        }
        let mut history = Vec::with_capacity(cfg.epochs);
        let steps = (dataset.len() / cfg.batch).max(1);
        // GAN training oscillates and can collapse late; the paper collects
        // samples when the style loss is small, which amounts to keeping the
        // best checkpoint rather than the final state.
        let mut best = gan.clone();
        let mut best_style = f32::INFINITY;
        let epoch_counter = metrics.counter("gan.epochs");
        let step_counter = metrics.counter("gan.steps");
        let d_hist = metrics.histogram("gan.d_loss_milli");
        let g_hist = metrics.histogram("gan.g_loss_milli");
        let style_hist = metrics.histogram("gan.style_loss_milli");
        let (mut idx, mut x, mut labels) = (Vec::new(), Matrix::default(), Vec::new());
        for epoch in 0..cfg.epochs {
            let round = metrics.span("gan.epoch_wall_ns");
            let mut d_sum = 0.0;
            let mut g_sum = 0.0;
            for _ in 0..steps {
                dataset.sample_batch_into(cfg.batch, rng, &mut idx, &mut x);
                labels.clear();
                labels.extend(idx.iter().map(|&i| dataset.samples[i].class));
                let stats = gan.train_step(&x, &labels, rng, &mut g_opt, &mut d_opt);
                d_sum += stats.d_loss;
                g_sum += stats.g_loss;
                step_counter.inc();
            }
            let style = mean_style_loss(&gan, dataset, &style_idx, rng);
            if style < best_style {
                best_style = style;
                best = gan.clone();
            }
            epoch_counter.inc();
            d_hist.observe(loss_milli(d_sum / steps as f32));
            g_hist.observe(loss_milli(g_sum / steps as f32));
            if style.is_finite() {
                style_hist.observe(loss_milli(style));
            }
            drop(round);
            history.push(EpochStats {
                epoch,
                d_loss: d_sum / steps as f32,
                g_loss: g_sum / steps as f32,
                style_loss: style,
            });
        }
        AmGan { gan: best, history }
    }

    /// Per-epoch telemetry (Fig. 7's style-loss-vs-iteration series).
    pub fn history(&self) -> &[EpochStats] {
        &self.history
    }

    /// Borrow the trained generator (mined by feature engineering).
    pub fn generator(&self) -> &Network {
        self.gan.generator()
    }

    /// Borrow the underlying conditional GAN.
    pub fn gan(&self) -> &CondGan {
        &self.gan
    }

    /// Mean style loss of generated samples against real samples, over the
    /// attack classes present in `dataset`.
    pub fn mean_style_loss<R: Rng>(
        &self,
        dataset: &Dataset,
        style_idx: &[usize],
        rng: &mut R,
    ) -> f32 {
        mean_style_loss(&self.gan, dataset, style_idx, rng)
    }

    /// Generates `n` samples of the given class (Fig. 4,
    /// `AutomaticAttackGeneration(c', t')`).
    pub fn generate_samples<R: Rng>(&self, class: usize, n: usize, rng: &mut R) -> Vec<Sample> {
        generate_samples(&self.gan, class, n, rng)
    }

    /// Generates `n` *vetted* samples: over-generates by 3x and keeps the
    /// candidates the Discriminator scores most realistic — the paper's
    /// "generated examples which consistently fool the Discriminator are
    /// used to train our EVAX" (§V-C).
    pub fn generate_vetted<R: Rng>(&self, class: usize, n: usize, rng: &mut R) -> Vec<Sample> {
        if n == 0 {
            return Vec::new();
        }
        let pool = 3 * n;
        let labels = vec![class; pool];
        let m = self.gan.generate(&labels, rng);
        let scores = self.gan.discriminate(&m, &labels);
        let mut ranked: Vec<(f32, usize)> = (0..pool).map(|i| (scores.get(i, 0), i)).collect();
        ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        ranked[..n]
            .iter()
            .map(|&(_, i)| Sample::new(m.row(i).to_vec(), class))
            .collect()
    }

    /// Generates `n` *anchored* samples of a class: vetted Generator output
    /// blended with a random real sample of the same class. At the paper's
    /// corpus scale the Generator's class-conditional fidelity is high
    /// enough to sample directly; at laptop scale, anchoring keeps the
    /// samples on the class manifold while injecting the Generator's
    /// variation (see DESIGN.md, *Known deviations*).
    pub fn generate_anchored<R: Rng>(
        &self,
        dataset: &Dataset,
        class: usize,
        n: usize,
        rng: &mut R,
    ) -> Vec<Sample> {
        let real: Vec<&Sample> = dataset.of_class(class).collect();
        if real.is_empty() {
            return Vec::new();
        }
        self.generate_vetted(class, n, rng)
            .into_iter()
            .map(|mut s| {
                let anchor = real[rng.gen_range(0..real.len())];
                let alpha = rng.gen_range(0.5f32..0.8);
                for (v, &r) in s.features.iter_mut().zip(&anchor.features) {
                    *v = alpha * r + (1.0 - alpha) * *v;
                }
                s
            })
            .collect()
    }

    /// Builds the augmented training set: the original data plus
    /// `per_attack_class` generated samples per attack class and
    /// `benign_extra` generated benign samples (paper: 257,066 attack +
    /// 70,000 benign per fold, scaled here).
    ///
    /// Two quality gates apply, both from the paper: candidates must fool
    /// the Discriminator (§V-C) and must be *semantically consistent* with
    /// their label (§V-D verifies generated samples before collection) —
    /// here, closer to their own class's centroid than to the benign
    /// centroid. A generated "attack" inside the benign manifold is label
    /// noise that would push the decision boundary into benign territory
    /// and inflate false positives.
    pub fn augment<R: Rng>(
        &self,
        dataset: &Dataset,
        per_attack_class: usize,
        benign_extra: usize,
        rng: &mut R,
    ) -> Dataset {
        let centroids = class_centroids(dataset);
        let benign_centroid = centroids[crate::dataset::BENIGN_CLASS].clone();
        let mut out = dataset.clone();
        #[allow(clippy::needless_range_loop)] // class indexes both dataset and centroids
        for class in 1..N_CLASSES {
            // Only vaccinate classes the dataset actually contains — in a
            // leave-one-out fold the excluded class must stay excluded.
            let real = dataset.of_class(class).count();
            if real == 0 {
                continue;
            }
            // Generated samples never outnumber real ones by more than 2x:
            // an under-trained Generator must not be able to drown the seen
            // distribution (the paper collects only after the style loss
            // converges; this cap is the safety net at small scale).
            let n = per_attack_class.min(real * 2);
            let own = &centroids[class];
            let vetted = self
                .generate_anchored(dataset, class, 2 * n, rng)
                .into_iter()
                .filter(|s| {
                    benign_centroid.is_empty()
                        || dist(&s.features, own) < dist(&s.features, &benign_centroid)
                })
                .take(n);
            for s in vetted {
                out.push(s);
            }
        }
        let n_benign = benign_extra.min(dataset.n_benign() * 2);
        for s in self.generate_anchored(dataset, crate::dataset::BENIGN_CLASS, n_benign, rng) {
            out.push(s);
        }
        // Virtual-adversarial hardening (paper §I, Fig. 2; it cites Miyato
        // et al.'s virtual adversarial training): interpolate vetted attack
        // samples *toward* the benign centroid — the worst adversarial
        // direction — while staying closer to their own class. Retraining on
        // these pushes the decision boundary out along the evasion path, so
        // crossing it costs more transient-window budget than the attack
        // can spend.
        #[allow(clippy::needless_range_loop)] // class indexes both dataset and centroids
        for class in 1..N_CLASSES {
            let real = dataset.of_class(class).count();
            if real == 0 || benign_centroid.is_empty() {
                continue;
            }
            let n = per_attack_class.min(real);
            let own = &centroids[class];
            for mut s in self.generate_anchored(dataset, class, n, rng) {
                // Sweep the dilution continuum; the centroid gate below
                // still rejects anything that lands on the benign side.
                let lambda = rng.gen_range(0.2f32..0.7);
                for (v, &b) in s.features.iter_mut().zip(benign_centroid.iter()) {
                    *v += lambda * (b - *v);
                }
                if dist(&s.features, own) < dist(&s.features, &benign_centroid) {
                    out.push(s);
                }
            }
        }
        out
    }
}

/// Per-class feature centroids of the real dataset (empty vec for absent
/// classes).
fn class_centroids(dataset: &Dataset) -> Vec<Vec<f32>> {
    let dim = dataset.feature_dim();
    let mut sums = vec![vec![0.0f64; dim]; N_CLASSES];
    let mut counts = vec![0usize; N_CLASSES];
    for s in &dataset.samples {
        counts[s.class] += 1;
        for (acc, &v) in sums[s.class].iter_mut().zip(&s.features) {
            *acc += v as f64;
        }
    }
    sums.into_iter()
        .zip(counts)
        .map(|(sum, n)| {
            if n == 0 {
                Vec::new()
            } else {
                sum.into_iter().map(|v| (v / n as f64) as f32).collect()
            }
        })
        .collect()
}

fn dist(a: &[f32], b: &[f32]) -> f32 {
    if b.is_empty() {
        return f32::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f32>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// A synthetic dataset with well-separated class distributions.
    fn toy_dataset(rng: &mut impl Rng, dim: usize, per_class: usize) -> Dataset {
        let mut ds = Dataset::new();
        for class in [0usize, 1, 5] {
            for _ in 0..per_class {
                let base = class as f32 * 0.3 + 0.1;
                let features = (0..dim)
                    .map(|f| {
                        let bias = if f % (class + 1) == 0 { base } else { 0.05 };
                        (bias + rng.gen_range(-0.03f32..0.03)).clamp(0.0, 1.0)
                    })
                    .collect();
                ds.push(Sample::new(features, class));
            }
        }
        ds
    }

    fn tiny_cfg() -> AmGanConfig {
        AmGanConfig {
            noise_dim: 16,
            hidden_width: 32,
            generator_hidden: 2,
            epochs: 6,
            batch: 16,
            lr: 3e-3,
            style_gate: 0.5,
        }
    }

    #[test]
    fn trains_and_generates_labeled_samples() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let ds = toy_dataset(&mut rng, 12, 64);
        let gan = AmGan::train(&ds, &tiny_cfg(), &mut rng);
        assert_eq!(gan.history().len(), 6);
        let gen = gan.generate_samples(1, 10, &mut rng);
        assert_eq!(gen.len(), 10);
        assert!(gen.iter().all(|s| s.class == 1 && s.malicious));
        assert!(gen
            .iter()
            .all(|s| s.features.iter().all(|&v| (0.0..=1.0).contains(&v))));
    }

    #[test]
    fn augment_respects_excluded_class() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut ds = toy_dataset(&mut rng, 12, 48);
        let gan = AmGan::train(&ds, &tiny_cfg(), &mut rng);
        ds.remove_class(5);
        let aug = gan.augment(&ds, 20, 10, &mut rng);
        assert_eq!(aug.of_class(5).count(), 0, "held-out class must stay out");
        assert!(aug.of_class(1).count() > ds.of_class(1).count());
        assert!(aug.n_benign() > ds.n_benign());
    }

    #[test]
    fn style_loss_decreases_over_training() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let ds = toy_dataset(&mut rng, 12, 64);
        let mut cfg = tiny_cfg();
        cfg.epochs = 12;
        let gan = AmGan::train(&ds, &cfg, &mut rng);
        let h = gan.history();
        let early: f32 = h[..3].iter().map(|e| e.style_loss).sum::<f32>() / 3.0;
        let late: f32 = h[h.len() - 3..].iter().map(|e| e.style_loss).sum::<f32>() / 3.0;
        assert!(
            late < early,
            "style loss should fall with training: early={early} late={late}"
        );
    }

    #[test]
    fn style_indices_resolve() {
        let idx = style_feature_indices();
        assert!(idx.len() >= 6, "style features must exist in the HPC space");
    }
}
