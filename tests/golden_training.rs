//! Golden pins of nn training: bitwise digests of trained weights.
//!
//! The nn products are serial and keep one operation order (every output
//! element sums from +0.0 in ascending k), so a training run is a pure
//! function of its seed. These tests record FNV-1a digests of the weights
//! after fixed training runs:
//!
//! - an AM-GAN (`AmGan::train`) on a small fixed dataset, together with its
//!   per-epoch `history()`;
//! - 20 `Network::train_batch` steps under `Adam` and under momentum `Sgd`;
//! - slow-gated (`EVAX_SLOW_TESTS=1`): an AM-GAN at the shapes of
//!   perfbench's `vaccinate` workload (145-wide noise, 96-wide × 3 hidden
//!   generator, 133 features, batch 32), for 2 epochs.
//!
//! A mismatch means training is no longer bitwise what it was: a kernel
//! changed its summation order or zero skips, an optimizer its arithmetic,
//! or a loop its RNG draw order. A speed-only change must leave every
//! digest as it is.

use evax::core::dataset::{Dataset, Sample, N_CLASSES};
use evax::core::gan::{AmGan, AmGanConfig};
use evax::nn::{Activation, Adam, Loss, Matrix, Network, Optimizer, Sgd};
use evax::sim::snapshot::Fnv1a;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministic values in `[0, 1)` from a 64-bit LCG.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> f32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 40) as f32 / (1u64 << 24) as f32
    }
}

/// `per_class` samples of each of `classes` classes (0 is benign), with
/// class-dependent feature levels and about one exact zero in six.
fn dataset(features: usize, classes: usize, per_class: usize, seed: u64) -> Dataset {
    let mut lcg = Lcg(seed);
    let mut ds = Dataset::new();
    for i in 0..classes * per_class {
        let class = i % classes;
        let row = (0..features)
            .map(|f| {
                let v = lcg.next();
                if v < 1.0 / 6.0 {
                    0.0
                } else {
                    let level = ((class * 7 + f * 3) % 11) as f32 / 11.0;
                    0.7 * level + 0.3 * v
                }
            })
            .collect();
        ds.push(Sample::new(row, class));
    }
    ds
}

fn hash_network(h: &mut Fnv1a, net: &Network) {
    for layer in net.layers() {
        for &w in layer.weights().as_slice() {
            h.word(u64::from(w.to_bits()));
        }
        for &b in layer.bias() {
            h.word(u64::from(b.to_bits()));
        }
    }
}

/// Digest of the trained generator's weights and the per-epoch history.
fn gan_digest(gan: &AmGan) -> u64 {
    let mut h = Fnv1a::default();
    hash_network(&mut h, gan.generator());
    for e in gan.history() {
        h.word(e.epoch as u64);
        for v in [e.d_loss, e.g_loss, e.style_loss] {
            h.word(u64::from(v.to_bits()));
        }
    }
    h.finish()
}

/// Digest of a ReLU MLP's weights after 20 `train_batch` steps on one fixed
/// batch (ReLU zeros exercise the products' zero skip in backprop).
fn train_batch_digest<O: Optimizer>(mut opt: O) -> u64 {
    let mut rng = StdRng::seed_from_u64(17);
    let mut net = Network::mlp(
        10,
        24,
        2,
        1,
        Activation::Relu,
        Activation::Sigmoid,
        &mut rng,
    );
    let mut lcg = Lcg(23);
    let x = Matrix::from_vec(16, 10, (0..160).map(|_| lcg.next() * 2.0 - 1.0).collect());
    let y = Matrix::from_vec(16, 1, (0..16).map(|i| (i % 3 == 0) as u8 as f32).collect());
    let mut h = Fnv1a::default();
    for _ in 0..20 {
        let loss = net.train_batch(&x, &y, Loss::Bce, &mut opt);
        h.word(u64::from(loss.to_bits()));
    }
    hash_network(&mut h, &net);
    h.finish()
}

fn check(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: digest {got:016x}, recorded {want:016x} — training is no longer bitwise unchanged"
    );
}

#[test]
fn am_gan_training_matches_recorded_digest() {
    let ds = dataset(12, 6, 24, 0x5EED);
    let cfg = AmGanConfig {
        noise_dim: 16,
        hidden_width: 24,
        generator_hidden: 2,
        epochs: 4,
        batch: 16,
        ..AmGanConfig::small()
    };
    let gan = AmGan::train(&ds, &cfg, &mut StdRng::seed_from_u64(3));
    assert_eq!(gan.history().len(), 4);
    assert!(gan.history().iter().all(|e| e.style_loss.is_finite()));
    check("am-gan", gan_digest(&gan), 0x97a4_a333_8ee9_4bff);
}

#[test]
fn train_batch_under_adam_matches_recorded_digest() {
    check(
        "adam",
        train_batch_digest(Adam::new(0.01)),
        0x0b5f_c901_6d37_b63b,
    );
}

#[test]
fn train_batch_under_momentum_sgd_matches_recorded_digest() {
    check(
        "sgd",
        train_batch_digest(Sgd::new(0.1, 0.9)),
        0xa7fb_39db_0701_fd65,
    );
}

#[test]
fn am_gan_at_vaccinate_shapes_matches_recorded_digest_slow() {
    if std::env::var("EVAX_SLOW_TESTS").is_err() {
        eprintln!("skipping am_gan_at_vaccinate_shapes_matches_recorded_digest_slow; set EVAX_SLOW_TESTS=1");
        return;
    }
    let ds = dataset(133, N_CLASSES, 20, 0xFACADE);
    let cfg = AmGanConfig {
        noise_dim: 145,
        hidden_width: 96,
        generator_hidden: 3,
        epochs: 2,
        batch: 32,
        ..AmGanConfig::small()
    };
    let gan = AmGan::train(&ds, &cfg, &mut StdRng::seed_from_u64(7));
    check("am-gan@vaccinate", gan_digest(&gan), 0x4e28_661b_0890_5a37);
}
