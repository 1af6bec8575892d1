//! EVAX training applied to deeper networks (paper §VIII-D, Fig. 20):
//! "our AM-GAN training enables a 16-layer neural network to outperform a
//! 32-layer ... increasing the complexity of neural networks without having
//! a good set of training data can lead to statistically significant
//! reduction in accuracy."

use evax_nn::{Activation, Adam, Loss, Matrix, Network};
use rand::Rng;

use crate::dataset::Dataset;
use crate::gan::AmGan;

/// One (depth, training-regime) evaluation across trials.
#[derive(Debug, Clone, PartialEq)]
pub struct DepthResult {
    /// Number of layers (1 = perceptron-shaped).
    pub depth: usize,
    /// `true` if trained on the AM-GAN-augmented dataset.
    pub evax_trained: bool,
    /// Test accuracy per trial.
    pub accuracies: Vec<f64>,
}

impl DepthResult {
    /// Minimum accuracy across trials.
    pub fn min(&self) -> f64 {
        self.accuracies
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Maximum accuracy across trials.
    pub fn max(&self) -> f64 {
        self.accuracies.iter().copied().fold(0.0, f64::max)
    }

    /// Median accuracy across trials.
    pub fn median(&self) -> f64 {
        let mut v = self.accuracies.clone();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        if v.is_empty() {
            0.0
        } else {
            v[v.len() / 2]
        }
    }
}

/// Deep-network evaluation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DeepEvalConfig {
    /// Network depths to compare (paper: 1, 16, 32).
    pub depths: Vec<usize>,
    /// Hidden width.
    pub width: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch: usize,
    /// Learning rate.
    pub lr: f32,
    /// Independent trials (train/test resplits) per configuration.
    pub trials: usize,
    /// Augmentation sizes when EVAX-trained.
    pub augment_per_class: usize,
    /// Extra generated benign samples when EVAX-trained.
    pub augment_benign: usize,
}

impl Default for DeepEvalConfig {
    fn default() -> Self {
        DeepEvalConfig {
            depths: vec![1, 16, 32],
            width: 64,
            epochs: 40,
            batch: 32,
            lr: 1e-3,
            trials: 3,
            augment_per_class: 40,
            augment_benign: 150,
        }
    }
}

fn train_mlp<R: Rng>(
    train: &Dataset,
    test: &Dataset,
    depth: usize,
    cfg: &DeepEvalConfig,
    rng: &mut R,
) -> f64 {
    let dim = train.feature_dim();
    let hidden = depth.saturating_sub(1);
    // LeakyReLU + Adam: plain ReLU/SGD stacks die (zero-gradient units) at
    // 16-32 layers and collapse to the majority class.
    let mut net = Network::mlp(
        dim,
        cfg.width,
        hidden,
        1,
        Activation::LeakyRelu,
        Activation::Sigmoid,
        rng,
    );
    let mut opt = Adam::new(cfg.lr);
    let steps = (train.len() / cfg.batch).max(1);
    let (mut idx, mut x, mut y) = (Vec::new(), Matrix::default(), Matrix::default());
    for _ in 0..cfg.epochs {
        for _ in 0..steps {
            train.sample_batch_into(cfg.batch, rng, &mut idx, &mut x);
            y.reset(idx.len(), 1);
            for (t, &i) in y.as_mut_slice().iter_mut().zip(&idx) {
                *t = if train.samples[i].malicious { 1.0 } else { 0.0 };
            }
            net.train_batch(&x, &y, Loss::Bce, &mut opt);
        }
    }
    let rows: Vec<Vec<f32>> = test.samples.iter().map(|s| s.features.clone()).collect();
    let x = Matrix::from_rows(&rows);
    net.binary_accuracy(&x, &test.binary_targets()) as f64
}

/// Compares traditional vs. EVAX-augmented training across depths.
pub fn evaluate_depths<R: Rng>(
    dataset: &Dataset,
    gan: &AmGan,
    cfg: &DeepEvalConfig,
    rng: &mut R,
) -> Vec<DepthResult> {
    let mut out = Vec::new();
    for &evax_trained in &[false, true] {
        for &depth in &cfg.depths {
            let mut accuracies = Vec::with_capacity(cfg.trials);
            for _ in 0..cfg.trials {
                let (train, test) = dataset.split(0.3, rng);
                let train = if evax_trained {
                    gan.augment(&train, cfg.augment_per_class, cfg.augment_benign, rng)
                } else {
                    train
                };
                accuracies.push(train_mlp(&train, &test, depth, cfg, rng));
            }
            out.push(DepthResult {
                depth,
                evax_trained,
                accuracies,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Sample;
    use rand::SeedableRng;

    fn noisy_dataset(rng: &mut impl Rng, n: usize, noise: f32) -> Dataset {
        let mut ds = Dataset::new();
        for _ in 0..n {
            let flip = rng.gen_bool(noise as f64);
            let m: f32 = rng.gen_range(0.55..1.0);
            let b: f32 = rng.gen_range(0.0..0.45);
            ds.push(Sample::new(vec![m, b, rng.gen()], if flip { 0 } else { 1 }));
            ds.push(Sample::new(vec![b, m, rng.gen()], if flip { 1 } else { 0 }));
        }
        ds
    }

    #[test]
    fn depth_result_stats() {
        let r = DepthResult {
            depth: 16,
            evax_trained: false,
            accuracies: vec![0.8, 0.6, 0.9],
        };
        assert_eq!(r.min(), 0.6);
        assert_eq!(r.max(), 0.9);
        assert_eq!(r.median(), 0.8);
    }

    #[test]
    fn shallow_mlp_learns_separable_data() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let ds = noisy_dataset(&mut rng, 200, 0.0);
        let (train, test) = ds.split(0.3, &mut rng);
        let cfg = DeepEvalConfig {
            epochs: 25,
            ..Default::default()
        };
        let acc = train_mlp(&train, &test, 2, &cfg, &mut rng);
        assert!(acc > 0.9, "acc={acc}");
    }

    #[test]
    fn very_deep_narrow_net_struggles_without_good_data() {
        // The paper's Fig. 20 observation: depth alone does not help.
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let ds = noisy_dataset(&mut rng, 150, 0.15);
        let (train, test) = ds.split(0.3, &mut rng);
        let cfg = DeepEvalConfig {
            epochs: 10,
            width: 16,
            lr: 0.01,
            ..Default::default()
        };
        let shallow = train_mlp(&train, &test, 2, &cfg, &mut rng);
        let deep = train_mlp(&train, &test, 32, &cfg, &mut rng);
        assert!(
            deep <= shallow + 0.05,
            "32-layer should not beat shallow on noisy data: deep={deep} shallow={shallow}"
        );
    }
}
