//! Labeled HPC sample datasets with running-max normalization.
//!
//! Paper §VII: "For counters, we maintain a maximum seen value for each
//! sampling simulation point. Statistics are normalized over the maximum
//! value of the counter."

use evax_nn::Matrix;
use rand::seq::SliceRandom;
use rand::Rng;

/// Class label of benign samples (attack classes are `1..=21`, matching
/// [`evax_attacks::AttackClass::label`]).
pub const BENIGN_CLASS: usize = 0;

/// Total number of condition classes (benign + 21 attack categories).
pub const N_CLASSES: usize = 1 + evax_attacks::ATTACK_CLASSES.len();

/// One HPC sampling window with its labels.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Sample {
    /// Normalized feature vector (baseline HPC deltas in `[0, 1]`).
    pub features: Vec<f32>,
    /// Condition class (0 = benign, `1..=21` = attack category).
    pub class: usize,
    /// `true` for attack samples (`class != 0`).
    pub malicious: bool,
}

impl Sample {
    /// Creates a sample; `malicious` is derived from `class`.
    pub fn new(features: Vec<f32>, class: usize) -> Self {
        assert!(class < N_CLASSES, "class out of range");
        Sample {
            features,
            malicious: class != BENIGN_CLASS,
            class,
        }
    }
}

/// Per-feature running-max normalizer.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Normalizer {
    max: Vec<f64>,
}

impl Normalizer {
    /// Creates a normalizer for `dim` features.
    pub fn new(dim: usize) -> Self {
        Normalizer {
            max: vec![0.0; dim],
        }
    }

    /// Reconstructs a normalizer from previously fitted maxima (streaming
    /// fits and exact persistence — see [`crate::featurize::StreamStats`]
    /// and [`crate::io`]).
    pub fn from_maxima(max: Vec<f64>) -> Self {
        Normalizer { max }
    }

    /// The fitted per-feature maxima.
    pub fn maxima(&self) -> &[f64] {
        &self.max
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.max.len()
    }

    /// Folds a raw (unnormalized) vector into the running maxima.
    /// Non-finite components are ignored — a single Inf would otherwise
    /// poison the fitted maximum and zero out every later feature (use
    /// [`try_observe`](Self::try_observe) to surface corruption as a typed
    /// error instead).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn observe(&mut self, raw: &[f64]) {
        assert_eq!(raw.len(), self.max.len(), "feature dim mismatch");
        for (m, &v) in self.max.iter_mut().zip(raw.iter()) {
            if v.is_finite() && v.abs() > *m {
                *m = v.abs();
            }
        }
    }

    /// [`observe`](Self::observe) that rejects corruption: any non-finite
    /// component leaves the maxima untouched.
    ///
    /// # Errors
    /// [`EvaxError::Corrupt`](crate::error::EvaxError) naming the first
    /// non-finite component.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn try_observe(&mut self, raw: &[f64]) -> crate::error::Result<()> {
        assert_eq!(raw.len(), self.max.len(), "feature dim mismatch");
        if let Some((i, &v)) = raw.iter().enumerate().find(|(_, v)| !v.is_finite()) {
            return Err(crate::error::EvaxError::corrupt(
                format!("normalizer input component {i}"),
                "a finite value",
                format!("{v}"),
            ));
        }
        self.observe(raw);
        Ok(())
    }

    /// Normalizes a raw vector by the running maxima into `[0, 1]`, writing
    /// into a caller-provided buffer — the allocation-free fast path for
    /// per-window deployment loops.
    ///
    /// Non-finite raw components **saturate to 1.0** (fail-secure: a
    /// corrupted counter reads as maximally anomalous, never as a silent
    /// NaN that would poison the detector's dot product downstream).
    ///
    /// # Panics
    /// Panics on dimension mismatch (either slice).
    pub fn normalize_into(&self, raw: &[f64], out: &mut [f32]) {
        assert_eq!(raw.len(), self.max.len(), "feature dim mismatch");
        assert_eq!(out.len(), self.max.len(), "output dim mismatch");
        for ((o, &v), &m) in out.iter_mut().zip(raw.iter()).zip(self.max.iter()) {
            *o = if !v.is_finite() {
                1.0
            } else if m <= 0.0 {
                0.0
            } else {
                (v.abs() / m).min(1.0) as f32
            };
        }
    }

    /// Normalizes a raw vector by the running maxima into `[0, 1]`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn normalize(&self, raw: &[f64]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.max.len()];
        self.normalize_into(raw, &mut out);
        out
    }
}

/// A labeled dataset of HPC samples.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct Dataset {
    /// The samples.
    pub samples: Vec<Sample>,
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Dataset {
            samples: Vec::new(),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Feature dimension (0 when empty).
    pub fn feature_dim(&self) -> usize {
        self.samples.first().map_or(0, |s| s.features.len())
    }

    /// Adds a sample.
    ///
    /// # Panics
    /// Panics if its feature dimension differs from existing samples.
    pub fn push(&mut self, sample: Sample) {
        if let Some(first) = self.samples.first() {
            assert_eq!(
                first.features.len(),
                sample.features.len(),
                "feature dim mismatch"
            );
        }
        self.samples.push(sample);
    }

    /// Merges another dataset into this one.
    ///
    /// # Panics
    /// Panics if the feature dimensions differ.
    pub fn extend(&mut self, other: Dataset) {
        let mut incoming = other.samples;
        // One dimension check per sample, then a single append — the
        // per-sample `push` path would re-read the first sample every time.
        let dim = self
            .samples
            .first()
            .or_else(|| incoming.first())
            .map(|s| s.features.len());
        if let Some(dim) = dim {
            for s in &incoming {
                assert_eq!(s.features.len(), dim, "feature dim mismatch");
            }
        }
        self.samples.append(&mut incoming);
    }

    /// Count of malicious samples.
    pub fn n_malicious(&self) -> usize {
        self.samples.iter().filter(|s| s.malicious).count()
    }

    /// Count of benign samples.
    pub fn n_benign(&self) -> usize {
        self.len() - self.n_malicious()
    }

    /// Samples of one class.
    pub fn of_class(&self, class: usize) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(move |s| s.class == class)
    }

    /// Splits into (train, test) with `test_fraction` of each class held
    /// out, preserving class balance. Deterministic given the RNG.
    pub fn split<R: Rng>(&self, test_fraction: f64, rng: &mut R) -> (Dataset, Dataset) {
        assert!(
            (0.0..1.0).contains(&test_fraction),
            "fraction must be in [0,1)"
        );
        let mut train = Dataset::new();
        let mut test = Dataset::new();
        for class in 0..N_CLASSES {
            let mut idx: Vec<usize> = self
                .samples
                .iter()
                .enumerate()
                .filter(|(_, s)| s.class == class)
                .map(|(i, _)| i)
                .collect();
            idx.shuffle(rng);
            let n_test = (idx.len() as f64 * test_fraction).round() as usize;
            for (k, &i) in idx.iter().enumerate() {
                if k < n_test {
                    test.push(self.samples[i].clone());
                } else {
                    train.push(self.samples[i].clone());
                }
            }
        }
        (train, test)
    }

    /// Removes every sample of `class`, returning them (the leave-one-out
    /// fold operation).
    pub fn remove_class(&mut self, class: usize) -> Dataset {
        let mut removed = Dataset::new();
        let mut kept = Vec::with_capacity(self.samples.len());
        for s in self.samples.drain(..) {
            if s.class == class {
                removed.samples.push(s);
            } else {
                kept.push(s);
            }
        }
        self.samples = kept;
        removed
    }

    /// Draws a minibatch of `n` samples uniformly with replacement: their
    /// indices go to `idx` and their feature rows to `x` (reshaped to
    /// `n × feature_dim`). Both buffers are refilled in place, so a training
    /// loop allocates nothing per batch.
    pub fn sample_batch_into<R: Rng>(
        &self,
        n: usize,
        rng: &mut R,
        idx: &mut Vec<usize>,
        x: &mut Matrix,
    ) {
        idx.clear();
        idx.extend((0..n).map(|_| rng.gen_range(0..self.samples.len())));
        x.reset(n, self.feature_dim());
        for (row, &i) in idx.iter().enumerate() {
            x.row_mut(row).copy_from_slice(&self.samples[i].features);
        }
    }

    /// Binary targets (`1.0` malicious) for the whole dataset, in order.
    pub fn binary_targets(&self) -> Vec<f32> {
        self.samples
            .iter()
            .map(|s| if s.malicious { 1.0 } else { 0.0 })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn sample(class: usize, v: f32) -> Sample {
        Sample::new(vec![v, v * 2.0], class)
    }

    #[test]
    fn normalizer_tracks_max_and_clamps() {
        let mut n = Normalizer::new(2);
        n.observe(&[10.0, 4.0]);
        n.observe(&[5.0, 8.0]);
        let v = n.normalize(&[5.0, 8.0]);
        assert!((v[0] - 0.5).abs() < 1e-6);
        assert!((v[1] - 1.0).abs() < 1e-6);
        // Values beyond the seen max clamp to 1.
        assert_eq!(n.normalize(&[100.0, 0.0])[0], 1.0);
    }

    #[test]
    fn normalizer_ignores_non_finite_observations() {
        let mut n = Normalizer::new(2);
        n.observe(&[10.0, 4.0]);
        n.observe(&[f64::INFINITY, f64::NAN]);
        assert_eq!(n.maxima(), &[10.0, 4.0], "Inf/NaN must not poison maxima");
        let err = n.try_observe(&[1.0, f64::NAN]).unwrap_err();
        assert!(
            matches!(err, crate::error::EvaxError::Corrupt { .. }),
            "{err}"
        );
        assert_eq!(n.maxima(), &[10.0, 4.0]);
        n.try_observe(&[20.0, 1.0]).unwrap();
        assert_eq!(n.maxima(), &[20.0, 4.0]);
    }

    #[test]
    fn normalize_saturates_non_finite_input() {
        let mut n = Normalizer::new(3);
        n.observe(&[10.0, 4.0, 0.0]);
        let v = n.normalize(&[f64::NAN, f64::NEG_INFINITY, f64::INFINITY]);
        // Fail-secure: corrupted counters read as maximally anomalous,
        // even where the fitted max is degenerate (index 2).
        assert_eq!(v, vec![1.0, 1.0, 1.0]);
        assert!(n.normalize(&[5.0, 2.0, 1.0]).iter().all(|f| f.is_finite()));
    }

    #[test]
    fn normalizer_zero_max_gives_zero() {
        let n = Normalizer::new(1);
        assert_eq!(n.normalize(&[3.0])[0], 0.0);
    }

    #[test]
    fn normalize_into_matches_normalize() {
        let mut n = Normalizer::new(3);
        n.observe(&[10.0, 4.0, 0.0]);
        let raw = [5.0, 8.0, 2.0];
        let mut out = [0.0f32; 3];
        n.normalize_into(&raw, &mut out);
        assert_eq!(out.to_vec(), n.normalize(&raw));
    }

    #[test]
    #[should_panic(expected = "output dim mismatch")]
    fn normalize_into_rejects_wrong_output_length() {
        let n = Normalizer::new(2);
        n.normalize_into(&[1.0, 2.0], &mut [0.0f32; 3]);
    }

    #[test]
    fn malicious_derived_from_class() {
        assert!(!sample(BENIGN_CLASS, 0.1).malicious);
        assert!(sample(3, 0.1).malicious);
    }

    #[test]
    fn split_preserves_class_balance() {
        let mut d = Dataset::new();
        for i in 0..100 {
            d.push(sample(0, i as f32));
            d.push(sample(1, i as f32));
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let (train, test) = d.split(0.3, &mut rng);
        assert_eq!(train.len() + test.len(), 200);
        assert_eq!(test.of_class(0).count(), 30);
        assert_eq!(test.of_class(1).count(), 30);
    }

    #[test]
    fn remove_class_is_exhaustive() {
        let mut d = Dataset::new();
        d.push(sample(0, 1.0));
        d.push(sample(2, 2.0));
        d.push(sample(2, 3.0));
        let removed = d.remove_class(2);
        assert_eq!(removed.len(), 2);
        assert_eq!(d.len(), 1);
        assert_eq!(d.of_class(2).count(), 0);
    }

    #[test]
    #[should_panic(expected = "feature dim mismatch")]
    fn dimension_mismatch_rejected() {
        let mut d = Dataset::new();
        d.push(Sample::new(vec![1.0], 0));
        d.push(Sample::new(vec![1.0, 2.0], 0));
    }

    #[test]
    fn counts() {
        let mut d = Dataset::new();
        d.push(sample(0, 1.0));
        d.push(sample(1, 1.0));
        d.push(sample(1, 2.0));
        assert_eq!(d.n_benign(), 1);
        assert_eq!(d.n_malicious(), 2);
    }
}
