//! The deployed hardware detector: a single-layer perceptron with a
//! quantized, serial-adder hardware model (paper §VI-B).
//!
//! The paper's hardware keeps weights "in the range of \[-2,1\]" so that, for
//! 145 features with 0/1 inputs, the dot-product accumulator spans
//! `[-290, +145]` — 435 distinct values, storable in 9 bits — and is computed
//! by a single adder over a few hundred cycles (well inside the transient
//! window). This module models exactly that datapath so benchmarks can report
//! classification latency in adder cycles.

use rand::Rng;

use crate::tensor::Matrix;

/// A single-layer perceptron detector over real-valued (normalized) features.
///
/// Training happens offline in `f32`; deployment quantizes to
/// [`QuantizedWeights`]. Inputs to the *quantized* model are feature
/// presence bits (the paper's "0 and 1 are the only possible input values").
///
/// # Example
/// ```
/// use evax_nn::{HwPerceptron, PerceptronTrainer, Matrix};
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let x = Matrix::from_rows(&[vec![0.9, 0.1], vec![0.1, 0.9]]);
/// let y = [1.0, 0.0];
/// let mut trainer = PerceptronTrainer::new(2, &mut rng);
/// for _ in 0..200 { trainer.epoch(&x, &y, 0.5); }
/// let p = trainer.into_perceptron();
/// assert!(p.score(&[0.9, 0.1]) > p.score(&[0.1, 0.9]));
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HwPerceptron {
    weights: Vec<f32>,
    bias: f32,
}

impl HwPerceptron {
    /// Builds a perceptron from explicit weights and bias.
    pub fn from_parts(weights: Vec<f32>, bias: f32) -> Self {
        HwPerceptron { weights, bias }
    }

    /// Number of input features.
    pub fn n_features(&self) -> usize {
        self.weights.len()
    }

    /// Borrow the weight vector.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// The bias term.
    pub fn bias(&self) -> f32 {
        self.bias
    }

    /// Raw decision score `w · x + b`.
    ///
    /// # Panics
    /// Panics if `x.len() != n_features()`.
    pub fn score(&self, x: &[f32]) -> f32 {
        assert_eq!(x.len(), self.weights.len(), "feature count mismatch");
        self.weights
            .iter()
            .zip(x.iter())
            .map(|(&w, &v)| w * v)
            .sum::<f32>()
            + self.bias
    }

    /// Sigmoid probability of the malicious class.
    pub fn probability(&self, x: &[f32]) -> f32 {
        1.0 / (1.0 + (-self.score(x)).exp())
    }

    /// Classifies at a score threshold (0.0 = the natural boundary; EVAX tunes
    /// this for high sensitivity, paper §VIII-A).
    pub fn classify(&self, x: &[f32], threshold: f32) -> bool {
        self.score(x) >= threshold
    }

    /// Batched scores over a flat row-major batch: `out[i]` becomes the
    /// score of row `i`. The batch splits across `threads` workers (`0`
    /// and `1` both run inline); each row is reduced with
    /// exactly the accumulation chain [`HwPerceptron::score`] uses, so every
    /// entry is **bit-identical** to scoring that window alone — regardless
    /// of batch composition or thread count.
    ///
    /// # Panics
    /// Panics if `rows.len() != out.len() * n_features()`.
    pub fn score_rows_into(&self, rows: &[f32], threads: usize, out: &mut [f32]) {
        crate::tensor::matvec_bias_into(rows, &self.weights, self.bias, threads, out);
    }

    /// [`HwPerceptron::score_rows_into`] over a [`Matrix`] batch (one window
    /// per row).
    ///
    /// # Panics
    /// Panics if `x.cols() != n_features()` or `x.rows() != out.len()`.
    pub fn score_batch_into(&self, x: &Matrix, threads: usize, out: &mut [f32]) {
        assert_eq!(x.cols(), self.weights.len(), "feature count mismatch");
        assert_eq!(x.rows(), out.len(), "batch row count mismatch");
        self.score_rows_into(x.as_slice(), threads, out);
    }

    /// Batched classification: scores every row of the flat batch into
    /// `scores` and writes `scores[i] >= threshold` into `verdicts`.
    /// Per-row results are bit-identical to [`HwPerceptron::classify`].
    ///
    /// # Panics
    /// Panics on batch/score/verdict length mismatches.
    pub fn classify_batch_into(
        &self,
        rows: &[f32],
        threshold: f32,
        threads: usize,
        scores: &mut [f32],
        verdicts: &mut [bool],
    ) {
        assert_eq!(
            scores.len(),
            verdicts.len(),
            "score/verdict length mismatch"
        );
        self.score_rows_into(rows, threads, scores);
        for (v, &s) in verdicts.iter_mut().zip(scores.iter()) {
            *v = s >= threshold;
        }
    }

    /// Quantizes to the hardware weight set (integer levels in `[-2, 1]`),
    /// scaling so the largest-magnitude weight maps to a full-scale level.
    pub fn quantize(&self) -> QuantizedWeights {
        let max_mag = self
            .weights
            .iter()
            .map(|w| w.abs())
            .fold(0.0f32, f32::max)
            .max(1e-9);
        // Negative weights get twice the range (levels -2..=1 per the paper).
        let q: Vec<i8> = self
            .weights
            .iter()
            .map(|&w| {
                let scaled = if w >= 0.0 {
                    w / max_mag
                } else {
                    2.0 * w / max_mag
                };
                scaled.round().clamp(-2.0, 1.0) as i8
            })
            .collect();
        let threshold = (-self.bias / max_mag).round().clamp(-290.0, 145.0) as i32;
        QuantizedWeights::new(q, threshold)
    }
}

/// The hardware datapath: integer weights in `[-2, 1]`, a 9-bit accumulator
/// and a serial adder that consumes one cycle per set input bit.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct QuantizedWeights {
    weights: Vec<i8>,
    threshold: i32,
}

/// Result of a quantized hardware classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HwDecision {
    /// Accumulated dot product.
    pub sum: i32,
    /// `true` if the sum met the threshold (malicious).
    pub malicious: bool,
    /// Serial-adder cycles consumed (one per non-zero term; the paper's
    /// "result in a few hundred cycles in the worst case").
    pub cycles: u32,
}

impl QuantizedWeights {
    /// Creates quantized weights.
    ///
    /// # Panics
    /// Panics if any weight is outside `[-2, 1]`.
    pub fn new(weights: Vec<i8>, threshold: i32) -> Self {
        assert!(
            weights.iter().all(|&w| (-2..=1).contains(&w)),
            "hardware weights must lie in [-2, 1]"
        );
        QuantizedWeights { weights, threshold }
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.weights.len()
    }

    /// Borrow the integer weights.
    pub fn weights(&self) -> &[i8] {
        &self.weights
    }

    /// The decision threshold compared against the accumulator.
    pub fn threshold(&self) -> i32 {
        self.threshold
    }

    /// The accumulator range `[min, max]` reachable with these weights —
    /// `[-290, +145]` for the paper's 145-feature detector.
    pub fn accumulator_range(&self) -> (i32, i32) {
        let min = self
            .weights
            .iter()
            .filter(|&&w| w < 0)
            .map(|&w| w as i32)
            .sum();
        let max = self
            .weights
            .iter()
            .filter(|&&w| w > 0)
            .map(|&w| w as i32)
            .sum();
        (min, max)
    }

    /// Bits needed to store the accumulator (9 for the paper's detector).
    pub fn accumulator_bits(&self) -> u32 {
        let (min, max) = self.accumulator_range();
        let distinct = (max - min + 1).max(1) as u32;
        32 - (distinct - 1).leading_zeros()
    }

    /// Evaluates the serial-adder datapath over input presence bits.
    ///
    /// # Panics
    /// Panics if `bits.len() != n_features()`.
    pub fn classify_bits(&self, bits: &[bool]) -> HwDecision {
        assert_eq!(bits.len(), self.weights.len(), "feature count mismatch");
        let mut sum = 0i32;
        let mut cycles = 0u32;
        for (&w, &bit) in self.weights.iter().zip(bits.iter()) {
            // "We only need to add a weight when the input bit is 1."
            if bit && w != 0 {
                sum += w as i32;
                cycles += 1;
            }
        }
        HwDecision {
            sum,
            malicious: sum >= self.threshold,
            cycles,
        }
    }
}

/// Offline trainer for [`HwPerceptron`] using logistic-regression SGD, which
/// converges to a maximum-margin-ish separator on the normalized HPC features
/// and is robust to non-separable data (unlike the classic perceptron rule).
#[derive(Debug, Clone)]
pub struct PerceptronTrainer {
    weights: Vec<f32>,
    bias: f32,
}

impl PerceptronTrainer {
    /// Creates a trainer with small random initial weights.
    pub fn new<R: Rng>(n_features: usize, rng: &mut R) -> Self {
        let weights = (0..n_features)
            .map(|_| rng.gen_range(-0.01f32..0.01))
            .collect();
        PerceptronTrainer { weights, bias: 0.0 }
    }

    /// One full pass over the dataset with per-sample SGD updates; returns the
    /// mean logistic loss.
    ///
    /// # Panics
    /// Panics if `x.cols() != n_features` or `x.rows() != y.len()`.
    pub fn epoch(&mut self, x: &Matrix, y: &[f32], lr: f32) -> f32 {
        let order: Vec<usize> = (0..y.len()).collect();
        self.epoch_in_order(x, y, lr, &order)
    }

    /// One pass in a shuffled order — per-sample SGD over *sorted* data
    /// (e.g. all attacks, then all benign) ends every epoch biased toward
    /// the last class seen; shuffling removes the recency bias.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn epoch_shuffled<R: Rng>(&mut self, x: &Matrix, y: &[f32], lr: f32, rng: &mut R) -> f32 {
        use rand::seq::SliceRandom;
        let mut order: Vec<usize> = (0..y.len()).collect();
        order.shuffle(rng);
        self.epoch_in_order(x, y, lr, &order)
    }

    fn epoch_in_order(&mut self, x: &Matrix, y: &[f32], lr: f32, order: &[usize]) -> f32 {
        assert_eq!(x.cols(), self.weights.len(), "feature count mismatch");
        assert_eq!(x.rows(), y.len(), "label count mismatch");
        let mut total = 0.0f32;
        for &i in order {
            let target = y[i];
            let row = x.row(i);
            let score = self
                .weights
                .iter()
                .zip(row.iter())
                .map(|(&w, &v)| w * v)
                .sum::<f32>()
                + self.bias;
            let p = 1.0 / (1.0 + (-score).exp());
            let err = p - target;
            for (w, &v) in self.weights.iter_mut().zip(row.iter()) {
                *w -= lr * err * v;
            }
            self.bias -= lr * err;
            let pc = p.clamp(1e-7, 1.0 - 1e-7);
            total += -(target * pc.ln() + (1.0 - target) * (1.0 - pc).ln());
        }
        total / order.len().max(1) as f32
    }

    /// Finishes training, producing the deployable perceptron.
    pub fn into_perceptron(self) -> HwPerceptron {
        HwPerceptron {
            weights: self.weights,
            bias: self.bias,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(21)
    }

    #[test]
    fn trainer_separates_linear_data() {
        let mut r = rng();
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..100 {
            let malicious = i % 2 == 0;
            use rand::Rng;
            let a: f32 = r.gen_range(0.0..0.4);
            let b: f32 = r.gen_range(0.0..0.4);
            if malicious {
                rows.push(vec![0.6 + a, b]);
            } else {
                rows.push(vec![a, 0.6 + b]);
            }
            labels.push(if malicious { 1.0 } else { 0.0 });
        }
        let x = Matrix::from_rows(&rows);
        let mut t = PerceptronTrainer::new(2, &mut r);
        for _ in 0..50 {
            t.epoch(&x, &labels, 0.5);
        }
        let p = t.into_perceptron();
        let correct = rows
            .iter()
            .zip(labels.iter())
            .filter(|(row, &l)| p.classify(row, 0.0) == (l > 0.5))
            .count();
        assert!(correct >= 98, "correct={correct}");
    }

    #[test]
    fn quantized_weights_respect_range() {
        let p = HwPerceptron::from_parts(vec![3.0, -3.0, 0.0, 1.4, -0.9], 0.0);
        let q = p.quantize();
        assert!(q.weights().iter().all(|&w| (-2..=1).contains(&w)));
        assert_eq!(q.weights()[0], 1);
        assert_eq!(q.weights()[1], -2);
        assert_eq!(q.weights()[2], 0);
    }

    #[test]
    fn paper_accumulator_is_nine_bits_for_145_features() {
        // Worst case: all weights at an extreme.
        let q = QuantizedWeights::new(vec![-2; 145], 0);
        let (min, _) = q.accumulator_range();
        assert_eq!(min, -290);
        let q2 = QuantizedWeights::new(
            (0..145).map(|i| if i % 2 == 0 { -2 } else { 1 }).collect(),
            0,
        );
        assert!(q2.accumulator_bits() <= 9);
        // The full paper range [-290, 145] = 436 values needs 9 bits.
        let mixed: Vec<i8> = vec![-2; 145];
        let qq = QuantizedWeights::new(mixed, 0);
        assert!(qq.accumulator_bits() <= 9);
    }

    #[test]
    fn serial_adder_counts_only_set_bits() {
        let q = QuantizedWeights::new(vec![1, -2, 1, 0], 0);
        let d = q.classify_bits(&[true, true, false, true]);
        assert_eq!(d.sum, -1);
        assert_eq!(d.cycles, 2); // zero weight costs no add
        assert!(!d.malicious);
    }

    #[test]
    fn classification_latency_under_transient_window() {
        // 145 features -> at most 145 adder cycles, "a few hundred cycles in
        // the worst case" per the paper.
        let q = QuantizedWeights::new(vec![1; 145], 10);
        let d = q.classify_bits(&[true; 145]);
        assert!(d.cycles <= 200);
        assert!(d.malicious);
    }

    #[test]
    #[should_panic(expected = "hardware weights must lie in [-2, 1]")]
    fn out_of_range_weight_rejected() {
        let _ = QuantizedWeights::new(vec![2], 0);
    }

    #[test]
    fn threshold_shifts_sensitivity() {
        let p = HwPerceptron::from_parts(vec![1.0], 0.0);
        assert!(p.classify(&[0.4], 0.2));
        assert!(!p.classify(&[0.4], 0.6));
    }
}
