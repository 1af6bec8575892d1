//! The deployed hardware detector and the PerSpectron baseline.
//!
//! Both are single-layer perceptrons (paper §VI-B); they differ in feature
//! space and training data:
//!
//! * **PerSpectron**: baseline HPC features, trained on seen attacks only.
//! * **EVAX**: baseline + 12 engineered security HPCs, *vaccinated* by
//!   retraining on the AM-GAN-augmented dataset (§V-C).
//!
//! The detector also exposes the quantized hardware datapath
//! ([`Detector::quantize`]) so benchmarks can report classification latency
//! in serial-adder cycles.

use evax_nn::detector::{Detector as ModelDetector, DetectorScratch};
use evax_nn::{HwPerceptron, PerceptronTrainer, QuantizedWeights};
use rand::Rng;

use crate::dataset::{Dataset, Sample};
use crate::feature_engineering::{extend_features, EngineeredFeature};

/// Which detector variant this is (affects reporting only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectorKind {
    /// The prior-work baseline (no engineered features, no vaccination).
    PerSpectron,
    /// The hardened EVAX detector.
    Evax,
}

impl std::fmt::Display for DetectorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DetectorKind::PerSpectron => f.write_str("PerSpectron"),
            DetectorKind::Evax => f.write_str("EVAX"),
        }
    }
}

/// Detector training hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// SGD epochs over the training set.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 40,
            lr: 0.05,
        }
    }
}

/// A deployed perceptron detector over (possibly extended) HPC features.
#[derive(Debug, Clone)]
pub struct Detector {
    kind: DetectorKind,
    perceptron: HwPerceptron,
    engineered: Vec<EngineeredFeature>,
    threshold: f32,
    presence_cut: f32,
}

impl Detector {
    /// Trains a detector on `dataset`. `engineered` is empty for the
    /// PerSpectron baseline; EVAX passes the 12 mined security HPCs.
    ///
    /// # Panics
    /// Panics if the dataset is empty.
    pub fn train<R: Rng>(
        kind: DetectorKind,
        dataset: &Dataset,
        engineered: Vec<EngineeredFeature>,
        cfg: &TrainConfig,
        rng: &mut R,
    ) -> Detector {
        assert!(!dataset.is_empty(), "cannot train on an empty dataset");
        let dim = dataset.feature_dim() + engineered.len();
        let rows: Vec<Vec<f32>> = dataset
            .samples
            .iter()
            .map(|s| extend_features(&s.features, &engineered))
            .collect();
        let x = evax_nn::Matrix::from_rows(&rows);
        let y = dataset.binary_targets();
        let mut trainer = PerceptronTrainer::new(dim, rng);
        for _ in 0..cfg.epochs {
            trainer.epoch_shuffled(&x, &y, cfg.lr, rng);
        }
        Detector {
            kind,
            perceptron: trainer.into_perceptron(),
            engineered,
            threshold: 0.0,
            presence_cut: 0.25,
        }
    }

    /// Reassembles a deployed detector from vendor-patch fields (see
    /// [`crate::patch::DetectorPatch`]). The weights span the extended
    /// (base + engineered) feature space.
    pub fn from_patch_parts(
        weights: Vec<f32>,
        bias: f32,
        threshold: f32,
        presence_cut: f32,
        engineered: Vec<EngineeredFeature>,
    ) -> Detector {
        Detector {
            kind: DetectorKind::Evax,
            perceptron: HwPerceptron::from_parts(weights, bias),
            engineered,
            threshold,
            presence_cut,
        }
    }

    /// The detector variant.
    pub fn kind(&self) -> DetectorKind {
        self.kind
    }

    /// The engineered features this detector monitors.
    pub fn engineered(&self) -> &[EngineeredFeature] {
        &self.engineered
    }

    /// The underlying perceptron (e.g. for surrogate-gradient AML).
    pub fn perceptron(&self) -> &HwPerceptron {
        &self.perceptron
    }

    /// Current decision threshold on the raw score.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Sets the decision threshold (EVAX "is tuned to have very high
    /// sensitivity", §VIII-A; Fig. 17 tunes it along the ROC).
    pub fn set_threshold(&mut self, threshold: f32) {
        self.threshold = threshold;
    }

    /// Maps a baseline feature vector into this detector's feature space.
    pub fn transform(&self, base: &[f32]) -> Vec<f32> {
        extend_features(base, &self.engineered)
    }

    /// [`Detector::transform`] into a caller-owned scratch buffer — no
    /// per-call allocation once the buffer has capacity.
    pub fn transform_into(&self, base: &[f32], out: &mut Vec<f32>) {
        crate::feature_engineering::extend_features_into(base, &self.engineered, out);
    }

    /// Dimensionality of the extended (base + engineered) feature space.
    pub fn extended_dim(&self) -> usize {
        self.perceptron.n_features()
    }

    /// Raw decision score of a baseline feature vector.
    pub fn score(&self, base: &[f32]) -> f32 {
        self.perceptron.score(&self.transform(base))
    }

    /// Classifies a baseline feature vector (`true` = malicious).
    pub fn classify(&self, base: &[f32]) -> bool {
        self.score(base) >= self.threshold
    }

    /// Batched scoring over a flat row-major batch of **extended** feature
    /// rows (built via [`Detector::transform_into`]): `out[i]` is
    /// bit-identical to scoring row `i` alone, at any thread count
    /// (`threads == 0` resolves automatically).
    ///
    /// # Panics
    /// Panics if `rows.len() != out.len() * extended_dim()`.
    pub fn score_rows_into(&self, rows: &[f32], threads: usize, out: &mut [f32]) {
        self.perceptron.score_rows_into(rows, threads, out);
    }

    /// Batched classification over extended feature rows; per-row verdicts
    /// are bit-identical to [`Detector::classify`].
    ///
    /// # Panics
    /// Panics on batch/score/verdict length mismatches.
    pub fn classify_rows_into(
        &self,
        rows: &[f32],
        threads: usize,
        scores: &mut [f32],
        verdicts: &mut [bool],
    ) {
        self.perceptron
            .classify_batch_into(rows, self.threshold, threads, scores, verdicts);
    }

    /// Quantizes this detector to the 9-bit integer deployment kernel
    /// ([`evax_nn::QuantLinear`]), folding in the decision threshold. The
    /// kernel operates on the same extended feature rows as the batched f32
    /// path, quantized to `u8`.
    pub fn quantize_linear(&self) -> evax_nn::QuantLinear {
        evax_nn::QuantLinear::from_f32(
            self.perceptron.weights(),
            self.perceptron.bias(),
            self.threshold,
        )
    }

    /// Classifies a sample.
    pub fn classify_sample(&self, s: &Sample) -> bool {
        self.classify(&s.features)
    }

    /// Tunes the threshold for a target true-positive rate on `dataset`
    /// (sensitivity-first operation): the largest threshold that still
    /// detects at least `target_tpr` of the malicious samples.
    pub fn tune_for_tpr(&mut self, dataset: &Dataset, target_tpr: f64) {
        let mut scores: Vec<f32> = dataset
            .samples
            .iter()
            .filter(|s| s.malicious)
            .map(|s| self.score(&s.features))
            .collect();
        if scores.is_empty() {
            return;
        }
        scores.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let miss_budget = ((1.0 - target_tpr) * scores.len() as f64).floor() as usize;
        let idx = miss_budget.min(scores.len() - 1);
        self.threshold = scores[idx];
    }

    /// Tunes the threshold for *per-class coverage*: the largest threshold
    /// at which at least `min_class_tpr` of every attack class's windows are
    /// flagged. This is the deployment-relevant operating point — the
    /// adaptive architecture enters secure mode on the *first* flag, so an
    /// attack is caught as long as a healthy fraction of its windows score
    /// above threshold, while benign false positives stay rare (paper
    /// §VIII-A's "very high sensitivity" with 4 FPs per 1M instructions).
    pub fn tune_for_class_coverage(&mut self, dataset: &Dataset, min_class_tpr: f64) {
        let mut thr = f32::INFINITY;
        for class in 1..crate::dataset::N_CLASSES {
            let mut scores: Vec<f32> = dataset
                .of_class(class)
                .map(|s| self.score(&s.features))
                .collect();
            if scores.is_empty() {
                continue;
            }
            scores.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            // The (1 - min_class_tpr) quantile: flagging at this threshold
            // catches at least min_class_tpr of this class's windows.
            let idx = (((1.0 - min_class_tpr) * scores.len() as f64).floor() as usize)
                .min(scores.len() - 1);
            thr = thr.min(scores[idx]);
        }
        if thr.is_finite() {
            self.threshold = thr;
        }
    }

    /// Tunes the threshold to sit just above the benign score mass: the
    /// `benign_quantile` of benign training scores plus a small margin.
    /// This is the paper's deployment spec stated directly — a false-positive
    /// *budget* ("4 FPs in every 1M instructions") with everything above it
    /// flagged, which maximizes zero-day sensitivity: an unseen attack only
    /// needs to score above benign, not above the seen attacks' scores.
    pub fn tune_above_benign(&mut self, dataset: &Dataset, benign_quantile: f64, margin: f32) {
        let mut scores: Vec<f32> = dataset
            .samples
            .iter()
            .filter(|s| !s.malicious)
            .map(|s| self.score(&s.features))
            .collect();
        if scores.is_empty() {
            return;
        }
        scores.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let idx = ((benign_quantile * scores.len() as f64).ceil() as usize).min(scores.len() - 1);
        self.threshold = scores[idx] + margin;
    }

    /// The presence-bit cut: normalized features above it count as 1 in the
    /// quantized datapath.
    pub fn presence_cut(&self) -> f32 {
        self.presence_cut
    }

    /// Sets the presence-bit cut.
    pub fn set_presence_cut(&mut self, cut: f32) {
        self.presence_cut = cut;
    }

    /// Quantizes to the hardware datapath, along with the per-feature
    /// presence-bit cut (features above the cut count as 1).
    pub fn quantize(&self) -> (QuantizedWeights, f32) {
        (self.perceptron.quantize(), self.presence_cut)
    }

    /// Hardware-path classification of a baseline vector: binarize, then run
    /// the serial adder. Returns the decision and adder cycles consumed.
    pub fn classify_hw(&self, base: &[f32]) -> evax_nn::perceptron::HwDecision {
        let (q, cut) = self.quantize();
        let bits: Vec<bool> = self.transform(base).iter().map(|&v| v > cut).collect();
        q.classify_bits(&bits)
    }

    /// Binary accuracy over a dataset.
    pub fn accuracy(&self, dataset: &Dataset) -> f64 {
        if dataset.is_empty() {
            return 0.0;
        }
        let correct = dataset
            .samples
            .iter()
            .filter(|s| self.classify_sample(s) == s.malicious)
            .count();
        correct as f64 / dataset.len() as f64
    }

    /// True-positive rate over the malicious samples of a dataset.
    pub fn tpr(&self, dataset: &Dataset) -> f64 {
        let malicious: Vec<_> = dataset.samples.iter().filter(|s| s.malicious).collect();
        if malicious.is_empty() {
            return 0.0;
        }
        let hit = malicious.iter().filter(|s| self.classify_sample(s)).count();
        hit as f64 / malicious.len() as f64
    }

    /// The deployed linear model behind this detector as a standalone
    /// trait-level object: perceptron weights plus the tuned threshold,
    /// over the extended feature space. The engineered-feature transform
    /// stays with the featurizer/this detector ([`Detector::transform_into`]).
    pub fn to_model(&self) -> evax_nn::ThresholdedPerceptron {
        evax_nn::ThresholdedPerceptron::new(self.perceptron.clone(), self.threshold)
    }

    /// Wraps the deployed model with seeded inference-time weight/threshold
    /// jitter (the Stochastic-HMDs hardening; see
    /// [`evax_nn::StochasticDetector`]). Scores stay a pure function of
    /// `(seed, row)`, so the repo's bit-determinism contract holds.
    pub fn harden_stochastic(&self, seed: u64, jitter: f32) -> evax_nn::StochasticDetector {
        evax_nn::StochasticDetector::new(self.perceptron.clone(), self.threshold, seed, jitter)
    }
}

/// The trait-level view of the deployed detector: a thresholded perceptron
/// over **extended** (base + engineered) feature rows. Bitwise-pinned to the
/// inherent paths — `score_into` equals [`HwPerceptron::score`] on the
/// transformed row, batched paths equal [`Detector::score_rows_into`] /
/// [`Detector::classify_rows_into`].
impl ModelDetector for Detector {
    fn n_features(&self) -> usize {
        self.perceptron.n_features()
    }

    fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Serializes as its deployed linear shape, so
    /// [`evax_nn::load_detector`] round-trips it into a
    /// [`evax_nn::ThresholdedPerceptron`].
    fn kind(&self) -> &'static str {
        "thresholded-perceptron"
    }

    fn score_into(&self, x: &[f32], _scratch: &mut DetectorScratch) -> f32 {
        self.perceptron.score(x)
    }

    fn score_rows_into(
        &self,
        rows: &[f32],
        threads: usize,
        _scratch: &mut DetectorScratch,
        out: &mut [f32],
    ) {
        self.perceptron.score_rows_into(rows, threads, out);
    }

    fn classify_rows_into(
        &self,
        rows: &[f32],
        threads: usize,
        _scratch: &mut DetectorScratch,
        scores: &mut [f32],
        verdicts: &mut [bool],
    ) {
        self.perceptron
            .classify_batch_into(rows, self.threshold, threads, scores, verdicts);
    }

    fn save_bytes(&self) -> Vec<u8> {
        self.to_model().save_bytes()
    }

    fn clone_box(&self) -> Box<dyn ModelDetector> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Sample;
    use rand::SeedableRng;

    fn separable_dataset(rng: &mut impl Rng, n: usize) -> Dataset {
        let mut ds = Dataset::new();
        for _ in 0..n {
            let m: f32 = rng.gen_range(0.6..1.0);
            let b: f32 = rng.gen_range(0.0..0.4);
            ds.push(Sample::new(vec![m, b, rng.gen_range(0.0..1.0)], 1));
            ds.push(Sample::new(vec![b, m, rng.gen_range(0.0..1.0)], 0));
        }
        ds
    }

    #[test]
    fn trains_to_high_accuracy_on_separable_data() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let ds = separable_dataset(&mut rng, 200);
        let det = Detector::train(
            DetectorKind::PerSpectron,
            &ds,
            vec![],
            &Default::default(),
            &mut rng,
        );
        assert!(det.accuracy(&ds) > 0.97, "accuracy {}", det.accuracy(&ds));
    }

    #[test]
    fn engineered_features_extend_the_space() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let ds = separable_dataset(&mut rng, 50);
        let eng = vec![EngineeredFeature {
            name: "f0_AND_f1".into(),
            components: vec![0, 1],
        }];
        let det = Detector::train(DetectorKind::Evax, &ds, eng, &Default::default(), &mut rng);
        assert_eq!(det.transform(&[0.5, 0.2, 0.0]).len(), 4);
    }

    #[test]
    fn class_coverage_tuning_flags_every_class() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut ds = Dataset::new();
        // Two attack classes with different score profiles + benign.
        for _ in 0..100 {
            ds.push(Sample::new(vec![rng.gen_range(0.7..1.0), 0.1], 1));
            ds.push(Sample::new(vec![rng.gen_range(0.5..0.8), 0.2], 2));
            ds.push(Sample::new(vec![rng.gen_range(0.0..0.3), 0.9], 0));
        }
        let mut det = Detector::train(
            DetectorKind::Evax,
            &ds,
            vec![],
            &Default::default(),
            &mut rng,
        );
        det.tune_for_class_coverage(&ds, 0.5);
        for class in [1usize, 2] {
            let flagged = ds
                .of_class(class)
                .filter(|s| det.classify_sample(s))
                .count();
            let total = ds.of_class(class).count();
            assert!(
                flagged * 2 >= total,
                "class {class}: {flagged}/{total} flagged"
            );
        }
    }

    #[test]
    fn above_benign_tuning_keeps_fpr_near_zero_and_tpr_high() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let ds = separable_dataset(&mut rng, 300);
        let mut det = Detector::train(
            DetectorKind::Evax,
            &ds,
            vec![],
            &Default::default(),
            &mut rng,
        );
        det.tune_above_benign(&ds, 0.999, 0.05);
        let c = crate::metrics::Confusion::evaluate(&det, &ds);
        assert!(c.fpr() < 0.01, "fpr {}", c.fpr());
        assert!(c.tpr() > 0.98, "tpr {}", c.tpr());
    }

    #[test]
    fn threshold_tuning_reaches_target_tpr() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let ds = separable_dataset(&mut rng, 200);
        let mut det = Detector::train(
            DetectorKind::Evax,
            &ds,
            vec![],
            &Default::default(),
            &mut rng,
        );
        det.tune_for_tpr(&ds, 0.995);
        assert!(det.tpr(&ds) >= 0.99, "tpr {}", det.tpr(&ds));
    }

    /// Data where feature presence (above the cut) carries the class — the
    /// regime the paper's binary-input hardware operates in.
    fn presence_dataset(rng: &mut impl Rng, n: usize) -> Dataset {
        let mut ds = Dataset::new();
        for _ in 0..n {
            let m: f32 = rng.gen_range(0.6..1.0);
            let b: f32 = rng.gen_range(0.0..0.15);
            ds.push(Sample::new(vec![m, b, rng.gen_range(0.0..1.0)], 1));
            ds.push(Sample::new(vec![b, m, rng.gen_range(0.0..1.0)], 0));
        }
        ds
    }

    #[test]
    fn hardware_path_agrees_with_float_path_mostly() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let ds = presence_dataset(&mut rng, 300);
        let det = Detector::train(
            DetectorKind::Evax,
            &ds,
            vec![],
            &Default::default(),
            &mut rng,
        );
        let agree = ds
            .samples
            .iter()
            .filter(|s| det.classify_hw(&s.features).malicious == s.malicious)
            .count();
        assert!(
            agree as f64 / ds.len() as f64 > 0.9,
            "quantized agreement too low: {agree}/{}",
            ds.len()
        );
    }

    #[test]
    fn hw_latency_within_transient_window() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let ds = separable_dataset(&mut rng, 50);
        let det = Detector::train(
            DetectorKind::Evax,
            &ds,
            vec![],
            &Default::default(),
            &mut rng,
        );
        let d = det.classify_hw(&[1.0, 1.0, 1.0]);
        assert!(d.cycles <= 300, "paper: a few hundred cycles worst case");
    }
}
