//! Evaluation metrics: confusion counts, FP/FN per instruction window,
//! ROC/AUC and generalization error.

use crate::dataset::Dataset;
use crate::detector::Detector;
use crate::par::{self, Parallelism};

/// Binary confusion counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Confusion {
    /// Malicious classified malicious.
    pub tp: u64,
    /// Benign classified benign.
    pub tn: u64,
    /// Benign classified malicious.
    pub fp: u64,
    /// Malicious classified benign.
    pub fn_: u64,
}

impl Confusion {
    /// Evaluates a detector over a dataset within the caller's thread budget
    /// (counts are integer sums, so the result is identical at any thread
    /// count). The detector's own trait view scores each sample, so this is
    /// [`Confusion::evaluate_model`] with `model = det`.
    pub fn evaluate(det: &Detector, ds: &Dataset, parallelism: Parallelism) -> Confusion {
        Self::evaluate_model(det, det, ds, parallelism)
    }

    /// Evaluates any trait-level model over a dataset: `transform` maps
    /// each sample's base features into the model's extended input space
    /// (see [`Detector::transform_into`]), and the verdict comes from the
    /// model's own [`evax_nn::detector::Detector::decide`]. With
    /// `model = transform` (the concrete detector's own trait impl) the
    /// verdicts are bit-identical to [`Detector::classify`]. Scoring fans
    /// out over `parallelism` in coarse chunks; counts are integer sums, so
    /// the result is identical at any thread count.
    pub fn evaluate_model(
        transform: &Detector,
        model: &dyn evax_nn::detector::Detector,
        ds: &Dataset,
        parallelism: Parallelism,
    ) -> Confusion {
        // Coarse chunks: scoring one sample is cheap, so per-sample work
        // items would be all queue traffic.
        const CHUNK: usize = 256;
        let chunks: Vec<&[crate::dataset::Sample]> = ds.samples.chunks(CHUNK).collect();
        let partials = par::map(parallelism, &chunks, |chunk| {
            let mut c = Confusion::default();
            let mut extended = Vec::new();
            let mut scratch = evax_nn::DetectorScratch::new();
            for s in *chunk {
                transform.transform_into(&s.features, &mut extended);
                let verdict = model.classify(&extended, &mut scratch);
                match (s.malicious, verdict) {
                    (true, true) => c.tp += 1,
                    (true, false) => c.fn_ += 1,
                    (false, true) => c.fp += 1,
                    (false, false) => c.tn += 1,
                }
            }
            c
        });
        partials
            .into_iter()
            .fold(Confusion::default(), |a, b| Confusion {
                tp: a.tp + b.tp,
                tn: a.tn + b.tn,
                fp: a.fp + b.fp,
                fn_: a.fn_ + b.fn_,
            })
    }

    /// Total samples.
    pub fn total(&self) -> u64 {
        self.tp + self.tn + self.fp + self.fn_
    }

    /// Fraction correct.
    pub fn accuracy(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            (self.tp + self.tn) as f64 / self.total() as f64
        }
    }

    /// True-positive rate (sensitivity).
    pub fn tpr(&self) -> f64 {
        let p = self.tp + self.fn_;
        if p == 0 {
            0.0
        } else {
            self.tp as f64 / p as f64
        }
    }

    /// False-positive rate.
    pub fn fpr(&self) -> f64 {
        let n = self.fp + self.tn;
        if n == 0 {
            0.0
        } else {
            self.fp as f64 / n as f64
        }
    }

    /// False-negative rate (0.0 when there are no malicious samples —
    /// `1.0 - tpr()` would claim a 100% miss rate on zero samples).
    pub fn fnr(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            0.0
        } else {
            1.0 - self.tpr()
        }
    }

    /// Generalization (classification) error (0.0 on an empty matrix —
    /// `1.0 - accuracy()` would claim 100% error on zero samples).
    pub fn error(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            1.0 - self.accuracy()
        }
    }

    /// False positives per `window` committed instructions, given that each
    /// sample covers `sample_interval` instructions (paper Fig. 15 reports
    /// FPs per 10k instructions at each sampling granularity).
    pub fn fp_per_instructions(&self, sample_interval: u64, window: u64) -> f64 {
        let benign = self.fp + self.tn;
        // A zero interval means zero instructions were covered: report 0
        // rather than ±Inf/NaN from the division.
        if benign == 0 || sample_interval == 0 {
            return 0.0;
        }
        let benign_instrs = benign * sample_interval;
        self.fp as f64 * window as f64 / benign_instrs as f64
    }

    /// False negatives per `window` instructions (over malicious samples).
    pub fn fn_per_instructions(&self, sample_interval: u64, window: u64) -> f64 {
        let mal = self.tp + self.fn_;
        if mal == 0 || sample_interval == 0 {
            return 0.0;
        }
        let mal_instrs = mal * sample_interval;
        self.fn_ as f64 * window as f64 / mal_instrs as f64
    }
}

/// A point on a ROC curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocPoint {
    /// False-positive rate.
    pub fpr: f64,
    /// True-positive rate.
    pub tpr: f64,
    /// The threshold that produced this point.
    pub threshold: f32,
}

/// The degenerate ROC: the `(0,0) → (1,1)` diagonal, returned for inputs
/// the sweep cannot rank (empty, all-NaN, or single-class). Its [`auc`] is
/// the chance level 0.5, which never over-states a detector.
fn trivial_roc() -> Vec<RocPoint> {
    vec![
        RocPoint {
            fpr: 0.0,
            tpr: 0.0,
            threshold: f32::INFINITY,
        },
        RocPoint {
            fpr: 1.0,
            tpr: 1.0,
            threshold: f32::NEG_INFINITY,
        },
    ]
}

/// Computes a ROC curve from `(score, is_malicious)` pairs, sweeping the
/// threshold over every distinct score. Points are ordered by ascending FPR.
///
/// Degenerate inputs are handled fail-safe rather than corrupting the
/// sweep: NaN scores are filtered out before sorting (they previously
/// scrambled the `partial_cmp` ordering and with it every downstream
/// point), and single-class inputs (`p == 0` or `n == 0`, whose rates
/// would divide by zero) return the trivial diagonal curve.
pub fn roc_curve(scored: &[(f32, bool)]) -> Vec<RocPoint> {
    let mut sorted: Vec<(f32, bool)> = scored
        .iter()
        .copied()
        .filter(|(s, _)| !s.is_nan())
        .collect();
    // Debug builds log the drop count; release builds filter silently
    // (the curve itself is the deliverable, and NaN scores carry no rank).
    #[cfg(debug_assertions)]
    if sorted.len() < scored.len() {
        eprintln!(
            "roc_curve: dropped {} NaN-scored samples of {}",
            scored.len() - sorted.len(),
            scored.len()
        );
    }
    // `total_cmp` is total on the NaN-free remainder (and deterministic
    // for ±0.0 ties, unlike the old `partial_cmp(..).unwrap_or(Equal)`).
    sorted.sort_by(|a, b| b.0.total_cmp(&a.0));
    let p = sorted.iter().filter(|(_, m)| *m).count() as f64;
    let n = sorted.len() as f64 - p;
    if p == 0.0 || n == 0.0 {
        return trivial_roc();
    }
    let mut points = vec![RocPoint {
        fpr: 0.0,
        tpr: 0.0,
        threshold: f32::INFINITY,
    }];
    let mut tp = 0.0;
    let mut fp = 0.0;
    let mut i = 0;
    while i < sorted.len() {
        let t = sorted[i].0;
        // Consume all samples at this threshold together.
        while i < sorted.len() && sorted[i].0 == t {
            if sorted[i].1 {
                tp += 1.0;
            } else {
                fp += 1.0;
            }
            i += 1;
        }
        points.push(RocPoint {
            fpr: fp / n,
            tpr: tp / p,
            threshold: t,
        });
    }
    points
}

/// Area under a ROC curve (trapezoidal).
pub fn auc(points: &[RocPoint]) -> f64 {
    let mut area = 0.0;
    for w in points.windows(2) {
        area += (w[1].fpr - w[0].fpr) * (w[0].tpr + w[1].tpr) / 2.0;
    }
    area
}

/// Scores every sample of a dataset with a detector, for [`roc_curve`].
pub fn score_dataset(det: &Detector, ds: &Dataset) -> Vec<(f32, bool)> {
    ds.samples
        .iter()
        .map(|s| (det.score(&s.features), s.malicious))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_rates() {
        let c = Confusion {
            tp: 90,
            fn_: 10,
            fp: 5,
            tn: 95,
        };
        assert!((c.accuracy() - 0.925).abs() < 1e-12);
        assert!((c.tpr() - 0.9).abs() < 1e-12);
        assert!((c.fpr() - 0.05).abs() < 1e-12);
        assert!((c.error() - 0.075).abs() < 1e-12);
    }

    #[test]
    fn fp_per_10k_instructions() {
        // 100 benign samples at interval 100 = 10k benign instructions;
        // 2 FPs -> 2 per 10k.
        let c = Confusion {
            tp: 0,
            fn_: 0,
            fp: 2,
            tn: 98,
        };
        assert!((c.fp_per_instructions(100, 10_000) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_classifier_has_auc_one() {
        let scored = vec![(0.9, true), (0.8, true), (0.2, false), (0.1, false)];
        let roc = roc_curve(&scored);
        assert!((auc(&roc) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn random_classifier_has_auc_half() {
        // Interleaved scores -> diagonal ROC.
        let scored = vec![
            (0.8, true),
            (0.8, false),
            (0.6, true),
            (0.6, false),
            (0.4, true),
            (0.4, false),
        ];
        let roc = roc_curve(&scored);
        assert!((auc(&roc) - 0.5).abs() < 0.01, "auc={}", auc(&roc));
    }

    #[test]
    fn roc_monotone_in_fpr() {
        let scored = vec![
            (0.9, true),
            (0.5, false),
            (0.6, true),
            (0.2, false),
            (0.7, false),
        ];
        let roc = roc_curve(&scored);
        for w in roc.windows(2) {
            assert!(w[1].fpr >= w[0].fpr);
            assert!(w[1].tpr >= w[0].tpr);
        }
        assert_eq!(roc.last().unwrap().fpr, 1.0);
        assert_eq!(roc.last().unwrap().tpr, 1.0);
    }

    #[test]
    fn empty_confusion_reports_zero_not_one() {
        let c = Confusion::default();
        assert_eq!(c.fnr(), 0.0, "no samples means no misses");
        assert_eq!(c.error(), 0.0, "no samples means no errors");
        assert_eq!(c.tpr(), 0.0);
        assert_eq!(c.accuracy(), 0.0);
    }

    #[test]
    fn single_class_fnr_is_defined() {
        // Benign-only matrix: the malicious denominator is zero.
        let c = Confusion {
            tp: 0,
            fn_: 0,
            fp: 1,
            tn: 9,
        };
        assert_eq!(c.fnr(), 0.0);
        assert!((c.error() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn zero_sample_interval_yields_zero_not_inf() {
        let c = Confusion {
            tp: 1,
            fn_: 2,
            fp: 3,
            tn: 4,
        };
        assert_eq!(c.fp_per_instructions(0, 10_000), 0.0);
        assert_eq!(c.fn_per_instructions(0, 10_000), 0.0);
        assert!(c.fp_per_instructions(100, 10_000).is_finite());
    }

    #[test]
    fn nan_scores_are_filtered_from_roc() {
        let clean = vec![(0.9, true), (0.8, true), (0.2, false), (0.1, false)];
        let mut noisy = clean.clone();
        noisy.insert(1, (f32::NAN, false));
        noisy.push((f32::NAN, true));
        let roc_clean = roc_curve(&clean);
        let roc_noisy = roc_curve(&noisy);
        assert_eq!(roc_clean, roc_noisy, "NaN rows must not perturb the curve");
        assert!((auc(&roc_noisy) - 1.0).abs() < 1e-9);
        for pt in &roc_noisy {
            assert!(pt.fpr.is_finite() && pt.tpr.is_finite());
        }
    }

    #[test]
    fn single_class_inputs_return_the_trivial_curve() {
        for scored in [
            vec![],                                    // empty
            vec![(f32::NAN, true), (f32::NAN, false)], // all NaN
            vec![(0.9, true), (0.3, true)],            // malicious only
            vec![(0.9, false), (0.3, false)],          // benign only
        ] {
            let roc = roc_curve(&scored);
            assert_eq!(roc.len(), 2, "trivial curve for {scored:?}");
            assert_eq!((roc[0].fpr, roc[0].tpr), (0.0, 0.0));
            assert_eq!((roc[1].fpr, roc[1].tpr), (1.0, 1.0));
            assert!((auc(&roc) - 0.5).abs() < 1e-12, "chance-level AUC");
        }
    }
}
