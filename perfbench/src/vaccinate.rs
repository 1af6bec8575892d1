//! `vaccinate`: the offline vaccination sequence (`AmGan::train` →
//! `engineer_features` → `AmGan::augment` → `Detector::train` →
//! `tune_above_benign`) plus the PerSpectron baseline and a holdout
//! evaluation, over a corpus collected in set-up.
//!
//! This is the retraining cost behind the k-fold, zero-day and arms-race
//! experiments. The nn training kernels do nearly all of the work; the
//! simulator does none.

use evax_core::collect::{collect_dataset_stats, CollectConfig};
use evax_core::feature_engineering::{engineer_features, N_ENGINEERED};
use evax_core::gan::{AmGan, AmGanConfig};
use evax_core::par::Parallelism;
use evax_core::pipeline::{vaccinate, StageTimings};
use evax_core::prelude::{Dataset, Detector, DetectorKind, TrainConfig};
use evax_nn::detector::{Detector as ModelDetector, DetectorScratch};
use evax_sim::FeatureSchema;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::collect::samples_digest;
use crate::trace::Trace;
use crate::{Fnv, PassOutput, Workload, THREADS};

/// The `experiments` small-scale corpus: 21 attack classes × 2 runs and 10
/// benign kinds × 4 runs of 8,000 instructions, sampled every 100.
fn corpus_config() -> CollectConfig {
    CollectConfig {
        interval: 100,
        runs_per_attack: 2,
        runs_per_benign: 4,
        max_instrs: 8_000,
        benign_scale: 8_000,
        parallelism: Parallelism::Fixed(THREADS),
        ..Default::default()
    }
}

/// The `experiments` small-scale AM-GAN (96-wide, 3 hidden layers, batch
/// 32) trained for a fifth of its 60 epochs, so one pass takes about two
/// seconds and a run holds several.
fn gan_config() -> AmGanConfig {
    AmGanConfig {
        epochs: 12,
        hidden_width: 96,
        generator_hidden: 3,
        ..AmGanConfig::small()
    }
}

/// Generated attack samples per class and benign samples (small scale).
const AUGMENT_PER_CLASS: usize = 80;
const AUGMENT_BENIGN: usize = 300;
/// Holdout share of the corpus, as in `EvaxPipeline`.
const HOLDOUT: f64 = 0.25;
/// `EvaxPipeline`'s threshold tuning: the benign-score quantile and margin.
const BENIGN_QUANTILE: f64 = 0.9995;
const MARGIN: f32 = 0.05;
/// Stream for the pass's RNG, apart from the split's.
const PASS_STREAM: u64 = 0x0007_ACC1_7A7E;

#[derive(Default)]
pub struct VaccinateWorkload {
    seed: u64,
    corpus: Option<(Dataset, Dataset)>,
}

/// Holdout verdicts of the vaccinated detector.
struct Holdout {
    tpr: f64,
    fpr: f64,
    non_finite: u64,
    rows: u64,
    digest: u64,
}

fn detector_digest(h: &mut Fnv, d: &Detector) {
    h.f32s(d.perceptron().weights());
    h.f32s(&[d.perceptron().bias(), d.threshold()]);
    h.bytes(format!("{:?}", d.engineered()).as_bytes());
}

/// Scores the holdout through the deployed batched path: each row is
/// extended with the engineered features, then classified in one batch.
fn evaluate(det: &Detector, holdout: &Dataset, trace: Option<&mut Trace>) -> Holdout {
    let dim = det.extended_dim();
    let n = holdout.len();
    let mut local = Trace::default();
    let trace = trace.unwrap_or(&mut local);
    let rows = trace.time("featurize.ns", || {
        let mut rows = Vec::with_capacity(n * dim);
        let mut ext = Vec::with_capacity(dim);
        for s in &holdout.samples {
            det.transform_into(&s.features, &mut ext);
            rows.extend_from_slice(&ext);
        }
        rows
    });
    trace.add("featurize.rows", n as f64);
    let mut scores = vec![0.0f32; n];
    let mut verdicts = vec![false; n];
    let model: &dyn ModelDetector = det;
    trace.time("score.ns", || {
        model.classify_rows_into(
            &rows,
            1,
            &mut DetectorScratch::new(),
            &mut scores,
            &mut verdicts,
        )
    });
    trace.add("score.rows", n as f64);
    let (mut tp, mut pos, mut fp, mut neg) = (0u64, 0u64, 0u64, 0u64);
    for (s, &v) in holdout.samples.iter().zip(&verdicts) {
        if s.malicious {
            pos += 1;
            tp += v as u64;
        } else {
            neg += 1;
            fp += v as u64;
        }
    }
    let mut h = Fnv::default();
    h.f32s(&scores);
    Holdout {
        tpr: tp as f64 / pos as f64,
        fpr: fp as f64 / neg as f64,
        non_finite: scores.iter().filter(|s| !s.is_finite()).count() as u64,
        rows: n as u64,
        digest: h.finish(),
    }
}

impl VaccinateWorkload {
    fn corpus(&self) -> (&Dataset, &Dataset) {
        let (train, holdout) = self.corpus.as_ref().expect("set-up ran");
        (train, holdout)
    }

    fn output(&self, evax: &Detector, perspectron: &Detector, eval: &Holdout) -> PassOutput {
        let (train, holdout) = self.corpus();
        let mut h = Fnv::default();
        detector_digest(&mut h, evax);
        detector_digest(&mut h, perspectron);
        h.word(eval.digest);
        let both_classes = holdout.samples.iter().any(|s| s.malicious)
            && holdout.samples.iter().any(|s| !s.malicious);
        PassOutput {
            digest: h.finish(),
            units: train.len() as u64,
            attempted: eval.rows,
            failed: eval.non_finite,
            checks: vec![
                (
                    "vaccination mines the 12 engineered features",
                    evax.engineered().len() == N_ENGINEERED
                        && evax.extended_dim() == train.feature_dim() + N_ENGINEERED,
                ),
                ("holdout holds attack and benign windows", both_classes),
            ],
            figures: vec![("detect_tpr", eval.tpr), ("detect_fpr", eval.fpr)],
            ..PassOutput::default()
        }
    }
}

impl Workload for VaccinateWorkload {
    fn setup(&mut self, seed: u64) {
        let (ds, _) = collect_dataset_stats(&corpus_config(), seed);
        self.corpus = Some(ds.split(HOLDOUT, &mut StdRng::seed_from_u64(seed)));
        self.seed = seed;
    }

    fn input_digest(&self) -> u64 {
        let (train, holdout) = self.corpus();
        let mut h = Fnv::default();
        samples_digest(&mut h, train);
        samples_digest(&mut h, holdout);
        h.finish()
    }

    fn pass(&mut self) -> PassOutput {
        let (train, holdout) = self.corpus();
        let det_cfg = TrainConfig::default();
        let mut rng = StdRng::seed_from_u64(self.seed ^ PASS_STREAM);
        let vac = vaccinate(
            train,
            &gan_config(),
            &det_cfg,
            AUGMENT_PER_CLASS,
            AUGMENT_BENIGN,
            &mut rng,
            &mut StageTimings::default(),
        );
        let mut perspectron =
            Detector::train(DetectorKind::PerSpectron, train, vec![], &det_cfg, &mut rng);
        perspectron.tune_above_benign(train, BENIGN_QUANTILE, MARGIN);
        let eval = evaluate(&vac.detector, holdout, None);
        self.output(&vac.detector, &perspectron, &eval)
    }

    fn traced_pass(&mut self, trace: &mut Trace) -> PassOutput {
        let (train, holdout) = self.corpus();
        let det_cfg = TrainConfig::default();
        let gan_cfg = gan_config();
        let mut rng = StdRng::seed_from_u64(self.seed ^ PASS_STREAM);
        let gan = trace.time("gan.train_ns", || AmGan::train(train, &gan_cfg, &mut rng));
        let schema = FeatureSchema::for_dim(train.feature_dim());
        let engineered = trace.time("engineer.ns", || {
            engineer_features(gan.generator(), N_ENGINEERED, 2, &schema.names_vec())
        });
        let augmented = trace.time("gan.augment_ns", || {
            gan.augment(train, AUGMENT_PER_CLASS, AUGMENT_BENIGN, &mut rng)
        });
        let mut evax = trace.time("detector.train_ns", || {
            Detector::train(
                DetectorKind::Evax,
                &augmented,
                engineered,
                &det_cfg,
                &mut rng,
            )
        });
        trace.time("detector.tune_ns", || {
            evax.tune_above_benign(train, BENIGN_QUANTILE, MARGIN)
        });
        let mut perspectron = trace.time("detector.train_ns", || {
            Detector::train(DetectorKind::PerSpectron, train, vec![], &det_cfg, &mut rng)
        });
        trace.time("detector.tune_ns", || {
            perspectron.tune_above_benign(train, BENIGN_QUANTILE, MARGIN)
        });
        let eval = evaluate(&evax, holdout, Some(trace));
        trace.set("gan.params", gan.generator().param_count() as f64);
        trace.set("gan.epochs", gan.history().len() as f64);
        trace.set("gan.samples", (augmented.len() - train.len()) as f64);
        trace.set(
            "detector.train_samples",
            (augmented.len() + train.len()) as f64,
        );
        self.output(&evax, &perspectron, &eval)
    }

    fn leaf_layers(&self) -> &'static [&'static str] {
        &[
            "gan.train_ns",
            "engineer.ns",
            "gan.augment_ns",
            "detector.train_ns",
            "detector.tune_ns",
            "featurize.ns",
            "score.ns",
        ]
    }
}
