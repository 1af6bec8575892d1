//! The end-to-end EVAX pipeline: collect → train AM-GAN → engineer
//! security HPCs → vaccinate the detector (paper Fig. 12's offline flow).
//!
//! The `AM-GAN → engineer → augment → train → tune` sequence is factored
//! into [`vaccinate`], the single implementation shared with every k-fold
//! retrain (see [`crate::kfold`]).

use evax_obs::MetricsSink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::collect::{collect_dataset_stats_with, CollectConfig};
use crate::dataset::{Dataset, Normalizer};
use crate::detector::{Detector, DetectorKind, TrainConfig};
use crate::feature_engineering::{engineer_features, EngineeredFeature, N_ENGINEERED};
use crate::featurize::Featurizer;
use crate::gan::{AmGan, AmGanConfig};
use crate::metrics::Confusion;

/// Full pipeline configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaxConfig {
    /// Sample collection.
    pub collect: CollectConfig,
    /// AM-GAN training.
    pub gan: AmGanConfig,
    /// Detector training.
    pub detector: TrainConfig,
    /// Generated attack samples per class for vaccination (paper: 257k
    /// attack samples per fold, scaled).
    pub augment_per_class: usize,
    /// Generated benign samples (paper: 70k, scaled).
    pub augment_benign: usize,
    /// Holdout fraction for evaluation.
    pub holdout: f64,
    /// Sensitivity target for threshold tuning (§VIII-A: "EVAX is tuned to
    /// have very high sensitivity"). Interpreted as per-attack-class window
    /// coverage: the first flagged window triggers secure mode, so coverage
    /// of a fraction of each attack's windows suffices for zero leakage.
    pub tpr_target: f64,
}

impl Default for EvaxConfig {
    fn default() -> Self {
        EvaxConfig {
            collect: CollectConfig::default(),
            gan: AmGanConfig::default(),
            detector: TrainConfig::default(),
            augment_per_class: 150,
            augment_benign: 600,
            holdout: 0.25,
            tpr_target: 0.5,
        }
    }
}

impl EvaxConfig {
    /// A laptop-scale configuration: smaller corpora, fewer epochs.
    pub fn small() -> Self {
        EvaxConfig {
            collect: CollectConfig {
                interval: 200,
                runs_per_attack: 2,
                runs_per_benign: 3,
                max_instrs: 6_000,
                benign_scale: 6_000,
                ..Default::default()
            },
            gan: AmGanConfig::small(),
            augment_per_class: 60,
            augment_benign: 200,
            ..Default::default()
        }
    }

    /// Checks the configuration before a run. [`EvaxPipeline::run`] calls
    /// this up front, so a degenerate configuration fails naming the
    /// offending field instead of deep inside collection or training.
    ///
    /// # Errors
    /// [`EvaxError::Config`](crate::error::EvaxError::Config) when a
    /// `collect.*` field fails [`CollectConfig::validate`], the holdout is
    /// outside `(0, 1)`, or the sensitivity target is outside `(0, 1]`.
    pub fn validate(&self) -> crate::error::Result<()> {
        use crate::error::EvaxError;
        self.collect.validate()?;
        if !(self.holdout > 0.0 && self.holdout < 1.0) {
            return Err(EvaxError::config(
                "holdout",
                format!("must be in (0, 1), got {}", self.holdout),
            ));
        }
        if !(self.tpr_target > 0.0 && self.tpr_target <= 1.0) {
            return Err(EvaxError::config(
                "tpr_target",
                format!("must be in (0, 1], got {}", self.tpr_target),
            ));
        }
        Ok(())
    }
}

/// Wall-clock seconds spent in each offline stage of [`EvaxPipeline::run`]
/// (the phase breakdown behind `experiments --json`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// Simulating attack/benign programs and building the dataset.
    pub collect_secs: f64,
    /// AM-GAN training.
    pub gan_secs: f64,
    /// Mining the Generator for engineered security HPCs.
    pub engineer_secs: f64,
    /// Augmenting with generated samples + training the EVAX detector.
    pub vaccinate_secs: f64,
    /// Training the PerSpectron baseline.
    pub baseline_secs: f64,
}

impl StageTimings {
    /// Sum over all stages.
    pub fn total_secs(&self) -> f64 {
        self.collect_secs
            + self.gan_secs
            + self.engineer_secs
            + self.vaccinate_secs
            + self.baseline_secs
    }
}

/// Artifacts of one vaccination: the trained AM-GAN, the engineered
/// security HPCs mined from its Generator, and the vaccinated detector.
#[derive(Debug, Clone)]
pub struct Vaccination {
    /// The trained AM-GAN.
    pub gan: AmGan,
    /// The mined engineered security HPCs (Table I).
    pub engineered: Vec<EngineeredFeature>,
    /// The vaccinated EVAX detector, sensitivity-tuned on the real data.
    pub detector: Detector,
}

impl Vaccination {
    /// The deployed linear model as a trait-level object (see
    /// [`Detector::to_model`]).
    pub fn model(&self) -> evax_nn::ThresholdedPerceptron {
        self.detector.to_model()
    }

    /// The deployed model hardened with seeded inference-time
    /// weight/threshold jitter (see [`Detector::harden_stochastic`]).
    pub fn harden_stochastic(&self, seed: u64, jitter: f32) -> evax_nn::StochasticDetector {
        self.detector.harden_stochastic(seed, jitter)
    }
}

/// [`vaccinate`] plus a majority-vote committee: trains `members - 1`
/// additional detectors on *independent* AM-GAN augmentation draws (each
/// member sees the same real data but different generated hard samples and
/// a different weight init — the diversity source for the vote) and returns
/// the base vaccination together with an [`evax_nn::Ensemble`] whose first
/// member is the base detector's deployed model.
///
/// Every member is sensitivity-tuned on the real data exactly like the base
/// detector. The base `Vaccination` is bit-identical to calling
/// [`vaccinate`] with the same `rng` — the extra members draw from RNG
/// streams derived *after* the base sequence completes.
///
/// # Panics
/// Panics if `members == 0`.
#[allow(clippy::too_many_arguments)]
pub fn vaccinate_ensemble<R: Rng>(
    train: &Dataset,
    gan_cfg: &AmGanConfig,
    det_cfg: &TrainConfig,
    augment_per_class: usize,
    augment_benign: usize,
    members: usize,
    rng: &mut R,
    timings: &mut StageTimings,
) -> (Vaccination, evax_nn::Ensemble) {
    assert!(members > 0, "an ensemble needs at least one member");
    let vac = vaccinate(
        train,
        gan_cfg,
        det_cfg,
        augment_per_class,
        augment_benign,
        rng,
        timings,
    );
    let mut committee: Vec<Box<dyn evax_nn::Detector>> = vec![Box::new(vac.model())];
    for _ in 1..members {
        // One derived stream per member: augmentation draw + weight init.
        let mut member_rng = StdRng::seed_from_u64(rng.gen());
        let stage_start = std::time::Instant::now();
        let augmented = vac
            .gan
            .augment(train, augment_per_class, augment_benign, &mut member_rng);
        let mut det = Detector::train(
            DetectorKind::Evax,
            &augmented,
            vac.engineered.clone(),
            det_cfg,
            &mut member_rng,
        );
        det.tune_above_benign(train, 0.9995, 0.05);
        timings.vaccinate_secs += stage_start.elapsed().as_secs_f64();
        committee.push(Box::new(det.to_model()));
    }
    let ensemble = evax_nn::Ensemble::new(committee);
    (vac, ensemble)
}

/// Trains a vaccinated EVAX detector for one training split — the single
/// `AM-GAN → engineer → augment → train → tune` sequence shared by the
/// offline pipeline and every leave-one-out fold.
///
/// Stage wall-clock is accumulated into `timings` (`gan_secs`,
/// `engineer_secs`, `vaccinate_secs`); callers that do not report timings
/// pass a throwaway [`StageTimings`].
pub fn vaccinate<R: Rng>(
    train: &Dataset,
    gan_cfg: &AmGanConfig,
    det_cfg: &TrainConfig,
    augment_per_class: usize,
    augment_benign: usize,
    rng: &mut R,
    timings: &mut StageTimings,
) -> Vaccination {
    vaccinate_with_metrics(
        train,
        gan_cfg,
        det_cfg,
        augment_per_class,
        augment_benign,
        rng,
        timings,
        &MetricsSink::default(),
    )
}

/// [`vaccinate`] with observability: GAN round telemetry (via
/// [`AmGan::train_with_metrics`]), stage span timers and sample/parameter
/// tallies. Recording never touches `rng`, so artifacts are bit-identical
/// to [`vaccinate`]'s.
#[allow(clippy::too_many_arguments)]
pub fn vaccinate_with_metrics<R: Rng>(
    train: &Dataset,
    gan_cfg: &AmGanConfig,
    det_cfg: &TrainConfig,
    augment_per_class: usize,
    augment_benign: usize,
    rng: &mut R,
    timings: &mut StageTimings,
    metrics: &MetricsSink,
) -> Vaccination {
    // 1. Train the AM-GAN on seen data.
    let stage_start = std::time::Instant::now();
    let span = metrics.span("pipeline.gan_wall_ns");
    let gan = AmGan::train_with_metrics(train, gan_cfg, rng, metrics);
    drop(span);
    metrics.record_max("nn.generator_params", gan.generator().param_count() as u64);
    timings.gan_secs += stage_start.elapsed().as_secs_f64();

    // 2. Mine the Generator for engineered security HPCs ("we use a set of
    //    fixed features ... we retrain the weights at each fold" — the
    //    mining arity/count is fixed).
    let stage_start = std::time::Instant::now();
    let schema = evax_sim::FeatureSchema::for_dim(train.feature_dim());
    let engineered = engineer_features(gan.generator(), N_ENGINEERED, 2, &schema.names_vec());
    timings.engineer_secs += stage_start.elapsed().as_secs_f64();

    // 3. Vaccinate: augment with generated samples, train the detector on
    //    the extended (base + engineered) feature space.
    let stage_start = std::time::Instant::now();
    let span = metrics.span("pipeline.vaccinate_wall_ns");
    let augmented = gan.augment(train, augment_per_class, augment_benign, rng);
    metrics.add("pipeline.train_samples", train.len() as u64);
    metrics.add("pipeline.augmented_samples", augmented.len() as u64);
    metrics.add("pipeline.engineered_features", engineered.len() as u64);
    let mut detector = Detector::train(
        DetectorKind::Evax,
        &augmented,
        engineered.clone(),
        det_cfg,
        rng,
    );
    // Sensitivity is tuned on *real* attack samples — the requirement
    // "detect before leakage" applies to actual attacks, not to the
    // Generator's hard synthetic points.
    detector.tune_above_benign(train, 0.9995, 0.05);
    drop(span);
    timings.vaccinate_secs += stage_start.elapsed().as_secs_f64();

    Vaccination {
        gan,
        engineered,
        detector,
    }
}

/// Evaluation summary on the holdout set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoldoutReport {
    /// EVAX detector accuracy.
    pub accuracy: f64,
    /// EVAX confusion counts.
    pub confusion: Confusion,
    /// PerSpectron baseline accuracy on the same holdout.
    pub perspectron_accuracy: f64,
    /// PerSpectron confusion counts.
    pub perspectron_confusion: Confusion,
}

/// The trained pipeline and all its artifacts.
#[derive(Debug, Clone)]
pub struct EvaxPipeline {
    /// The training split.
    pub train: Dataset,
    /// The holdout split.
    pub holdout: Dataset,
    /// The normalizer fitted during collection.
    pub normalizer: Normalizer,
    /// The trained AM-GAN.
    pub gan: AmGan,
    /// The 12 engineered security HPCs (Table I).
    pub engineered: Vec<EngineeredFeature>,
    /// The vaccinated EVAX detector.
    pub evax: Detector,
    /// The PerSpectron baseline.
    pub perspectron: Detector,
    /// The configuration used.
    pub config: EvaxConfig,
    /// Sampling interval used during collection (for FP/instruction rates).
    pub sample_interval: u64,
    /// Wall-clock breakdown of the offline stages.
    pub timings: StageTimings,
}

impl EvaxPipeline {
    /// Runs the full offline pipeline.
    pub fn run(cfg: &EvaxConfig, seed: u64) -> EvaxPipeline {
        EvaxPipeline::run_with_metrics(cfg, seed, &MetricsSink::default())
    }

    /// [`run`](Self::run) with observability: per-stage span timers, sample
    /// tallies, simulator/GAN telemetry from the instrumented stages. With
    /// the default no-op sink this is exactly [`run`](Self::run); with a
    /// recording sink the trained artifacts are still bit-identical
    /// (recording never feeds back into collection or training).
    ///
    /// # Panics
    /// Panics if `cfg` fails [`EvaxConfig::validate`], before any
    /// collection.
    pub fn run_with_metrics(cfg: &EvaxConfig, seed: u64, metrics: &MetricsSink) -> EvaxPipeline {
        if let Err(e) = cfg.validate() {
            panic!("EVAX pipeline: {e}");
        }
        let mut timings = StageTimings::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let stage_start = std::time::Instant::now();
        let span = metrics.span("pipeline.collect_wall_ns");
        let (dataset, stats) = collect_dataset_stats_with(&cfg.collect, seed, metrics);
        let normalizer = stats.normalizer();
        drop(span);
        let (train, holdout) = dataset.split(cfg.holdout, &mut rng);
        timings.collect_secs = stage_start.elapsed().as_secs_f64();

        // 1.–3. The shared vaccination sequence: AM-GAN → engineered
        //        security HPCs → augment → train → sensitivity tune.
        let Vaccination {
            gan,
            engineered,
            detector: evax,
        } = vaccinate_with_metrics(
            &train,
            &cfg.gan,
            &cfg.detector,
            cfg.augment_per_class,
            cfg.augment_benign,
            &mut rng,
            &mut timings,
            metrics,
        );

        // 4. Train the PerSpectron baseline: seen data only, no engineered
        //    features, no vaccination.
        let stage_start = std::time::Instant::now();
        let span = metrics.span("pipeline.baseline_wall_ns");
        let mut perspectron = Detector::train(
            DetectorKind::PerSpectron,
            &train,
            vec![],
            &cfg.detector,
            &mut rng,
        );
        perspectron.tune_above_benign(&train, 0.9995, 0.05);
        drop(span);
        timings.baseline_secs = stage_start.elapsed().as_secs_f64();

        EvaxPipeline {
            train,
            holdout,
            normalizer,
            gan,
            engineered,
            evax,
            perspectron,
            config: cfg.clone(),
            sample_interval: cfg.collect.interval,
            timings,
        }
    }

    /// The deployable window→feature transform for the EVAX detector:
    /// collection-time normalization plus the mined engineered projection.
    /// Persist it alongside the detector (see [`crate::io`]) so train-time
    /// and deploy-time featurization can never diverge.
    pub fn featurizer(&self) -> Featurizer {
        Featurizer::new(self.normalizer.clone(), self.engineered.clone())
    }

    /// Evaluates both detectors on the holdout split, within the
    /// collection stage's thread budget.
    pub fn evaluate_holdout(&self) -> HoldoutReport {
        let par = self.config.collect.parallelism;
        let c = Confusion::evaluate(&self.evax, &self.holdout, par);
        let p = Confusion::evaluate(&self.perspectron, &self.holdout, par);
        HoldoutReport {
            accuracy: c.accuracy(),
            confusion: c,
            perspectron_accuracy: p.accuracy(),
            perspectron_confusion: p,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_pipeline_end_to_end() {
        // Slow (full collect + GAN + train): opt in via EVAX_SLOW_TESTS=1,
        // as the CI slow step does.
        if std::env::var("EVAX_SLOW_TESTS").is_err() {
            eprintln!("skipping small_pipeline_end_to_end; set EVAX_SLOW_TESTS=1 to run");
            return;
        }
        let mut cfg = EvaxConfig::small();
        cfg.collect.runs_per_attack = 1;
        cfg.collect.runs_per_benign = 1;
        cfg.collect.max_instrs = 3_000;
        cfg.gan.epochs = 4;
        let p = EvaxPipeline::run(&cfg, 42);
        assert_eq!(p.engineered.len(), crate::feature_engineering::N_ENGINEERED);
        let report = p.evaluate_holdout();
        assert!(report.accuracy > 0.6, "accuracy {}", report.accuracy);
        assert!(
            report.accuracy >= report.perspectron_accuracy - 0.05,
            "EVAX should not trail PerSpectron: {} vs {}",
            report.accuracy,
            report.perspectron_accuracy
        );
    }

    #[test]
    fn default_validates() {
        EvaxConfig::default().validate().unwrap();
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        use crate::error::EvaxError;
        let with = |f: fn(&mut EvaxConfig)| {
            let mut cfg = EvaxConfig::default();
            f(&mut cfg);
            cfg
        };
        let cases = [
            (with(|c| c.collect.interval = 0), "collect.interval"),
            (with(|c| c.collect.max_instrs = 0), "collect.max_instrs"),
            (
                // Interval beyond the budget: zero windows per run.
                with(|c| {
                    c.collect.interval = 50_000;
                    c.collect.max_instrs = 1_000;
                }),
                "collect.interval",
            ),
            (
                with(|c| {
                    c.collect.runs_per_attack = 0;
                    c.collect.runs_per_benign = 0;
                }),
                "collect.runs_per_attack/runs_per_benign",
            ),
            (with(|c| c.holdout = 0.0), "holdout"),
            (with(|c| c.holdout = 1.0), "holdout"),
            (with(|c| c.tpr_target = 0.0), "tpr_target"),
            (with(|c| c.tpr_target = 1.5), "tpr_target"),
        ];
        for (cfg, field) in cases {
            match cfg.validate() {
                Err(EvaxError::Config { what, .. }) => {
                    assert_eq!(what, field, "wrong field blamed");
                }
                other => panic!("expected Config error for {field}, got {other:?}"),
            }
        }
    }

    #[test]
    fn run_rejects_a_degenerate_holdout_before_collecting() {
        let cfg = EvaxConfig {
            holdout: 1.0,
            ..EvaxConfig::small()
        };
        let registry = evax_obs::Registry::shared();
        let metrics = MetricsSink::recording(&registry);
        let panic = std::panic::catch_unwind(|| EvaxPipeline::run_with_metrics(&cfg, 7, &metrics))
            .expect_err("a holdout of 1.0 leaves nothing to train on");
        let msg = panic.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("holdout"), "{msg}");
        assert!(
            registry.snapshot().is_empty(),
            "the check must run before any collection"
        );
    }
}
