//! Leave-one-attack-out cross-validation — the paper's zero-day setting
//! (§VII *Cross Validation Setting*, §VIII-C, Fig. 19).
//!
//! "At every fold, we remove all the samples belonging to one attack in the
//! test set so that they are not used for model selection or AM-GAN
//! training. ... We use a set of fixed features ... but we retrain the
//! weights at each fold."

use evax_attacks::AttackClass;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::collect::CollectConfig;
use crate::dataset::{Dataset, Normalizer};
use crate::detector::{Detector, DetectorKind, TrainConfig};
use crate::fuzz::{collect_corpus, FuzzTool};
use crate::gan::AmGanConfig;
use crate::metrics::Confusion;
use crate::par::{self, Parallelism};
use crate::pipeline::{vaccinate, StageTimings};

/// K-fold experiment configuration.
#[derive(Debug, Clone)]
pub struct KfoldConfig {
    /// AM-GAN training configuration (per fold).
    pub gan: AmGanConfig,
    /// Detector training configuration.
    pub detector: TrainConfig,
    /// Generated attack samples per class for vaccination.
    pub augment_per_class: usize,
    /// Generated benign samples for vaccination.
    pub augment_benign: usize,
    /// Fuzz programs per tool for the P.Fuzzer baseline.
    pub fuzz_programs_per_tool: usize,
    /// Collection config for the fuzz corpus.
    pub collect: CollectConfig,
    /// Sensitivity target when tuning detector thresholds.
    pub tpr_target: f64,
    /// Worker threads for the fold fan-out. Each fold's random stream is
    /// derived from the master seed and the fold index alone, so outcomes
    /// are bit-identical at any setting (see [`crate::par`]).
    pub parallelism: Parallelism,
}

impl Default for KfoldConfig {
    fn default() -> Self {
        KfoldConfig {
            gan: AmGanConfig::small(),
            detector: TrainConfig::default(),
            augment_per_class: 60,
            augment_benign: 200,
            fuzz_programs_per_tool: 2,
            collect: CollectConfig {
                runs_per_attack: 1,
                runs_per_benign: 1,
                ..Default::default()
            },
            tpr_target: 0.5,
            parallelism: Parallelism::Auto,
        }
    }
}

/// Per-fold, per-detector results.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldOutcome {
    /// The held-out attack class.
    pub class: AttackClass,
    /// TPR on the held-out class, per detector.
    pub tpr: DetectorTriple<f64>,
    /// Generalization error on held-out attack + benign holdout.
    pub error: DetectorTriple<f64>,
}

/// A value per compared detector: PerSpectron, fuzz-hardened PerSpectron
/// ("P.Fuzzer"), and EVAX.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DetectorTriple<T> {
    /// Plain PerSpectron baseline.
    pub perspectron: T,
    /// PerSpectron hardened with fuzz-tool samples.
    pub pfuzzer: T,
    /// The vaccinated EVAX detector.
    pub evax: T,
}

/// Runs leave-one-out folds for the given classes.
///
/// `dataset` must contain samples of every fold class plus benign samples;
/// `norm` is the normalizer fitted during collection (needed to normalize
/// the fuzz corpus consistently).
pub fn leave_one_out(
    dataset: &Dataset,
    norm: &Normalizer,
    classes: &[AttackClass],
    cfg: &KfoldConfig,
    seed: u64,
) -> Vec<FoldOutcome> {
    // The fuzz corpus is generated once; folds filter out their held-out
    // class so the baseline never trains on the attack it is tested on.
    let fuzz_all = collect_corpus(
        &[FuzzTool::Transynther, FuzzTool::TrRespass, FuzzTool::Osiris],
        cfg.fuzz_programs_per_tool,
        &cfg.collect,
        norm,
        seed ^ 0xFA77,
    );

    // Folds are independent by construction — each derives its random
    // stream from the master seed and its fold index alone — so they fan
    // out across workers and merge back in class order.
    par::map_indexed(cfg.parallelism, classes, |fold, &class| {
        run_fold(dataset, &fuzz_all, class, fold, cfg, seed)
    })
}

/// Runs one leave-one-out fold: retrains all three detectors without the
/// held-out class and scores them on it.
fn run_fold(
    dataset: &Dataset,
    fuzz_all: &Dataset,
    class: AttackClass,
    fold: usize,
    cfg: &KfoldConfig,
    seed: u64,
) -> FoldOutcome {
    {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(fold as u64 * 1315423911));
        let mut train = dataset.clone();
        let held_out = train.remove_class(class.label());
        // Benign holdout for error measurement: the benign part of the
        // split's 20% test half. Its malicious part is dropped — it neither
        // trains nor scores.
        let (train, benign_holdout) = {
            let (tr, mut te) = train.split(0.2, &mut rng);
            te.samples.retain(|s| !s.malicious);
            (tr, te)
        };
        let mut test = held_out;
        for s in &benign_holdout.samples {
            test.push(s.clone());
        }

        // --- PerSpectron ---
        let mut perspectron = Detector::train(
            DetectorKind::PerSpectron,
            &train,
            vec![],
            &cfg.detector,
            &mut rng,
        );
        perspectron.tune_above_benign(&train, 0.9995, 0.05);

        // --- P.Fuzzer: PerSpectron + fuzz corpus (held-out class removed) ---
        let mut fuzz_train = train.clone();
        for s in &fuzz_all.samples {
            if s.class != class.label() {
                fuzz_train.push(s.clone());
            }
        }
        let mut pfuzzer = Detector::train(
            DetectorKind::PerSpectron,
            &fuzz_train,
            vec![],
            &cfg.detector,
            &mut rng,
        );
        pfuzzer.tune_above_benign(&fuzz_train, 0.9995, 0.05);

        // --- EVAX: the shared vaccination sequence (AM-GAN → engineer →
        //     augment → train → tune) on the fold's training data ---
        let evax = vaccinate(
            &train,
            &cfg.gan,
            &cfg.detector,
            cfg.augment_per_class,
            cfg.augment_benign,
            &mut rng,
            &mut StageTimings::default(),
        )
        .detector;

        // Evaluation dispatches through the trait-level model view — the
        // same path hardened variants (stochastic/ensemble) take — which is
        // bit-identical to the inherent scoring chain for the concrete
        // detector (see `evax_nn::detector`'s pinning contract).
        let triple = |det: &Detector| {
            let mut attack_only = Dataset::new();
            for s in test.samples.iter().filter(|s| s.malicious) {
                attack_only.push(s.clone());
            }
            let model: &dyn evax_nn::detector::Detector = det;
            let tpr = Confusion::evaluate_model(det, model, &attack_only, cfg.parallelism).tpr();
            let err = Confusion::evaluate_model(det, model, &test, cfg.parallelism).error();
            (tpr, err)
        };
        let (p_tpr, p_err) = triple(&perspectron);
        let (f_tpr, f_err) = triple(&pfuzzer);
        let (e_tpr, e_err) = triple(&evax);
        FoldOutcome {
            class,
            tpr: DetectorTriple {
                perspectron: p_tpr,
                pfuzzer: f_tpr,
                evax: e_tpr,
            },
            error: DetectorTriple {
                perspectron: p_err,
                pfuzzer: f_err,
                evax: e_err,
            },
        }
    }
}

/// Mean generalization error over folds, per detector (Fig. 19's summary).
pub fn mean_errors(folds: &[FoldOutcome]) -> DetectorTriple<f64> {
    let n = folds.len().max(1) as f64;
    DetectorTriple {
        perspectron: folds.iter().map(|f| f.error.perspectron).sum::<f64>() / n,
        pfuzzer: folds.iter().map(|f| f.error.pfuzzer).sum::<f64>() / n,
        evax: folds.iter().map(|f| f.error.evax).sum::<f64>() / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::collect_dataset;

    #[test]
    #[ignore = "slow: runs simulation + GAN training; exercised by the experiments harness"]
    fn single_fold_runs_end_to_end() {
        let collect = CollectConfig {
            interval: 200,
            runs_per_attack: 1,
            runs_per_benign: 1,
            max_instrs: 3_000,
            benign_scale: 3_000,
            ..Default::default()
        };
        let (ds, norm) = collect_dataset(&collect, 3);
        let cfg = KfoldConfig {
            gan: AmGanConfig {
                epochs: 3,
                ..AmGanConfig::small()
            },
            fuzz_programs_per_tool: 1,
            collect,
            ..Default::default()
        };
        let folds = leave_one_out(&ds, &norm, &[AttackClass::Drama], &cfg, 5);
        assert_eq!(folds.len(), 1);
        let f = &folds[0];
        assert!(f.tpr.evax >= 0.0 && f.tpr.evax <= 1.0);
        assert!(f.error.perspectron >= 0.0 && f.error.perspectron <= 1.0);
    }

    /// Fold fan-out equivalence: outcomes are byte-identical whether folds
    /// run serially or across more workers than this machine has cores.
    /// Slow (two full k-fold runs with GAN training), so it is gated the
    /// same way as the end-to-end pipeline test.
    #[test]
    fn parallel_folds_match_serial_bitwise() {
        if std::env::var("EVAX_SLOW_TESTS").is_err() {
            eprintln!("skipping parallel_folds_match_serial_bitwise: set EVAX_SLOW_TESTS=1");
            return;
        }
        let collect = CollectConfig {
            interval: 200,
            runs_per_attack: 1,
            runs_per_benign: 1,
            max_instrs: 3_000,
            benign_scale: 3_000,
            parallelism: Parallelism::serial(),
            ..Default::default()
        };
        let (ds, norm) = collect_dataset(&collect, 3);
        let base = KfoldConfig {
            gan: AmGanConfig {
                epochs: 2,
                ..AmGanConfig::small()
            },
            fuzz_programs_per_tool: 1,
            collect,
            parallelism: Parallelism::serial(),
            ..Default::default()
        };
        let classes = [AttackClass::Drama, AttackClass::FlushReload];
        let serial = leave_one_out(&ds, &norm, &classes, &base, 5);
        let mut par_cfg = base.clone();
        par_cfg.parallelism = Parallelism::Fixed(4);
        par_cfg.collect.parallelism = Parallelism::Fixed(3);
        let parallel = leave_one_out(&ds, &norm, &classes, &par_cfg, 5);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn mean_errors_averages() {
        let folds = vec![
            FoldOutcome {
                class: AttackClass::Drama,
                tpr: DetectorTriple::default(),
                error: DetectorTriple {
                    perspectron: 0.2,
                    pfuzzer: 0.1,
                    evax: 0.02,
                },
            },
            FoldOutcome {
                class: AttackClass::Lvi,
                tpr: DetectorTriple::default(),
                error: DetectorTriple {
                    perspectron: 0.4,
                    pfuzzer: 0.3,
                    evax: 0.04,
                },
            },
        ];
        let m = mean_errors(&folds);
        assert!((m.perspectron - 0.3).abs() < 1e-12);
        assert!((m.evax - 0.03).abs() < 1e-12);
    }
}
